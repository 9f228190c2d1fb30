"""The ``parmonc-pool`` command: serve local workers to remote runs.

Start one pool per machine you want to contribute::

    $ parmonc-pool --port 9737 --workers 8

then point a run at it (from any host that can reach the port)::

    $ parmonc-run mymodel:one_trajectory --maxsv 100000 \\
          --backend distributed --connect nodeA:9737,nodeB:9737 \\
          --on-worker-death reassign

Pools may start before or *after* the run — a late pool joins mid-run
and receives whatever assignments are still pending.  The command
serves on its main thread (``PoolServer.serve``, a plain blocking
call); Ctrl-C stops it, and it exits once every worker process it
started is stopped.  See ``docs/protocol.md`` for the wire format and
``docs/user-guide.md`` for a two-host walkthrough.
"""

from __future__ import annotations

import argparse
import logging
import sys

from repro.runtime.pool import DEFAULT_POOL_PORT, PoolServer

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    """Build the parmonc-pool argument parser."""
    parser = argparse.ArgumentParser(
        prog="parmonc-pool",
        description="Serve local worker processes to distributed "
                    "parmonc runs over TCP.")
    parser.add_argument("--bind", default="127.0.0.1",
                        help="interface to listen on (default loopback; "
                             "use 0.0.0.0 to serve other hosts — the "
                             "protocol executes the run's realization "
                             "routine, so only expose trusted networks)")
    parser.add_argument("--port", type=int, default=DEFAULT_POOL_PORT,
                        help=f"TCP port (default {DEFAULT_POOL_PORT}; "
                             f"0 picks a free one)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (slots) a session keeps "
                             "(default: CPU count)")
    parser.add_argument("--start-method", default=None,
                        choices=("fork", "spawn", "forkserver"),
                        help="multiprocessing start method for worker "
                             "processes")
    parser.add_argument("--heartbeat-interval", type=float, default=1.0,
                        help="seconds between liveness heartbeats to "
                             "connected runs")
    parser.add_argument("--session-timeout", type=float, default=60.0,
                        help="seconds of run silence before its session "
                             "is dropped and its workers reclaimed")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="log every session and worker event")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(levelname)s %(message)s")
    server = PoolServer(
        host=args.bind, port=args.port, workers=args.workers,
        start_method=args.start_method,
        heartbeat_interval=args.heartbeat_interval,
        session_timeout=args.session_timeout)

    class _Announcer:
        """Print the bound address the moment the socket is up."""

        def set(self) -> None:
            print("parmonc-pool listening on %s:%d" % server.address,
                  flush=True)

    try:
        server.serve(_Announcer())
    except KeyboardInterrupt:
        print("parmonc-pool: interrupted, shutting down", file=sys.stderr)
    except OSError as exc:
        print(f"parmonc-pool: cannot bind {args.bind}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
