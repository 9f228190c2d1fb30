"""The ``parmonc-run`` command: launch a simulation from the shell.

The user supplies the realization routine as ``module:function`` (any
importable module, including a plain ``.py`` file on the path), plus the
``parmoncc`` arguments::

    $ parmonc-run mymodel:one_trajectory --nrow 1000 --ncol 2 \\
          --maxsv 100000 --processors 8 --backend multiprocess

This plays the role of the paper's tiny C ``main()`` that does nothing
but call ``parmoncc``.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

from repro.core.parmonc import parmonc
from repro.exceptions import ConfigurationError, ReproError
from repro.runtime.engine import available_backends

__all__ = ["main", "load_routine"]


def load_routine(spec: str):
    """Resolve a ``module:function`` specification to a callable."""
    module_name, separator, attribute = spec.partition(":")
    if not separator or not module_name or not attribute:
        raise ConfigurationError(
            f"routine spec must look like 'module:function', got {spec!r}")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigurationError(
            f"cannot import module {module_name!r}: {exc}") from exc
    try:
        routine = getattr(module, attribute)
    except AttributeError as exc:
        raise ConfigurationError(
            f"module {module_name!r} has no attribute "
            f"{attribute!r}") from exc
    if not callable(routine):
        raise ConfigurationError(
            f"{spec!r} resolved to a non-callable "
            f"{type(routine).__name__}")
    return routine


def build_parser() -> argparse.ArgumentParser:
    """Build the parmonc-run argument parser."""
    parser = argparse.ArgumentParser(
        prog="parmonc-run",
        description="Run a parallel stochastic simulation for a "
                    "user-supplied realization routine.")
    parser.add_argument("routine", nargs="?", default=None,
                        help="realization routine as module:function")
    parser.add_argument("--list-backends", action="store_true",
                        help="list every registered backend (including "
                             "lazily-registered ones) and exit")
    parser.add_argument("--nrow", type=int, default=1)
    parser.add_argument("--ncol", type=int, default=1)
    parser.add_argument("--maxsv", type=int, default=None,
                        help="maximal total sample volume (required "
                             "unless --list-backends)")
    parser.add_argument("--res", type=int, choices=(0, 1), default=0,
                        help="0 = new simulation, 1 = resume previous")
    parser.add_argument("--seqnum", type=int, default=0,
                        help="experiments subsequence number")
    parser.add_argument("--perpass", type=float, default=1.0,
                        help="seconds between worker data passes")
    parser.add_argument("--peraver", type=float, default=5.0,
                        help="seconds between collector saves")
    parser.add_argument("--processors", "-M", type=int, default=1)
    parser.add_argument("--backend", choices=available_backends(),
                        default="sequential")
    parser.add_argument("--connect", default=None,
                        help="distributed backend: comma-separated "
                             "parmonc-pool addresses (host:port[,...]); "
                             "unreachable pools are retried and may "
                             "join mid-run")
    parser.add_argument("--workdir", type=Path, default=Path.cwd())
    parser.add_argument("--time-limit", type=float, default=None,
                        help="job time limit in seconds")
    parser.add_argument("--telemetry", action="store_true",
                        help="record telemetry artifacts under "
                             "parmonc_data/telemetry (view with "
                             "parmonc-telemetry)")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="run the batched realization engine with "
                             "blocks of this many realizations (scalar "
                             "routines are wrapped automatically; "
                             "estimates are bit-identical)")
    parser.add_argument("--on-worker-death", choices=("fail", "reassign"),
                        default="fail",
                        help="policy when a worker dies short of its "
                             "final message: fail aborts the run "
                             "(default), reassign reruns the dead rank "
                             "on its own stream")
    parser.add_argument("--statistics", default=None,
                        help="comma-separated extra statistics to "
                             "accumulate alongside the moments "
                             "(e.g. 'covariance,histogram,extrema'; "
                             "'moments' is always included)")
    parser.add_argument("--reduction-fanout", type=int, default=None,
                        help="width of the hierarchical reduction tree: "
                             "interior reducer nodes coalesce their "
                             "subtree's snapshots so the collector "
                             "serves O(fanout) peers instead of O(M) "
                             "workers (estimates stay bit-identical; "
                             "default: flat worker-to-collector "
                             "exchange)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_backends:
        for name in available_backends():
            print(name)
        return 0
    if args.routine is None:
        parser.error("the routine argument is required "
                     "(unless --list-backends)")
    if args.maxsv is None:
        parser.error("--maxsv is required (unless --list-backends)")
    # Allow module:function specs relative to the working directory, the
    # way a user naturally runs `parmonc-run mymodel:f` next to mymodel.py.
    sys.path.insert(0, str(args.workdir))
    try:
        routine = load_routine(args.routine)
        result = parmonc(
            routine, nrow=args.nrow, ncol=args.ncol, maxsv=args.maxsv,
            res=args.res, seqnum=args.seqnum, perpass=args.perpass,
            peraver=args.peraver, processors=args.processors,
            backend=args.backend, workdir=args.workdir,
            time_limit=args.time_limit, telemetry=args.telemetry,
            batch_size=args.batch_size,
            on_worker_death=args.on_worker_death,
            statistics=args.statistics,
            reduction_fanout=args.reduction_fanout,
            connect=args.connect,
            # Pools import the routine by name instead of unpickling it.
            backend_options={"routine_spec": args.routine})
    except ReproError as exc:
        print(f"parmonc-run: error: {exc}", file=sys.stderr)
        return 2
    estimates = result.estimates
    print(result)
    print(f"total sample volume: {result.total_volume}")
    if estimates is not None:
        print(f"abs error upper bound: {estimates.abs_error_max:.6e}")
        print(f"rel error upper bound: {estimates.rel_error_max:.4f}%")
    for kind in sorted(result.statistics):
        print(f"statistic {kind}: "
              f"{result.statistics[kind].describe()}")
    if result.data_dir is not None:
        print(f"results under: {result.data_dir}")
    if result.telemetry is not None and result.telemetry["directory"]:
        print(f"telemetry under: {result.telemetry['directory']}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
