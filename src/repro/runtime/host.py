"""The one worker host: child processes that write DATA bodies into pipes.

``multiprocess`` (workers and reducers) and the ``parmonc-pool`` daemon
start every child here, with the write end of a private
``Pipe(duplex=False)`` whose parent copy is closed after the fork.
:meth:`WorkerHost.read` waits on every reader and sentinel at once and
returns a child's bodies in order, then — once its pipe is drained —
its exit: drain-before-verdict is structural, and a child killed
mid-body tears only its own pipe.  A child may instead write into a
tree edge (:meth:`WorkerHost.pipe`) that another child reads; the
parent keeps edge write ends for respawns, so under ``fork`` every
child closes the ones it inherited.  One thread reads (:meth:`read`,
:meth:`stop`, :meth:`close`); any may :meth:`start`, :meth:`terminate`
or :meth:`interrupt`.
"""

from __future__ import annotations

import threading
import time
from multiprocessing.connection import wait

__all__ = ["WorkerHost"]

#: How long a terminated child gets to die before it is killed.
_TERMINATE_SECONDS = 2.0

#: ``Process.start`` reaps every finished child of the interpreter, so
#: a start on one thread would race a join on another for the same
#: exit status; every host forks and reaps under this one lock.
_REAP = threading.Lock()


def _child_main(target, inherited, args, kwargs) -> None:
    for connection in inherited:
        connection.close()
    target(*args, **kwargs)


class WorkerHost:
    """Child processes keyed by the caller, each read through one pipe.

    Args:
        context: The ``multiprocessing`` context children start from.
    """

    def __init__(self, context) -> None:
        self._context = context
        self._children: dict = {}  # key -> (process, reader or None)
        self._lock = threading.Lock()
        self._edges: set = set()   # edge write ends the parent keeps
        self._wake_reader, self._wake_writer = context.Pipe(duplex=False)
        self._interrupted = False

    def keys(self) -> list:
        """Every child not yet reported exited."""
        with self._lock:
            return list(self._children)

    def pipe(self) -> tuple:
        """A tree edge ``(reader, writer)`` for one child to write into."""
        reader, writer = self._context.Pipe(duplex=False)
        self._edges.add(writer)
        return reader, writer

    def release(self, *connections) -> None:
        """Close pipe ends the parent no longer needs."""
        for connection in connections:
            self._edges.discard(connection)
            connection.close()

    def start(self, key, target, *args, outbox=None, **kwargs) -> int:
        """Fork ``target(*args, outbox, **kwargs)``; return its pid.

        ``outbox`` defaults to a private pipe :meth:`read` drains; an
        edge write end (:meth:`pipe`) is read by another child.
        """
        inherited = ([edge for edge in self._edges if edge is not outbox]
                     if self._context.get_start_method() == "fork" else [])
        # Under the lock, no fork on another thread inherits this
        # child's private write end before the parent's copy is closed.
        with _REAP:
            reader = None
            if outbox is None:
                reader, outbox = self._context.Pipe(duplex=False)
            process = self._context.Process(
                target=_child_main,
                args=(target, inherited, (*args, outbox), kwargs),
                daemon=True)
            process.start()
            if reader is not None:
                outbox.close()  # the child holds the only write end now
        # Read before it is published: a reader on another thread may
        # report a quick child's exit, and close it, at once.
        pid = process.pid
        with self._lock:
            self._children[key] = (process, reader)
        self._wake_writer.send_bytes(b"")  # a read in progress waits on it
        return pid

    def read(self, timeout: float | None = None):
        """``(key, body)``, or ``(key, exitcode)`` once a child exited
        and its pipe is drained (it is then forgotten); None on timeout
        or after :meth:`interrupt`.  Children take turns."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._interrupted:
            with self._lock:
                children = list(self._children.items())
            waitables = [self._wake_reader]
            for _, (process, reader) in children:
                waitables.append(process.sentinel)
                if reader is not None:
                    waitables.append(reader)
            ready = set(wait(waitables, None if deadline is None else
                             max(0.0, deadline - time.monotonic())))
            if not ready:
                return None
            while self._wake_reader in ready and self._wake_reader.poll():
                self._wake_reader.recv_bytes()
            for key, (process, reader) in children:
                exited = process.sentinel in ready
                # A dead child's last bytes may have landed after the
                # wait looked at its pipe: look again before the exit.
                if reader is not None and (
                        reader in ready or exited and reader.poll()):
                    try:
                        body = reader.recv_bytes()
                    except (EOFError, OSError):  # closed, or torn mid-body
                        reader.close()
                        with self._lock:
                            self._children[key] = (process, None)
                    else:
                        with self._lock:  # take a turn: go to the back
                            self._children[key] = self._children.pop(key)
                        return key, body
                if exited:  # dead, and nothing of it is left to read
                    return key, self._forget(key)
        return None

    def interrupt(self) -> None:
        """Make the current and every later :meth:`read` return None."""
        self._interrupted = True
        self._wake_writer.send_bytes(b"")

    def terminate(self, keys) -> None:
        """Signal these children to stop."""
        with self._lock:
            for key in keys:
                if key in self._children:
                    self._children[key][0].terminate()

    def stop(self, keys) -> None:
        """Terminate these children, reap them and close their pipes."""
        self.terminate(keys)
        for key in keys:
            self._forget(key)

    def close(self) -> None:
        """Stop every child and close every pipe the host holds."""
        self.stop(self.keys())
        self.release(*self._edges, self._wake_reader, self._wake_writer)

    def _forget(self, key) -> int:
        with self._lock:
            process, reader = self._children.pop(key)
        with _REAP:
            process.join(_TERMINATE_SECONDS)
            if process.exitcode is None:  # deaf to SIGTERM
                process.kill()
                process.join()
            exitcode = process.exitcode
            process.close()
        if reader is not None:
            reader.close()
        return exitcode
