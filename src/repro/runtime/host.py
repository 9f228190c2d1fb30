"""The one worker host: the slots and reducers of both forking backends.

``multiprocess`` and ``parmonc-pool`` run every rank on a *slot*, forked
once and looping over assignments from a control pipe, each run through
:func:`~repro.runtime.worker.worker_process`: PARMONC's ranks start
once, then only compute and send.  A job reaches a slot as a SUBMIT
body, sent unless the slot decoded it last; a closure, or a tree rank
writing into its reducer's edge, runs on a *pinned* slot, forked with
``(routine, config)`` for that one rank.  Every child writes DATA bodies
into a private ``Pipe(duplex=False)`` or a tree edge, and under ``fork``
closes the write ends the parent keeps.  :meth:`WorkerHost.read` returns
a child's bodies in order (a slot's as its rank's, the final making it
idle), then, once its pipe is drained, its exit.  One thread reads
(``read``, ``stop``, ``close``); any may start, assign or signal.

Both ends of every pipe the host makes share one pair of counts, bodies
written and bodies read (:class:`CountedEnd`), so a writer learns that
its last body was taken by comparing two integers: the latest-wins
outbox of :func:`~repro.runtime.worker.worker_process` asks nothing else.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
import threading
import time
from contextlib import suppress
from multiprocessing.connection import wait

from repro.exceptions import WireError
from repro.runtime.messages import payload_is_final
from repro.runtime.wire import config_from_payload, routine_from_payload
from repro.runtime.worker import make_batched, worker_process

__all__ = ["CountedEnd", "WorkerHost", "decode_context"]

#: How long a terminated child gets to die before it is killed.
_TERMINATE_SECONDS = 2.0

#: The length prefix ``multiprocessing.connection.Connection`` frames a
#: body under 2 GiB with.
_LENGTH = struct.Struct("!i")

#: ``Process.start`` reaps every finished child of the interpreter, so
#: a start on one thread would race a join on another for the same
#: exit status; every host forks and reaps under this one lock.
_REAP = threading.Lock()


def _import_routine(spec: str):
    """``module:function`` resolver for SUBMIT spec payloads."""
    from repro.cli.run import load_routine
    return load_routine(spec)


def decode_context(submit: dict) -> tuple:
    """One ``(routine, config)`` context from a SUBMIT body."""
    try:
        config = config_from_payload(submit["config"])
        routine = routine_from_payload(submit["routine"], _import_routine)
    except KeyError as exc:
        raise WireError(f"submit frame misses {exc}") from exc
    batch_size = submit.get("batch_size")
    if batch_size and getattr(routine, "batch_size", None) is None:
        routine = make_batched(routine, int(batch_size))
    return routine, config


class CountedEnd:
    """One end of a host pipe and the pipe's shared ``counts``: bodies
    written (``counts[0]``, bumped once ``send_bytes`` returns) and bodies
    read (``counts[1]``, bumped once ``recv_bytes`` returns).

    ``send_bytes`` puts the connection's frame — the ``"!i"`` length,
    then the body — on the pipe in one ``writev``, where ``Connection``
    writes a body over 16 KiB as two; ``recv_bytes`` is the
    connection's own.

    Each count has one writing process at a time — the pipe's writer,
    the pipe's reader — and a torn body counts on neither side, so to
    the writer the counts agree exactly when every body it wrote has
    been read.  (The read count may run ahead until the writer's own
    bump lands; only the writer asks, after it.)  The counts are a
    ``RawArray`` handed to the child with its end, so they cross a
    ``fork``, ``spawn`` or ``forkserver`` start alike.
    """

    __slots__ = ("connection", "counts")

    def __init__(self, connection, counts) -> None:
        self.connection = connection
        self.counts = counts

    def send_bytes(self, body) -> None:
        size = len(body)
        if size > 0x7FFFFFFF:  # a longer length prefix: not ours to write
            self.connection.send_bytes(body)
        else:
            # fileno() raises on a closed handle, as send_bytes would.
            fd, header = self.connection.fileno(), _LENGTH.pack(size)
            left = _LENGTH.size + size - os.writev(fd, (header, body))
            while left:  # the pipe took part of the frame: write the rest
                if left > size:
                    parts = (header[-(left - size):], body)
                else:
                    parts = (memoryview(body)[size - left:],)
                left -= os.writev(fd, parts)
        self.counts[0] += 1

    def recv_bytes(self) -> bytes:
        body = self.connection.recv_bytes()
        self.counts[1] += 1
        return body

    def poll(self) -> bool:
        return self.connection.poll()

    def fileno(self) -> int:
        return self.connection.fileno()

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "CountedEnd":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _child_main(target, inherited, args, kwargs) -> None:
    for connection in inherited:
        connection.close()
    target(*args, **kwargs)


def _slot_main(control, outbox, context=None) -> None:
    """A slot: run every assignment ``control`` delivers into ``outbox``,
    with the context it inherited or decoded last, until the control
    pipe closes (a pinned slot's after one, or the parent died)."""
    while True:
        try:
            assignment = json.loads(control.recv_bytes())
        except EOFError:
            return
        if "submit" in assignment:
            context = decode_context(assignment.pop("submit"))
        worker_process(*context, outbox=outbox, **assignment)


class _Slot:
    """One slot's books, kept under its host's lock."""

    __slots__ = ("control", "context", "pid", "assignment")

    def __init__(self, control, context) -> None:
        self.control = control  # None once retired: it takes no more work
        self.context = context  # SUBMIT body decoded last, or pinned pair
        self.pid = None
        self.assignment = None  # (job, rank) it runs; None while idle


class WorkerHost:
    """Children read through one pipe each: the caller's, by its keys,
    and slots, keyed ``(job, serial)`` with job None unless pinned.

    Args:
        context: The ``multiprocessing`` context children start from.
    """

    def __init__(self, context) -> None:
        self._context = context
        self._children: dict = {}  # key -> (process, reader or None)
        self._slots: dict = {}     # slot key -> _Slot
        self._serials = itertools.count()
        self._lock = threading.RLock()
        self._edges: set = set()   # edge and control write ends it keeps
        self._wake_reader, self._wake_writer = context.Pipe(duplex=False)
        self._interrupted = False
        #: Slots forked (only when none idles), and ranks handed to them.
        self.slots_started = 0
        self.assignments_served = 0

    def keys(self) -> list:
        """Every child not yet reported exited."""
        with self._lock:
            return list(self._children)

    def running(self) -> list:
        """``(job, rank)`` of every busy slot."""
        with self._lock:
            return [slot.assignment for slot in self._slots.values()
                    if slot.assignment is not None]

    def pipe(self) -> tuple:
        """A tree edge or control pipe ``(reader, writer)`` to hand out."""
        reader, writer = self._counted(self._context.Pipe(duplex=False))
        self._edges.add(writer)
        return reader, writer

    def _counted(self, pipe) -> tuple:
        """``pipe``'s two ends, sharing one fresh pair of counts."""
        counts = self._context.RawArray("q", 2)
        return tuple(CountedEnd(end, counts) for end in pipe)

    def release(self, *connections) -> None:
        """Close pipe ends the parent no longer needs."""
        for connection in connections:
            self._edges.discard(connection)
            connection.close()

    def start(self, key, target, *args, outbox=None, **kwargs) -> int:
        """Fork ``target(*args, outbox, **kwargs)``, ``outbox`` a private
        pipe :meth:`read` drains or an edge's write end; return its pid."""
        inherited = ([edge for edge in self._edges if edge is not outbox]
                     if self._context.get_start_method() == "fork" else [])
        # Under the lock, no fork on another thread inherits this
        # child's private write end before the parent's copy is closed.
        with _REAP:
            reader = None
            if outbox is None:
                reader, outbox = self._counted(
                    self._context.Pipe(duplex=False))
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

    def assign(self, job, rank: int, quota: int, context, *, outbox=None,
               **limit) -> int:
        """Run ``rank`` of ``job`` on a slot; return the slot's pid.

        A SUBMIT body ``context`` goes to an idle slot, or a forked one;
        a ``(routine, config)`` pair — with an edge ``outbox``, if any —
        to a pinned slot forked with it.  ``limit`` is the ``deadline``
        or ``deadline_in`` :func:`worker_process` takes.
        """
        pinned = isinstance(context, tuple)
        body = {"rank": rank, "quota": quota, "job": job, **limit}
        with self._lock:
            slot = None if pinned else next(
                (slot for slot in self._slots.values()
                 if slot.assignment is None and slot.control is not None),
                None)
            if slot is None:
                reader, control = self.pipe()
                key = (job if pinned else None, next(self._serials))
                slot = self._slots[key] = _Slot(control,
                                                context if pinned else None)
                slot.pid = self.start(key, _slot_main, reader,
                                      outbox=outbox, context=slot.context)
                self.release(reader)  # the slot holds the read end now
                if outbox is not None:
                    self.release(outbox)  # and the edge's write end
                self.slots_started += 1
            if slot.context is not context:
                body["submit"] = slot.context = context
            slot.assignment = (job, rank)
            with suppress(OSError):  # a dead slot's exit reports the rank
                slot.control.send_bytes(json.dumps(body).encode("utf-8"))
            if pinned:
                self._retire(slot)  # this rank is its last
            self.assignments_served += 1
            return slot.pid

    def cancel(self, job) -> list:
        """Retire and signal the slots running ``job`` and its pinned
        ones; return their keys.  An idle slot serves on."""
        with self._lock:
            keys = [key for key, slot in self._slots.items()
                    if slot.assignment is not None
                    and slot.assignment[0] == job
                    or key[0] == job and slot.control is None]
            for key in keys:
                self._retire(self._slots[key])
            self.terminate(keys)
        return keys

    def read(self, timeout: float | None = None):
        """``(key, body)``, or ``(key, exitcode)`` once a child exited
        and its pipe is drained (it is then forgotten); for a slot, key
        is its ``(job, rank)``, and an idle one's exit goes unreported.
        None on timeout or after :meth:`interrupt`.  Children take
        turns."""
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
                            slot = self._slots.get(key)
                            if slot is not None:
                                key = slot.assignment
                                if payload_is_final(body):
                                    slot.assignment = None
                        return key, body
                if exited:  # dead, and nothing of it is left to read
                    exitcode, who = self._forget(key)
                    if who is not None:
                        return who, exitcode
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

    def _retire(self, slot: _Slot) -> None:
        """Close a slot's control pipe: it takes no assignment again."""
        if slot.control is not None:
            self.release(slot.control)
            slot.control = None

    def _forget(self, key) -> tuple:
        """Reap a child: ``(exitcode, key)``, a slot's key its rank or None."""
        with self._lock:
            process, reader = self._children.pop(key)
            slot = self._slots.pop(key, None)
            if slot is not None:
                self._retire(slot)
                key = slot.assignment
        with _REAP:
            process.join(_TERMINATE_SECONDS)
            if process.exitcode is None:  # deaf to SIGTERM
                process.kill()
                process.join()
            exitcode = process.exitcode
            process.close()
        if reader is not None:
            reader.close()
        return exitcode, key
