"""Durable, crash-safe artifact I/O for the ``parmonc_data`` tree.

PARMONC's recovery promise (§3.4/§3.6) — an abruptly killed job loses
no realization the collector had merged — only holds if the on-disk
artifacts are themselves crash-safe.  This module is the single place
where the persistence layer touches the filesystem:

* :func:`commit` is the one write routine: it replaces N files as one
  group — every temp written, the temps fsynced back to back, the
  renames in the order given, then each directory fsynced once, after
  its last rename — so after a crash at *any* instruction each target
  path holds either its complete old content or its complete new
  content, never a torn mix.  :func:`atomic_write_text`,
  :func:`write_sealed` and :func:`write_artifact` are its one-file
  case.
* :func:`sealed` frames a binary body with magic, version and format
  name and seals it with a SHA-256 digest of every byte before it;
  :func:`read_sealed` verifies the seal, so truncation or bit rot
  anywhere in the file is detected, not loaded.  The save-points are
  written this way.
* :func:`write_artifact` is the older JSON envelope (format,
  version, payload checksum).  Nothing in the library writes or reads
  it; save-points of the versions that did are refused (see
  :mod:`repro.runtime.files`).
* :func:`quarantine` renames a torn/corrupt artifact to ``*.corrupt``
  (keeping the evidence) instead of letting one bad file abort a whole
  recovery; listeners registered via :func:`add_quarantine_listener`
  observe every quarantine (the runtime forwards them to the
  ``storage.quarantined`` telemetry event).
* :func:`sweep_temp_files` removes ``*.tmp`` leftovers a crash may
  have stranded between write and rename.

Crash injection
---------------

Every I/O step is bracketed by **named crashpoints** — a failpoint
API in the style of libfailpoints/FreeBSD ``fail(9)``.  A crashpoint
does nothing in production.  Tests install a trigger with
:func:`install_crashpoint` (raising :class:`CrashInjected`, which
derives from ``BaseException`` so ordinary ``except Exception``
handlers cannot swallow the simulated kill), or export
``PARMONC_CRASHPOINT=<name>`` to make a *subprocess* die with
``os._exit(137)`` at the named point — the moral equivalent of a
SIGKILL mid-write.  :func:`trace_crashpoints` records which points a
scenario passes through, so a property test can kill a run at every
one of them and assert the all-old-or-all-new invariant.

Crashpoint names are ``<label>.<step>``, four per file.  In a commit
of files ``a, b, ...`` they fall in this order::

    a.before_write  a.after_write  b.before_write  b.after_write ...
        (every temp written; none fsynced yet at its after_write)
    fsync every temp, back to back
    a.before_rename a.after_rename b.before_rename b.after_rename ...
        (before_rename: every temp durable, this target still old;
         after_rename: this target new, its directory not yet fsynced)
    fsync each directory once

A crash before the first rename leaves every target old and only
``*.tmp`` debris; a crash between two renames leaves the earlier
targets new and the later ones old — which is why a job's completion
commit (:meth:`repro.runtime.files.DataDirectory.commit_session`)
renames the save-point first: once it is in place, the result files
are derivable from it (``manaver``), and the subtotals it absorbed are
recognised by their session tag.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import struct
from contextlib import ExitStack, contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

from repro.exceptions import (
    ArtifactVersionError,
    CorruptArtifactError,
)

__all__ = [
    "Artifact",
    "CrashInjected",
    "add_quarantine_listener",
    "atomic_write_text",
    "clear_crashpoints",
    "commit",
    "crashpoint",
    "crashpoint_installed",
    "durable_writes",
    "install_crashpoint",
    "payload_checksum",
    "quarantine",
    "read_sealed",
    "remove_quarantine_listener",
    "sealed",
    "sweep_temp_files",
    "trace_crashpoints",
    "uninstall_crashpoint",
    "utc_timestamp",
    "write_artifact",
    "write_sealed",
]

_logger = logging.getLogger(__name__)

#: Environment variable that turns a crashpoint into an ``os._exit`` —
#: the subprocess analogue of a SIGKILL at exactly that instruction.
CRASHPOINT_ENV = "PARMONC_CRASHPOINT"

#: Exit status used by environment-triggered crashpoints (mirrors the
#: shell's 128+SIGKILL convention so the parent sees a "killed" child).
CRASH_EXIT_CODE = 137

#: Set ``PARMONC_NO_FSYNC=1`` to skip fsync calls (CI speed knob; the
#: rename discipline alone still guarantees all-old-or-all-new against
#: process death, just not against power loss).
_NO_FSYNC_ENV = "PARMONC_NO_FSYNC"

_SUFFIX_TEMP = ".tmp"
_SUFFIX_CORRUPT = ".corrupt"


class CrashInjected(BaseException):
    """A test-installed crashpoint fired.

    Derives from ``BaseException`` so that the simulated kill rips
    through ``except Exception`` blocks the way a real SIGKILL would
    rip through everything.

    Attributes:
        crashpoint: Name of the crashpoint that fired.
    """

    def __init__(self, crashpoint_name: str) -> None:
        super().__init__(f"injected crash at crashpoint {crashpoint_name!r}")
        self.crashpoint = crashpoint_name


_triggers: dict[str, Callable[[str], None]] = {}
_traces: list[list[str]] = []


def _raise_crash(name: str) -> None:
    raise CrashInjected(name)


def crashpoint(name: str) -> None:
    """Pass through the named crashpoint; fire any installed trigger.

    In production this is a dictionary miss and an environment check.
    Under test a trigger installed for ``name`` runs here (the default
    trigger raises :class:`CrashInjected`); when the process environment
    carries ``PARMONC_CRASHPOINT=<name>`` the process dies on the spot
    with ``os._exit`` — buffers unflushed, handlers skipped, exactly
    like a kill signal.
    """
    for trace in _traces:
        trace.append(name)
    trigger = _triggers.get(name)
    if trigger is not None:
        trigger(name)
    if os.environ.get(CRASHPOINT_ENV) == name:
        os._exit(CRASH_EXIT_CODE)


def install_crashpoint(name: str,
                       trigger: Callable[[str], None] | None = None) -> None:
    """Arm ``name``; by default it raises :class:`CrashInjected`."""
    _triggers[name] = trigger if trigger is not None else _raise_crash


def uninstall_crashpoint(name: str) -> None:
    """Disarm ``name`` (no-op when not installed)."""
    _triggers.pop(name, None)


def clear_crashpoints() -> None:
    """Disarm every installed crashpoint."""
    _triggers.clear()


@contextmanager
def crashpoint_installed(name: str,
                         trigger: Callable[[str], None] | None = None
                         ) -> Iterator[None]:
    """Context manager: arm ``name`` on entry, disarm on exit."""
    install_crashpoint(name, trigger)
    try:
        yield
    finally:
        uninstall_crashpoint(name)


@contextmanager
def trace_crashpoints() -> Iterator[list[str]]:
    """Record every crashpoint passed while the context is active.

    Yields a list that accumulates crashpoint names in execution
    order.  A property test runs the scenario once under tracing, then
    re-runs it once per recorded name with that crashpoint armed.
    """
    trace: list[str] = []
    _traces.append(trace)
    try:
        yield trace
    finally:
        _traces.remove(trace)


# ---------------------------------------------------------------------------
# Durable writes

_durable_override: bool | None = None


def _durable() -> bool:
    if _durable_override is not None:
        return _durable_override
    return not os.environ.get(_NO_FSYNC_ENV)


@contextmanager
def durable_writes(enabled: bool) -> Iterator[None]:
    """Force fsync on (or off) regardless of ``PARMONC_NO_FSYNC``."""
    global _durable_override
    previous = _durable_override
    _durable_override = enabled
    try:
        yield
    finally:
        _durable_override = previous


def _fsync_dir(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystem refuses dir fsync
        pass
    finally:
        os.close(fd)


def utc_timestamp() -> str:
    """The ``written_at`` stamp of result files, registry and envelopes."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def temp_path(path: Path) -> Path:
    """The temp-file sibling an atomic write of ``path`` goes through."""
    return path.with_name(path.name + _SUFFIX_TEMP)


class Artifact(NamedTuple):
    """One file of a :func:`commit`: its path, full new content and
    crashpoint label."""

    path: Path
    data: bytes
    label: str


def _open_temp(path: Path):
    temp = temp_path(path)
    try:
        return temp.open("wb")
    except FileNotFoundError:
        # The parent exists on every write but a directory's first.
        path.parent.mkdir(parents=True, exist_ok=True)
        return temp.open("wb")


def commit(artifacts: Sequence[Artifact]) -> None:
    """Replace every artifact's path with its data, as one group.

    Every temp is written, then the temps are fsynced back to back,
    then renamed over their targets in the order given, then each
    directory is fsynced once.  After a crash at any point each target
    holds either its previous content or exactly its new data; the
    only possible debris is ``*.tmp`` siblings, swept by
    :func:`sweep_temp_files`.  The crashpoints of each artifact fall
    as the module docstring lays out.
    """
    durable = _durable()
    with ExitStack() as handles:
        written = []
        for artifact in artifacts:
            crashpoint(f"{artifact.label}.before_write")
            handle = handles.enter_context(_open_temp(artifact.path))
            handle.write(artifact.data)
            crashpoint(f"{artifact.label}.after_write")
            handle.flush()
            written.append(handle)
        if durable:
            for handle in written:
                os.fsync(handle.fileno())
    for artifact in artifacts:
        crashpoint(f"{artifact.label}.before_rename")
        os.replace(temp_path(artifact.path), artifact.path)
        crashpoint(f"{artifact.label}.after_rename")
    if durable:
        for directory in dict.fromkeys(artifact.path.parent
                                       for artifact in artifacts):
            _fsync_dir(directory)


def atomic_write_text(path: Path, text: str, *,
                      label: str | None = None) -> None:
    """Write ``text`` to ``path``: a :func:`commit` of one file.

    Args:
        path: Destination path (parent directories are created).
        text: Full new content.
        label: Crashpoint label; defaults to the file name.
    """
    commit([Artifact(path, text.encode("utf-8"),
                     label if label is not None else path.name)])


# ---------------------------------------------------------------------------
# Sealed binary artifacts

#: Magic, format version, length of the format name — little-endian.
#: This prefix and the trailing digest are the same in every version;
#: ``version`` speaks for the body alone, which is what lets an old
#: reader tell "written by a newer library" from "damaged".
_SEAL = struct.Struct("<8sHH")
_SEAL_MAGIC = b"\x89PARMONC"
_DIGEST_BYTES = hashlib.sha256().digest_size


def sealed(kind: str, body: bytes, *, version: int) -> bytes:
    """A binary artifact's bytes, framed and sealed.

    ``_SEAL`` prefix, the UTF-8 format name ``kind``, ``body``
    untouched, then the SHA-256 digest of everything before it.
    """
    name = kind.encode("utf-8")
    head = _SEAL.pack(_SEAL_MAGIC, int(version), len(name)) + name
    digest = hashlib.sha256(head)
    digest.update(body)
    return b"".join((head, body, digest.digest()))


def write_sealed(path: Path, kind: str, body: bytes, *,
                 version: int, label: str | None = None) -> None:
    """Atomically write a :func:`sealed` binary artifact: a
    :func:`commit` of one file."""
    commit([Artifact(path, sealed(kind, body, version=version),
                     label if label is not None else path.name)])


def read_sealed(path: Path, kind: str, *,
                max_version: int) -> tuple[memoryview, int]:
    """Read and verify an artifact written by :func:`write_sealed`.

    Returns:
        ``(body, version)``.

    Raises:
        CorruptArtifactError: Wrong magic, a file shorter than its own
            framing, a failed digest (truncation, bit rot — anywhere,
            the version field included) or a different format name.
        ArtifactVersionError: An intact file of a version newer than
            ``max_version``; it must *not* be quarantined.
    """
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise CorruptArtifactError(f"unreadable artifact {path}: {exc}") \
            from exc
    if len(raw) < _SEAL.size + _DIGEST_BYTES:
        raise CorruptArtifactError(
            f"artifact {path} is truncated: {len(raw)} bytes cannot hold "
            f"its own framing")
    magic, version, name_length = _SEAL.unpack_from(raw)
    if magic != _SEAL_MAGIC:
        raise CorruptArtifactError(
            f"artifact {path} does not start with the sealed-artifact "
            f"magic")
    view = memoryview(raw)
    sealed = len(raw) - _DIGEST_BYTES
    if hashlib.sha256(view[:sealed]).digest() != raw[sealed:]:
        raise CorruptArtifactError(
            f"artifact {path} fails its digest; the file is torn or "
            f"bit-rotten")
    body_at = _SEAL.size + name_length
    stored_kind = raw[_SEAL.size:min(body_at, sealed)]
    if body_at > sealed or stored_kind != kind.encode("utf-8"):
        raise CorruptArtifactError(
            f"artifact {path} has format {stored_kind[:64]!r}, expected "
            f"{kind!r}")
    if version > max_version:
        raise ArtifactVersionError(
            f"artifact {path} has format version {version}, newer than "
            f"the supported {max_version}; upgrade this installation "
            f"instead of deleting the file")
    return view[body_at:sealed], version


# ---------------------------------------------------------------------------
# JSON artifact envelope (how save-points were written up to version 3)

def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_checksum(payload: dict) -> str:
    """``sha256:<hex>`` over the canonical JSON form of ``payload``."""
    digest = hashlib.sha256(_canonical(payload).encode()).hexdigest()
    return f"sha256:{digest}"


# Nothing in the library calls it: it stays for the layer benchmark
# (``benchmarks/perf/layers.py``), which times it, and goes with that row.
def write_artifact(path: Path, kind: str, payload: dict, *,
                   version: int, label: str | None = None) -> None:
    """Atomically write a checksummed, versioned JSON artifact.

    The on-disk document is::

        {"format": kind, "version": N, "checksum": "sha256:...",
         "written_at": "...", "payload": {...}}

    and is written by a :func:`commit` of one file.
    """
    document = {
        "format": kind,
        "version": int(version),
        "checksum": payload_checksum(payload),
        "written_at": utc_timestamp(),
        "payload": payload,
    }
    atomic_write_text(path, json.dumps(document), label=label)


# ---------------------------------------------------------------------------
# Quarantine

_quarantine_listeners: list[Callable[[Path, Path, str], None]] = []


def add_quarantine_listener(listener: Callable[[Path, Path, str], None]
                            ) -> None:
    """Observe quarantines: ``listener(original, quarantined, reason)``."""
    _quarantine_listeners.append(listener)


def remove_quarantine_listener(listener: Callable[[Path, Path, str], None]
                               ) -> None:
    """Stop observing quarantines (no-op when not registered)."""
    if listener in _quarantine_listeners:
        _quarantine_listeners.remove(listener)


def quarantine(path: Path, reason: str) -> Path:
    """Set a torn/corrupt artifact aside as ``<name>.corrupt``.

    The evidence is kept (renamed, never deleted) so it can be
    inspected, while readers that re-scan the directory no longer see
    the bad file.  Returns the quarantined path.
    """
    target = path.with_name(path.name + _SUFFIX_CORRUPT)
    serial = 0
    while target.exists():
        serial += 1
        target = path.with_name(f"{path.name}{_SUFFIX_CORRUPT}.{serial}")
    os.replace(path, target)
    _logger.warning("quarantined corrupt artifact %s -> %s (%s)",
                    path, target.name, reason)
    for listener in list(_quarantine_listeners):
        listener(path, target, reason)
    return target


def quarantined_files(root: Path) -> list[Path]:
    """Every quarantined artifact under ``root``, sorted."""
    if not root.exists():
        return []
    return sorted(p for p in root.rglob(f"*{_SUFFIX_CORRUPT}*")
                  if p.is_file())


def sweep_temp_files(root: Path) -> list[Path]:
    """Delete stale ``*.tmp`` files a crash stranded under ``root``.

    Safe whenever no writer is active: an atomic write either renamed
    its temp away or abandoned it, and an abandoned temp is garbage by
    definition.  Returns the removed paths.
    """
    if not root.exists():
        return []
    removed = []
    for path in sorted(root.rglob(f"*{_SUFFIX_TEMP}")):
        if not path.is_file():
            continue
        try:
            path.unlink()
        except OSError:  # pragma: no cover - raced by another sweeper
            continue
        removed.append(path)
    if removed:
        _logger.info("swept %d stale temp file(s) under %s",
                     len(removed), root)
    return removed
