"""Durable, crash-safe artifact I/O for the ``parmonc_data`` tree.

PARMONC's recovery promise (§3.4/§3.6) — an abruptly killed job loses
no realization the collector had merged — only holds if the on-disk
artifacts are themselves crash-safe.  This module is the single place
where the persistence layer touches the filesystem:

* :func:`atomic_write_text`, :func:`write_sealed` and
  :func:`write_artifact` share one write-temp → fsync → rename
  (+ directory fsync) routine, so after a crash at *any* instruction
  the target path holds either the complete old content or the
  complete new content, never a torn mix.
* :func:`write_sealed` frames a binary body with magic, version and
  format name and seals it with a SHA-256 digest of every byte before
  it; :func:`read_sealed` verifies the seal, so truncation or bit rot
  anywhere in the file is detected, not loaded.  The save-points are
  written this way.
* :func:`write_artifact` / :func:`read_artifact` are the older JSON
  envelope (format, version, payload checksum).  Nothing in the
  library writes it any more; the reader is how save-points left by
  earlier versions still resume.
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

Crashpoint names are ``<label>.<step>`` with steps ``before_write``,
``after_write`` (temp written, not yet fsynced), ``before_rename``
(temp durable, target still old) and ``after_rename`` (target new,
directory entry not yet fsynced).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import struct
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator

from repro.exceptions import (
    ArtifactVersionError,
    CorruptArtifactError,
)

__all__ = [
    "CrashInjected",
    "add_quarantine_listener",
    "atomic_write_text",
    "clear_crashpoints",
    "crashpoint",
    "crashpoint_installed",
    "durable_writes",
    "install_crashpoint",
    "payload_checksum",
    "quarantine",
    "read_artifact",
    "read_sealed",
    "remove_quarantine_listener",
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


def _atomic_write(path: Path, data: bytes, label: str | None) -> None:
    """Replace ``path`` with ``data`` via write-temp → fsync → rename."""
    label = label if label is not None else path.name
    temp = temp_path(path)
    crashpoint(f"{label}.before_write")
    try:
        handle = temp.open("wb")
    except FileNotFoundError:
        # The parent exists on every write but a directory's first.
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = temp.open("wb")
    with handle:
        handle.write(data)
        crashpoint(f"{label}.after_write")
        handle.flush()
        if _durable():
            os.fsync(handle.fileno())
    crashpoint(f"{label}.before_rename")
    os.replace(temp, path)
    crashpoint(f"{label}.after_rename")
    if _durable():
        _fsync_dir(path.parent)


def atomic_write_text(path: Path, text: str, *,
                      label: str | None = None) -> None:
    """Write ``text`` to ``path`` via write-temp → fsync → rename.

    After a crash at any point the target holds either its previous
    content or exactly ``text``; the only possible debris is a
    ``*.tmp`` sibling, swept by :func:`sweep_temp_files`.

    Args:
        path: Destination path (parent directories are created).
        text: Full new content.
        label: Crashpoint label; defaults to the file name.
    """
    _atomic_write(path, text.encode("utf-8"), label)


# ---------------------------------------------------------------------------
# Sealed binary artifacts

#: Magic, format version, length of the format name — little-endian.
#: This prefix and the trailing digest are the same in every version;
#: ``version`` speaks for the body alone, which is what lets an old
#: reader tell "written by a newer library" from "damaged".
_SEAL = struct.Struct("<8sHH")
_SEAL_MAGIC = b"\x89PARMONC"
_DIGEST_BYTES = hashlib.sha256().digest_size


def write_sealed(path: Path, kind: str, body: bytes, *,
                 version: int, label: str | None = None) -> None:
    """Atomically write a binary artifact, framed and sealed.

    On disk: ``_SEAL`` prefix, the UTF-8 format name ``kind``,
    ``body`` untouched, then the SHA-256 digest of everything before
    it.  Same crash-safety guarantees and crashpoints as
    :func:`atomic_write_text`.
    """
    name = kind.encode("utf-8")
    head = _SEAL.pack(_SEAL_MAGIC, int(version), len(name)) + name
    digest = hashlib.sha256(head)
    digest.update(body)
    _atomic_write(path, b"".join((head, body, digest.digest())), label)


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


def write_artifact(path: Path, kind: str, payload: dict, *,
                   version: int, label: str | None = None) -> None:
    """Atomically write a checksummed, versioned JSON artifact.

    The on-disk document is::

        {"format": kind, "version": N, "checksum": "sha256:...",
         "written_at": "...", "payload": {...}}

    and is produced with the same crash-safety guarantees as
    :func:`atomic_write_text`.
    """
    document = {
        "format": kind,
        "version": int(version),
        "checksum": payload_checksum(payload),
        "written_at": utc_timestamp(),
        "payload": payload,
    }
    atomic_write_text(path, json.dumps(document), label=label)


def read_artifact(path: Path, kind: str, *,
                  max_version: int) -> tuple[dict, int]:
    """Read and verify an artifact written by :func:`write_artifact`.

    Pre-envelope files (no ``checksum``/``payload`` keys) are returned
    whole with version 0, so callers keep loading save-points written
    before checksumming existed.

    Returns:
        ``(payload, version)``.

    Raises:
        CorruptArtifactError: Unparseable JSON (truncation), a payload
            that fails its checksum, or a document of a different kind.
        ArtifactVersionError: An envelope version newer than
            ``max_version`` (the file is fine — the reader is too old —
            so it must *not* be quarantined).
    """
    try:
        raw = path.read_text()
    except OSError as exc:
        raise CorruptArtifactError(f"unreadable artifact {path}: {exc}") \
            from exc
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CorruptArtifactError(
            f"truncated or garbled artifact {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise CorruptArtifactError(
            f"artifact {path} is not a JSON object")
    if "checksum" not in document or "payload" not in document:
        # Legacy pre-envelope artifact: no integrity data to verify.
        return document, 0
    stored_kind = document.get("format")
    if stored_kind != kind:
        raise CorruptArtifactError(
            f"artifact {path} has format {stored_kind!r}, expected "
            f"{kind!r}")
    try:
        version = int(document["version"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptArtifactError(
            f"artifact {path} carries no usable version") from exc
    if version > max_version:
        raise ArtifactVersionError(
            f"artifact {path} has format version {version}, newer than "
            f"the supported {max_version}; upgrade this installation "
            f"instead of deleting the file")
    payload = document["payload"]
    if not isinstance(payload, dict):
        raise CorruptArtifactError(
            f"artifact {path} payload is not a JSON object")
    if payload_checksum(payload) != document["checksum"]:
        raise CorruptArtifactError(
            f"artifact {path} fails its checksum; the file is torn or "
            f"bit-rotten")
    return payload, version


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
