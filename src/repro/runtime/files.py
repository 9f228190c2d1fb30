"""The ``parmonc_data`` directory: result files and save-points (§3.6).

Layout under the user's working directory::

    parmonc_data/
      results/
        func.dat         matrix of sample means
        func_ci.dat      means + absolute/relative errors + variances
        func_log.dat     run log: volume, mean time, error upper bounds
      savepoints/
        processor_<m>.bin    latest subtotal snapshot of processor m
      telemetry/
        events.jsonl     structured run record (telemetry-enabled runs)
        metrics.json     final metrics snapshot (see docs/observability.md)
      savepoint.bin      merged snapshot + session metadata (resume source)
      parmonc_exp.dat    registry of stochastic experiments

The per-processor save-points exist so that ``manaver`` can recover the
full sample after an abrupt job termination, exactly as in §3.4.

The result files are text, for people; the save-points are binary, for
the next session: the moment block of
:func:`repro.runtime.messages.pack_moments` — the bytes a worker ships
on the wire — framed and sealed by
:func:`repro.runtime.storage.write_sealed`.  Save-points of earlier
versions (``savepoint.json``, ``processor_<m>.json``) are still *read*:
the binary file wins when both exist, and the old one is removed right
after the new one's rename.

Every artifact is written through :func:`repro.runtime.storage.commit`
— temps written and fsynced, then renamed — so a kill at any
instruction leaves either the old or the new file, never a torn one.
The end of a job is one such commit (:meth:`DataDirectory
.commit_session`): the save-point and the three result files together,
the save-point renamed first, and the subtotals it absorbed unlinked
after.  A file that *does* fail its digest (bit rot, manual tampering)
is quarantined as ``*.corrupt`` and skipped with a warning instead of
aborting the whole recovery; see ``docs/protocol.md``.
"""

from __future__ import annotations

import hashlib
import logging
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import (
    ArtifactVersionError,
    ConfigurationError,
    CorruptArtifactError,
    ResumeError,
    WireError,
)
from repro.runtime import storage
from repro.runtime.messages import (
    pack_moments,
    take_statistics,
    unpack_moments,
)
from repro.stats.accumulator import MomentSnapshot
from repro.stats.estimators import Estimates

if TYPE_CHECKING:
    from repro.runtime.resume import ResumeState

__all__ = [
    "DataDirectory",
    "SavepointMeta",
    "render_mean_matrix",
    "render_ci_table",
    "render_log",
    "GENPARAM_FILENAME",
    "genparam_fingerprint",
    "read_genparam_file",
    "write_genparam_file",
]

_logger = logging.getLogger(__name__)

GENPARAM_FILENAME = "parmonc_genparam.dat"

#: Current save-point version.  Version 1 was the bare JSON document
#: without checksum or manifest; version 2 moved to the checksummed
#: JSON envelope of :func:`repro.runtime.storage.write_artifact`;
#: version 3 added the optional ``statistics`` map of serialized
#: :class:`~repro.stats.statistic.Statistic` payloads; version 4 is the
#: sealed binary moment block.  Versions 1-3 are read, never written.
SAVEPOINT_VERSION = 4
LAST_JSON_VERSION = 3
SAVEPOINT_FORMAT = "parmonc/savepoint"
PROCESSOR_FORMAT = "parmonc/processor-savepoint"

#: What a damaged save-point raises on its way to quarantine
#: (``ConfigurationError`` is a ``ValueError``).
_MALFORMED = (CorruptArtifactError, WireError, KeyError, TypeError,
              ValueError, AttributeError, OverflowError)


# ---------------------------------------------------------------------------
# Result files
#
# ``func.dat`` and ``func_ci.dat`` hold CPython's ``'% .15e'`` (and, for
# the relative error, ``'% .6e'``) of every entry.  :func:`_scientific`
# writes those exact bytes from numpy: it scales each |x| to a
# (p+1)-digit integer in long double, rounds it, and reads the digits
# off a table.  Two long-double roundings leave the scaled value within
# 2**-63 relative — at most 1.1e-3 at 16 digits — of the exact one, so
# rounding it can differ from CPython's only within that distance of a
# tie: every entry within _MARGIN of a tie, or rounded onto a decade
# edge, is formatted by ``%`` itself.  Whatever the fast path cannot
# take — a non-finite entry, a three-digit exponent, a long double
# with fewer than 64 mantissa bits — is rendered by ``%`` whole.

_MARGIN = 2.0 ** -8

#: Decimal exponents covered by the power table, ``10**_POWER_LOW`` up.
_POWER_LOW, _POWER_HIGH = -120, 130


class _Tables:
    """Correctly rounded long-double powers of ten, and the four ASCII
    digits of each of 0…9999 as one uint32."""

    def __init__(self) -> None:
        self.powers = np.array(
            [np.longdouble(f"1e{n}")
             for n in range(_POWER_LOW, _POWER_HIGH)])
        numbers = np.arange(10_000, dtype=np.int16)
        digits = np.empty((10_000, 4), np.uint8)
        for place, scale in enumerate((1000, 100, 10, 1)):
            digits[:, place] = numbers // scale % 10 + ord("0")
        self.quads = digits.view(np.uint32).ravel()


#: Built on first use; False where the long double is too narrow.
_tables: _Tables | bool | None = None


def _format_tables() -> _Tables | None:
    global _tables
    if _tables is None:
        one = np.longdouble(1)
        wide = one + np.longdouble(2) ** -63 != one
        _tables = _Tables() if wide else False
    return _tables or None


def _ascii_digits(numbers: np.ndarray, width: int) -> np.ndarray:
    """The decimal digits of non-negative ints, zero-padded to
    ``width``: one row of ASCII bytes per number."""
    quads = np.empty((len(numbers), (width + 3) // 4), np.intp)
    for column in range(quads.shape[1] - 1, 0, -1):
        high = numbers // 10_000
        quads[:, column] = numbers - high * 10_000
        numbers = high
    quads[:, 0] = numbers
    return np.take(_tables.quads, quads).view(np.uint8)[:, -width:]


def _scientific(values: np.ndarray, precision: int) -> np.ndarray | None:
    """``'% .{precision}e' % x`` of every float64 entry, as a row of
    ASCII bytes each; None when the fast path cannot take ``values``."""
    tables = _format_tables()
    flat = values.ravel()
    if tables is None or not np.isfinite(flat).all():
        return None
    magnitude = np.abs(flat)
    nonzero = magnitude != 0.0
    if nonzero.any() and (magnitude[nonzero].min() < 1e-100
                          or magnitude.max() >= 1e100):
        return None
    magnitude = np.where(nonzero, magnitude, 1.0)
    exponent = np.floor(np.log10(magnitude)).astype(np.int64)
    scaled = np.multiply(magnitude,
                         tables.powers[precision - exponent - _POWER_LOW])
    # Rounded half up, not to even: a tie is slow either way.  So is a
    # mantissa on a decade edge, a carry into the next decade, and an
    # entry whose log10 missed by one.
    mantissa = (scaled + 0.5).astype(np.int64)
    fraction = scaled - mantissa
    slow = nonzero & ((fraction < _MARGIN - 0.5) | (fraction > 0.5 - _MARGIN)
                      | (mantissa <= 10 ** precision)
                      | (mantissa >= 10 ** (precision + 1)))
    mantissa[~nonzero] = 0
    exponent[~nonzero] = 0
    if np.abs(exponent[~slow]).max(initial=0) > 99:
        return None

    width = precision + 7
    rows = np.empty((len(flat), width), np.uint8)
    rows[:, 0] = np.where(np.signbit(flat), ord("-"), ord(" "))
    chars = _ascii_digits(mantissa, precision + 1)
    rows[:, 1] = chars[:, 0]
    rows[:, 2] = ord(".")
    rows[:, 3:precision + 3] = chars[:, 1:]
    rows[:, -4] = ord("e")
    rows[:, -3] = np.where(exponent < 0, ord("-"), ord("+"))
    rows[:, -2:] = _ascii_digits(np.abs(exponent), 2)
    if slow.any():
        values = flat[slow].tolist()
        text = ((f"% .{precision}e" * len(values)) % tuple(values)).encode(
            "ascii")
        if len(text) != width * len(values):
            return None
        rows[slow] = np.frombuffer(text, np.uint8).reshape(-1, width)
    return rows


def _cells(estimates: Estimates) -> list[np.ndarray] | None:
    """The cells of ``func_ci.dat``'s mean, abs_error, rel_error and
    variance columns (``func.dat`` is the first); None when the fast
    path cannot take one of them."""
    cells = [_scientific(matrix, precision) for matrix, precision in (
        (estimates.mean, 15), (estimates.abs_error, 15),
        (estimates.rel_error, 6), (estimates.variance, 15))]
    return None if any(cell is None for cell in cells) else cells


def _render_mean_matrix(estimates: Estimates,
                        cells: list[np.ndarray] | None) -> str:
    nrow, ncol = estimates.shape
    if cells is None:
        row = " ".join(["% .15e"] * ncol) + "\n"
        return (row * nrow) % tuple(estimates.mean.ravel().tolist())
    means = cells[0]
    out = np.empty((nrow, ncol, means.shape[1] + 1), np.uint8)
    out[:, :, :-1] = means.reshape(nrow, ncol, -1)
    out[:, :, -1] = ord(" ")
    out[:, -1, -1] = ord("\n")
    return out.tobytes().decode("ascii")


def _decimal_runs(n: int):
    """``(first, stop, width)`` of each run of 1..n with equal width."""
    first, width = 1, 1
    while first <= n:
        stop = min(first * 10, n + 1)
        yield first, stop, width
        first, width = stop, width + 1


def _render_ci_table(estimates: Estimates,
                     cells: list[np.ndarray] | None) -> str:
    nrow, ncol = estimates.shape
    header = b"# i j mean abs_error rel_error_percent variance\n"
    if cells is None:
        table = np.empty((nrow * ncol, 6))
        table[:, 0] = np.repeat(np.arange(1, nrow + 1), ncol)
        table[:, 1] = np.tile(np.arange(1, ncol + 1), nrow)
        for column, matrix in enumerate(
                (estimates.mean, estimates.abs_error, estimates.rel_error,
                 estimates.variance), start=2):
            table[:, column] = matrix.ravel()
        row = "%d %d % .15e % .15e % .6e % .15e\n"
        return (header.decode("ascii")
                + (row * len(table)) % tuple(table.ravel().tolist()))
    # A line is "i j" and the four cells, each after a space, and the
    # newline.  Lines whose row and column indices have the same widths
    # are one block of equal-length lines.
    body = sum(cell.shape[1] + 1 for cell in cells) + 1
    cells = [cell.reshape(nrow, ncol, -1) for cell in cells]
    j_runs = [(first, stop, width,
               _ascii_digits(np.arange(first, stop), width))
              for first, stop, width in _decimal_runs(ncol)]
    parts = [header]
    for i_first, i_stop, i_width in _decimal_runs(nrow):
        i_digits = _ascii_digits(np.arange(i_first, i_stop), i_width)
        rows = []
        for j_first, j_stop, j_width, j_digits in j_runs:
            lines = np.empty((i_stop - i_first, j_stop - j_first,
                              i_width + 1 + j_width + body), np.uint8)
            lines[:, :, :i_width] = i_digits[:, None]
            lines[:, :, i_width] = ord(" ")
            start = i_width + 1 + j_width
            lines[:, :, i_width + 1:start] = j_digits
            for cell in cells:
                lines[:, :, start] = ord(" ")
                start += 1 + cell.shape[2]
                lines[:, :, start - cell.shape[2]:start] = cell[
                    i_first - 1:i_stop - 1, j_first - 1:j_stop - 1]
            lines[:, :, -1] = ord("\n")
            rows.append(lines.reshape(i_stop - i_first, -1))
        parts.append(np.concatenate(rows, axis=1))
    return b"".join(parts).decode("ascii")


def render_mean_matrix(estimates: Estimates) -> str:
    """Render ``func.dat``: the matrix of sample means, one row per line."""
    return _render_mean_matrix(estimates, _cells(estimates))


def render_ci_table(estimates: Estimates) -> str:
    """Render ``func_ci.dat``: per-entry mean, errors and variance.

    Columns: row index, column index, sample mean, absolute error,
    relative error (percent), sample variance.
    """
    return _render_ci_table(estimates, _cells(estimates))


def render_log(estimates: Estimates, *, seqnum: int, processors: int,
               sessions: int, elapsed: float | None = None) -> str:
    """Render ``func_log.dat``: summary information about the simulation."""
    lines = [
        f"total_sample_volume: {estimates.volume}",
        f"mean_time_per_realization_sec: {estimates.mean_time:.6e}",
        f"abs_error_upper_bound: {estimates.abs_error_max:.6e}",
        f"rel_error_upper_bound_percent: {estimates.rel_error_max:.6e}",
        f"variance_upper_bound: {estimates.variance_max:.6e}",
        f"matrix_shape: {estimates.shape[0]} {estimates.shape[1]}",
        f"seqnum: {seqnum}",
        f"processors: {processors}",
        f"sessions: {sessions}",
        f"written_at: {storage.utc_timestamp()}",
    ]
    if elapsed is not None:
        lines.append(f"elapsed_sec: {elapsed:.6e}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SavepointMeta:
    """Metadata stored beside the merged snapshot (whose ``extras`` are
    the stored statistics of registered kinds).

    Attributes:
        shape: Matrix shape of the stored sample.
        used_seqnums: Every experiments subsequence any session — live
            or superseded — ever consumed.
        sessions: Number of sessions folded into the snapshot.
        manifest: Session manifest of the writing session (processor
            count, leap exponents, ``parmonc_genparam.dat``
            fingerprint); None for pre-manifest save-points.
        unknown_payloads: Raw payloads whose kinds are not registered
            in this process — written by a newer version or an
            un-imported custom statistic.  Kept verbatim so a rewrite
            (``manaver``) carries them forward instead of silently
            dropping them; callers surface the kinds via
            :attr:`unknown_statistics`.
    """

    shape: tuple[int, int]
    used_seqnums: tuple[int, ...]
    sessions: int
    manifest: dict | None = field(default=None)
    unknown_payloads: dict[str, dict] = field(default_factory=dict)

    @property
    def unknown_statistics(self) -> tuple[str, ...]:
        """Kinds stored in the artifact but not registered here."""
        return tuple(sorted(self.unknown_payloads))

    @property
    def processors(self) -> int | None:
        """Processor count of the writing session, when recorded."""
        if self.manifest is None:
            return None
        value = self.manifest.get("processors")
        return int(value) if value is not None else None


def _read_snapshot(path: Path, kind: str) -> tuple[MomentSnapshot, dict]:
    """``(snapshot, metadata)`` of a save-point of either era.

    ``*.bin`` is the sealed moment block, its metadata the tail plus
    the header's ``rank``; anything else is the JSON document versions
    1-3 wrote, with the ``snapshot`` entry decoded and taken out — so
    both eras hand back the same metadata keys.  In both the extras are
    read by :func:`~repro.runtime.messages.take_statistics`, which
    leaves the payloads of unregistered kinds under ``statistics``.
    """
    if path.suffix == ".bin":
        body, _version = storage.read_sealed(
            path, kind, max_version=SAVEPOINT_VERSION)
        _flags, rank, _sent_at, snapshot, fields = unpack_moments(body)
        fields["rank"] = rank
    else:
        fields, _version = storage.read_artifact(
            path, kind, max_version=LAST_JSON_VERSION)
        snapshot = MomentSnapshot.from_dict(fields.pop("snapshot"))
        snapshot = replace(snapshot,
                           extras=take_statistics(fields, snapshot.shape))
    if "statistics" in fields:
        _logger.warning(
            "%s carries unregistered statistic kind(s) %s; payloads "
            "kept but not merged (import/register the statistic to "
            "use them)", path.name, sorted(fields["statistics"]))
    return snapshot, fields


class DataDirectory:
    """Handle on a ``parmonc_data`` directory.

    Args:
        workdir: The user's working directory; ``parmonc_data`` is
            created beneath it lazily.
    """

    def __init__(self, workdir: Path | str) -> None:
        self._root = Path(workdir) / "parmonc_data"
        self._events = None
        #: The :class:`~repro.runtime.resume.ResumeState` of the session
        #: :func:`~repro.runtime.bootstrap.start_session` opened here
        #: (None otherwise): the burnt seqnums, manifest and carried
        #: payloads a collector hands :meth:`commit_session` for the
        #: save-point's tail.
        self.session: ResumeState | None = None

    def attach_events(self, events) -> None:
        """Forward quarantines to an :class:`~repro.obs.events.EventLog`.

        The engine attaches the session's telemetry event log here so
        every quarantined artifact shows up as a ``storage.quarantined``
        event; without an attachment quarantines are logged only.
        """
        self._events = events

    def _quarantine(self, path: Path, reason: str) -> Path:
        target = storage.quarantine(path, reason)
        if self._events is not None:
            self._events.append("storage.quarantined", path=str(path),
                                quarantined=str(target), reason=reason)
        return target

    @property
    def root(self) -> Path:
        """The ``parmonc_data`` directory path."""
        return self._root

    @property
    def results_dir(self) -> Path:
        """``parmonc_data/results``."""
        return self._root / "results"

    @property
    def savepoints_dir(self) -> Path:
        """``parmonc_data/savepoints`` (per-processor subtotals)."""
        return self._root / "savepoints"

    @property
    def telemetry_dir(self) -> Path:
        """``parmonc_data/telemetry`` (events.jsonl + metrics.json).

        Created lazily by :class:`repro.obs.telemetry.RunTelemetry` when
        a run enables telemetry; merely reading the property never
        touches the filesystem.
        """
        return self._root / "telemetry"

    def has_telemetry(self) -> bool:
        """Whether a telemetry-enabled run left artifacts behind."""
        return self.telemetry_dir.exists() and any(
            self.telemetry_dir.iterdir())

    def clear_telemetry(self) -> None:
        """Remove telemetry artifacts (fresh runs start a fresh record).

        Handles nested directories: files anywhere under ``telemetry/``
        are removed and emptied subdirectories are dropped, leaving the
        ``telemetry`` directory itself in place.
        """
        if not self.telemetry_dir.exists():
            return
        for path in sorted(self.telemetry_dir.rglob("*"), reverse=True):
            if path.is_dir():
                try:
                    path.rmdir()
                except OSError:  # pragma: no cover - non-empty race
                    pass
            else:
                path.unlink()

    @property
    def savepoint_path(self) -> Path:
        """``parmonc_data/savepoint.bin`` (merged snapshot)."""
        return self._root / "savepoint.bin"

    @property
    def legacy_savepoint_path(self) -> Path:
        """``parmonc_data/savepoint.json``, as versions 1-3 wrote it."""
        return self._root / "savepoint.json"

    @property
    def registry_path(self) -> Path:
        """``parmonc_data/parmonc_exp.dat`` (experiment registry)."""
        return self._root / "parmonc_exp.dat"

    def ensure(self) -> "DataDirectory":
        """Create the directory tree if missing; return self."""
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.savepoints_dir.mkdir(parents=True, exist_ok=True)
        return self

    def sweep_temp_files(self) -> list[Path]:
        """Remove stale ``*.tmp`` files a crashed writer left behind.

        Called at session start and by ``manaver``; a temp file only
        survives a crash between write and rename, and by then it is
        garbage by definition (the rename never happened).
        """
        return storage.sweep_temp_files(self._root)

    def quarantined_files(self) -> list[Path]:
        """Every ``*.corrupt`` artifact set aside under this directory."""
        return storage.quarantined_files(self._root)

    # ------------------------------------------------------------------
    # Results

    def _result_artifacts(self, estimates: Estimates, *, seqnum: int,
                          processors: int, sessions: int,
                          elapsed: float | None, matrices: bool
                          ) -> list[storage.Artifact]:
        log = storage.Artifact(
            self.results_dir / "func_log.dat",
            render_log(estimates, seqnum=seqnum, processors=processors,
                       sessions=sessions, elapsed=elapsed).encode(),
            "results.func_log")
        if not matrices:
            return [log]
        cells = _cells(estimates)
        return [
            storage.Artifact(
                self.results_dir / "func.dat",
                _render_mean_matrix(estimates, cells).encode(),
                "results.func"),
            storage.Artifact(
                self.results_dir / "func_ci.dat",
                _render_ci_table(estimates, cells).encode(),
                "results.func_ci"),
            log]

    def write_results(self, estimates: Estimates, *, seqnum: int,
                      processors: int, sessions: int,
                      elapsed: float | None = None,
                      matrices: bool = True) -> None:
        """Write ``func.dat``, ``func_ci.dat`` and ``func_log.dat`` as
        one commit, so a kill mid-save can never leave a torn matrix
        for :meth:`read_mean_matrix` to load.

        ``matrices=False`` writes ``func_log.dat`` alone: it is the one
        result file that changes between two saves of the same sample
        (it carries ``written_at`` and ``elapsed``).
        """
        storage.commit(self._result_artifacts(
            estimates, seqnum=seqnum, processors=processors,
            sessions=sessions, elapsed=elapsed, matrices=matrices))

    def read_mean_matrix(self) -> np.ndarray:
        """Read back the matrix of sample means from ``func.dat``."""
        path = self.results_dir / "func.dat"
        if not path.exists():
            raise ResumeError(f"no results file at {path}")
        return np.loadtxt(path, ndmin=2)

    def read_log(self) -> dict[str, str]:
        """Read ``func_log.dat`` into a key-value dictionary."""
        path = self.results_dir / "func_log.dat"
        if not path.exists():
            raise ResumeError(f"no log file at {path}")
        entries = {}
        for line in path.read_text().splitlines():
            if ":" in line:
                key, _, value = line.partition(":")
                entries[key.strip()] = value.strip()
        return entries

    # ------------------------------------------------------------------
    # Merged save-point (resume source)

    def save_savepoint(self, snapshot: MomentSnapshot, *,
                       used_seqnums: tuple[int, ...],
                       sessions: int,
                       manifest: dict | None = None,
                       extra_payloads: dict[str, dict] | None = None
                       ) -> None:
        """Persist the merged snapshot and session metadata durably.

        The save-point is the snapshot's moment block, its tail holding
        the metadata and the snapshot's extras, sealed and written
        atomically; ``manifest`` (see
        :func:`repro.runtime.resume.build_manifest`) records the
        writing session's processor count and RNG leap parameters so a
        later resume can refuse a mismatched generator hierarchy.  A
        ``savepoint.json`` left by an earlier version is removed once
        the new file is in place.

        Args:
            snapshot: The merged snapshot, extra statistics inside.
            used_seqnums: Every burnt experiments subsequence.
            sessions: Sessions folded into the snapshot.
            manifest: The writing session's manifest.
            extra_payloads: Already-serialized statistic payloads to
                carry forward verbatim — how unknown kinds loaded from
                an older save-point survive a rewrite untouched.
        """
        storage.commit([self._savepoint_artifact(
            snapshot, used_seqnums=used_seqnums, sessions=sessions,
            manifest=manifest, extra_payloads=extra_payloads)])
        self.legacy_savepoint_path.unlink(missing_ok=True)

    def _savepoint_artifact(self, snapshot: MomentSnapshot, *,
                            used_seqnums: tuple[int, ...], sessions: int,
                            manifest: dict | None,
                            extra_payloads: dict[str, dict] | None
                            ) -> storage.Artifact:
        tail = {
            "used_seqnums": sorted(set(int(s) for s in used_seqnums)),
            "sessions": int(sessions),
        }
        if manifest is not None:
            tail["manifest"] = manifest
        if extra_payloads:
            tail["statistics"] = dict(extra_payloads)
        return storage.Artifact(
            self.savepoint_path,
            storage.sealed(SAVEPOINT_FORMAT, pack_moments(snapshot, tail),
                           version=SAVEPOINT_VERSION),
            "savepoint")

    def commit_session(self, session: ResumeState, merged: MomentSnapshot,
                       estimates: Estimates | None, *, seqnum: int,
                       processors: int, sessions: int,
                       elapsed: float | None = None,
                       matrices: bool = True) -> None:
        """End a session in one durable commit.

        The save-point of ``merged``, its tail from ``session`` (the
        :class:`~repro.runtime.resume.ResumeState` the session started
        from), and, when there are ``estimates``, the result files of
        :meth:`write_results` are written as one
        :func:`~repro.runtime.storage.commit`, the save-point renamed
        first; then the subtotals it absorbed are unlinked.  A crash
        before the save-point's rename leaves every file old; one after
        it leaves subtotals whose session tag tells ``manaver`` they are
        already absorbed.
        """
        artifacts = [self._savepoint_artifact(
            merged, used_seqnums=session.used_seqnums,
            sessions=session.session_index, manifest=session.manifest,
            extra_payloads=session.unknown_payloads)]
        if estimates is not None:
            artifacts += self._result_artifacts(
                estimates, seqnum=seqnum, processors=processors,
                sessions=sessions, elapsed=elapsed, matrices=matrices)
        storage.commit(artifacts)
        self.legacy_savepoint_path.unlink(missing_ok=True)
        self.clear_processor_snapshots()

    def load_savepoint(self) -> tuple[MomentSnapshot, SavepointMeta]:
        """Load the merged snapshot saved by a previous session.

        A save-point that fails its digest or cannot be decoded — a
        statistic of another shape than the moments' included — is
        quarantined as ``savepoint.bin.corrupt`` before the error is
        raised, so the next attempt is not poisoned by the same file.

        Raises:
            ResumeError: If no save-point exists, it is corrupt (now
                quarantined), or it was written by a newer format
                version.
        """
        path = self.savepoint_path
        if not path.exists():
            path = self.legacy_savepoint_path
        if not path.exists():
            raise ResumeError(
                f"no previous simulation found at {self.savepoint_path}; "
                f"start with res=0")
        try:
            snapshot, fields = _read_snapshot(path, SAVEPOINT_FORMAT)
            manifest = fields.get("manifest")
            if manifest is not None and not isinstance(manifest, dict):
                raise ValueError("manifest is not an object")
            meta = SavepointMeta(
                shape=snapshot.shape,
                used_seqnums=tuple(int(s) for s in fields["used_seqnums"]),
                sessions=int(fields["sessions"]),
                manifest=manifest,
                unknown_payloads=fields.get("statistics", {}))
        except ArtifactVersionError as exc:
            raise ResumeError(str(exc)) from exc
        except _MALFORMED as exc:
            target = self._quarantine(path, str(exc))
            raise ResumeError(
                f"corrupted save-point at {path}: {exc} (quarantined as "
                f"{target.name}; recover the per-processor subtotals "
                f"with manaver)") from exc
        return snapshot, meta

    def has_savepoint(self) -> bool:
        """Whether a previous simulation left a merged save-point."""
        return (self.savepoint_path.exists()
                or self.legacy_savepoint_path.exists())

    def clear_savepoint(self) -> None:
        """Remove the merged save-point (a ``res=0`` session starts over)."""
        self.savepoint_path.unlink(missing_ok=True)
        self.legacy_savepoint_path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Per-processor subtotals (manaver input)

    def processor_savepoint_path(self, rank: int) -> Path:
        """Path of processor ``rank``'s subtotal file."""
        return self.savepoints_dir / f"processor_{rank:05d}.bin"

    def save_processor_snapshot(self, rank: int, snapshot: MomentSnapshot,
                                *, session: int | None = None) -> None:
        """Persist one processor's latest subtotal snapshot durably,
        extra statistics included, so ``manaver`` recovers every
        declared statistic, not just the moments.

        ``session`` tags the subtotal with the session index that
        produced it.  The tag is what lets ``manaver`` tell a subtotal
        that is *already folded into* the merged save-point (a crash
        hit between the save-point rename and the subtotal cleanup)
        from one that still needs recovering — without it, that crash
        window would double-count every realization of the session.
        """
        tail = {} if session is None else {"session": int(session)}
        path = self.processor_savepoint_path(rank)
        storage.write_sealed(path, PROCESSOR_FORMAT,
                             pack_moments(snapshot, tail, rank=rank),
                             version=SAVEPOINT_VERSION, label="processor")
        path.with_suffix(".json").unlink(missing_ok=True)

    def _processor_files(self) -> list[Path]:
        """Subtotal files of both eras; of one rank's pair, the binary."""
        if not self.savepoints_dir.exists():
            return []
        files = {path.stem: path for path
                 in self.savepoints_dir.glob("processor_*.json")}
        files.update((path.stem, path) for path
                     in self.savepoints_dir.glob("processor_*.bin"))
        return [files[stem] for stem in sorted(files)]

    def load_processor_snapshots(self, *, absorbed_sessions: int | None
                                 = None) -> dict[int, MomentSnapshot]:
        """Load every healthy per-processor subtotal present on disk,
        ``{rank: snapshot}``, extra statistics inside.

        A torn, digest-failing or undecodable subtotal (a statistic of
        another shape than its moments' included) is quarantined and
        *skipped* with a warning — one bad processor file must not make
        the whole ``manaver`` recovery abort and lose every other
        processor's realizations.  Callers can inspect
        :meth:`quarantined_files` afterwards.

        Args:
            absorbed_sessions: When given, subtotals tagged with a
                session index ``<=`` this value are skipped: the merged
                save-point with ``sessions == absorbed_sessions``
                already contains them (the writing session finalized
                but crashed before cleaning its subtotals up).
                Untagged (legacy) subtotals are always returned.
        """
        snapshots: dict[int, MomentSnapshot] = {}
        for path in self._processor_files():
            try:
                snapshot, fields = _read_snapshot(path, PROCESSOR_FORMAT)
                session = fields.get("session")
                session = None if session is None else int(session)
                if (absorbed_sessions is not None and session is not None
                        and session <= absorbed_sessions):
                    _logger.debug(
                        "subtotal %s already absorbed by the merged "
                        "save-point (session %s)", path.name, session)
                    continue
                snapshots[int(fields["rank"])] = snapshot
            except ArtifactVersionError:
                raise
            except _MALFORMED as exc:
                self._quarantine(path, str(exc))
                _logger.warning(
                    "skipping corrupt processor save-point %s: %s",
                    path.name, exc)
        return snapshots

    def clear_processor_snapshots(self) -> None:
        """Remove per-processor subtotals (on a clean run completion)."""
        if self.savepoints_dir.exists():
            for path in self.savepoints_dir.glob("processor_*.*"):
                if path.suffix in (".bin", ".json"):
                    path.unlink()

    # ------------------------------------------------------------------
    # Experiment registry

    def register_experiment(self, *, seqnum: int, processors: int,
                            maxsv: int, res: int) -> None:
        """Append one line per started experiment to ``parmonc_exp.dat``.

        The registry is append-only (each line is self-contained, and
        readers tolerate a truncated final line), so it does not go
        through the rename-based writer; the appended line is fsynced,
        when writes are durable, because it is the one record of a burnt
        ``seqnum`` that must survive a crash *before* the first save-point.
        """
        self.ensure()
        line = (f"{storage.utc_timestamp()} seqnum={seqnum} processors={processors} "
                f"maxsv={maxsv} res={res}\n")
        with self.registry_path.open("a") as handle:
            handle.write(line)
            handle.flush()
            if storage._durable():
                try:
                    os.fsync(handle.fileno())
                except OSError:  # pragma: no cover - exotic filesystem
                    pass

    def read_registry(self) -> list[str]:
        """Return the experiment registry lines (empty if none)."""
        if not self.registry_path.exists():
            return []
        return self.registry_path.read_text().splitlines()


def write_genparam_file(workdir: Path | str, experiment_exponent: int,
                        processor_exponent: int,
                        realization_exponent: int,
                        multipliers: tuple[int, int, int]) -> Path:
    """Write ``parmonc_genparam.dat`` in the user's working directory.

    The file records both the leap exponents and the computed multipliers
    ``A(n_e), A(n_p), A(n_r)``; PARMONC routines pick it up in preference
    to the defaults (§3.5).
    """
    path = Path(workdir) / GENPARAM_FILENAME
    content = (
        f"ne_exponent: {experiment_exponent}\n"
        f"np_exponent: {processor_exponent}\n"
        f"nr_exponent: {realization_exponent}\n"
        f"A_ne: {multipliers[0]}\n"
        f"A_np: {multipliers[1]}\n"
        f"A_nr: {multipliers[2]}\n")
    storage.atomic_write_text(path, content, label="genparam")
    return path


def read_genparam_file(workdir: Path | str) -> dict[str, int] | None:
    """Read ``parmonc_genparam.dat`` if present; None when absent.

    Returns a dict with keys ``ne_exponent``, ``np_exponent``,
    ``nr_exponent``, ``A_ne``, ``A_np``, ``A_nr``.
    """
    path = Path(workdir) / GENPARAM_FILENAME
    if not path.exists():
        return None
    values: dict[str, int] = {}
    for line in path.read_text().splitlines():
        if ":" not in line:
            continue
        key, _, raw = line.partition(":")
        try:
            values[key.strip()] = int(raw.strip())
        except ValueError as exc:
            raise ConfigurationError(
                f"malformed {GENPARAM_FILENAME} line: {line!r}") from exc
    required = {"ne_exponent", "np_exponent", "nr_exponent",
                "A_ne", "A_np", "A_nr"}
    missing = required - values.keys()
    if missing:
        raise ConfigurationError(
            f"{GENPARAM_FILENAME} is missing keys: {sorted(missing)}")
    return values


def genparam_fingerprint(workdir: Path | str) -> str | None:
    """SHA-256 fingerprint of ``parmonc_genparam.dat``; None when absent.

    Recorded in the session manifest so a resumed session can tell
    whether the generator-parameter file changed between sessions.
    """
    path = Path(workdir) / GENPARAM_FILENAME
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()
