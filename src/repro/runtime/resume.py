"""Resumption semantics (§3.2): ``res=1`` with automatic averaging.

A resumed session loads the merged save-point of the previous one and
treats it as an extra "processor" in formula (5).  Three rules are
enforced here:

* resuming requires a previous simulation to exist,
* the new session's ``seqnum`` must differ from every earlier session's
  — including the sessions of a *superseded* sample (a ``res=0`` run
  carries the burnt-``seqnum`` history forward) — otherwise the new
  realizations would re-consume the same "experiments" subsequence and
  correlate with the old sample, and
* the RNG leap parameters must match the previous sessions': a session
  resumed with a different subsequence hierarchy would silently place
  its "fresh" streams on top of already-consumed ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from repro.exceptions import ResumeError, SupersededSampleWarning
from repro.runtime.config import RunConfig
from repro.runtime.files import DataDirectory, genparam_fingerprint
from repro.stats.accumulator import MomentSnapshot

__all__ = ["ResumeState", "build_manifest", "prepare_resume"]


def build_manifest(config: RunConfig) -> dict:
    """The session manifest stored inside the merged save-point.

    Records everything a later session needs to decide whether it is
    statistically compatible with this one: the matrix shape, the
    processor count, the RNG leap exponents, and a fingerprint of
    ``parmonc_genparam.dat`` (when present in the working directory).
    """
    leaps = config.leaps
    return {
        "shape": list(config.shape),
        "processors": int(config.processors),
        "leaps": {
            "ne_exponent": leaps.experiment_exponent,
            "np_exponent": leaps.processor_exponent,
            "nr_exponent": leaps.realization_exponent,
        },
        "genparam_sha256": genparam_fingerprint(config.workdir),
    }


@dataclass(frozen=True)
class ResumeState:
    """What a session starts from.

    Attributes:
        base: The sample inherited from previous sessions, its extra
            statistics inside (zero for a new simulation).
        used_seqnums: Every ``seqnum`` consumed so far, including the
            current session's and those of superseded samples.
        session_index: 1 for a fresh simulation, previous count + 1 when
            resuming.
        manifest: The current session's manifest, persisted with the
            save-point by :meth:`~repro.runtime.files.DataDirectory
            .commit_session`.
        unknown_payloads: Raw statistic payloads of unregistered kinds
            found in the loaded save-point; carried forward verbatim
            by the same commit so resuming never destroys them.
    """

    base: MomentSnapshot
    used_seqnums: tuple[int, ...]
    session_index: int
    manifest: dict | None = field(default=None)
    unknown_payloads: dict[str, dict] = field(default_factory=dict)


def _previous_seqnums(data: DataDirectory) -> tuple[int, ...]:
    """Burnt seqnums of an existing save-point, () when unreadable.

    Used on ``res=0`` over a workdir that already holds a sample: the
    old realizations are discarded, but the experiments subsequences
    they consumed stay burnt — a later ``res=1`` session reusing one
    would correlate with whatever of the old sample survives (result
    files, ``manaver``-recoverable subtotals).
    """
    if not data.has_savepoint():
        return ()
    try:
        _snapshot, meta = data.load_savepoint()
    except ResumeError:
        # Corrupt (now quarantined) or unreadably new: the history is
        # gone; the experiment registry still covers manaver.
        return ()
    return tuple(meta.used_seqnums)


def prepare_resume(config: RunConfig, data: DataDirectory) -> ResumeState:
    """Validate the resumption flag and load the inherited moments.

    On ``res=0`` over an existing save-point the new session inherits
    its burnt ``seqnum`` history, with a warning that the old sample is
    being superseded.

    Args:
        config: The run configuration (``res`` and ``seqnum`` matter).
        data: The run's data directory.

    Raises:
        ResumeError: When ``res=1`` without a previous simulation, when
            the stored shape differs from the configured one, when
            ``seqnum`` repeats an earlier session's, or when the RNG
            leap parameters differ from the previous sessions'.
    """
    manifest = build_manifest(config)
    if config.res == 0:
        inherited = _previous_seqnums(data)
        if inherited:
            warnings.warn(
                f"res=0 supersedes the existing sample under {data.root}; "
                f"its realizations are discarded but seqnums "
                f"{sorted(set(inherited))} stay burnt for later res=1 "
                f"sessions", SupersededSampleWarning, stacklevel=2)
        used = tuple(sorted(set(inherited) | {config.seqnum}))
        return ResumeState(
            base=MomentSnapshot.zero(config.nrow, config.ncol),
            used_seqnums=used,
            session_index=1,
            manifest=manifest)
    snapshot, meta = data.load_savepoint()
    if tuple(meta.shape) != config.shape:
        raise ResumeError(
            f"previous simulation used matrix shape {tuple(meta.shape)}, "
            f"cannot resume with shape {config.shape}")
    if config.seqnum in meta.used_seqnums:
        raise ResumeError(
            f"seqnum {config.seqnum} was already used by a previous "
            f"session (used: {sorted(meta.used_seqnums)}); choose a fresh "
            f"experiments subsequence")
    stored_leaps = (meta.manifest or {}).get("leaps")
    if stored_leaps is not None and stored_leaps != manifest["leaps"]:
        raise ResumeError(
            f"previous sessions used RNG leap parameters {stored_leaps}, "
            f"cannot resume with {manifest['leaps']}: the substreams of "
            f"the new session would overlap the consumed ones and "
            f"correlate the samples (check parmonc_genparam.dat)")
    return ResumeState(
        base=snapshot,
        used_seqnums=tuple(meta.used_seqnums) + (config.seqnum,),
        session_index=meta.sessions + 1,
        manifest=manifest,
        unknown_payloads=dict(meta.unknown_payloads))

