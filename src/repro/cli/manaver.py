"""The ``manaver`` command (§3.4): manual averaging after a killed job.

When a cluster job is terminated, the result files may lag behind the
subtotals the workers had already delivered.  ``manaver`` merges the
per-processor save-points (plus the previous sessions' merged
save-point, if any) and rewrites the result files so that no simulated
realization is lost.

Recovery is best-effort by design: a torn or checksum-failing artifact
is quarantined (renamed ``*.corrupt``) and skipped with a warning, so
one bad file never costs the realizations every other file still
holds.  Stale ``*.tmp`` files stranded by the crash are swept first.

Usage::

    $ manaver [--workdir DIR]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from repro.exceptions import ReproError, ResumeError
from repro.runtime.files import DataDirectory
from repro.runtime.resume import ResumeState
from repro.stats.merging import merge_snapshots

__all__ = ["main", "manual_average"]

_SEQNUM_PATTERN = re.compile(r"\bseqnum=(\d+)\b")


def _registry_seqnums(data: DataDirectory) -> set[int]:
    """Every seqnum ever registered in parmonc_exp.dat.

    The registry is the one record that survives a crash *before* the
    save-point was rewritten, so it is the authoritative source for
    which experiments subsequences are burnt.
    """
    seqnums = set()
    for line in data.read_registry():
        match = _SEQNUM_PATTERN.search(line)
        if match:
            seqnums.add(int(match.group(1)))
    return seqnums


def manual_average(workdir: Path) -> dict:
    """Merge save-points under ``workdir`` and rewrite result files.

    Returns a summary dict: total volume, processors recovered, whether
    a previous-session base was included, quarantined artifacts, any
    recovery warnings, and the merged extra-statistic map (recovered
    from the same subtotals and persisted with the save-point).

    Raises:
        ReproError: When no usable save-points exist at all.
    """
    data = DataDirectory(workdir)
    data.sweep_temp_files()
    quarantined_before = len(data.quarantined_files())
    warnings: list[str] = []
    snapshots = []
    base_included = False
    meta = None
    if data.has_savepoint():
        try:
            base, meta = data.load_savepoint()
        except ResumeError as exc:
            # The merged base is torn (load_savepoint quarantined it);
            # the per-processor subtotals are still recoverable.
            warnings.append(f"merged save-point unusable, skipped: {exc}")
        else:
            snapshots.append(base)
            base_included = True
    # Subtotals already folded into the merged base (crash between the
    # save-point rename and the subtotal cleanup) must not be merged a
    # second time — their session tag says who absorbed them.
    absorbed = meta.sessions if base_included else None
    processor_snapshots = data.load_processor_snapshots(
        absorbed_sessions=absorbed)
    # The previous sessions' base first, then each rank's latest
    # subtotal in rank order — the same fixed fold the collector uses,
    # extra statistics included.
    snapshots.extend(snapshot for _, snapshot
                     in sorted(processor_snapshots.items()))
    unknown_payloads = dict(meta.unknown_payloads) if base_included else {}
    if base_included and meta.unknown_statistics:
        warnings.append(
            "save-point carries statistics of unregistered kind(s) "
            + ", ".join(meta.unknown_statistics)
            + "; their payloads are preserved verbatim but not merged")
    quarantined = len(data.quarantined_files()) - quarantined_before
    if quarantined:
        warnings.append(
            f"{quarantined} corrupt artifact(s) quarantined as *.corrupt "
            f"and excluded from the recovered sample")
    if not snapshots:
        raise ReproError(
            f"no save-points found under {data.root}; nothing to average")
    # Session accounting: finalized sessions live in the save-point
    # meta; subtotals belong to a session that never finalized; and the
    # registry has one line per *started* experiment, which also covers
    # crashed sessions that left neither a base nor subtotals.
    sessions = (meta.sessions if base_included else 0)
    sessions += 1 if processor_snapshots else 0
    sessions = max(sessions, len(data.read_registry()), 1)
    merged = merge_snapshots(snapshots)
    if merged.volume == 0:
        raise ReproError(
            "save-points contain zero realizations; nothing to average")
    # Burnt experiments subsequences: the savepoint's record plus
    # everything the registry saw (which covers the crashed session).
    used = set(meta.used_seqnums) if base_included else set()
    used |= _registry_seqnums(data)
    seqnum = max(used) if used else -1
    # Processor count: the crashed session's subtotals when present,
    # else the count the save-point manifest recorded for its session —
    # never a misleading 0 just because every subtotal was absorbed.
    manifest = meta.manifest if meta is not None else None
    processors = len(processor_snapshots)
    if processors == 0 and meta is not None and meta.processors:
        processors = meta.processors
    # One commit, as a job's end: the save-point (so a later res=1
    # session resumes from the *full* sample, the previous manifest
    # riding along for the leap-parameter guard) is renamed first, then
    # the result files; then the absorbed subtotals are unlinked.
    data.commit_session(
        ResumeState(base=merged, used_seqnums=tuple(sorted(used)),
                    session_index=sessions, manifest=manifest,
                    unknown_payloads=unknown_payloads),
        merged, merged.estimates(), seqnum=seqnum, processors=processors,
        sessions=sessions)
    return {
        "volume": merged.volume,
        "processors_recovered": len(processor_snapshots),
        "base_included": base_included,
        "quarantined": quarantined,
        "warnings": warnings,
        "results_dir": data.results_dir,
        "statistics": dict(merged.extras or {}),
    }


def build_parser() -> argparse.ArgumentParser:
    """Build the manaver argument parser."""
    parser = argparse.ArgumentParser(
        prog="manaver",
        description="Average subtotal sample moments left by a terminated "
                    "job and rewrite the result files (PARMONC "
                    "section 3.4).")
    parser.add_argument("--workdir", type=Path, default=Path.cwd(),
                        help="directory containing parmonc_data "
                             "(default: current directory)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        summary = manual_average(args.workdir)
    except ReproError as exc:
        print(f"manaver: error: {exc}", file=sys.stderr)
        return 2
    for warning in summary["warnings"]:
        print(f"manaver: warning: {warning}", file=sys.stderr)
    print(f"recovered {summary['volume']} realizations from "
          f"{summary['processors_recovered']} processor save-point(s)"
          + (" plus the previous sessions' base"
             if summary["base_included"] else ""))
    for kind in sorted(summary["statistics"]):
        statistic = summary["statistics"][kind]
        print(f"recovered statistic {kind}: L={statistic.volume}")
    print(f"results written under {summary['results_dir']}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
