"""The ``parmonc-report`` command: summarize a run's result files.

Reads the ``parmonc_data`` directory of §3.6 and prints a human
summary: the run log, the experiment registry, the shape and corner of
the mean matrix, the worst errors, and the resumability status.

With ``--telemetry`` the report also renders the run's observability
artifacts (``telemetry/events.jsonl`` + ``metrics.json``, written by
telemetry-enabled runs; see ``docs/observability.md``).

Usage::

    $ parmonc-report [--workdir DIR] [--rows N] [--telemetry]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.exceptions import ConfigurationError, ReproError, ResumeError
from repro.obs.render import render_telemetry
from repro.runtime.engine import available_backends
from repro.runtime.files import DataDirectory
from repro.stats.statistic import Covariance, Histogram, Statistic

__all__ = ["main", "render_report"]

#: Glyph ramp for the histogram sparkline (space = empty bin).
_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def _sparkline(counts) -> str:
    """Render bin counts as a one-line unicode sparkline."""
    counts = [int(count) for count in counts]
    peak = max(counts, default=0)
    if peak <= 0:
        return "(no in-range samples)"
    glyphs = []
    for count in counts:
        if count == 0:
            glyphs.append(" ")
            continue
        level = int(count * (len(_SPARK_LEVELS) - 1) / peak)
        glyphs.append(_SPARK_LEVELS[level])
    return "".join(glyphs)


def _render_statistic(kind: str, statistic: Statistic) -> list[str]:
    """Lines for one merged extra statistic of the save-point."""
    description = statistic.describe()
    if not description.startswith(kind):
        description = f"{kind}: {description}"
    lines = [f"  {description}"]
    if isinstance(statistic, Histogram):
        edges = statistic.bin_edges
        lines.append("    " + _sparkline(statistic.bin_counts))
        lines.append(
            f"    range [{edges[0]:g}, {edges[-1]:g}) over "
            f"{statistic.bins} bins; underflow={statistic.underflow}, "
            f"overflow={statistic.overflow}")
    elif isinstance(statistic, Covariance) and statistic.volume >= 2:
        matrix = statistic.accumulator.covariance()
        preview = min(4, matrix.shape[0])
        lines.append(f"    covariance matrix "
                     f"{matrix.shape[0]}x{matrix.shape[1]}"
                     + (f", first {preview}x{preview}:"
                        if matrix.shape[0] > preview else ":"))
        for row in matrix[:preview]:
            lines.append("      " + " ".join(f"{value: .4e}"
                                             for value in row[:preview])
                         + (" ..." if matrix.shape[1] > preview else ""))
    return lines


def render_report(workdir: Path, rows: int = 5,
                  telemetry: bool = False) -> str:
    """Build the report text for a ``parmonc_data`` directory.

    Args:
        workdir: Directory containing ``parmonc_data``.
        rows: Matrix rows to preview.
        telemetry: Append the telemetry view (metrics, spans, events)
            when the run recorded one.

    Raises:
        ReproError: If no results exist under ``workdir``.
    """
    data = DataDirectory(workdir)
    if not data.root.exists():
        raise ReproError(f"no parmonc_data directory under {workdir}")
    lines = [f"PARMONC run summary — {data.root}", "=" * 60,
             "registered backends: " + ", ".join(available_backends())]
    try:
        log = data.read_log()
    except ResumeError:
        log = {}
    if log:
        lines.append("run log (func_log.dat):")
        for key in ("total_sample_volume", "matrix_shape",
                    "mean_time_per_realization_sec",
                    "abs_error_upper_bound",
                    "rel_error_upper_bound_percent", "seqnum",
                    "processors", "sessions", "written_at"):
            if key in log:
                lines.append(f"  {key:<34s} {log[key]}")
    else:
        lines.append("no result files yet (run still in flight, or "
                     "recover with manaver)")
    try:
        mean = data.read_mean_matrix()
        lines.append("")
        lines.append(f"sample means (func.dat), shape "
                     f"{mean.shape[0]}x{mean.shape[1]}, first rows:")
        for row in mean[:rows]:
            lines.append("  " + " ".join(f"{value: .6e}"
                                         for value in row[:6])
                         + (" ..." if mean.shape[1] > 6 else ""))
        if mean.shape[0] > rows:
            lines.append(f"  ... ({mean.shape[0] - rows} more rows)")
    except ResumeError:
        pass
    registry = data.read_registry()
    if registry:
        lines.append("")
        lines.append(f"experiments started ({len(registry)}):")
        for entry in registry[-5:]:
            lines.append(f"  {entry}")
        if len(registry) > 5:
            lines.append(f"  ... ({len(registry) - 5} earlier entries)")
    lines.append("")
    absorbed = None
    if data.has_savepoint():
        try:
            snapshot, meta = data.load_savepoint()
        except ResumeError as exc:
            lines.append(f"resumable: no — merged save-point is corrupt "
                         f"and was quarantined ({exc})")
        else:
            absorbed = meta.sessions
            lines.append(
                f"resumable: yes — merged save-point holds "
                f"{snapshot.volume} realizations over {meta.sessions} "
                f"session(s); next free seqnum is "
                f"{max(meta.used_seqnums) + 1 if meta.used_seqnums else 0}")
            if snapshot.extras:
                lines.append("")
                lines.append("extra statistics (merged):")
                for kind in sorted(snapshot.extras):
                    lines.extend(_render_statistic(kind,
                                                   snapshot.extras[kind]))
            if meta.unknown_statistics:
                lines.append(
                    "NOTE: save-point carries statistics of unregistered "
                    "kind(s) " + ", ".join(meta.unknown_statistics)
                    + " — payloads preserved but not rendered (register "
                    "the kind to see them)")
    else:
        lines.append("resumable: no merged save-point present")
    pending = data.load_processor_snapshots(absorbed_sessions=absorbed)
    if pending:
        recoverable = sum(s.volume for s in pending.values())
        lines.append(
            f"NOTE: {len(pending)} processor save-point(s) with "
            f"{recoverable} realizations await `manaver` recovery")
    quarantined = data.quarantined_files()
    if quarantined:
        lines.append(
            f"WARNING: {len(quarantined)} quarantined artifact(s) "
            f"(*.corrupt) under {data.root}:")
        for path in quarantined[:5]:
            lines.append(f"  {path.relative_to(data.root)}")
        if len(quarantined) > 5:
            lines.append(f"  ... ({len(quarantined) - 5} more)")
    if telemetry:
        lines.append("")
        try:
            lines.append(render_telemetry(data.telemetry_dir))
        except ConfigurationError as exc:
            lines.append(f"telemetry: {exc}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """Build the parmonc-report argument parser."""
    parser = argparse.ArgumentParser(
        prog="parmonc-report",
        description="Summarize the result files of a PARMONC run.")
    parser.add_argument("--workdir", type=Path, default=Path.cwd(),
                        help="directory containing parmonc_data")
    parser.add_argument("--rows", type=int, default=5,
                        help="matrix rows to preview")
    parser.add_argument("--telemetry", action="store_true",
                        help="append the run's telemetry view (metrics, "
                             "spans, events)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        print(render_report(args.workdir, rows=max(1, args.rows),
                            telemetry=args.telemetry))
    except ReproError as exc:
        print(f"parmonc-report: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
