"""The ``parmonc-rngtest`` command: certify the generator installation.

Runs the full quality portfolio against the configured generator (the
defaults, or the hierarchy from a ``parmonc_genparam.dat`` in the
working directory): the twelve-test statistical battery on the general
sequence, the two-level substream certificate, and the spectral test
of the multiplier.  Exit code 0 means every check passed — the
reproduction's equivalent of the paper's "well tested, fast and
reliable" stamp.

Usage::

    $ parmonc-rngtest [--draws N] [--substreams K] [--workdir DIR]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.exceptions import ReproError
from repro.rng.multiplier import BASE_MULTIPLIER, MODULUS, LeapSet
from repro.rng.spectral import spectral_report
from repro.rng.streams import StreamTree
from repro.rng.vectorized import VectorLcg128
from repro.runtime.files import read_genparam_file

__all__ = ["main", "certify"]


def certify(draws: int = 100_000, substreams: int = 32,
            workdir: Path | str = ".",
            alpha: float = 0.01) -> tuple[bool, str]:
    """Run the full certification; return ``(all_passed, report_text)``."""
    # The battery needs scipy; importing it here keeps the other
    # commands of this package (parmonc-run, parmonc-submit, ...) off it.
    from repro.rng.testing import run_battery, two_level_substream_test

    stored = read_genparam_file(workdir)
    if stored is not None:
        leaps = LeapSet(experiment_exponent=stored["ne_exponent"],
                        processor_exponent=stored["np_exponent"],
                        realization_exponent=stored["nr_exponent"])
        source = "parmonc_genparam.dat"
    else:
        leaps = LeapSet()
        source = "defaults"
    tree = StreamTree(leaps)
    lines = [f"generator certification ({source}: leaps 2^"
             f"{leaps.experiment_exponent}/2^{leaps.processor_exponent}"
             f"/2^{leaps.realization_exponent})", ""]
    verdicts = []

    battery = run_battery(VectorLcg128(1).uniforms(draws),
                          "general sequence", alpha=alpha)
    lines.append(battery.render())
    verdicts.append(battery.all_passed)

    per_stream = max(1000, draws // substreams)
    two_level = two_level_substream_test(
        tree, n_substreams=substreams, draws_per_stream=per_stream,
        alpha=alpha)
    lines.append("")
    lines.append(str(two_level))
    verdicts.append(two_level.passed)

    spectral = spectral_report(BASE_MULTIPLIER, MODULUS,
                               dimensions=(2, 3, 4, 5, 6))
    lines.append("")
    lines.append(spectral.render())
    spectral_ok = spectral.worst > 0.1
    lines.append(f"  worst merit {spectral.worst:.4f} "
                 f"({'pass' if spectral_ok else 'FAIL'}; "
                 f"defect threshold 0.1)")
    verdicts.append(spectral_ok)

    all_passed = all(verdicts)
    lines.append("")
    lines.append("certification: " + ("PASSED" if all_passed
                                      else "FAILED"))
    return all_passed, "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """Build the parmonc-rngtest argument parser."""
    parser = argparse.ArgumentParser(
        prog="parmonc-rngtest",
        description="Statistical and spectral certification of the "
                    "parallel generator.")
    parser.add_argument("--draws", type=int, default=100_000,
                        help="battery sample size (default 100000)")
    parser.add_argument("--substreams", type=int, default=32,
                        help="substreams for the two-level certificate")
    parser.add_argument("--workdir", type=Path, default=Path.cwd(),
                        help="directory checked for parmonc_genparam.dat")
    parser.add_argument("--alpha", type=float, default=0.01,
                        help="per-test significance level")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns 0 when certification passes."""
    args = build_parser().parse_args(argv)
    try:
        passed, report = certify(draws=args.draws,
                                 substreams=args.substreams,
                                 workdir=args.workdir, alpha=args.alpha)
    except ReproError as exc:
        print(f"parmonc-rngtest: error: {exc}", file=sys.stderr)
        return 2
    print(report)
    return 0 if passed else 1


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
