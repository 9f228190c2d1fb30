"""A full user campaign, end to end, across the whole tool surface.

Plays the complete lifecycle a real PARMONC user would: certify the
generator, configure a custom hierarchy with genparam, run on every
backend, monitor with parmonc-report, crash and recover with manaver,
resume, and verify the final numbers — one test class per act, sharing
one working directory through a module-scoped fixture.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import parmonc
from repro.apps.integration import make_realization, product_of_powers
from repro.cli.genparam import main as genparam_main
from repro.cli.manaver import manual_average
from repro.cli.report import render_report
from repro.rng.multiplier import LeapSet
from repro.runtime.bootstrap import start_session
from repro.runtime.collector import Collector
from repro.runtime.config import RunConfig
from repro.runtime.files import DataDirectory
from repro.runtime.worker import run_worker

PROBLEM = product_of_powers((2,))  # integral of x^2 = 1/3
REALIZATION = make_realization(PROBLEM)


@pytest.fixture(scope="module")
def campaign(tmp_path_factory, default_certification):
    """Run the whole campaign once; tests assert on its artefacts."""
    workdir = tmp_path_factory.mktemp("campaign")
    log: dict = {"workdir": workdir}

    # Act 0: certification of the default generator, before any
    # genparam file exists (reduced size, and the run the session
    # shares; the benches run it at scale).
    log["certified"] = default_certification[0] == 0

    # Act 1: custom hierarchy via genparam.
    genparam_main(["60", "40", "20", "--workdir", str(workdir)])

    # Act 2: session 1 on the sequential backend.
    log["run1"] = parmonc(REALIZATION, maxsv=300, processors=3,
                          workdir=workdir)

    # Act 3: session 2 on the multiprocess backend, resuming.
    log["run2"] = parmonc(REALIZATION, maxsv=300, res=1, seqnum=1,
                          processors=3, backend="multiprocess",
                          workdir=workdir)

    # Act 4: session 3 crashes mid-flight, before its finals reach
    # rank 0 (the last one would commit the run)...
    config = RunConfig(maxsv=90, processors=3, res=1, seqnum=2,
                       workdir=workdir,
                       leaps=LeapSet(60, 40, 20))
    data, state = start_session(config)
    collector = Collector(config, state.base, data,
                          sessions=state.session_index)
    for rank in range(3):
        run_worker(REALIZATION, config, rank, 30,
                   send=lambda m: m.final or collector.receive(m, 0.0))
    # ...and manaver recovers it.
    log["recovery"] = manual_average(workdir)

    # Act 5: final resumed session on the simulated cluster.
    log["run3"] = parmonc(REALIZATION, maxsv=210, res=1, seqnum=3,
                          processors=3, backend="simcluster",
                          workdir=workdir)
    log["report"] = render_report(workdir)
    return log


class TestCampaign:
    def test_certification_passed(self, campaign):
        assert campaign["certified"]

    def test_genparam_hierarchy_was_used(self, campaign):
        # The custom hierarchy (2^60/2^40/2^20) was in force for every
        # session: the config carried it.
        assert campaign["run1"].config.leaps.experiment_exponent == 60
        assert campaign["run3"].config.leaps.realization_exponent == 20

    def test_volumes_accumulate_across_everything(self, campaign):
        assert campaign["run1"].total_volume == 300
        assert campaign["run2"].total_volume == 600
        assert campaign["recovery"]["volume"] == 690
        assert campaign["recovery"]["processors_recovered"] == 3
        assert campaign["run3"].total_volume == 900

    def test_sessions_counted(self, campaign):
        assert campaign["run1"].sessions == 1
        assert campaign["run2"].sessions == 2
        assert campaign["run3"].sessions == 4  # crash session counted

    def test_final_estimate_is_correct(self, campaign):
        estimates = campaign["run3"].estimates
        assert abs(estimates.mean[0, 0] - 1.0 / 3.0) \
            <= 3 * estimates.abs_error[0, 0] + 1e-9

    def test_final_estimate_matches_manual_union(self, campaign):
        # Rebuild the union of all four sessions' streams by hand under
        # the custom hierarchy and require exact agreement.
        from repro.rng.streams import StreamTree
        from repro.stats.accumulator import MomentAccumulator
        tree = StreamTree(LeapSet(60, 40, 20))
        reference = MomentAccumulator(1, 1)
        for seqnum, per_rank in ((0, 100), (1, 100), (2, 30), (3, 70)):
            for rank in range(3):
                for index in range(per_rank):
                    reference.add(REALIZATION(tree.rng(seqnum, rank,
                                                       index)))
        assert campaign["run3"].estimates.mean[0, 0] == pytest.approx(
            reference.estimates().mean[0, 0], rel=1e-12)

    def test_report_reflects_final_state(self, campaign):
        report = campaign["report"]
        assert "total_sample_volume" in report
        assert "900" in report
        assert "resumable: yes" in report
        assert "next free seqnum is 4" in report

    def test_registry_has_every_session(self, campaign):
        registry = DataDirectory(campaign["workdir"]).read_registry()
        assert len(registry) == 4  # crash session registered too

    def test_result_files_consistent_with_returned_estimates(self,
                                                             campaign):
        stored = DataDirectory(campaign["workdir"]).read_mean_matrix()
        assert np.allclose(stored,
                           campaign["run3"].estimates.mean, rtol=1e-12)
