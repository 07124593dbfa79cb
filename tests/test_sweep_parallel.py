"""Process-parallel sweep execution: equivalence, resume, isolation.

Workers are real processes, so the failing design used for fault
isolation is defined at module level (it must pickle by reference).
"""

import dataclasses

import pytest

from repro.designs.configs import EH_CONFIGS, N_CONFIGS
from repro.designs.fourlc import FourLCDesign
from repro.designs.fourlcnvm import FourLCNVMDesign
from repro.designs.nmm import NMMDesign
from repro.errors import ConfigError, SweepError
from repro.experiments.runner import Runner
from repro.experiments.sweep import run_sweep
from repro.resilience import Journal, SweepExecutor
from repro.resilience.journal import cell_key
from repro.tech.params import EDRAM, PCM
from repro.workloads.registry import get_workload

pytestmark = pytest.mark.resilience

SCALE = 1.0 / 8192


class ExplodingDesign(NMMDesign):
    """Raises during simulation; used to prove worker fault isolation."""

    def lower_caches(self):
        raise RuntimeError("injected lower-cache failure")


@pytest.fixture(scope="module")
def trace_cache(tmp_path_factory):
    """Shared on-disk trace cache so every runner reuses one tracing."""
    return str(tmp_path_factory.mktemp("traces"))


@pytest.fixture(scope="module")
def workloads():
    return [get_workload("CG"), get_workload("SP")]


def make_runner(trace_cache):
    return Runner(scale=SCALE, seed=5, trace_cache_dir=trace_cache)


def make_designs(reference):
    return [
        NMMDesign(PCM, N_CONFIGS["N6"], scale=SCALE, reference=reference),
        FourLCDesign(EDRAM, EH_CONFIGS["EH4"], scale=SCALE,
                     reference=reference),
        FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH4"], scale=SCALE,
                        reference=reference),
    ]


class TestParallelEquivalence:
    def test_workers_two_equals_workers_one(self, trace_cache, workloads,
                                            tmp_path):
        seq_runner = make_runner(trace_cache)
        seq_journal = Journal(tmp_path / "seq.jsonl")
        seq = SweepExecutor(seq_runner, journal=seq_journal).run(
            make_designs(seq_runner.reference), workloads
        )

        par_runner = make_runner(trace_cache)
        par_journal = Journal(tmp_path / "par.jsonl")
        par = SweepExecutor(par_runner, journal=par_journal, workers=2).run(
            make_designs(par_runner.reference), workloads
        )

        assert [o.key for o in par.outcomes] == [o.key for o in seq.outcomes]
        assert all(o.ok for o in par.outcomes)
        for a, b in zip(seq.outcomes, par.outcomes):
            assert a.status == b.status
            assert dataclasses.asdict(a.evaluation) == dataclasses.asdict(
                b.evaluation
            )
        seq_entries = seq_journal.load()
        par_entries = par_journal.load()
        assert set(seq_entries) == set(par_entries)
        for key, entry in seq_entries.items():
            other = par_entries[key]
            assert (entry.status, entry.evaluation) == (
                other.status, other.evaluation
            )

    def test_run_sweep_workers_kwarg(self, trace_cache, workloads):
        seq_runner = make_runner(trace_cache)
        par_runner = make_runner(trace_cache)
        seq = run_sweep(seq_runner, make_designs(seq_runner.reference),
                        workloads)
        par = run_sweep(par_runner, make_designs(par_runner.reference),
                        workloads, workers=2)
        assert [(r.design, r.workload) for r in seq] == [
            (r.design, r.workload) for r in par
        ]
        for a, b in zip(seq, par):
            assert dataclasses.asdict(a.evaluation) == dataclasses.asdict(
                b.evaluation
            )


class TestParallelResume:
    def test_full_resume_skips_the_pool(self, trace_cache, workloads,
                                        tmp_path):
        journal = Journal(tmp_path / "resume.jsonl")
        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference)
        first = SweepExecutor(runner, journal=journal, workers=2).run(
            designs, workloads
        )
        assert all(o.ok for o in first.outcomes)

        again = SweepExecutor(
            make_runner(trace_cache), journal=journal, workers=2
        ).run(designs, workloads)
        assert all(o.from_journal for o in again.outcomes)
        assert [o.key for o in again.outcomes] == [
            o.key for o in first.outcomes
        ]

    def test_partial_resume_runs_only_missing_cells(self, trace_cache,
                                                    workloads, tmp_path):
        journal = Journal(tmp_path / "partial.jsonl")
        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference)
        # Seed the journal with one workload's worth of results.
        SweepExecutor(runner, journal=journal).run(designs, workloads[:1])

        resumed = SweepExecutor(
            make_runner(trace_cache), journal=journal, workers=2
        ).run(designs, workloads)
        by_workload = {}
        for outcome in resumed.outcomes:
            by_workload.setdefault(outcome.workload, []).append(outcome)
        assert all(o.from_journal for o in by_workload[workloads[0].name])
        assert not any(o.from_journal for o in by_workload[workloads[1].name])
        assert all(o.ok for o in resumed.outcomes)


def make_boom(reference):
    boom = ExplodingDesign(PCM, N_CONFIGS["N6"], scale=SCALE,
                           reference=reference)
    boom.name = "BOOM"
    return boom


class TestParallelFaultIsolation:
    def test_bad_cell_does_not_sink_the_pool(self, trace_cache, workloads):
        runner = make_runner(trace_cache)
        designs = make_designs(runner.reference) + [
            make_boom(runner.reference)
        ]
        result = SweepExecutor(runner, workers=2).run(designs, workloads)
        bad = [o for o in result.outcomes if o.design == "BOOM"]
        good = [o for o in result.outcomes if o.design != "BOOM"]
        assert bad and all(o.status == "failed" for o in bad)
        assert all("injected lower-cache failure" in o.error for o in bad)
        assert good and all(o.ok for o in good)


class TestParallelFailFast:
    def test_run_sweep_raises_naming_the_cell(self, trace_cache, workloads):
        runner = make_runner(trace_cache)
        designs = [make_boom(runner.reference)] + make_designs(
            runner.reference
        )
        with pytest.raises(SweepError, match=r"cell BOOM/(CG|SP) failed"):
            run_sweep(runner, designs, workloads, workers=2)

    def test_remaining_cells_are_skipped(self, trace_cache, workloads):
        runner = make_runner(trace_cache)
        designs = [make_boom(runner.reference)] + make_designs(
            runner.reference
        )
        result = SweepExecutor(runner, workers=2, keep_going=False).run(
            designs, workloads
        )
        # Both workers start on a BOOM cell; the first failure stops
        # dispatch, so every healthy cell is skipped.
        failed = [o for o in result.outcomes if o.status == "failed"]
        skipped = [o for o in result.outcomes if o.status == "skipped"]
        assert [o.design for o in failed] == ["BOOM", "BOOM"]
        assert len(skipped) == 6
        assert all(o.design != "BOOM" for o in skipped)
        assert all("keep_going is off" in o.error for o in skipped)


class TestValidation:
    def test_evaluate_override_rejected_with_workers(self, trace_cache):
        with pytest.raises(ConfigError):
            SweepExecutor(
                make_runner(trace_cache), workers=2,
                evaluate=lambda d, w: None,
            )

    def test_workers_must_be_positive(self, trace_cache):
        with pytest.raises(ConfigError):
            SweepExecutor(make_runner(trace_cache), workers=0)


class TestDrainKeying:
    def test_drain_enters_the_key_only_when_true(self):
        base = cell_key("D", "W", 0.5, 7)
        assert cell_key("D", "W", 0.5, 7, drain=False) == base
        assert cell_key("D", "W", 0.5, 7, drain=True) != base
