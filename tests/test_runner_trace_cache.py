"""Runner on-disk trace cache tests."""

import pytest

from repro.designs.configs import N_CONFIGS
from repro.designs.nmm import NMMDesign
from repro.experiments.runner import Runner
from repro.tech.params import PCM
from repro.workloads.registry import get_workload

SCALE = 1.0 / 8192


class TestTraceCache:
    def test_cache_files_written(self, tmp_path):
        runner = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        runner.prepare(get_workload("CG"))
        assert list(tmp_path.glob("CG-*.stream.rts"))
        assert list(tmp_path.glob("CG-*.regions.json"))

    def test_second_runner_reloads(self, tmp_path):
        first = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        trace_a = first.prepare(get_workload("CG"))
        second = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        trace_b = second.prepare(get_workload("CG"))
        assert trace_b.result.checks == {"cached": True}
        assert len(trace_b.result.stream) == len(trace_a.result.stream)
        # Region maps survive for the NDM oracle.
        assert [r.name for r in trace_b.result.tracer.regions] == [
            r.name for r in trace_a.result.tracer.regions
        ]

    def test_cached_evaluations_identical(self, tmp_path):
        design_args = dict(scale=SCALE)
        fresh = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        ev_a = fresh.evaluate(
            NMMDesign(PCM, N_CONFIGS["N6"], reference=fresh.reference,
                      **design_args),
            get_workload("CG"),
        )
        reloaded = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        ev_b = reloaded.evaluate(
            NMMDesign(PCM, N_CONFIGS["N6"], reference=reloaded.reference,
                      **design_args),
            get_workload("CG"),
        )
        assert ev_a.time_norm == ev_b.time_norm
        assert ev_a.energy_j == ev_b.energy_j

    def test_different_seed_not_shared(self, tmp_path):
        a = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        a.prepare(get_workload("CG"))
        b = Runner(scale=SCALE, seed=5, trace_cache_dir=str(tmp_path))
        trace = b.prepare(get_workload("CG"))
        assert trace.result.checks != {"cached": True}

    def test_oracle_works_from_cache(self, tmp_path):
        Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path)).prepare(
            get_workload("CG")
        )
        reloaded = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        placements = reloaded.ndm_oracle(get_workload("CG"), PCM)
        assert placements

    def test_no_cache_dir_no_files(self, tmp_path):
        runner = Runner(scale=SCALE, seed=4)
        runner.prepare(get_workload("CG"))
        assert not list(tmp_path.iterdir())


class TestCorruptCacheSelfHeal:
    def test_corrupt_entry_discarded_and_retraced(self, tmp_path):
        first = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        trace_a = first.prepare(get_workload("CG"))
        stream_path = next(iter(tmp_path.glob("CG-*.stream.rts")))
        # Corrupt a byte inside the first chunk's payload (chunks start
        # at the first page boundary), which the runner's eager
        # verify() pass must catch.
        data = bytearray(stream_path.read_bytes())
        data[4096 + 10] ^= 0xFF
        stream_path.write_bytes(bytes(data))

        healed = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        trace_b = healed.prepare(get_workload("CG"))
        # Re-traced (not served from the corrupt cache) ...
        assert trace_b.result.checks != {"cached": True}
        assert len(trace_b.result.stream) == len(trace_a.result.stream)
        # ... and the cache entry was rewritten cleanly for next time.
        third = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        assert third.prepare(get_workload("CG")).result.checks == {
            "cached": True
        }

    def test_discard_trace_removes_pair_and_sidecars(self, tmp_path):
        from repro.trace.io import discard_trace

        runner = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        runner.prepare(get_workload("CG"))
        name = next(iter(tmp_path.glob("CG-*.stream.rts"))).name
        name = name.removesuffix(".stream.rts")
        removed = discard_trace(tmp_path, name)
        assert len(removed) == 4  # two artifacts + two sidecars
        # What remains is the saved L1–L3 capture (stream, record and
        # their sidecars). It is keyed by the trace's content, so it
        # stays valid for a re-trace that reproduces the same bytes.
        remaining = [p.name for p in tmp_path.iterdir()]
        assert len(remaining) == 4
        assert all(
            p.startswith(f"{name}.upper-") and ".post_l3." in p
            for p in remaining
        )
