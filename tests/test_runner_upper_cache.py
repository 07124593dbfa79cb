"""The runner's saved L1–L3 result (post-L3 capture in the trace cache).

A warm entry must give bit-identical traces and evaluations to a cold
simulation; a corrupt or incomplete entry must be discarded, re-
simulated and rewritten; and every input the upper levels depend on
must key the entry.
"""

import dataclasses
import hashlib

import pytest

from repro.cache.config import CacheConfig
from repro.designs.base import ReferenceSystem
from repro.designs.configs import EH_CONFIGS, N_CONFIGS
from repro.designs.fourlc import FourLCDesign
from repro.designs.nmm import NMMDesign
from repro.errors import TraceIntegrityError
from repro.experiments import runner as runner_module
from repro.experiments.characterize import characterize
from repro.experiments.runner import Runner
from repro.tech.params import EDRAM, PCM
from repro.telemetry.core import Telemetry
from repro.telemetry.exporters import read_jsonl
from repro.trace.io import load_capture
from repro.workloads.registry import get_workload

SCALE = 1.0 / 8192
SAMPLE = "500:2000:5000"


@pytest.fixture
def upper_sims(monkeypatch):
    """Counts the L1–L3 simulations every runner performs."""
    calls = []
    original = Runner._simulate_upper

    def counting(self, workload, stream):
        calls.append(workload.name)
        return original(self, workload, stream)

    monkeypatch.setattr(Runner, "_simulate_upper", counting)
    return calls


def entry_files(directory):
    return sorted(p.name for p in directory.glob("*.upper-*"))


def stream_digest(stream):
    digest = hashlib.sha256()
    for chunk in stream.chunks():
        for array in (chunk.addresses, chunk.sizes, chunk.is_store):
            digest.update(array.tobytes())
    return len(stream), digest.hexdigest()


def designs(runner):
    return [
        NMMDesign(PCM, N_CONFIGS["N6"], scale=runner.scale,
                  reference=runner.reference),
        FourLCDesign(EDRAM, EH_CONFIGS["EH3"], scale=runner.scale,
                     reference=runner.reference),
    ]


def snapshot(runner, workload):
    """Every prepared field plus the evaluations of two designs."""
    trace = runner.prepare(workload)
    return {
        "upper_stats": [dataclasses.asdict(s) for s in trace.upper_stats],
        "references": trace.references,
        "ref_raw": trace.ref_raw,
        "footprint": trace.traced_footprint_bytes,
        "factor": trace.sample_factor,
        "fidelity": trace.sample_fidelity,
        "segments": trace.post_l3_segments,
        "post_l3": stream_digest(trace.post_l3),
        "evaluations": [
            runner.evaluate(design, workload) for design in designs(runner)
        ],
    }


def run(cache, **kwargs):
    kwargs.setdefault("scale", SCALE)
    kwargs.setdefault("seed", 4)
    runner = Runner(trace_cache_dir=str(cache) if cache else None, **kwargs)
    return snapshot(runner, get_workload("CG"))


class TestWarmEntryIsExact:
    @pytest.mark.parametrize("kwargs", [
        pytest.param({}, id="exact"),
        pytest.param({"drain": True}, id="drain"),
        pytest.param({"sample": SAMPLE}, id="sampled"),
        pytest.param({"engine": "analytic"}, id="analytic"),
    ])
    def test_cold_warm_and_uncached_agree(self, tmp_path, upper_sims,
                                          kwargs):
        uncached = run(None, **kwargs)
        cold = run(tmp_path, **kwargs)
        assert len(entry_files(tmp_path)) == 4  # stream, record, sidecars
        for profile in tmp_path.glob("*.profile-*"):
            profile.unlink()  # re-profile the loaded capture
        warm = run(tmp_path, **kwargs)
        assert upper_sims == ["CG", "CG"]  # the warm runner loaded it
        assert cold == uncached
        assert warm == uncached

    def test_ndm_oracle_through_lazy_trace(self, tmp_path, upper_sims):
        workload = get_workload("CG")
        cold = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        expected = cold.ndm_oracle(workload, PCM)
        warm = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        trace = warm.prepare(workload)
        assert "result" not in vars(trace)  # the trace is not open yet
        assert warm.ndm_oracle(workload, PCM) == expected
        assert trace.result.checks == {"cached": True}
        assert upper_sims == ["CG"]

    def test_characterize_through_lazy_trace(self, tmp_path, upper_sims):
        workload = get_workload("CG")
        cold = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        expected = characterize(cold, workload)
        warm = Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path))
        assert characterize(warm, workload) == expected
        assert upper_sims == ["CG"]

    def test_local_factor_applies_after_loading(self, tmp_path, upper_sims):
        # The saved stats are raw; local-reference injection is not
        # part of the key, so another factor reuses the entry.
        run(tmp_path)
        assert run(tmp_path, local_factor=2.0) == run(None, local_factor=2.0)
        assert upper_sims == ["CG", "CG"]  # the uncached runner only


def corrupt_stream_byte(path):
    data = bytearray(path.read_bytes())
    data[4096 + 10] ^= 0xFF  # inside the first chunk's payload
    path.write_bytes(bytes(data))


def truncate(path):
    path.write_bytes(path.read_bytes()[:5000])


def corrupt_record(path):
    path.write_text(path.read_text().replace('"references"', '"refs"', 1))


def damage(name, fn):
    def apply(directory):
        fn(next(directory.glob(f"*.upper-*{name}")))
    return apply


class TestSelfHeal:
    @pytest.mark.parametrize("apply", [
        pytest.param(damage(".post_l3.rts", corrupt_stream_byte),
                     id="bit-flipped-stream"),
        pytest.param(damage(".post_l3.rts", truncate), id="truncated-stream"),
        pytest.param(damage(".post_l3.json", corrupt_record),
                     id="corrupt-record"),
        pytest.param(damage(".post_l3.json", lambda p: p.write_text("{")),
                     id="unparseable-record"),
        pytest.param(damage(".post_l3.json", lambda p: p.unlink()),
                     id="missing-record"),
        pytest.param(damage(".post_l3.rts", lambda p: p.unlink()),
                     id="missing-stream"),
        pytest.param(damage(".post_l3.rts.sha256", lambda p: p.unlink()),
                     id="missing-stream-sidecar"),
        pytest.param(damage(".post_l3.json.sha256", lambda p: p.unlink()),
                     id="missing-record-sidecar"),
    ])
    def test_damaged_entry_is_resimulated_and_rewritten(
        self, tmp_path, upper_sims, apply
    ):
        cold = run(tmp_path)
        files = entry_files(tmp_path)
        apply(tmp_path)
        healed = run(tmp_path)
        assert healed == cold
        assert upper_sims == ["CG", "CG"]
        assert entry_files(tmp_path) == files
        assert run(tmp_path) == cold
        assert upper_sims == ["CG", "CG"]  # the rewritten entry loads


class TestLoadCapture:
    @pytest.fixture
    def saved(self, tmp_path):
        run(tmp_path)
        return tmp_path, next(tmp_path.glob("*.post_l3.json")).name[
            :-len(".post_l3.json")
        ]

    def test_entry_without_record_sidecar_is_incomplete(self, saved):
        # A writer has replaced the record but not yet its sidecar:
        # nothing to load, and nothing to delete.
        directory, name = saved
        (directory / f"{name}.post_l3.json.sha256").unlink()
        before = entry_files(directory)
        assert load_capture(directory, name) is None
        assert entry_files(directory) == before

    def test_unreadable_record_is_an_integrity_error(self, saved):
        directory, name = saved
        (directory / f"{name}.post_l3.json").unlink()
        with pytest.raises(TraceIntegrityError):
            load_capture(directory, name)


class TestKey:
    @pytest.mark.parametrize("base, changed", [
        pytest.param({}, {"drain": True}, id="drain"),
        pytest.param({}, {"sample": SAMPLE}, id="sample"),
        pytest.param({"sample": SAMPLE}, {"sample": "500:2000:6000"},
                     id="sample-spec"),
        pytest.param({}, {"scale": SCALE / 2}, id="scale"),
        pytest.param({}, {"reference": dataclasses.replace(
            ReferenceSystem.sandy_bridge(),
            l3=CacheConfig("L3", 1024 * 1024, 16, 64),
        )}, id="reference"),
    ])
    def test_input_change_misses(self, tmp_path, upper_sims, base, changed):
        run(tmp_path, **base)
        before = entry_files(tmp_path)
        assert run(tmp_path, **changed) == run(None, **changed)
        assert upper_sims == ["CG", "CG", "CG"]
        assert len(entry_files(tmp_path)) == len(before) + 4

    def test_engine_is_not_part_of_the_key(self, tmp_path, upper_sims):
        run(tmp_path)
        for engine in ("scalar", "setpar", "analytic"):
            Runner(scale=SCALE, seed=4, trace_cache_dir=str(tmp_path),
                   engine=engine).prepare(get_workload("CG"))
        assert upper_sims == ["CG"]

    def test_simulator_change_misses(self, tmp_path, upper_sims,
                                     monkeypatch):
        run(tmp_path)
        monkeypatch.setattr(runner_module, "_simulator_digest",
                            lambda: "0" * 64)
        run(tmp_path)
        assert upper_sims == ["CG", "CG"]
        assert len(entry_files(tmp_path)) == 8

    def test_trace_glob_matches_only_the_trace(self, tmp_path):
        run(tmp_path)
        assert len(list(tmp_path.glob("CG-*.stream.rts"))) == 1


class TestTelemetry:
    def test_loaded_entry_simulates_nothing(self, tmp_path):
        workload = get_workload("CG")
        events, references = {}, {}
        for name in ("cold", "warm"):
            telemetry = Telemetry(tmp_path / name)
            runner = Runner(scale=SCALE, seed=4, telemetry=telemetry,
                            trace_cache_dir=str(tmp_path / "cache"))
            runner.prepare(workload)
            references[name] = telemetry.counter(
                "repro_references_simulated_total"
            ).value
            telemetry.close()
            events[name] = [
                e for e in read_jsonl(tmp_path / name / "events.jsonl")
                if e["kind"] == "workload_prepared"
            ]
        assert [e["upper_cached"] for e in events["cold"]] == [False]
        assert [e["upper_cached"] for e in events["warm"]] == [True]
        assert events["warm"][0]["trace_cached"] is True
        assert references["cold"] > 0
        assert references["warm"] == 0
        assert list((tmp_path / "cold").glob("windows_upper-*.csv"))
        assert not list((tmp_path / "warm").glob("windows_upper-*.csv"))
