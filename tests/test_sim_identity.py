"""One notion of "same simulation": the structural ``sim_key``.

Equal keys must mean bit-identical lower-level statistics, and the
runner must simulate each key once per workload.
"""

import pytest

from repro.designs.configs import EH_CONFIGS, N_CONFIGS
from repro.designs.deephybrid import DeepHybridDesign
from repro.designs.fourlc import FourLCDesign
from repro.designs.fourlcnvm import FourLCNVMDesign
from repro.designs.ndm import NDMDesign
from repro.designs.nmm import NMMDesign
from repro.designs.reference import ReferenceDesign
from repro.experiments.runner import Runner
from repro.experiments.simplan import sim_key
from repro.partition.ranges import AddressRange
from repro.tech.params import EDRAM, FERAM, HMC, PCM, STTRAM
from repro.telemetry.core import Telemetry
from repro.workloads.registry import get_workload

SCALE = 1.0 / 8192
SEED = 3
HOT = [AddressRange(0x1000_0000, 0x2000_0000, "hot")]
COLD = [AddressRange(0x2000_0000, 0x3000_0000, "cold")]


@pytest.fixture(scope="module")
def trace_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("traces"))


def fresh_runner(trace_cache, **kwargs):
    return Runner(scale=SCALE, seed=SEED, trace_cache_dir=trace_cache,
                  **kwargs)


def designs():
    """Every design family, with pairs that must and must not share."""
    return [
        ReferenceDesign(scale=SCALE),
        FourLCDesign(EDRAM, EH_CONFIGS["EH4"], scale=SCALE),
        FourLCDesign(HMC, EH_CONFIGS["EH4"], scale=SCALE),
        FourLCDesign(EDRAM, EH_CONFIGS["EH1"], scale=SCALE),
        FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH4"], scale=SCALE),
        FourLCNVMDesign(HMC, STTRAM, EH_CONFIGS["EH4"], scale=SCALE),
        NMMDesign(PCM, N_CONFIGS["N6"], scale=SCALE),
        NMMDesign(FERAM, N_CONFIGS["N6"], scale=SCALE),
        NMMDesign(PCM, N_CONFIGS["N3"], scale=SCALE),
        NDMDesign(PCM, HOT, scale=SCALE),
        NDMDesign(STTRAM, HOT, scale=SCALE, name="NDM-STTRAM-hot"),
        NDMDesign(PCM, COLD, scale=SCALE, name="NDM-PCM-cold"),
        DeepHybridDesign(EDRAM, PCM, EH_CONFIGS["EH1"], N_CONFIGS["N6"],
                         scale=SCALE),
        DeepHybridDesign(HMC, FERAM, EH_CONFIGS["EH1"], N_CONFIGS["N6"],
                         scale=SCALE),
    ]


def unnamed(levels):
    return [{k: v for k, v in s.as_dict().items() if k != "name"}
            for s in levels]


class TestKey:
    def test_partitioned_and_single_memories_differ(self):
        assert sim_key(ReferenceDesign(scale=SCALE)) != sim_key(
            NDMDesign(PCM, [], scale=SCALE)
        )

    def test_simulated_capacity_enters_the_key(self):
        def key(scale):
            return sim_key(FourLCDesign(EDRAM, EH_CONFIGS["EH4"],
                                        scale=scale))

        assert key(1 / 1024) != key(1 / 512)


class TestEqualKeyMeansEqualStats:
    """Fresh runners, one per design: nothing is shared but the trace
    cache, so equal statistics are a property of the simulation."""

    def test_equal_keys_give_bit_identical_lower_stats(self, trace_cache):
        workload = get_workload("CG")
        by_key: dict = {}
        for design in designs():
            stats = fresh_runner(trace_cache).stats_for(design, workload)
            lower = stats.levels[3:]
            assert [s.name for s in lower] == design.build().level_names[3:]
            by_key.setdefault(sim_key(design), []).append(
                (design.name, unnamed(lower))
            )
        # The families collapse as expected: 4LC/4LCNVM per L4 config,
        # NMM per DRAM-cache config, NDM per range set, DEEP per pair.
        assert len(by_key) == 8
        named = {design.name: design for design in designs()}
        assert sim_key(named["4LC-eDRAM-EH4"]) == sim_key(
            named["4LCNVM-eDRAM-PCM-EH4"]
        )
        assert sim_key(named["NDM-PCM"]) != sim_key(named["NDM-PCM-cold"])
        for group in by_key.values():
            first_name, first = group[0]
            for name, lower in group[1:]:
                assert lower == first, f"{name} differs from {first_name}"


class TestSimulatedOnce:
    def test_4lcnvm_rides_the_4lc_simulation(self, trace_cache, tmp_path):
        workload = get_workload("CG")
        fourlc = FourLCDesign(EDRAM, EH_CONFIGS["EH4"], scale=SCALE)
        fourlcnvm = FourLCNVMDesign(EDRAM, PCM, EH_CONFIGS["EH4"],
                                    scale=SCALE)
        telemetry = Telemetry(tmp_path)
        runner = fresh_runner(trace_cache, telemetry=telemetry)
        shared = [runner.evaluate(fourlc, workload),
                  runner.evaluate(fourlcnvm, workload)]
        telemetry.close()
        spans = telemetry.counter("repro_spans_total",
                                  name="runner.design_sim")
        assert spans.value == 1
        assert shared == [
            fresh_runner(trace_cache).evaluate(fourlc, workload),
            fresh_runner(trace_cache).evaluate(fourlcnvm, workload),
        ]
        assert runner.stats_for(fourlcnvm, workload).levels[-1].name == "NVM"
