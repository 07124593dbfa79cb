"""The experiment runner.

Key observation (also exploited by the paper's online framework): the
L1/L2/L3 SRAM levels are identical in every design, so their simulation
— by far the most expensive part, since they see every program
reference — can run once per workload. The runner:

1. traces each workload once per (scale, seed),
2. runs the trace through the shared SRAM pyramid once, capturing the
   post-L3 request stream (L3 fills + writebacks), and
3. evaluates each design configuration by running only its lower
   levels (L4 cache and/or memory devices) on that captured stream.

Results are exact: a design's full hierarchy run would produce the same
statistics, because the upper levels' behaviour does not depend on what
sits below them (caches are inclusive-of-nothing here — no back
invalidations, as in the paper's simulator).

With a trace cache, step 2 runs once per workload across processes and
runs, not once per runner: the capture is saved beside the trace (a
filtered trace, in the trace-stripping sense) and every later
:meth:`Runner.prepare` loads it instead of re-simulating L1–L3.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import asdict, dataclass, field, replace
from functools import cache, cached_property
from pathlib import Path
from typing import Callable

from repro._version import __version__
from repro.cache.hierarchy import Hierarchy, drain_chain, run_chain
from repro.cache.mainmem import MainMemory
from repro.cache.stats import HierarchyStats, LevelStats
from repro.designs.base import MemoryDesign, ReferenceSystem
from repro.designs.configs import DEFAULT_SCALE, NDM_DRAM_CAPACITY
from repro.designs.ndm import NDMDesign
from repro.designs.reference import ReferenceDesign
from repro.experiments.simplan import SimPlan, config_key, sim_key
from repro.model.evaluate import (
    Evaluation,
    RawEvaluation,
    evaluate_stats,
    finalize,
)
from repro.partition.oracle import PlacementResult, enumerate_placements
from repro.partition.profiler import profile_ranges
from repro.partition.ranges import AddressRange
from repro.tech.params import MemoryTechnology
from repro.telemetry.core import NullTelemetry, Telemetry, get_active
from repro.trace.events import AccessBatch
from repro.trace.stream import AddressStream
from repro.trace.tracer import Tracer
from repro.workloads.base import TraceResult, Workload

#: Package logger ("repro" has a NullHandler attached, so the library
#: is silent by default); enable progress lines on long runs with
#: ``logging.getLogger("repro").setLevel(logging.INFO)`` plus a handler.
logger = logging.getLogger("repro.experiments")


def _chain_stats(caches: list, memory) -> list[LevelStats]:
    """Live stats of a lower chain: its caches, then its memory devices."""
    return [cache.stats for cache in caches] + memory.stats_list


def _with_memory_names(
    stats: HierarchyStats, design: MemoryDesign
) -> HierarchyStats:
    """``stats`` with its terminal-memory levels named as ``design``'s.

    Memoized stats carry the names of the first design simulated under
    their key; cache level names are part of the key, so only the
    terminal devices can differ.
    """
    names = [s.name for s in design.memory().stats_list]
    cut = len(stats.levels) - len(names)
    if stats.level_names[cut:] == names:
        return stats
    return HierarchyStats(
        levels=stats.levels[:cut] + [
            replace(s, name=name) for s, name in zip(stats.levels[cut:], names)
        ],
        references=stats.references,
    )


@cache
def _simulator_digest() -> str:
    """SHA-256 over the sources that produce a post-L3 capture.

    The cache package, the sampling helpers and this module: a saved
    L1–L3 result is stale once any of them changes, even when the
    package version does not.
    """
    import repro.cache
    import repro.experiments.sampling as sampling

    sources = sorted(Path(repro.cache.__file__).parent.glob("*.py"))
    sources += [Path(sampling.__file__), Path(__file__)]
    digest = hashlib.sha256()
    for source in sources:
        digest.update(source.name.encode() + b"\0")
        digest.update(source.read_bytes())
    return digest.hexdigest()


class CapturingMemory(MainMemory):
    """Terminal device that records every arriving request.

    Used to capture the post-L3 request stream during the shared upper
    -level simulation.
    """

    def __init__(self, name: str = "CAPTURE") -> None:
        super().__init__(name)
        self.captured = AddressStream()

    def process(self, batch: AccessBatch) -> AccessBatch:
        self.captured.append(batch.addresses, batch.sizes, batch.is_store)
        return super().process(batch)


@dataclass
class WorkloadTrace:
    """Everything the runner caches per (workload, scale, seed).

    Attributes:
        workload: the workload instance.
        result: the traced run (stream + tracer + algorithm checks),
            produced by ``load_result`` on first access. When
            :meth:`Runner.prepare` reused a saved post-L3 capture, that
            is the first time the trace is opened.
        upper_stats: L1/L2/L3 statistics (shared by every design).
            Extrapolated to the whole stream when sampling.
        references: program reference count (Eq. 2 denominator).
            Extrapolated when sampling.
        post_l3: the request stream leaving L3 (fills + writebacks).
            Under sampling this holds only the simulated (warmup +
            measured) segments' capture.
        ref_raw: the reference design's raw evaluation on this trace.
        traced_footprint_bytes: footprint of the traced (scaled) run.
        sample_factor: extrapolation multiplier applied to measured
            counters (1.0 for exact runs).
        sample_fidelity: fraction of the trace actually measured (1.0
            for exact runs) — the recorded fidelity estimate of every
            sampled result derived from this trace.
        post_l3_segments: per simulated source segment, the number of
            captured post-L3 requests it produced and whether it was
            measured; lower-level replays use this to re-align their
            own measurement windows. ``None`` for exact runs.
    """

    workload: Workload
    load_result: Callable[[], TraceResult] = field(repr=False, compare=False)
    upper_stats: list[LevelStats]
    references: int
    post_l3: AddressStream
    ref_raw: RawEvaluation
    traced_footprint_bytes: int
    sample_factor: float = 1.0
    sample_fidelity: float = 1.0
    post_l3_segments: list[tuple[int, bool]] | None = None

    @cached_property
    def result(self) -> TraceResult:
        return self.load_result()


@dataclass
class _UpperRun:
    """What the shared L1–L3 simulation of one trace produced.

    Attributes:
        stats: raw upper-level statistics (before local-reference
            injection; extrapolated when sampling).
        references: raw program reference count (extrapolated when
            sampling).
        post_l3: the captured post-L3 request stream.
        events: events in the trace.
        traced_footprint_bytes: footprint of the traced run.
        factor / fidelity / segments: the sampling extrapolation factor,
            measured fraction and segment plan (``1.0, 1.0, None`` for
            exact runs).
    """

    stats: list[LevelStats]
    references: int
    post_l3: AddressStream
    events: int
    traced_footprint_bytes: int
    factor: float = 1.0
    fidelity: float = 1.0
    segments: list[tuple[int, bool]] | None = None

    def record(self, key: str) -> dict:
        """The JSON record saved beside the capture."""
        return {
            "key": key,
            "stats": [asdict(level) for level in self.stats],
            "references": self.references,
            "events": self.events,
            "traced_footprint_bytes": self.traced_footprint_bytes,
            "factor": self.factor,
            "fidelity": self.fidelity,
            "segments": self.segments,
        }

    @classmethod
    def from_record(cls, record: dict, post_l3: AddressStream) -> "_UpperRun":
        segments = record["segments"]
        return cls(
            stats=[LevelStats(**level) for level in record["stats"]],
            references=int(record["references"]),
            post_l3=post_l3,
            events=int(record["events"]),
            traced_footprint_bytes=int(record["traced_footprint_bytes"]),
            factor=float(record["factor"]),
            fidelity=float(record["fidelity"]),
            segments=(
                None if segments is None
                else [(int(n), bool(m)) for n, m in segments]
            ),
        )


#: Default ratio of local (stack/temporary) references to traced data
#: references. PEBIL instruments *every* memory-referencing instruction,
#: so the paper's streams include the stack traffic — loop counters,
#: spilled registers, compiler temporaries — that essentially always
#: hits L1 and typically outnumbers data-structure references several
#: times over. Our array-level instrumentation records only the data
#: structures, so the runner re-injects this traffic analytically: per
#: traced reference, ``local_factor`` additional L1 load hits are added
#: to the statistics (they never leave L1, so no simulation is needed).
#: The value is calibrated against the one quantitative sensitivity the
#: paper publishes for its execution profiles (Figure 9: a 5x main
#: memory read-latency increase costs ~5% runtime on the NMM/N6
#: profile) and puts overall L1 hit rates in the 93–97% range measured
#: on the real benchmarks.
DEFAULT_LOCAL_FACTOR: float = 8.0

#: Bits per local reference (an 8-byte access) for L1 dynamic energy.
_LOCAL_BITS: int = 64


class Runner:
    """Evaluates designs across workloads, simulating the shared SRAM
    levels (L1–L3) once per workload.

    Args:
        scale: capacity/footprint scale (DESIGN.md §4).
        seed: workload input RNG seed.
        reference: the SRAM pyramid (defaults to Sandy Bridge).
        local_factor: L1-hitting local references injected per traced
            data reference (see :data:`DEFAULT_LOCAL_FACTOR`).
        engine: cache simulation engine (``"auto"``, ``"scalar"``,
            ``"setpar"`` or ``"analytic"``) applied to every cache the
            runner builds — the shared upper pyramid and each design's
            lower levels. ``auto``/``scalar``/``setpar`` are
            bit-identical and only change speed. ``analytic`` replaces
            each design's *lower-level* simulation with the reuse-
            profile model of :mod:`repro.profile` — the shared upper
            pyramid still simulates exactly (with ``auto``), profiles
            are computed once per trace (and cached on disk next to
            the trace cache), and every design evaluates in O(1)
            additional passes. Analytic per-level counts are
            approximate for set-associative levels (exact for
            fully-associative LRU and for designs with no lower
            caches); see ``docs/performance.md`` for the accuracy
            envelope.
        drain: when True, every simulation — the shared upper-level
            prefix *and* each design's lower levels — flushes dirty
            blocks at end of stream, so writebacks propagate all the
            way to main memory (``Hierarchy.run(drain=True)``
            semantics). The default False is the paper's steady-state
            accounting: a long-running application's residual dirty
            lines are a vanishing fraction of its write traffic, so
            end-of-trace flushes are intentionally excluded from the
            energy/latency model. Applied uniformly to every design,
            either choice yields exact full-hierarchy statistics.
        telemetry: explicit telemetry instance; None (the default)
            resolves the process-wide active instance per call (see
            :mod:`repro.telemetry.core`), which is the disabled
            :data:`~repro.telemetry.core.NULL_TELEMETRY` unless a
            caller activated one.
        sample: periodic sampled simulation —
            a :class:`~repro.experiments.sampling.SampleSpec` or its
            CLI string form ``"warmup:window:stride"`` (event counts).
            Only warmup + measured-window events are simulated per
            stride; measured counters are extrapolated to the whole
            stream and the measured fraction is recorded as the
            result's fidelity estimate
            (:attr:`WorkloadTrace.sample_fidelity`). Approximate by
            construction, so it is journalled under a distinct
            ``engine_class`` — sampled and exact cells never satisfy
            each other on resume. Incompatible with ``drain`` (flush
            traffic belongs to exact accounting) and with the
            ``analytic`` engine (a different approximation; compose
            intentionally, not accidentally).
    """

    def __init__(
        self,
        scale: float = DEFAULT_SCALE,
        seed: int = 0,
        reference: ReferenceSystem | None = None,
        local_factor: float = DEFAULT_LOCAL_FACTOR,
        trace_cache_dir: str | None = None,
        drain: bool = False,
        telemetry: Telemetry | NullTelemetry | None = None,
        engine: str = "auto",
        sample: "SampleSpec | str | None" = None,
    ) -> None:
        if local_factor < 0:
            raise ValueError("local_factor must be non-negative")
        if engine not in ("auto", "scalar", "setpar", "analytic"):
            raise ValueError(
                f"unknown engine {engine!r}; expected 'auto', 'scalar', "
                f"'setpar' or 'analytic'"
            )
        from repro.experiments.sampling import SampleSpec

        if isinstance(sample, str):
            sample = SampleSpec.parse(sample)
        if sample is not None:
            from repro.errors import ConfigError

            if engine == "analytic":
                raise ConfigError(
                    "sampled simulation and the analytic engine are both "
                    "approximations; pick one (--sample xor --engine "
                    "analytic)"
                )
            if drain:
                raise ConfigError(
                    "sampled simulation extrapolates steady-state windows; "
                    "end-of-stream drain accounting requires an exact run"
                )
        self.sample = sample
        self.scale = scale
        self.seed = seed
        self.reference = reference or ReferenceSystem.sandy_bridge()
        self.local_factor = local_factor
        self.drain = drain
        self.engine = engine
        self.telemetry = telemetry
        #: Optional directory for persistent trace caching across
        #: processes: traced streams and region maps are saved after the
        #: first run and reloaded (bit-exact) instead of re-executing
        #: the workload. Keyed by (workload, scale, seed); the
        #: algorithm-check dict is not persisted (reloaded runs report
        #: ``{"cached": True}``). The L1–L3 result of each trace is
        #: saved beside it too (see :meth:`_upper_entry`).
        self.trace_cache_dir = trace_cache_dir
        self._traces: dict[str, WorkloadTrace] = {}
        #: Stats per ``(sim_key(design), workload name)``, level names
        #: as the first design simulated under that key had them.
        self._design_stats: dict[tuple[tuple, str], HierarchyStats] = {}
        self._analytic_engines: dict[str, "AnalyticEngine"] = {}
        self._profiles: dict[tuple[str, int, int], "GranularityProfile"] = {}

    @property
    def _sim_engine(self) -> str:
        """The exact engine used for simulated caches.

        ``analytic`` only affects lower-level *evaluation*; every cache
        that is actually simulated (the shared upper pyramid, REF/NDM
        replays, screen-confirm re-simulations) uses ``auto``.
        """
        return "auto" if self.engine == "analytic" else self.engine

    def _telemetry(self) -> Telemetry | NullTelemetry:
        """The telemetry to instrument with (explicit, else active)."""
        return self.telemetry if self.telemetry is not None else get_active()

    def _cache_name(self, workload: Workload) -> str:
        return f"{workload.name}-s{self.scale:g}-r{self.seed}".replace("/", "_")

    def _load_cached_trace(self, workload: Workload) -> TraceResult | None:
        if not self.trace_cache_dir:
            return None
        from pathlib import Path

        from repro.errors import TraceIntegrityError
        from repro.trace.io import discard_trace, load_trace

        name = self._cache_name(workload)
        directory = Path(self.trace_cache_dir)
        if not (directory / f"{name}.stream.rts").exists() and not (
            directory / f"{name}.stream.npz"
        ).exists():
            return None
        try:
            stream, regions = load_trace(directory, name, migrate=True)
            # A v2 store verifies chunks lazily as they are read; force
            # the pass here so a corrupt entry self-heals (below)
            # instead of failing mid-simulation. This is the *only*
            # full read — the data stays mmap'd, not copied.
            stream.verify()
        except TraceIntegrityError as exc:
            # A corrupt cache entry is recoverable: drop the pair and
            # fall through to re-tracing, which re-saves clean artifacts.
            removed = discard_trace(directory, name)
            logger.warning(
                "discarded corrupt cached trace for %s (%s; removed %d "
                "files), re-tracing", workload.name, exc, len(removed),
            )
            return None
        tracer = Tracer()
        tracer.regions.extend(regions)
        tracer.stream = stream
        return TraceResult(stream=stream, tracer=tracer, checks={"cached": True})

    def _store_cached_trace(self, workload: Workload, result: TraceResult) -> None:
        if not self.trace_cache_dir:
            return
        from repro.trace.io import save_trace

        save_trace(
            result.stream,
            result.tracer,
            self.trace_cache_dir,
            self._cache_name(workload),
        )

    def _inject_locals(
        self, upper_stats: list[LevelStats], references: int
    ) -> tuple[list[LevelStats], int]:
        """Add the analytic local-reference traffic to L1 and the
        reference count (applied identically to every design, so it
        dilutes — but never distorts — the normalized comparisons)."""
        extra = int(self.local_factor * references)
        if extra == 0:
            return upper_stats, references
        l1 = upper_stats[0]
        adjusted = LevelStats(
            name=l1.name,
            loads=l1.loads + extra,
            stores=l1.stores,
            load_bits=l1.load_bits + extra * _LOCAL_BITS,
            store_bits=l1.store_bits,
            load_hits=l1.load_hits + extra,
            load_misses=l1.load_misses,
            store_hits=l1.store_hits,
            store_misses=l1.store_misses,
            writebacks=l1.writebacks,
            fills=l1.fills,
        )
        return [adjusted] + upper_stats[1:], references + extra

    # ------------------------------------------------------------------
    # Tracing + shared upper-level simulation
    # ------------------------------------------------------------------

    def trace_only(self, workload: Workload) -> tuple[TraceResult, bool]:
        """Obtain a workload's trace without simulating anything.

        Returns ``(result, cached)`` where ``cached`` says whether the
        trace came from the on-disk cache instead of a fresh trace
        (which is stored to the cache on the way out). :meth:`prepare`
        runs the same path before the upper-level simulation.
        """
        telemetry = self._telemetry()
        trace_span = telemetry.span("runner.trace", workload=workload.name)
        with trace_span:
            result = self._load_cached_trace(workload)
            cached = result is not None
            if not cached:
                result = workload.trace(scale=self.scale, seed=self.seed)
                self._store_cached_trace(workload, result)
        if cached:
            logger.info("loaded cached trace for %s", workload.name)
        else:
            logger.info(
                "traced %s: %s events in %.1fs",
                workload.name, f"{len(result.stream):,}",
                trace_span.duration_s,
            )
        return result, cached

    def prepare(self, workload: Workload) -> WorkloadTrace:
        """Trace a workload and simulate the shared SRAM prefix (cached).

        With a trace cache, the L1–L3 simulation's result is saved
        beside the trace (see :meth:`_upper_entry`) and loaded by every
        later call, in any process; only the reference DRAM is then
        replayed over the capture, and the trace itself is opened only
        when :attr:`WorkloadTrace.result` is first used.
        """
        key = workload.name
        if key in self._traces:
            return self._traces[key]
        telemetry = self._telemetry()
        prepare_span = telemetry.span("runner.prepare", workload=key)
        with prepare_span:
            upper = self._load_upper(workload)
            upper_cached = upper is not None
            if upper is None:
                result, trace_cached = self.trace_only(workload)
                upper = self._simulate_upper(workload, result.stream)
                self._store_upper(workload, upper)
                load_result = lambda: result  # noqa: E731
            else:
                trace_cached = True
                load_result = lambda: self.trace_only(workload)[0]  # noqa: E731
            upper_stats, references = self._inject_locals(
                upper.stats, upper.references
            )

            # The reference design's DRAM sees exactly the post-L3 stream.
            ref_design = ReferenceDesign(
                scale=self.scale, reference=self.reference, engine=self._sim_engine
            )
            dram = ref_design.memory()
            if upper.segments is None:
                for chunk in upper.post_l3.chunks():
                    dram.process(chunk)
                dram_stats = [dram.stats]
            else:
                from repro.experiments.sampling import (
                    add_levels,
                    delta_levels,
                    iter_recorded_segments,
                    scale_levels,
                    snapshot_levels,
                )

                acc = None
                for batch, measured in iter_recorded_segments(
                    upper.post_l3, upper.segments
                ):
                    if measured:
                        before = snapshot_levels([dram.stats])
                    dram.process(batch)
                    if measured:
                        acc = add_levels(
                            acc, delta_levels([dram.stats], before)
                        )
                dram_stats = scale_levels(
                    acc if acc is not None else snapshot_levels([dram.stats]),
                    upper.factor,
                )
            ref_stats = HierarchyStats(
                levels=upper_stats + dram_stats, references=references
            )
            ref_raw = evaluate_stats(
                ref_design.name,
                ref_stats,
                ref_design.bindings(workload.info.footprint_bytes),
            )
            trace = WorkloadTrace(
                workload=workload,
                load_result=load_result,
                upper_stats=upper_stats,
                references=references,
                post_l3=upper.post_l3,
                ref_raw=ref_raw,
                traced_footprint_bytes=upper.traced_footprint_bytes,
                sample_factor=upper.factor,
                sample_fidelity=upper.fidelity,
                post_l3_segments=upper.segments,
            )
            self._traces[key] = trace
            self._design_stats[(sim_key(ref_design), key)] = ref_stats
            telemetry.gauge(
                "repro_captured_stream_requests", stage="post_l3", workload=key
            ).set(len(upper.post_l3))
            telemetry.gauge(
                "repro_captured_stream_nbytes", stage="post_l3", workload=key
            ).set(upper.post_l3.nbytes)
        logger.info(
            "prepared %s: %s post-L3 requests%s, AMAT_ref %.2f ns (%.1fs)",
            workload.name, f"{len(upper.post_l3):,}",
            " (cached)" if upper_cached else "",
            ref_raw.amat_ns, prepare_span.duration_s,
        )
        telemetry.event(
            "workload_prepared",
            workload=key,
            events=upper.events,
            post_l3_requests=len(upper.post_l3),
            post_l3_nbytes=upper.post_l3.nbytes,
            references=references,
            trace_cached=trace_cached,
            upper_cached=upper_cached,
            sample_fidelity=round(trace.sample_fidelity, 6),
            duration_s=round(prepare_span.duration_s, 6),
        )
        return trace

    def _simulate_upper(
        self, workload: Workload, stream: AddressStream
    ) -> _UpperRun:
        """Run a trace through the shared L1–L3, capturing what leaves L3."""
        telemetry = self._telemetry()
        key = workload.name
        upper = self.reference.build_caches(self.scale, engine=self._sim_engine)
        capture = CapturingMemory()
        hierarchy = Hierarchy(upper, capture)
        factor, fidelity, segments = 1.0, 1.0, None
        if self.sample is None:
            collector = None
            if telemetry.enabled:
                collector = telemetry.window_collector(
                    f"upper-{key}", lambda: hierarchy.stats().levels
                )
                hierarchy.observer = collector
            with telemetry.span("runner.upper_sim", workload=key):
                # drain=True flushes L1-L3 at end of stream; the flush
                # traffic lands in the captured post-L3 stream *in
                # hierarchy drain order*, so suffix replays stay
                # bit-exact against a full Hierarchy.run(drain=True).
                hierarchy.run(stream, drain=self.drain)
            if collector is not None:
                telemetry.finish_collector(collector)
            stats = [cache.stats for cache in upper]
            references = hierarchy.references
        else:
            with telemetry.span(
                "runner.upper_sim", workload=key, sampled=True
            ):
                stats, references, factor, fidelity, segments = (
                    self._run_upper_sampled(
                        hierarchy, upper, capture, stream
                    )
                )
        telemetry.counter("repro_references_simulated_total").inc(
            hierarchy.references
        )
        return _UpperRun(
            stats=stats,
            references=references,
            post_l3=capture.captured,
            events=len(stream),
            traced_footprint_bytes=stream.stats().footprint_bytes,
            factor=factor,
            fidelity=fidelity,
            segments=segments,
        )

    # ------------------------------------------------------------------
    # The saved post-L3 capture
    # ------------------------------------------------------------------

    def _upper_entry(self, workload: Workload) -> tuple[str, str] | None:
        """Name and key of the workload's saved L1–L3 result.

        The entry is a capture (:func:`~repro.trace.io.save_capture`)
        named ``<trace name>.upper-<key[:16]>``. The key hashes
        everything the L1–L3 simulation depends on: the package
        version and the simulator's sources (:func:`_simulator_digest`),
        the trace store's SHA-256 (read from its sidecar),
        each upper level's
        :func:`~repro.experiments.simplan.config_key` (which covers
        scale and reference system, and leaves out the bit-identical
        engine choice), ``drain`` and the sample spec. The local-
        reference factor is applied after loading, so it is not part
        of the key. None without a trace cache or a stored trace.
        """
        if not self.trace_cache_dir:
            return None
        from repro.trace.io import artifact_digest

        name = self._cache_name(workload)
        digest = artifact_digest(
            Path(self.trace_cache_dir) / f"{name}.stream.rts"
        )
        if digest is None:
            return None
        identity = {
            "version": __version__,
            "simulator": _simulator_digest(),
            "trace_sha256": digest,
            "upper": [
                repr(config_key(c))
                for c in self.reference.scaled_configs(self.scale)
            ],
            "drain": self.drain,
            "sample": self.sample.key if self.sample is not None else None,
        }
        key = hashlib.sha256(
            json.dumps(identity, sort_keys=True).encode()
        ).hexdigest()
        return f"{name}.upper-{key[:16]}", key

    def _load_upper(self, workload: Workload) -> _UpperRun | None:
        """The saved L1–L3 result, or None when absent or corrupt.

        A corrupt entry is deleted, so the caller's re-simulation
        rewrites it.
        """
        entry = self._upper_entry(workload)
        if entry is None:
            return None
        from repro.errors import TraceError
        from repro.trace.io import discard_capture, load_capture

        name, key = entry
        try:
            with self._telemetry().span(
                "runner.upper_load", workload=workload.name
            ):
                loaded = load_capture(self.trace_cache_dir, name)
            if loaded is None:
                return None
            stream, record = loaded
            if record.get("key") != key:
                raise TraceError(f"capture {name} records another key")
            return _UpperRun.from_record(record, stream)
        except (TraceError, AttributeError, KeyError, TypeError,
                ValueError) as exc:
            removed = discard_capture(self.trace_cache_dir, name)
            logger.warning(
                "discarded corrupt post-L3 capture for %s (%s; removed %d "
                "files), re-simulating", workload.name, exc, len(removed),
            )
            return None

    def _store_upper(self, workload: Workload, upper: _UpperRun) -> None:
        """Save an L1–L3 result for later runs (with a trace cache)."""
        entry = self._upper_entry(workload)
        if entry is None:
            return
        from repro.trace.io import save_capture

        name, key = entry
        save_capture(
            upper.post_l3, upper.record(key), self.trace_cache_dir, name
        )

    def _run_upper_sampled(
        self,
        hierarchy: Hierarchy,
        upper: list,
        capture: CapturingMemory,
        stream: AddressStream,
    ) -> tuple[list[LevelStats], int, float, float, list[tuple[int, bool]]]:
        """Sampled upper-level simulation (see ``sample`` on the class).

        Simulates only warmup + measured-window segments, snapshots the
        upper levels' counters around each measured window, and scales
        the measured deltas to the whole stream. Records, per simulated
        segment, how many post-L3 requests it captured, so lower-level
        replays can re-align the same measurement windows on the
        captured stream.

        Returns ``(upper_stats, references, factor, fidelity,
        segments)`` where stats/references are extrapolated raw values
        (local-reference injection happens in the caller).
        """
        from repro.experiments.sampling import (
            add_levels,
            delta_levels,
            iter_sample_segments,
            scale_levels,
            snapshot_levels,
        )

        acc = None
        segments: list[tuple[int, bool]] = []
        measured_events = 0
        measured_refs = 0
        for batch, measured in iter_sample_segments(stream, self.sample):
            captured_before = len(capture.captured)
            if measured:
                refs_before = hierarchy.references
                before = snapshot_levels(cache.stats for cache in upper)
            hierarchy.process_batch(batch)
            if measured:
                acc = add_levels(
                    acc,
                    delta_levels(
                        (cache.stats for cache in upper), before
                    ),
                )
                measured_refs += hierarchy.references - refs_before
                measured_events += len(batch)
            segments.append(
                (len(capture.captured) - captured_before, measured)
            )
        total_events = len(stream)
        factor = (
            total_events / measured_events if measured_events else 1.0
        )
        fidelity = (
            measured_events / total_events if total_events else 1.0
        )
        if acc is None:
            acc = snapshot_levels(cache.stats for cache in upper)
        upper_stats = scale_levels(acc, factor)
        references = int(round(measured_refs * factor))
        logger.info(
            "sampled upper sim: %s of %s events measured "
            "(fidelity %.3f, factor %.1f)",
            f"{measured_events:,}", f"{total_events:,}", fidelity, factor,
        )
        return upper_stats, references, factor, fidelity, segments

    # ------------------------------------------------------------------
    # Analytic fast path
    # ------------------------------------------------------------------

    def _profile_path(self, workload: Workload, g: int, cg: int):
        if not self.trace_cache_dir:
            return None
        from pathlib import Path

        name = self._cache_name(workload)
        return Path(self.trace_cache_dir) / (
            f"{name}.profile-d{int(self.drain)}-g{g}-c{cg}.npz"
        )

    def _profile_for(self, workload: Workload, g: int, cg: int):
        """One reuse profile of the captured post-L3 stream (cached).

        Memoized in-process and persisted next to the trace cache when
        one is configured. The drain flag is part of the disk key
        because drained upper levels append their flush traffic to the
        captured stream — a different stream, a different profile.
        """
        mem_key = (workload.name, g, cg)
        if mem_key in self._profiles:
            return self._profiles[mem_key]
        from repro.errors import TraceIntegrityError
        from repro.profile import compute_profile, load_profile, save_profile

        telemetry = self._telemetry()
        path = self._profile_path(workload, g, cg)
        profile = None
        if path is not None and path.exists():
            try:
                profile = load_profile(path)
            except TraceIntegrityError as exc:
                from repro.trace.io import checksum_path

                path.unlink(missing_ok=True)
                checksum_path(path).unlink(missing_ok=True)
                logger.warning(
                    "discarded corrupt cached profile %s (%s), re-profiling",
                    path.name, exc,
                )
        cached = profile is not None
        if profile is None:
            trace = self.prepare(workload)
            with telemetry.span(
                "runner.profile", workload=workload.name,
                granularity=g, chain_granularity=cg,
            ):
                profile = compute_profile(trace.post_l3, g, cg)
            if path is not None:
                save_profile(profile, path)
        self._profiles[mem_key] = profile
        telemetry.event(
            "reuse_profile",
            workload=workload.name,
            granularity=g,
            chain_granularity=cg,
            references=profile.references,
            footprint_blocks=profile.footprint,
            stores=profile.n_stores,
            cached=cached,
        )
        return profile

    def _analytic_for(self, workload: Workload):
        """The analytic engine bound to one workload's captured stream."""
        key = workload.name
        if key in self._analytic_engines:
            return self._analytic_engines[key]
        from repro.profile import AnalyticEngine, StreamTotals

        trace = self.prepare(workload)
        totals = StreamTotals.from_chunks(trace.post_l3.chunks())
        engine = AnalyticEngine(
            profiles=lambda g, cg: self._profile_for(workload, g, cg),
            totals=totals,
            chunks=trace.post_l3.chunks,
        )
        self._analytic_engines[key] = engine
        return engine

    def _analytic_lower(
        self, design: MemoryDesign, workload: Workload, trace: WorkloadTrace
    ) -> list[LevelStats]:
        """Lower-level stats from the analytic reuse-profile engine."""
        engine = self._analytic_for(workload)
        with self._telemetry().span(
            "runner.analytic_eval", design=design.name,
            workload=workload.name,
        ):
            lower_stats = engine.lower_stats(design, drain=self.drain)
        logger.debug(
            "analytically evaluated %s on %s", design.name, workload.name
        )
        return lower_stats

    # ------------------------------------------------------------------
    # Design evaluation
    # ------------------------------------------------------------------

    def stats_for(self, design: MemoryDesign, workload: Workload) -> HierarchyStats:
        """Full hierarchy statistics for a design on a workload (cached).

        Runs only the design's lower levels on the cached post-L3
        stream; the shared upper-level stats are prepended. The memo is
        keyed by :func:`~repro.experiments.simplan.sim_key`, so designs
        that simulate the same thing share one run; a design whose
        terminal memory is named differently gets the shared stats
        with those levels renamed. The replay routes every batch
        through :func:`~repro.cache.hierarchy.run_chain`, so the same
        ``check_request_sizes`` guard as ``Hierarchy.process_batch``
        applies — a design whose lower chain shrinks block sizes
        downward raises :class:`~repro.errors.SimulationError` here
        instead of silently corrupting statistics. When the runner was
        built with ``drain=True`` the lower levels are flushed at end
        of stream (matching the drained upper-level capture); the
        default leaves residual dirty lines unflushed — the steady-
        state accounting choice documented on :class:`Runner`.
        """
        trace = self.prepare(workload)  # also seeds REF's memo entry
        key = (sim_key(design), workload.name)
        stats = self._design_stats.get(key)
        if stats is None:
            if self.engine == "analytic":
                lower = self._analytic_lower(design, workload, trace)
            elif self.sample is not None:
                lower = self._sampled_lower(design, workload, trace)
            else:
                lower = self._exact_lower(design, workload, trace)
            stats = self._design_stats[key] = HierarchyStats(
                levels=trace.upper_stats + lower,
                references=trace.references,
            )
        return _with_memory_names(stats, design)

    def _exact_lower(
        self, design: MemoryDesign, workload: Workload, trace: WorkloadTrace
    ) -> list[LevelStats]:
        """Exact replay of the post-L3 stream through the lower levels."""
        telemetry = self._telemetry()
        lower = design.lower_caches()
        memory = design.memory()
        collector = None
        if telemetry.enabled:
            collector = telemetry.window_collector(
                f"design-{design.name}-{workload.name}",
                lambda: _chain_stats(lower, memory),
            )
        with telemetry.span(
            "runner.design_sim", design=design.name,
            workload=workload.name,
        ):
            for chunk in trace.post_l3.chunks():
                run_chain(chunk, lower, memory)
                if collector is not None:
                    collector.on_refs(len(chunk))
            if self.drain:
                drain_chain(lower, memory)
        if collector is not None:
            telemetry.finish_collector(collector)
        logger.debug("simulated %s on %s", design.name, workload.name)
        return _chain_stats(lower, memory)

    def _sampled_lower(
        self, design: MemoryDesign, workload: Workload, trace: WorkloadTrace
    ) -> list[LevelStats]:
        """Sampled lower-level replay with extrapolated statistics.

        Replays the captured (warmup + window) post-L3 segments through
        the design's lower levels — warmup segments warm cache state,
        measured segments' counter deltas are scaled by the trace's
        extrapolation factor.
        """
        from repro.experiments.sampling import (
            add_levels,
            delta_levels,
            iter_recorded_segments,
            scale_levels,
            snapshot_levels,
        )

        lower = design.lower_caches()
        memory = design.memory()
        acc = None
        with self._telemetry().span(
            "runner.design_sim", design=design.name,
            workload=workload.name, sampled=True,
        ):
            for batch, measured in iter_recorded_segments(
                trace.post_l3, trace.post_l3_segments
            ):
                if measured:
                    before = snapshot_levels(_chain_stats(lower, memory))
                run_chain(batch, lower, memory)
                if measured:
                    acc = add_levels(
                        acc, delta_levels(_chain_stats(lower, memory), before)
                    )
        logger.debug(
            "sampled-simulated %s on %s (fidelity %.3f)",
            design.name, workload.name, trace.sample_fidelity,
        )
        return scale_levels(
            acc if acc is not None
            else snapshot_levels(_chain_stats(lower, memory)),
            trace.sample_factor,
        )

    def simulate_designs(
        self, designs: list[MemoryDesign], workload: Workload
    ) -> None:
        """Batch-simulate designs on one workload with prefix sharing.

        Builds a :class:`~repro.experiments.simplan.SimPlan` over the
        designs that still need simulating and executes it on the
        cached post-L3 stream: lower-level chains that start with
        config-identical levels (every 4LC/4LC-NVM point shares the
        same L4) simulate that prefix once. Results land in the same
        per-``sim_key`` memo that :meth:`stats_for` reads, so
        subsequent per-design calls are hits — the statistics are
        bit-identical to what :meth:`stats_for` would have produced
        (see :mod:`repro.experiments.simplan` for the exactness
        argument).
        """
        if self.engine == "analytic" or self.sample is not None:
            # Analytic: no streams to share — each design is already
            # O(1) passes. Sampled: snapshot/delta windows are
            # per-chain state; replay each design's (short, sampled)
            # stream independently.
            for design in designs:
                self.stats_for(design, workload)
            return
        trace = self.prepare(workload)
        todo = [
            design for design in designs
            if (sim_key(design), workload.name) not in self._design_stats
        ]
        if not todo:
            return
        telemetry = self._telemetry()
        plan = SimPlan(todo)
        with telemetry.span(
            "runner.plan_sim", workload=workload.name,
            designs=plan.sim_count, shared_levels=plan.shared_levels,
        ):
            results = plan.execute(
                trace.post_l3, drain=self.drain,
                telemetry=telemetry, workload=workload.name,
            )
        for key, lower_stats in results.items():
            self._design_stats[(key, workload.name)] = HierarchyStats(
                levels=trace.upper_stats + lower_stats,
                references=trace.references,
            )
        logger.info(
            "plan-simulated %d design(s) on %s (%d shared level(s))",
            plan.sim_count, workload.name, plan.shared_levels,
        )

    def raw_for(self, design: MemoryDesign, workload: Workload) -> RawEvaluation:
        """Stage-1 model outputs for a design on a workload."""
        stats = self.stats_for(design, workload)
        return evaluate_stats(
            design.name, stats, design.bindings(workload.info.footprint_bytes)
        )

    def evaluate(self, design: MemoryDesign, workload: Workload) -> Evaluation:
        """Final normalized evaluation of a design on a workload."""
        trace = self.prepare(workload)
        raw = self.raw_for(design, workload)
        return finalize(raw, trace.ref_raw, workload.info.meta())

    # ------------------------------------------------------------------
    # NDM oracle
    # ------------------------------------------------------------------

    def ndm_oracle(
        self,
        workload: Workload,
        nvm_tech: MemoryTechnology,
        *,
        coverage: float = 0.95,
        max_ranges_per_placement: int = 1,
        objective: str = "edp",
    ) -> list[PlacementResult]:
        """Run the paper's NDM placement oracle for one workload.

        Profiles the traced run's hot address ranges, then enumerates
        single-range-to-NVM placements (plus the all-candidates
        placement), evaluating each with the full model.
        """
        trace = self.prepare(workload)
        candidates = profile_ranges(
            trace.result.stream, trace.result.tracer, coverage=coverage
        )

        def evaluate_placement(ranges: list[AddressRange]) -> Evaluation:
            design = NDMDesign(
                nvm_tech,
                ranges,
                scale=self.scale,
                reference=self.reference,
                name=f"NDM-{nvm_tech.name}-{workload.name}-"
                + "-".join(r.label or hex(r.start) for r in ranges),
            )
            return self.evaluate(design, workload)

        return enumerate_placements(
            candidates,
            evaluate_placement,
            footprint_bytes=trace.traced_footprint_bytes,
            dram_capacity_bytes=max(1, int(NDM_DRAM_CAPACITY * self.scale)),
            max_ranges_per_placement=max_ranges_per_placement,
            objective=objective,
        )
