"""Span recording around the public entry points of each layer.

The benchmark never edits the program: :func:`install` wraps public
functions and methods from outside, and every wrapped call records one
span ``(id, parent, name, start, end, attrs)``. Spans stay in memory and
are written out when a process ends: :meth:`SpanRecorder.dump` for the
measured process, and a ``multiprocessing`` finalizer for each forked
sweep worker (registered in :meth:`SpanRecorder._after_fork`, which is
why :func:`install` must run before the pool forks).

:func:`layer_metrics` turns the span files of one traced run into the
per-layer metrics listed in ``BENCHMARK.json``. A span's self time is
its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

#: Upper (shared SRAM) cache levels, by level name.
UPPER_LEVELS = ("L1", "L2", "L3")
#: Lower cache levels reported per engine class: level name -> metric label.
LOWER_LEVELS = {"L4": "L4", "DRAM$": "DRAM_cache"}
#: The post-L3 capture device of ``Runner.prepare``; not a memory level.
CAPTURE_DEVICE = "CAPTURE"
#: Spans that own the lower-level simulations nested in them.
_OWNERS = ("runner.stats_for", "runner.prepare", "simplan.execute")


class SpanRecorder:
    """Collects spans of one process; writes them to ``out_dir``."""

    def __init__(self, out_dir: str | Path) -> None:
        self.out_dir = Path(out_dir)
        self.role = "main"
        self._reset()
        mp_util.register_after_fork(self, SpanRecorder._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.started = time.perf_counter()
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _after_fork(self) -> None:
        # A forked sweep worker: drop the parent's spans and open
        # stacks, and write this process's spans when it exits.
        self._reset()
        self.role = "worker"
        mp_util.Finalize(self, self.dump, exitpriority=100)

    def stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict) -> list:
        stack = self.stack()
        parent = stack[-1][0] if stack else None
        span = [next(self._ids), parent, name, time.perf_counter(), None, attrs]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self.stack().pop()
        self.spans.append(span)

    def owner(self) -> list | None:
        """The innermost open span that owns lower-level simulations."""
        for span in reversed(self.stack()):
            if span[2] in _OWNERS:
                return span
        return None

    def dump(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        record = {
            "pid": self.pid,
            "role": self.role,
            "start": self.started,
            "end": time.perf_counter(),
            "spans": self.spans,
        }
        path.write_text(json.dumps(record))
        return path


class _Wrapper:
    """Installs wrappers and rebinds module-level aliases to them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder

    def method(self, cls, attr: str, name: str, before=None, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(original, name, before, after))

    def function(self, module, attr: str, name: str, before=None, after=None):
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, before, after)
        # ``from x import f`` copies the binding; replace every copy.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def _wrap(self, original, name, before, after):
        recorder = self.recorder

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before is not None else {}
            span = recorder.open(name, attrs)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper


def _is_sectored(config) -> bool:
    return config.sector_size is not None and config.sector_size < config.block_size


def install(out_dir: str | Path) -> SpanRecorder:
    """Wrap each layer's public entry points; returns the recorder.

    Imports every wrapped module first so the module-level aliases
    exist when they are rebound.
    """
    import repro.experiments.cli  # noqa: F401  (binds render/model aliases)
    import repro.model.evaluate as model_evaluate
    import repro.profile.profiler as profiler
    import repro.trace.io as trace_io
    from repro.cache.mainmem import MainMemory
    from repro.cache.partition import PartitionedMemory
    from repro.cache.setassoc import SetAssociativeCache
    from repro.experiments import render
    from repro.experiments.runner import Runner
    from repro.experiments.simplan import SimPlan, config_key
    from repro.profile.engine import AnalyticEngine
    from repro.resilience.executor import SweepExecutor
    from repro.resilience.journal import Journal
    from repro.trace.arena import TraceArena
    from repro.trace.store import MappedStream
    from repro.workloads.registry import SUITE

    recorder = SpanRecorder(out_dir)
    wrap = _Wrapper(recorder)

    # repro.workloads — each suite class implements Workload.trace.
    def traced(span, args, kwargs, result):
        span[5]["events"] = len(result.stream)

    for cls in set(SUITE.values()):
        wrap.method(cls, "trace", "workloads.trace", after=traced)

    # repro.trace
    def saved(span, args, kwargs, result):
        span[5]["bytes"] = sum(Path(p).stat().st_size for p in result)

    def loaded(span, args, kwargs, result):
        path = getattr(result[0], "path", None)
        span[5]["bytes"] = Path(path).stat().st_size if path is not None else 0

    wrap.function(trace_io, "save_trace", "trace.save", after=saved)
    wrap.function(trace_io, "load_trace", "trace.load", after=loaded)
    wrap.method(MappedStream, "verify", "trace.verify")
    wrap.method(TraceArena, "publish", "trace.arena_publish")

    # repro.cache — run_chain calls the levels one after another, so the
    # span of each process() call is that level's busy time.
    def cache_attrs(args, kwargs):
        cache, batch = args[0], args[1]
        return {
            "level": cache.name,
            "engine": cache.engine,
            "sectored": _is_sectored(cache.config),
            "requests": len(batch),
        }

    def lower_done(span, args, kwargs, result):
        if span[5]["level"] in UPPER_LEVELS:
            return
        owner = recorder.owner()
        if owner is not None and owner[2] == "runner.stats_for":
            owner[5]["sim"] = True

    def memory_attrs(args, kwargs):
        return {"level": args[0].name, "requests": len(args[1])}

    def memory_done(span, args, kwargs, result):
        if span[5]["level"] != CAPTURE_DEVICE:
            lower_done(span, args, kwargs, result)

    wrap.method(SetAssociativeCache, "process", "cache.process",
                before=cache_attrs, after=lower_done)
    wrap.method(MainMemory, "process", "cache.memory",
                before=memory_attrs, after=memory_done)
    wrap.method(PartitionedMemory, "process", "cache.memory",
                before=memory_attrs, after=memory_done)

    # repro.experiments.runner
    def stats_attrs(args, kwargs):
        return {"workload": args[2].name}

    def stats_done(span, args, kwargs, result):
        if not span[5].get("sim"):
            return
        design = args[1]
        memory = design.memory()
        if isinstance(memory, PartitionedMemory):
            layout = (
                tuple((r.start, r.end, r.device_index) for r in memory.rules),
                len(memory.devices), memory.default_device,
            )
        else:
            layout = ("single",)
        chain = tuple(config_key(c.config) for c in design.lower_caches())
        span[5]["chain"] = repr((chain, layout))

    wrap.method(Runner, "prepare", "runner.prepare")
    wrap.method(Runner, "stats_for", "runner.stats_for",
                before=stats_attrs, after=stats_done)
    wrap.method(Runner, "evaluate", "runner.evaluate")

    # repro.experiments.simplan
    def plan_done(span, args, kwargs, result):
        plan = args[0]
        span[5]["saved"] = len(plan.designs) - plan.sim_count

    wrap.method(SimPlan, "execute", "simplan.execute", after=plan_done)

    # repro.model
    wrap.function(model_evaluate, "evaluate_stats", "model.evaluate")
    wrap.function(model_evaluate, "finalize", "model.finalize")

    # repro.profile
    def engine_done(span, args, kwargs, result):
        owner = recorder.owner()
        if owner is not None and owner[2] == "runner.stats_for":
            owner[5]["analytic"] = True

    wrap.function(profiler, "compute_profile", "profile.compute")
    wrap.method(AnalyticEngine, "lower_stats", "profile.engine",
                after=engine_done)

    # repro.resilience
    def sweep_done(span, args, kwargs, result):
        span[5]["requeues"] = result.requeues
        span[5]["workers"] = args[0].workers

    wrap.method(SweepExecutor, "run", "resilience.run", after=sweep_done)
    wrap.method(Journal, "append", "resilience.journal_append")

    # rendering
    for attr in ("ascii_table", "render_figure", "render_heatmap"):
        wrap.function(render, attr, "render")
    return recorder


def load_spans(directory: str | Path) -> list[dict]:
    """Every span file of one traced run."""
    return [
        json.loads(path.read_text())
        for path in sorted(Path(directory).glob("spans-*.json"))
    ]


def self_times(record: dict) -> dict[int, float]:
    """Self time of every span of one process record."""
    child_time: dict[int, float] = defaultdict(float)
    for span_id, parent, _, start, end, _ in record["spans"]:
        if parent is not None:
            child_time[parent] += end - start
    return {
        span[0]: (span[4] - span[3]) - child_time[span[0]]
        for span in record["spans"]
    }


def layer_metrics(records: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run (see ``BENCHMARK.json``)."""
    m: dict[str, float] = defaultdict(float)
    sims: list[tuple[float, str, str, float]] = []
    stats_calls = stats_hits = 0
    worker_life = worker_cells = 0.0
    for record in records:
        selfs = self_times(record)
        by_id = {span[0]: span for span in record["spans"]}
        is_worker = record["role"] == "worker"
        if is_worker:
            worker_life += record["end"] - record["start"]

        def under_sweep(span) -> bool:
            parent = span[1]
            while parent is not None and parent in by_id:
                if by_id[parent][2] == "resilience.run":
                    return True
                parent = by_id[parent][1]
            return False

        for span in record["spans"]:
            span_id, _, name, start, end, attrs = span
            dur = end - start
            if name == "workloads.trace":
                m["workloads.trace_s"] += dur
                m["workloads.events"] += attrs["events"]
            elif name == "trace.save":
                m["trace.store_write_s"] += dur
                m["trace.store_bytes"] += attrs["bytes"]
            elif name == "trace.load":
                m["trace.store_read_s"] += dur
                m["trace.store_bytes"] += attrs["bytes"]
            elif name == "trace.verify":
                m["trace.store_read_s"] += dur
            elif name == "trace.arena_publish":
                m["trace.arena_publish_s"] += dur
            elif name == "cache.process":
                level = attrs["level"]
                if level in UPPER_LEVELS:
                    label = level
                    m[f"cache.{level}.busy_s"] += selfs[span_id]
                else:
                    label = LOWER_LEVELS.get(level, level)
                    engine = "sectored" if attrs["sectored"] else "unsectored"
                    m[f"cache.{label}.{engine}.busy_s"] += selfs[span_id]
                    if attrs["sectored"]:
                        m["sectored_busy_s"] += selfs[span_id]
                m[f"cache.{label}.requests"] += attrs["requests"]
            elif name == "cache.memory":
                if attrs["level"] != CAPTURE_DEVICE:
                    m["cache.mem.busy_s"] += selfs[span_id]
            elif name == "runner.prepare":
                m["runner.prepare_s"] += dur
            elif name == "runner.stats_for":
                stats_calls += 1
                if attrs.get("sim"):
                    sims.append((start, attrs["workload"], attrs["chain"], dur))
                elif not attrs.get("analytic"):
                    stats_hits += 1
            elif name == "runner.evaluate":
                if is_worker:
                    worker_cells += dur
                if is_worker or under_sweep(span):
                    m["resilience.cell_s"] += dur
            elif name == "simplan.execute":
                m["simplan.execute_s"] += dur
                m["simplan.sims_saved"] += attrs["saved"]
            elif name in ("model.evaluate", "model.finalize"):
                m["model.evaluate_s"] += dur
                m["model.calls"] += 1
            elif name == "profile.compute":
                m["profile.compute_s"] += dur
            elif name == "profile.engine":
                m["profile.engine_s"] += selfs[span_id]
                m["profile.cells"] += 1
            elif name == "resilience.run":
                m["resilience.requeues"] += attrs["requeues"]
            elif name == "resilience.journal_append":
                m["resilience.journal_append_s"] += dur
            elif name == "render":
                m["render.s"] += dur

    seen: dict[str, set[str]] = defaultdict(set)
    for _, workload, chain, dur in sorted(sims):
        m["runner.design_sims"] += 1
        if chain in seen[workload]:
            m["runner.duplicate_sims"] += 1
            m["runner.duplicate_sim_s"] += dur
        seen[workload].add(chain)
    m["runner.memo_hit_ratio"] = stats_hits / stats_calls if stats_calls else 0.0
    m["cache.sectored_share"] = m.pop("sectored_busy_s", 0.0) / wall_s
    m["resilience.worker_busy_frac"] = (
        worker_cells / worker_life if worker_life else 0.0
    )
    return dict(m)


def self_time_check(records: list[dict], wall_s: float) -> list[str]:
    """Problems with the span accounting (empty when consistent).

    Self times are never negative, and the self times of one process
    sum to no more than its traced lifetime: the measured wall time for
    the main process, fork to exit for a sweep worker (whose cells run
    one at a time).
    """
    problems = []
    for record in records:
        selfs = self_times(record)
        if any(value < -1e-6 for value in selfs.values()):
            problems.append(f"pid {record['pid']}: negative self time")
        life = record["end"] - record["start"]
        if record["role"] == "main":
            life = min(life, wall_s)
        total = sum(selfs.values())
        if total > life + 1e-3:
            problems.append(
                f"{record['role']} pid {record['pid']}: self times "
                f"{total:.3f}s exceed its traced {life:.3f}s"
            )
    return problems
