"""Supervised-pool overhead benchmark.

Prices what supervision costs on a fault-free sweep: the supervised
pool (persistent workers, per-cell dispatch, heartbeats, per-cell
journalling) against a serial run of the same campaign. Supervision
buys crash recovery, work stealing and exact resume; this benchmark
keeps its price visible so a regression in the dispatch loop shows up
as a number, not as a vague "sweeps feel slower".

Non-gating: the script reports and records, it does not fail the
build. Wall times of multiprocess sweeps on shared CI runners are too
noisy for a hard threshold; the committed JSON is the trend record.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_pool_overhead.py

Environment knobs: ``REPRO_BENCH_SCALE`` (default 1/1024) and
``REPRO_BENCH_REPS`` (default 3; min-of-reps is reported).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from repro.designs.configs import EH_CONFIGS, N_CONFIGS
from repro.designs.fourlc import FourLCDesign
from repro.designs.nmm import NMMDesign
from repro.experiments.runner import Runner
from repro.resilience import Journal, SweepExecutor
from repro.tech.params import EDRAM, PCM
from repro.workloads.registry import get_workload

DEFAULT_SCALE = 1.0 / 1024
DEFAULT_REPS = 3
WORKLOADS = ("CG", "SP")


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def make_designs(runner: Runner, scale: float):
    return [
        NMMDesign(PCM, N_CONFIGS["N6"], scale=scale,
                  reference=runner.reference),
        FourLCDesign(EDRAM, EH_CONFIGS["EH4"], scale=scale,
                     reference=runner.reference),
    ]


def run_campaign(scale: float, trace_cache: str, *, workers: int) -> float:
    """One full campaign with a fresh journal; returns wall seconds.

    The shared trace cache is warmed before timing starts, so every
    variant measures dispatch + simulation, not trace generation.
    """
    scratch = tempfile.mkdtemp(prefix="bench-pool-")
    try:
        runner = Runner(scale=scale, seed=0, trace_cache_dir=trace_cache)
        designs = make_designs(runner, scale)
        workloads = [get_workload(name) for name in WORKLOADS]
        executor = SweepExecutor(
            runner, journal=Journal(Path(scratch) / "j.jsonl"),
            workers=workers,
        )
        start = time.perf_counter()
        result = executor.run(designs, workloads)
        elapsed = time.perf_counter() - start
        if result.failures:
            raise RuntimeError(f"benchmark campaign degraded: "
                               f"{result.report()}")
        return elapsed
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(scale: float, trace_cache: str, reps: int) -> dict:
    """Min-of-reps wall time for serial and supervised.

    Variants are interleaved (one rep of each per round) so slow
    drift on a shared machine hits both equally.
    """
    variants = {"serial": 1, "supervised": 2}
    times: dict[str, list[float]] = {name: [] for name in variants}
    for _ in range(reps):
        for name, workers in variants.items():
            times[name].append(
                run_campaign(scale, trace_cache, workers=workers)
            )
    serial = min(times["serial"])
    supervised = min(times["supervised"])
    return {
        "serial_s": round(serial, 3),
        "supervised_s": round(supervised, 3),
        "supervised_speedup_vs_serial": round(serial / supervised, 3),
        "reps": reps,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=str, default="BENCH_pool.json",
        help="output JSON path (default: BENCH_pool.json)",
    )
    args = parser.parse_args(argv)
    cpus = usable_cpus()
    if cpus < 2:
        # An honest skip beats a fake number: with one usable CPU the
        # parallel variants just timeshare and the comparison is noise.
        print(f"skip: only {cpus} usable CPU(s); pool overhead needs >= 2")
        return 0

    scale = float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))
    reps = int(os.environ.get("REPRO_BENCH_REPS", DEFAULT_REPS))
    trace_cache = tempfile.mkdtemp(prefix="bench-pool-traces-")
    try:
        print(f"warming trace cache at scale {scale:g} ...", flush=True)
        runner = Runner(scale=scale, seed=0, trace_cache_dir=trace_cache)
        for name in WORKLOADS:
            runner.prepare(get_workload(name))

        print(f"timing campaigns ({reps} rep(s) per variant) ...",
              flush=True)
        result = measure(scale, trace_cache, reps)
    finally:
        shutil.rmtree(trace_cache, ignore_errors=True)
    result["scale"] = scale
    result["cells"] = 2 * len(WORKLOADS)

    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")
    print(f"  serial         {result['serial_s']:8.3f}s")
    print(f"  supervised     {result['supervised_s']:8.3f}s  "
          f"({result['supervised_speedup_vs_serial']:.2f}x vs serial)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
