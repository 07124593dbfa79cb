"""One step of the reproduction benchmark, in a fresh interpreter.

``run.py`` starts this script once per set-up and once per measured
repetition, so every repetition begins from the same start state: a
fresh process (no in-process memo), and a trace cache prepared by
``run.py``. Steps:

- ``setup``: build the start state of a workload in ``--cache`` — the
  warm trace cache (every suite workload traced and stored) for
  ``paper`` and ``campaign``, an empty directory for ``prepare-cold``.
- ``run``: drive one workload through the public API on ``--cache``,
  timing it from start state to finish, and write the measurements and
  the outputs to ``--out`` (JSON). With ``--trace`` the layers' public
  entry points are wrapped first (``spans.py``) and the per-layer
  metrics are added.

Every timing is host time (``time.perf_counter`` / ``getrusage``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

#: Footprint scale of each workload.
SCALES = {"paper": 1 / 1024, "prepare-cold": 1 / 256, "campaign": 1 / 1024}

#: The campaign's design grid: 1 + 8 + 8 + 9 = 26 designs.
CAMPAIGN_DESIGNS = ",".join(
    ["REF"]
    + [f"4LC:EDRAM:EH{i}" for i in range(1, 9)]
    + [f"4LCNVM:EDRAM:PCM:EH{i}" for i in range(1, 9)]
    + [f"NMM:PCM:N{i}" for i in range(1, 10)]
)
CAMPAIGN_WORKERS = 2
CAMPAIGN_SCREEN_TOP_K = 3


def suite(names: list[str] | None):
    from repro.workloads.registry import SUITE, get_workload

    return [get_workload(name) for name in (names or list(SUITE))]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def setup(workload: str, cache: Path, scale: float, seed: int,
          names: list[str] | None) -> None:
    from repro.experiments.runner import Runner

    cache.mkdir(parents=True, exist_ok=True)
    if workload == "prepare-cold":
        return  # the start state is the empty cache itself
    runner = Runner(scale=scale, seed=seed, trace_cache_dir=str(cache))
    for w in suite(names):
        runner.trace_only(w)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def run_paper(cache: Path, scale: float, seed: int, names, log) -> dict:
    """What ``reproduce-all`` does, plus the claim scorecard."""
    from repro.experiments import figures, heatmap, tables
    from repro.experiments.render import ascii_table, render_figure, render_heatmap
    from repro.experiments.report import ReproductionReport, check_claims
    from repro.experiments.runner import Runner

    runner = Runner(scale=scale, seed=seed, trace_cache_dir=str(cache))
    workloads = suite(names) if names else None
    report = ReproductionReport()
    out: dict = {}
    for number, fn in enumerate(
        (tables.table1, tables.table2, tables.table3, tables.table4), start=1
    ):
        headers, rows = fn()
        print(f"\nTable {number}\n{ascii_table(headers, rows)}", file=log)
        for i, row in enumerate(rows):
            for header, cell in zip(headers, row):
                out[f"table/{number}/{i}/{header}"] = str(cell)
    for fn in (
        figures.figure1, figures.figure2, figures.figure3, figures.figure4,
        figures.figure5, figures.figure6, figures.figure7, figures.figure8,
    ):
        fig = fn(runner, workloads)
        print(f"\n{render_figure(fig)}", file=log)
        report.figures[fig.figure] = fig
    for fn in (heatmap.figure9, heatmap.figure10):
        hm = fn(runner, workloads)
        print(f"\n{render_heatmap(hm)}", file=log)
        report.heatmaps[hm.figure] = hm
    claims = check_claims(report)

    attempted = 0
    for fig in report.figures.values():
        for label, points in fig.series.items():
            for category, value in points.items():
                out[f"{fig.figure}/{label}/{category}"] = value
                for wl, v in fig.per_workload[label][category].items():
                    out[f"{fig.figure}/{label}/{category}/{wl}"] = v
                    attempted += 1
    for hm in report.heatmaps.values():
        for wf, row in zip(hm.write_factors, hm.values):
            for rf, value in zip(hm.read_factors, row):
                out[f"{hm.figure}/w{wf:g}/r{rf:g}"] = value
                attempted += 1
    for i, claim in enumerate(claims):
        out[f"claim/{i}/holds"] = claim.holds
    failed = sum(
        1 for v in out.values() if isinstance(v, float) and not math.isfinite(v)
    )
    return {
        "outputs": out,
        "attempted": attempted,
        "failed": failed,
        "extra": {"claims_held": sum(c.holds for c in claims)},
    }


def _stream_digest(stream) -> str:
    digest = hashlib.sha256()
    for chunk in stream.chunks():
        digest.update(chunk.addresses.tobytes())
        digest.update(chunk.sizes.tobytes())
        digest.update(chunk.is_store.tobytes())
    return digest.hexdigest()


def run_prepare_cold(cache: Path, scale: float, seed: int, names, log) -> dict:
    """``Runner.prepare`` from an empty cache, then read every store back."""
    from repro.experiments.runner import Runner
    from repro.trace.io import load_trace

    runner = Runner(scale=scale, seed=seed, trace_cache_dir=str(cache))
    workloads = suite(names)
    prepared, loaded, failed = {}, {}, 0
    for w in workloads:
        try:
            prepared[w.name] = runner.prepare(w)
        except Exception as exc:  # counted, reported, and the run goes on
            failed += 1
            print(f"prepare {w.name} failed: {exc!r}", file=log)
    for w in workloads:
        stores = sorted(cache.glob(f"{w.name}-*.stream.rts"))
        try:
            if len(stores) != 1:
                raise FileNotFoundError(f"{len(stores)} stores for {w.name}")
            name = stores[0].name[: -len(".stream.rts")]
            stream, regions = load_trace(cache, name)
            stream.verify()
            loaded[w.name] = (stream, regions)
        except Exception as exc:
            failed += 1
            print(f"reload {w.name} failed: {exc!r}", file=log)
    return {
        "attempted": 2 * len(workloads),
        "failed": failed,
        # Hashing the streams is the benchmark's check, not the
        # workload: it runs after the timed region.
        "finish": lambda: check_prepare_cold(prepared, loaded),
    }


def check_prepare_cold(prepared, loaded) -> dict:
    """Outputs of ``prepare-cold`` (computed after the timed region)."""
    out = {}
    for name, trace in prepared.items():
        for level in trace.upper_stats:
            for field, value in dataclasses.asdict(level).items():
                if field != "name":
                    out[f"{name}/{level.name}/{field}"] = value
        out[f"{name}/references"] = trace.references
        out[f"{name}/REF/amat_ns"] = trace.ref_raw.amat_ns
        out[f"{name}/events"] = len(trace.result.stream)
        out[f"{name}/digest"] = _stream_digest(trace.result.stream)
    for name, (stream, regions) in loaded.items():
        out[f"{name}/stored_events"] = len(stream)
        out[f"{name}/stored_digest"] = _stream_digest(stream)
        out[f"{name}/stored_regions"] = len(regions)
        stream.close()
    return out


def run_campaign(cache: Path, scale: float, seed: int, names, log) -> dict:
    """``sweep --workers 2 --journal J --screen-analytic 3``, in-process."""
    from repro.experiments.cli import main as cli_main
    from repro.resilience import Journal

    journal = cache.parent / "campaign.jsonl"
    argv = ["--scale", repr(scale), "--seed", str(seed),
            "--trace-cache", str(cache)]
    if names:
        argv += ["--workloads", ",".join(names)]
    argv += ["sweep", "--designs", CAMPAIGN_DESIGNS,
             "--workers", str(CAMPAIGN_WORKERS), "--journal", str(journal),
             "--screen-analytic", str(CAMPAIGN_SCREEN_TOP_K)]
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        code = cli_main(argv)
    print(f"sweep exit code {code}", file=log)
    out, attempted, failed = {}, 0, 0
    edp: dict[str, dict[tuple[str, str], float]] = {"analytic": {}, "exact": {}}
    for phase, path in (("analytic", f"{journal}.analytic"), ("exact", journal)):
        for entry in Journal(path).entries():
            attempted += 1
            failed += entry.status != "ok"
            prefix = f"{phase}/{entry.design}/{entry.workload}"
            out[f"{prefix}/status"] = entry.status
            for field, value in (entry.evaluation or {}).items():
                if field not in ("design_name", "workload"):
                    out[f"{prefix}/{field}"] = value
            if entry.evaluation:
                edp[phase][entry.design, entry.workload] = entry.evaluation["edp_js"]
    if code != 0 and failed == 0:
        failed = 1  # the sweep failed without journalling the failure
    errors = [
        abs(edp["analytic"][cell] - exact) / exact
        for cell, exact in edp["exact"].items() if cell in edp["analytic"]
    ]
    return {
        "outputs": out,
        "attempted": attempted,
        "failed": failed,
        "extra": {"screen_max_rel_err": max(errors) if errors else 0.0},
    }


RUNNERS = {
    "paper": run_paper,
    "prepare-cold": run_prepare_cold,
    "campaign": run_campaign,
}


# ----------------------------------------------------------------------
# Measured run
# ----------------------------------------------------------------------


def cpu_seconds() -> float:
    """User + system CPU time of this process and its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF),
                      resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def measure(args) -> dict:
    recorder = None
    spans_dir = args.out.parent / "spans"
    if args.trace:
        import spans

        recorder = spans.install(spans_dir)
    else:  # import what the traced run imports, so neither times imports
        import repro.experiments.cli  # noqa: F401
        import repro.resilience  # noqa: F401
    run = RUNNERS[args.workload]
    with open(args.out.parent / "program.log", "a") as log:
        before = cpu_seconds()
        t0 = time.perf_counter()
        result = run(args.cache, args.scale, args.seed, args.workloads, log)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - before
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    finish = result.pop("finish", None)
    if finish is not None:
        result["outputs"] = finish()
    result.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=peak_kb / 1024)
    if recorder is not None:
        recorder.dump()
        records = spans.load_spans(spans_dir)
        result["layers"] = spans.layer_metrics(records, wall)
        result["span_problems"] = spans.self_time_check(records, wall)
        main = next(r for r in records if r["role"] == "main")
        result["main_self_s"] = sum(spans.self_times(main).values())
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("setup", "run"))
    parser.add_argument("--workload", choices=sorted(RUNNERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", type=Path, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--workloads", type=lambda s: s.split(","), default=None)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.step == "setup":
        setup(args.workload, args.cache, args.scale, args.seed, args.workloads)
        return 0
    result = measure(args)
    args.out.write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
