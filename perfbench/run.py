"""The reproduction benchmark: ``paper``, ``prepare-cold`` and ``campaign``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --all              # every workload, every metric
    python3 perfbench/run.py --workload campaign --seed 3 --regenerate

Each invocation sets the workload's start state up several times (fresh
processes; ``setup_s`` is their median), then measures repetitions of
the workload, each in a fresh process on a fresh copy of the start
state, while another repetition still fits in ``--seconds`` (at least
one). The outputs of
every repetition are checked against the expected outputs committed in
``perfbench/expected/``; only ``--regenerate`` rewrites them. With
``--trace 1`` one untraced and one traced repetition run instead, and
the per-layer metrics come from the traced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every result is
also appended, with its host record, to ``.perfbench/results.jsonl``;
``perfbench/compare.py`` compares two such files.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
EXPECTED = HERE / "expected"
sys.path.insert(0, str(HERE))

from work import SCALES  # noqa: E402

WORKLOADS = ("paper", "prepare-cold", "campaign")
#: Seeds with committed expected outputs; seed n runs input set n % 5.
INPUT_SETS = 5
#: Set-up repetitions per run (``setup_s`` is their median).
SETUP_REPEATS = {"paper": 3, "prepare-cold": 5, "campaign": 3}
#: No single step may take longer than this many seconds.
STEP_TIMEOUT_S = 170
#: Correctness metrics printed beside the timings, with their units.
CHECKS = {
    "error_rate": "ratio",
    "output_mismatches": "count",
    "claims_held": "count",  # paper only
    "screen_max_rel_err": "ratio",  # campaign only
}


class BenchError(RuntimeError):
    """A step of the benchmark failed; no result is printed."""


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_sources() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {ROOT / 'src'}")


def host_record(seed: int, workload: str) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "input_seed": seed % INPUT_SETS,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# Steps in fresh processes
# ----------------------------------------------------------------------


def step(args: list[str], run_dir: Path) -> float:
    """Run ``work.py`` with ``args``; returns its wall time in seconds.

    The step runs in its own session so that, on a timeout, the whole
    process group (sweep workers included) is killed and reaped.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    cmd = [sys.executable, str(HERE / "work.py"), *args]
    with open(run_dir / "steps.log", "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=log, stderr=log,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=STEP_TIMEOUT_S)
            elapsed = time.perf_counter() - t0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"step timed out: {' '.join(args)}") from None
        finally:
            end_session(proc.pid)
    if code != 0:
        tail = (run_dir / "steps.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"step failed ({code}): {' '.join(args)}\n{tail}")
    return elapsed


def end_session(pgid: int, grace_s: float = 5.0) -> None:
    """Kill what a step left in its session and wait until it is gone."""
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def fresh_copy(master: Path, target: Path) -> Path:
    """A copy of the start-state cache, without analytic profile files."""
    shutil.copytree(master, target, ignore=shutil.ignore_patterns("*.profile-*"))
    return target


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: float, names: list[str] | None, run_dir: Path) -> dict:
    common = ["--workload", workload, "--seed", str(seed), "--scale", repr(scale)]
    if names:
        common += ["--workloads", ",".join(names)]
    setup_times = []
    for i in range(SETUP_REPEATS[workload]):
        master = run_dir / f"setup-{i}"
        setup_times.append(step(["setup", *common, "--cache", str(master)], run_dir))
        if i:
            shutil.rmtree(run_dir / f"setup-{i - 1}")

    def repetition(index: int, traced: bool) -> dict:
        rep_dir = run_dir / f"rep-{index}"
        cache = fresh_copy(master, rep_dir / "cache")
        out = rep_dir / "result.json"
        step(["run", *common, "--cache", str(cache), "--out", str(out)]
             + (["--trace"] if traced else []), run_dir)
        result = json.loads(out.read_text())
        shutil.rmtree(cache)
        return result

    reps = []
    if trace:
        untraced, traced_rep = repetition(0, False), repetition(1, True)
        traced_rep["layers"]["bench.trace_overhead_pct"] = 100.0 * (
            traced_rep["wall_s"] - untraced["wall_s"]
        ) / untraced["wall_s"]
        reps = [untraced, traced_rep]
    else:
        # Start another repetition only while one more still fits in
        # the run's measuring time.
        start = time.perf_counter()
        while not reps or (
            time.perf_counter() - start
            + statistics.median(rep["wall_s"] for rep in reps) <= seconds
        ):
            reps.append(repetition(len(reps), False))
    return {"setup_times": setup_times, "reps": reps}


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------


def expected_path(workload: str, input_seed: int) -> Path:
    return EXPECTED / f"{workload}-seed{input_seed}.json.gz"


def load_expected(workload: str, input_seed: int) -> dict | None:
    path = expected_path(workload, input_seed)
    if not path.exists():
        return None
    with gzip.open(path, "rt") as handle:
        return json.load(handle)


def write_expected(workload: str, input_seed: int, outputs: dict) -> Path:
    path = expected_path(workload, input_seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(outputs, sort_keys=True, indent=0).encode()
    with open(path, "wb") as raw:  # mtime=0: the same outputs, the same bytes
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
            handle.write(payload)
    return path


def mismatches(expected: dict, outputs: dict) -> int:
    """Output values that differ from (or are missing in) the expected."""
    keys = expected.keys() | outputs.keys()
    return sum(1 for key in keys if expected.get(key) != outputs.get(key))


# ----------------------------------------------------------------------
# One benchmark invocation
# ----------------------------------------------------------------------


def bench(workload: str, seed: int, seconds: float, trace: bool,
          regenerate: bool, scale: float | None = None,
          names: list[str] | None = None) -> dict:
    """One benchmark invocation on one workload; returns its record.

    ``scale`` and ``names`` override the workload's scale and suite (the
    self-check's tiny runs); outputs are then not checked.
    """
    spec = benchmark_spec()
    official = scale is None and names is None
    input_seed = seed % INPUT_SETS
    scale = scale if scale is not None else SCALES[workload]
    host = host_record(seed, workload)
    host.update(scale=scale, suite=names or "all")
    run_dir = WORK / f"run-{os.getpid()}-{workload}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        measured = run_workload(
            workload, input_seed, seconds, trace, scale, names, run_dir
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    reps = measured["reps"]
    host["loadavg_after"] = list(os.getloadavg())

    if regenerate:
        print(f"wrote {write_expected(workload, input_seed, reps[0]['outputs'])}")
    expected = load_expected(workload, input_seed) if official else None
    if official and expected is None:
        raise BenchError(
            f"no expected outputs for {workload} input set {input_seed}; "
            f"run with --regenerate once"
        )
    # Unchecked (self-check) runs still require repetitions to agree.
    reference = expected if expected is not None else reps[0]["outputs"]
    bad = max(mismatches(reference, rep["outputs"]) for rep in reps)
    attempted = reps[0]["attempted"]
    failed = max(rep["failed"] for rep in reps)
    checks = {
        "error_rate": failed / attempted,
        "output_mismatches": bad,
        **reps[0].get("extra", {}),
    }
    if trace:
        layers = reps[-1]["layers"]
        metrics = {
            m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        values = {
            "wall_s": statistics.median(rep["wall_s"] for rep in reps),
            "cpu_s": statistics.median(rep["cpu_s"] for rep in reps),
            "setup_s": statistics.median(measured["setup_times"]),
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        }
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    record = {
        "host": host,
        "trace": trace,
        "checked": expected is not None,
        "repetitions": len(reps),
        "setup_times": measured["setup_times"],
        "checks": checks,
        "metrics": metrics,
        "span_problems": reps[-1].get("span_problems", []),
        "main_self_s": reps[-1].get("main_self_s"),
        "traced_wall_s": reps[-1]["wall_s"] if trace else None,
        "correct": failed == 0 and bad == 0,
        "attempted": attempted,
        "failed": failed,
    }
    WORK.mkdir(exist_ok=True)
    with open(WORK / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def print_record(record: dict) -> None:
    host = record["host"]
    print(f"# {host['workload']} seed {host['seed']} (input set "
          f"{host['input_seed']}), {record['repetitions']} repetition(s), "
          f"{'traced' if record['trace'] else 'untraced'}")
    print(f"# host {host['host']} nproc {host['nproc']} python "
          f"{host['python']} numpy {host['numpy']} commit {host['commit']} "
          f"loadavg {host['loadavg_before'][0]:.2f} -> "
          f"{host['loadavg_after'][0]:.2f}")
    for name, metric in record["metrics"].items():
        print(f"{host['workload']:12s} {name:34s} {metric['value']:14.6g} "
              f"{metric['unit']}")
    for name, value in record["checks"].items():
        print(f"{host['workload']:12s} {name:34s} {value:14.6g} {CHECKS[name]}")
    if not record["checked"]:
        print("# outputs not checked: no expected outputs at this scale")
    for problem in record["span_problems"]:
        print(f"# span accounting: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print every metric")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regenerate", action="store_true",
                        help="rewrite the expected outputs of this input set")
    args = parser.parse_args(argv)
    if bool(args.workload) == args.all:
        parser.error("give exactly one of --workload and --all")
    try:
        require_sources()
        spec = benchmark_spec()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        workloads = WORKLOADS if args.all else (args.workload,)
        records = [
            bench(w, args.seed, seconds, bool(args.trace), args.regenerate)
            for w in workloads
        ]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print_record(record)
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": records[0]["metrics"] if len(records) == 1 else {
            f"{r['host']['workload']}.{name}": metric
            for r in records for name, metric in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
