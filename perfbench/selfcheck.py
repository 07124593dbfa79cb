"""Fast self-check of the benchmark harness (seconds, not minutes).

Runs all three workloads at 1/8192 on CG and Hashing, untraced and
traced, and checks that:

- every end-to-end and every per-layer metric of ``BENCHMARK.json``
  appears with its unit;
- ``error_rate`` is 0;
- the span accounting is consistent: no negative self time, and the
  self times of the measured process sum to no more than the traced
  wall time.

Usage: ``python3 perfbench/selfcheck.py``; exits 1 when any check
fails, listing what failed.
"""

from __future__ import annotations

import sys

import run

SCALE = 1 / 8192
SUITE = ["CG", "Hashing"]


def check(record: dict, expected: list[dict]) -> list[str]:
    problems = []
    for metric in expected:
        got = record["metrics"].get(metric["name"])
        if got is None:
            problems.append(f"missing metric {metric['name']}")
        elif got["unit"] != metric["unit"]:
            problems.append(f"{metric['name']} has unit {got['unit']}")
    if record["checks"]["error_rate"] != 0:
        problems.append(f"error_rate {record['checks']['error_rate']}")
    problems += record["span_problems"]
    if record["trace"] and record["main_self_s"] > record["traced_wall_s"]:
        problems.append(
            f"self times {record['main_self_s']:.3f}s exceed traced wall "
            f"{record['traced_wall_s']:.3f}s"
        )
    return problems


def main() -> int:
    run.require_sources()
    spec = run.benchmark_spec()
    failed = False
    for workload in run.WORKLOADS:
        for trace in (False, True):
            record = run.bench(workload, 0, 0, trace, False, SCALE, SUITE)
            expected = spec["per_layer"] if trace else spec["end_to_end"]
            problems = check(record, expected)
            mode = "traced" if trace else "untraced"
            print(f"{workload:12s} {mode:8s} "
                  f"{'ok' if not problems else 'FAILED'}")
            for problem in problems:
                print(f"    {problem}")
            failed |= bool(problems)
    print("self-check", "FAILED" if failed else "ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
