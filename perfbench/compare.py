"""Compare two result files written by ``perfbench/run.py``.

Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For each (workload, scale, traced) group found in both files, prints
every end-to-end metric's median on each side, the change as a share of
the base median, and whether it stays within the metric's bound in
``BENCHMARK.json``. Exits 1 when a metric got worse by more than its
bound, and 2 — comparing nothing — when the records were taken on
different hosts or CPU counts.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def machines(records: list[dict]) -> set[tuple]:
    return {(r["host"]["host"], r["host"]["nproc"]) for r in records}


def groups(records: list[dict]) -> dict[tuple, list[dict]]:
    out = defaultdict(list)
    for r in records:
        out[r["host"]["workload"], r["host"].get("scale"), r["trace"]].append(r)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    hosts = machines(base) | machines(new)
    if len(hosts) != 1:
        print(f"refusing to compare records from different hosts or CPU "
              f"counts: {sorted(hosts)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    base_groups, new_groups = groups(base), groups(new)
    for key in sorted(base_groups.keys() & new_groups.keys(), key=str):
        if key[2]:
            continue  # per-layer metrics carry no bound
        print(f"{key[0]} (scale {key[1]}): {len(base_groups[key])} base vs "
              f"{len(new_groups[key])} new run(s)")
        for name, metric in bounds.items():
            a = statistics.median(r["metrics"][name]["value"] for r in base_groups[key])
            b = statistics.median(r["metrics"][name]["value"] for r in new_groups[key])
            change = (b - a) / a
            regressed = (change if metric["better"] == "lower" else -change) > metric["bound"]
            worse += regressed
            print(f"  {name:14s} {a:12.4f} -> {b:12.4f} {metric['unit']:6s} "
                  f"{change:+8.1%} (bound {metric['bound']:.0%})"
                  f"{'  WORSE' if regressed else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
