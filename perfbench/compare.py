"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file holds run records as perfbench/run.py appends them to
.perfbench_out/runs.jsonl (one JSON object per line). For each workload and
metric it prints both sides' median and quartiles, the ratio of medians
(new / old) and a verdict judged by the bounds in BENCHMARK.json:

  worse       the new median is worse by more than max(bound, spread)
  better      the new median is better by more than max(bound, spread) and,
              where runs share seeds, the new run wins at least 9 in 10 pairs
  unresolved  anything else: the difference is within the bound or the spread

spread is the larger of the two sides' interquartile range over median.
Per-layer metrics have no bound, so only the spread applies to them.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: str) -> dict:
    """{(workload, metric): {seed: value}}, later runs of a seed replacing earlier ones."""
    runs: dict = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                runs.setdefault((rec["workload"], name), {})[rec["seed"]] = m["value"]
    return runs


def load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(old: dict, new: dict, better: str, bound: float | None) -> tuple[str, float | None]:
    o1, om, o3 = quartiles(list(old.values()))
    n1, nm, n3 = quartiles(list(new.values()))
    if om == 0:
        return "unresolved", None
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (nm - om) / abs(om)
    spread = max((o3 - o1) / abs(om), (n3 - n1) / abs(nm) if nm else 0.0)
    threshold = max(bound or 0.0, spread)
    ratio = nm / om
    if worse_by > threshold:
        return "worse", ratio
    if -worse_by > threshold:
        pairs = [(old[s], new[s]) for s in old.keys() & new.keys()]
        wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
        if not pairs or wins >= 0.9 * len(pairs):
            return "better", ratio
    return "unresolved", ratio


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load_runs(argv[0]), load_runs(argv[1])
    spec = load_spec()
    print(f"{'workload':<9} {'metric':<46} {'old median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'ratio':>7}  verdict")
    for key in sorted(old.keys() & new.keys()):
        workload, name = key
        if name not in spec:
            continue
        better, bound = spec[name]
        result, ratio = verdict(old[key], new[key], better, bound)
        cells = []
        for side in (old[key], new[key]):
            q1, med, q3 = quartiles(list(side.values()))
            cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(side)}")
        ratio_text = f"{ratio:7.3f}" if ratio is not None else "    n/a"
        print(f"{workload:<9} {name:<46} {cells[0]:>34} {cells[1]:>34} {ratio_text}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
