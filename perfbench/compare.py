"""Compare end-to-end results of a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perfbench/compare.py RUNS.jsonl

Each file holds run records as ``run.py`` appends them to
``perfbench/results/runs.jsonl``; traced runs are skipped.  With two
files, one row per workload and end-to-end metric gives each side's
median and quartiles, the share of pairs each side won (runs paired in
seed order, ties counting for neither) and a verdict:

* unresolved: the parent's own spread (quartile distance over median) is
  wider than the metric's bound and not every change run beats every
  parent run;
* gain: at least ten pairs, the change wins at least nine tenths of
  them and the medians differ by more than the parent's quartile
  distance;
* regression: the change's median is worse than the parent's by more
  than the bound;
* within bound: anything else.

Bounds and directions come from BENCHMARK.json.  With one file, the rows
give the medians and quartiles of that side alone, plus its error rate.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[str, list[dict]]:
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if not record["context"]["trace"]:
                runs[record["workload"]].append(record)
    return {w: sorted(rs, key=lambda r: r["context"]["seed"]) for w, rs in runs.items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    change_wins = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    parent_wins = sum(sign * (p - c) > 0 for p, c in pairs) / len(pairs)
    worse = sign * (pm - cm) / pm
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    if (p3 - p1) / pm > bound and not all_better:
        result = "unresolved"
    elif len(pairs) >= 10 and change_wins >= 0.9 and sign * (cm - pm) > p3 - p1:
        result = "gain"
    elif worse > bound:
        result = "regression"
    else:
        result = "within bound"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "change_wins": change_wins,
            "parent_wins": parent_wins, "verdict": result}


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sides = [load(path) for path in argv]
    for workload in sorted(set().union(*sides)):
        runs = [side.get(workload, []) for side in sides]
        if not all(runs):
            print(f"{workload}: missing on one side")
            continue
        counts = " vs ".join(str(len(r)) for r in runs)
        print(f"== {workload} ({counts} runs)")
        for m in spec["end_to_end"]:
            series = [[r["metrics"][m["name"]] for r in side] for side in runs]
            label = f"  {m['name']:16s} {m['unit']:8s}"
            if len(series) == 1:
                q1, med, q3 = quartiles(series[0])
                print(f"{label} median {med:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
                continue
            v = verdict(series[0], series[1], m["better"], m["bound"])
            print(f"{label} parent {v['parent'][1]:.6g} [{v['parent'][0]:.6g}, "
                  f"{v['parent'][2]:.6g}]  change {v['change'][1]:.6g} "
                  f"[{v['change'][0]:.6g}, {v['change'][2]:.6g}]  won "
                  f"{v['parent_wins']:.0%}/{v['change_wins']:.0%}  bound {m['bound']:.0%}"
                  f"  {v['verdict']}")
        for side, label in zip(runs, ["parent", "change"] if len(runs) == 2 else [""]):
            failed = sum(r["failed"] for r in side)
            attempted = sum(r["attempted"] for r in side)
            print(f"  error_rate {label:6s} {failed / attempted:.6g} ({failed}/{attempted})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
