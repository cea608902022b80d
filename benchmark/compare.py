#!/usr/bin/env python3
"""Hold two sets of timed runs of the same code against each other.

usage: compare.py <dir with A/ and B/> <BENCHMARK.json>

For every workload x end-to-end metric: both medians, both interquartile
spreads as a share of their median (statistics.quantiles(values, n=4), as the
driver computes them), the gap by which set B's median is worse than set A's,
and the bound from BENCHMARK.json. A row fails when the gap exceeds the bound
or, for every metric but setup_s, when a spread does; it reads `unresolved`
rather than `ok` where a spread is wider than a third of the bound: such a
metric cannot yet tell a regression of its bound's size from noise. The host's
wall-clock rows follow, for the record; nothing gates on them.

Exit code 1 when any row fails or any run reported a failed rep.
"""

import json
import pathlib
import statistics
import sys


def load(directory):
    """{workload: [(result, advisory)]} of one set, in seed order."""
    runs = {}
    for path in sorted(directory.glob("*.out")):
        workload = path.name.split(".")[0]
        lines = path.read_text().splitlines()
        if not lines:
            sys.exit(f"{path}: no result line")
        result = json.loads(lines[-1])
        advisory = {}
        for line in lines:
            if line.startswith("advisory: "):
                advisory = json.loads(line[len("advisory: "):])
        runs.setdefault(workload, []).append((result, advisory))
    return runs


def spread(values):
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    root = pathlib.Path(sys.argv[1])
    spec = json.loads(pathlib.Path(sys.argv[2]).read_text())
    sets = {name: load(root / name) for name in ("A", "B")}
    bad = False

    print(f"{'workload':14} {'metric':14} {'median A':>14} {'median B':>14} "
          f"{'iqr/med A':>10} {'iqr/med B':>10} {'gap B vs A':>11} {'bound':>9}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        a, b = sets["A"].get(name, []), sets["B"].get(name, [])
        if len(a) < 2 or len(b) < 2:
            print(f"{name:14} needs at least two runs per set, has {len(a)} and {len(b)}")
            bad = True
            continue
        for result, _ in a + b:
            if not result["correct"] or result["failed"]:
                print(f"{name:14} a run reported {result['failed']} failed "
                      f"of {result['attempted']} reps")
                bad = True
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r, _ in a]
            vb = [r["metrics"][m["name"]]["value"] for r, _ in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            worse = (mb - ma) if m["better"] == "lower" else (ma - mb)
            gap = worse / abs(ma) if ma else 0.0
            bound = m["bound"]
            gated_spread = 0.0 if m["name"] == "setup_s" else max(sa, sb)
            if gap > bound or gated_spread > bound:
                verdict, bad = "FAIL", True
            elif max(sa, sb) > bound / 3:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{name:14} {m['name']:14} {ma:14.8g} {mb:14.8g} "
                  f"{sa:10.2%} {sb:10.2%} {gap:+11.2%} {bound:9.2%}  {verdict}")

    print("\nhost wall-clock, advisory (not gated):")
    print(f"{'workload':14} {'row':14} {'median A':>14} {'median B':>14} "
          f"{'iqr/med A':>10} {'iqr/med B':>10} {'gap B vs A':>11}")
    for w in spec["workloads"]:
        name = w["name"]
        a, b = sets["A"].get(name, []), sets["B"].get(name, [])
        rows = sorted({k for _, adv in a + b for k in adv})
        for row in rows:
            va = [adv[row] for _, adv in a if row in adv]
            vb = [adv[row] for _, adv in b if row in adv]
            if len(va) < 2 or len(vb) < 2:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            print(f"{name:14} {row:14} {ma:14.6g} {mb:14.6g} "
                  f"{spread(va):10.2%} {spread(vb):10.2%} {(mb - ma) / ma:+11.2%}")

    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
