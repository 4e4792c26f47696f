"""Compare two sets of benchmark results.

    python3 perfbench/compare.py RESULTS_A RESULTS_B

Each argument is a directory of result files written by run.py (for
example two ``--out`` directories, one per commit).  For every workload,
trace mode and metric found on both sides it prints each side's median and
quartiles over its runs, and the ratio of the medians (B / A).
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(directory: Path) -> dict:
    """{(workload, trace): {"runs": [...], "metrics": {name: ([values], unit)}}}"""
    groups: dict = defaultdict(lambda: {"runs": [], "metrics": defaultdict(lambda: ([], ""))})
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        group = groups[record["workload"], record["trace"]]
        group["runs"].append(record)
        for name, m in record["result"]["metrics"].items():
            values, _ = group["metrics"][name]
            values.append(m["value"])
            group["metrics"][name] = (values, m["unit"])
    return groups


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def describe(runs: list[dict]) -> str:
    commits = sorted({(r.get("commit") or r["src_sha256"])[:12] for r in runs})
    pythons = sorted({r["python"] for r in runs})
    nprocs = sorted({str(r["nproc"]) for r in runs})
    failed = sum(r["result"]["failed"] for r in runs)
    return (f"{len(runs)} runs, code {'/'.join(commits)}, python {'/'.join(pythons)}, "
            f"nproc {'/'.join(nprocs)}, failed ops {failed}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    side_a, side_b = load(args.a), load(args.b)
    common = sorted(set(side_a) & set(side_b))
    if not common:
        print("error: the two result sets share no workload and trace mode", file=sys.stderr)
        return 2
    for key in common:
        a, b = side_a[key], side_b[key]
        print(f"== {key[0]} (trace {key[1]})")
        print(f"   A: {describe(a['runs'])}")
        print(f"   B: {describe(b['runs'])}")
        print(f"   {'metric':40s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} {'B/A':>8s}")
        for name in sorted(set(a["metrics"]) & set(b["metrics"])):
            (va, unit), (vb, _) = a["metrics"][name], b["metrics"][name]
            qa, qb = summary(va), summary(vb)
            ratio = f"{qb[1] / qa[1]:.3f}" if qa[1] else "-"
            cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (qa, qb)]
            print(f"   {name + ' (' + unit + ')':40s} {cells[0]:>34s} {cells[1]:>34s} {ratio:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
