"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the lines that ``run.py --out`` appended, one per run of one
workload.  For every end-to-end metric of BENCHMARK.json the table gives
each side's median and quartiles, the share of runs the new side won (the
i-th run of each side form a pair; ties count for neither), and a verdict:

    improved     the new side won at least 9 in 10 pairs and its median is
                 better by more than the base's own quartile spread
    regressed    the median is worse by more than the metric's bound
    unresolved   either side's quartile spread exceeds the bound, and not
                 every new run is better than every base run
    no change    otherwise

The exit code is 1 when any pairing regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _benchmark_spec() -> dict:
    for root in (os.getcwd(), os.path.dirname(HERE)):
        path = os.path.join(root, "BENCHMARK.json")
        if os.path.isfile(path):
            with open(path) as fh:
                return json.load(fh)
    raise SystemExit("BENCHMARK.json not found")


def load(path: str) -> dict:
    """Timed (untraced) runs per workload, in file order."""
    runs = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["record"]["trace"]:
                    runs.setdefault(rec["record"]["workload"], []).append(rec)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, new, better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0

    def beats(a, b):
        return sign * (b - a) > 0  # a is better than b

    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    pairs = list(zip(base, new))
    won = sum(beats(n, b) for b, n in pairs) / len(pairs)
    worse = sign * (nmed - bmed) / bmed  # positive: the new side is worse
    spread = max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed)
    all_better = all(beats(n, b) for n in new for b in base)
    if won >= 0.9 and -worse > (bq3 - bq1) / bmed:
        word = "improved"
    elif spread > bound and not all_better:
        word = "unresolved"
    elif worse > bound:
        word = "regressed"
    else:
        word = "no change"
    return {"base": (bq1, bmed, bq3), "new": (nq1, nmed, nq3), "won": won,
            "worse": worse, "spread": spread, "verdict": word}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    base, new = load(argv[0]), load(argv[1])
    regressed = False
    print(f"{'workload':11s} {'metric':12s} {'base q1/med/q3':>30s} "
          f"{'new q1/med/q3':>30s} {'won':>5s} {'change':>8s} {'spread':>7s} "
          f"{'bound':>6s}  verdict")
    for workload in sorted(set(base) | set(new)):
        b_runs, n_runs = base.get(workload, []), new.get(workload, [])
        if not b_runs or not n_runs:
            print(f"{workload:11s} missing on one side")
            continue
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            n = [r["metrics"][m["name"]]["value"] for r in n_runs]
            v = verdict(b, n, m["better"], m["bound"])
            regressed |= v["verdict"] == "regressed"
            print(f"{workload:11s} {m['name']:12s} "
                  f"{'/'.join(f'{x:.4g}' for x in v['base']):>30s} "
                  f"{'/'.join(f'{x:.4g}' for x in v['new']):>30s} "
                  f"{v['won']:5.0%} {v['worse']:+8.2%} {v['spread']:7.2%} "
                  f"{m['bound']:6.0%}  {v['verdict']}")
        for side, runs in (("base", b_runs), ("new", n_runs)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"{workload:11s} {side}: {len(runs)} runs, failed {failed} of "
                  f"{attempted} operations")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
