#!/usr/bin/env python3
"""Compare two benchmark result sets workload by workload, metric by metric.

  python3 benchmark/compare.py BASE.json CANDIDATE.json
  python3 benchmark/compare.py BASE_DIR CANDIDATE_DIR
  python3 benchmark/compare.py results/BENCH_11.json:A results/BENCH_11.json:B

Each file is a result set written by `run.sh --runs N --out FILE`; a
directory stands for the runs of every *.json result set in it, so runs
of two commits can alternate one `--out` file at a time; FILE:NAME picks
set NAME of a file that holds several under "sets". Runs pair up by
seed. For every workload x metric present in both sets the
report gives both medians and quartiles, the share of pairs the candidate
wins (ties count for neither side) and, for metrics with a bound in
BENCHMARK.json, a verdict:

  unresolved  a side's quartile spread (Q3 - Q1 over its median) exceeds
              the bound and the candidate neither beats nor loses to every
              base run
  worse       the candidate's median is worse by more than the bound
  better      the candidate wins at least 9 of 10 pairs and its median is
              better by more than the base's own quartile spread
  unchanged   otherwise

Exit status 1 when any verdict is "worse", else 0. Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read_set(arg):
    """The result set at PATH, the runs of every set in directory PATH, or
    set NAME of the file at PATH:NAME."""
    path = Path(arg)
    if path.is_dir():
        return {"runs": [run for f in sorted(path.glob("*.json"))
                         for run in json.loads(f.read_text())["runs"]]}
    if not path.exists() and ":" in arg:
        path_text, _, name = arg.rpartition(":")
        return json.loads(Path(path_text).read_text())["sets"][name]
    return json.loads(path.read_text())


def load_set(data):
    """{workload: {seed: {metric: value}}} from a result set."""
    runs = {}
    for run in data["runs"]:
        runs.setdefault(run["workload"], {})[run["seed"]] = run["metrics"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def compare_metric(base, cand, better, bound):
    """Verdict for one metric; base and cand are values paired by index."""
    sign = 1.0 if better == "higher" else -1.0
    bq, cq = quartiles(base), quartiles(cand)
    pairs = list(zip(base, cand))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    # Positive when the candidate is worse, as a share of the base median.
    worse_by = sign * (bq[1] - cq[1]) / abs(bq[1]) if bq[1] else 0.0
    all_better = min(sign * c for c in cand) > max(sign * b for b in base)
    all_worse = max(sign * c for c in cand) < min(sign * b for b in base)

    if bound is None:
        verdict = "-"
    elif relative_spread(base) > bound or relative_spread(cand) > bound:
        verdict = "better" if all_better else "worse" if all_worse else "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    elif (pairs and wins >= 0.9 * len(pairs)
          and sign * (cq[1] - bq[1]) > bq[2] - bq[0]):
        verdict = "better"
    else:
        verdict = "unchanged"
    return {
        "base": bq,
        "cand": cq,
        "change": (cq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0,
        "wins": wins,
        "losses": losses,
        "pairs": len(pairs),
        "verdict": verdict,
    }


def compare_sets(base_set, cand_set, spec):
    """One row per workload x metric that both sets measured."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, cand = load_set(base_set), load_set(cand_set)
    rows = []
    for workload in sorted(base.keys() & cand.keys()):
        seeds = sorted(base[workload].keys() & cand[workload].keys())
        if not seeds:
            continue
        names = set.intersection(*(set(base[workload][s]) & set(cand[workload][s])
                                   for s in seeds))
        for name in [n for n in metrics if n in names]:
            meta = metrics[name]
            row = compare_metric([base[workload][s][name] for s in seeds],
                                 [cand[workload][s][name] for s in seeds],
                                 meta["better"], meta.get("bound"))
            row.update(workload=workload, metric=name, unit=meta["unit"],
                       bound=meta.get("bound"))
            rows.append(row)
    return rows


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("candidate")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    rows = compare_sets(read_set(args.base), read_set(args.candidate), spec)

    print(f"{'workload':<16} {'metric':<34} {'unit':<6} {'base median [Q1, Q3]':>36} "
          f"{'candidate median [Q1, Q3]':>36} {'change':>8} {'wins':>7} "
          f"{'bound':>6} verdict")
    for r in rows:
        b, c = r["base"], r["cand"]
        bound = "-" if r["bound"] is None else f"{r['bound']:.0%}"
        print(f"{r['workload']:<16} {r['metric']:<34} {r['unit']:<6} "
              f"{b[1]:>12.6g} [{b[0]:>9.4g}, {b[2]:>9.4g}] "
              f"{c[1]:>12.6g} [{c[0]:>9.4g}, {c[2]:>9.4g}] "
              f"{r['change']:>+8.1%} {r['wins']:>3}/{r['pairs']:<3} {bound:>6} "
              f"{r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
