#!/usr/bin/env python3
"""Steadiness of the loclab benchmark: run each workload repeatedly with
a new seed each time and print, for every end-to-end metric, the median
and quartiles of its values against the metric's bound in
BENCHMARK.json.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads reproduce --sets 2

spread = (Q3 - Q1) / median, with the quartiles of Python's
statistics.quantiles(values, n=4).  A metric is "steady" when its spread
is below a third of its bound and "within" when below the bound; the
rule holds for every metric, setup_s too.  With --sets 2 each workload
is run in two sets (the second on fresh seeds) and the two sets' medians
must agree within the bound, in either direction.  The failed share
(failed / attempted) must be identical in every run.  Exits 1 when any
of these fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["meta"] if len(lines) > 1 else {}


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        sets, steals = [], []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.seed0 + s * args.runs + i
                res, meta = one_run(w, seed, seconds)
                results.append(res)
                steals.append(meta.get("steal_share") or 0.0)
                print(f"  {w} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      f"steal={steals[-1]:.3f}", file=sys.stderr, flush=True)
            sets.append(results)
        print(f"\n{w}  ({args.runs} runs x {args.sets} set(s), {seconds} s each; "
              f"nproc {meta.get('nproc')}, domains {meta.get('recommended_domain_count')}, "
              f"rev {meta.get('git_rev')}, src {meta.get('source_sha256')}; "
              f"hypervisor steal median {statistics.median(steals):.3f}, max {max(steals):.3f})")
        print(f"  {'metric':<14}{'median':>14}{'Q1':>14}{'Q3':>14}{'spread':>9}{'bound':>7}  verdict")
        for name, m in bounds.items():
            medians = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3 = quartiles(values)
                medians.append(med)
                spread = (q3 - q1) / med
                if spread < m["bound"] / 3:
                    verdict = "steady"
                elif spread <= m["bound"]:
                    verdict = "within"
                else:
                    verdict, ok = "WIDE", False
                print(f"  {name:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{spread:>9.3f}{m['bound']:>7.2f}  {verdict}")
            if len(medians) == 2:
                worse = (medians[1] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    worse = -worse
                flag = "ok" if abs(worse) <= m["bound"] else "DISAGREE"
                ok = ok and flag == "ok"
                print(f"  {'':<14}second set {worse:+.3f} worse than first  {flag}")
        shares = {r["failed"] / r["attempted"] for results in sets for r in results}
        correct = all(r["correct"] for results in sets for r in results)
        print(f"  failed share {sorted(shares)}; all correct: {correct}")
        ok = ok and len(shares) == 1 and correct
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
