"""Repeat workloads in two sets; print the spread of each end-to-end metric.

    python3 triadbench/spread.py --runs 10 [--workloads a,b] [--first-seed 1000]

Run from the root of a triadlab checkout.  Each workload runs ``runs`` times
in each of two sets, every run with its own seed and BENCHMARK.json's
``run_seconds``.  The runs alternate between the sets, and the set that goes
first alternates too.  For each workload, set and end-to-end metric it prints
the median, the quartiles (as ``statistics.quantiles(values, n=4)`` gives
them) and the spread, which is the distance between the quartiles as a share
of the median.  It also prints how far the second median lies from the first,
as a share of the first, next to the metric's bound from BENCHMARK.json, and
the share of failed requests of each set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds) -> dict:
    out = subprocess.run(cmd + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", "0"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1000)
    args = ap.parse_args(argv)
    metrics = bench["end_to_end"]

    seed = args.first_seed
    for workload in args.workloads.split(","):
        values = [{m["name"]: [] for m in metrics} for _ in range(2)]
        shares = [[0, 0] for _ in range(2)]
        for i in range(args.runs):
            for s in ((0, 1), (1, 0))[i % 2]:
                res = run_once(bench["command"], workload, seed,
                               bench["run_seconds"])
                print("%s set %d seed %d: correct=%s %s" % (
                    workload, s + 1, seed, res["correct"],
                    " ".join("%s=%.6g" % (k, v["value"])
                             for k, v in res["metrics"].items())),
                      flush=True)
                seed += 1
                shares[s][0] += res["failed"]
                shares[s][1] += res["attempted"]
                for m in metrics:
                    values[s][m["name"]].append(
                        res["metrics"][m["name"]]["value"])
        print("== %s: %d runs per set" % (workload, args.runs))
        for m in metrics:
            name, medians = m["name"], []
            for s in range(2):
                q1, med, q3 = statistics.quantiles(values[s][name], n=4)
                medians.append(med)
                print("  %-16s set %d  median %-12.6g q1 %-12.6g q3 %-12.6g "
                      "spread %.4f  (bound %g)" % (name, s + 1, med, q1, q3,
                                                   (q3 - q1) / med,
                                                   m["bound"]))
            worse = (medians[1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                worse = -worse
            print("  %-16s second median worse by %+.4f  (bound %g)"
                  % (name, worse, m["bound"]))
        for s, (failed, attempted) in enumerate(shares):
            print("  failed share set %d: %d / %d" % (s + 1, failed,
                                                      attempted))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
