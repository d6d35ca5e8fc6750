"""Verdicts of the ``fd`` engine over a sweep of examples, seeds and run kinds.

    python3 tools/fd_sweep.py [ROOT] [--seeds S ...]

ROOT is the root of a triadlab checkout holding ``src/triadlab``; it
defaults to the checkout this script lives in.  For every catalog example,
seed (by default 0-11 and 1486393352) and run kind (normal and
``--negative-controls``), the script runs ``run_suite`` in ``fd`` mode at
6 points over the default c sweep and reads each record's verdict.

Whether a check record failed or a control record fired is the checkout's
own rule, ``runner._meets_role``: a check fails when it does not pass, and
a control fires when it fails on an evaluable residual.  ``cr-form-xi`` at
c != 0 fails by design and is not counted.  The script prints, for each
example, the failure count and the worst residual as a share of its
tolerance, with the seed, the point index and the name and variant of the
record that reached it; then the failure count of each record name that
failed, and how many controls fired.  It exits 1 if any check record
failed or any control did not fire, else 0.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = tuple(range(12)) + (1486393352,)
POINTS = 6


def by_design(record: dict) -> bool:
    return record["name"] == "cr-form-xi" and record["variant"] != "c=0"


def sweep(triadlab, checks, runner, seeds) -> dict:
    """Per-example failures and worst ratios, per-name failures, and the
    count of controls run and of those that did not fire."""
    fails, worst, names = Counter(), {}, Counter()
    controls = silent = 0
    for ex in sorted(triadlab.catalog()):
        worst[ex] = (0.0, "", None, None)
        for seed in seeds:
            for kind in (False, True):
                cfg = triadlab.RunConfig(example_id=ex, points=POINTS,
                                         seed=seed, mode="fd",
                                         negative_controls=kind)
                for r in triadlab.run_suite(cfg).records:
                    met = runner._meets_role(r)
                    if checks.CHECKS[r["name"]].control:
                        controls += 1
                        silent += not met
                        continue
                    if by_design(r):
                        continue
                    ratio = r["residual"] / r["tolerance"]
                    if math.isnan(ratio):
                        ratio = math.inf
                    if ratio > worst[ex][0]:
                        name = r["name"] + (" " + r["variant"]
                                            if r["variant"] else "")
                        worst[ex] = (ratio, name, seed, r["point_index"])
                    if not met:
                        fails[ex] += 1
                        names[r["name"]] += 1
    return {"fails": fails, "worst": worst, "names": names,
            "controls": controls, "silent": silent}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", nargs="?", default=ROOT)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    args = ap.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    import triadlab
    from triadlab import checks, runner

    out = sweep(triadlab, checks, runner, args.seeds)
    print("fd sweep of %s: seeds %s, %d points, both run kinds"
          % (args.root, " ".join(map(str, args.seeds)), POINTS))
    print("%-16s %8s %12s %10s %5s  %s" % ("example", "failures",
                                          "worst ratio", "seed", "point",
                                          "worst record"))
    for ex, (ratio, name, seed, point) in out["worst"].items():
        print("%-16s %8d %12.3g %10s %5s  %s" % (ex, out["fails"][ex], ratio,
                                              seed, point, name))
    for name, count in sorted(out["names"].items(),
                              key=lambda kv: (-kv[1], kv[0])):
        print("  %-36s %6d" % (name, count))
    print("failures: %d" % sum(out["fails"].values()))
    print("controls fired: %d of %d"
          % (out["controls"] - out["silent"], out["controls"]))
    return 1 if out["silent"] or sum(out["fails"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
