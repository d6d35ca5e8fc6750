"""Per-request wall time of two triadlab checkouts, compared in one process.

    python3 tools/ab_times.py BASE HEAD --workload fd-wide --rounds 10

BASE and HEAD are roots of triadlab checkouts, each holding
``src/triadlab``.  The package imports its own modules relatively, so each
tree's ``src/triadlab`` is copied into a temporary directory under its own
package name (``tl_base``, ``tl_head``) and both copies are imported into
this process; each keeps its own catalog and stores.

Each copy first serves one round of the workload untimed, to warm it.  Then
round r sends the requests that ``triadbench/workloads.py`` (of the checkout
this script lives in) builds for one round at seed ``--seed + r``.  Every
request runs through both copies, ``run_suite`` then
``emit_report(report, "json")``, and the copy that goes first alternates
from request to request.  The script prints each copy's total time, the
ratio HEAD/BASE of the totals, the median and quartiles of the per-request
ratio, and how many requests gave byte-identical reports.  Over the timed
rounds, each copy's family functions carry the timers of
``tools/family_times.py``, so the script then prints each family's time in
BASE and in HEAD and their ratio: it shows where a change's gain lands.
``--json`` prints the same figures as one JSON object.  ``triadbench/`` is
only read.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "tools"), os.path.join(ROOT, "triadbench")]

import family_times  # noqa: E402
import workloads  # noqa: E402


def load_copy(root: str, name: str, folder: str):
    """Import ``root``'s ``src/triadlab`` as the package ``name``, copied
    into ``folder``, which must be on ``sys.path``."""
    shutil.copytree(os.path.join(root, "src", "triadlab"),
                    os.path.join(folder, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def serve(pkg, request: dict) -> tuple:
    """(seconds, report bytes) of one request through the package ``pkg``."""
    t0 = time.perf_counter()
    report = pkg.runner.run_suite(pkg.RunConfig(**request))
    payload = pkg.runner.emit_report(report, "json")
    return time.perf_counter() - t0, payload


def round_requests(workload: str, seed: int) -> list:
    return workloads.requests(workload, seed,
                              workloads.WORKLOADS[workload].round_seconds)


def quartiles(xs) -> tuple:
    """(lower quartile, median, upper quartile) of xs."""
    if len(xs) < 2:
        return (xs[0],) * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def compare(base, head, workload: str, rounds: int, seed: int) -> dict:
    for pkg in (base, head):
        for request in round_requests(workload, seed - 1):
            serve(pkg, request)
    totals = [0.0, 0.0]
    ratios, identical, n = [], 0, 0
    spent = [Counter(), Counter()]
    calls = [Counter(), Counter()]
    with contextlib.ExitStack() as timers:
        for side, pkg in enumerate((base, head)):
            timers.enter_context(
                family_times.family_timers(pkg, spent[side], calls[side]))
        for r in range(rounds):
            for request in round_requests(workload, seed + r):
                order = (0, 1) if n % 2 == 0 else (1, 0)
                out = [None, None]
                for side in order:
                    out[side] = serve((base, head)[side], request)
                totals[0] += out[0][0]
                totals[1] += out[1][0]
                ratios.append(out[1][0] / out[0][0])
                identical += out[0][1] == out[1][1]
                n += 1
    for side in (0, 1):
        family_times.split_outside(spent[side], calls[side])
    q1, med, q3 = quartiles(ratios)
    families = {name: [spent[0][name], spent[1][name]]
                for name in sorted(set(spent[0]) | set(spent[1]))}
    return {"workload": workload, "rounds": rounds, "seed": seed,
            "requests": n, "base_s": totals[0], "head_s": totals[1],
            "total_ratio": totals[1] / totals[0], "ratio_median": med,
            "ratio_q1": q1, "ratio_q3": q3, "identical_reports": identical,
            "families": families}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as folder:
        sys.path.insert(0, folder)
        base = load_copy(args.base, "tl_base", folder)
        head = load_copy(args.head, "tl_head", folder)
        out = compare(base, head, args.workload, args.rounds, args.seed)
    if args.json:
        print(json.dumps(out, sort_keys=True))
        return 0
    print("%s: %d requests in %d rounds from seed %d"
          % (out["workload"], out["requests"], out["rounds"], out["seed"]))
    print("BASE %.3f s, HEAD %.3f s, total ratio HEAD/BASE %.3f"
          % (out["base_s"], out["head_s"], out["total_ratio"]))
    print("per-request ratio: median %.3f, quartiles %.3f-%.3f"
          % (out["ratio_median"], out["ratio_q1"], out["ratio_q3"]))
    print("byte-identical reports: %d of %d"
          % (out["identical_reports"], out["requests"]))
    print("%-28s %8s %8s %6s" % ("family", "BASE s", "HEAD s", "ratio"))
    for name, (b, h) in sorted(out["families"].items(),
                               key=lambda kv: -kv[1][0]):
        print("%-28s %8.3f %8.3f %6s"
              % (name, b, h, "%.3f" % (h / b) if b else "-"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
