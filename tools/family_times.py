"""Wall time of each check family over a benchmark workload's requests.

    python3 tools/family_times.py fd-wide --seeds 1 2

Runs one round of the workload's requests (every example once, as
``triadbench/workloads.py`` builds them) for each seed, in this process,
with ``src`` of the checkout this script lives in on the path.  Each family
function the runner calls, and ``emit_report``, is wrapped by a timer for
the run; the script prints each one's total wall time, its share of the
total and its call count, then the total wall time of the requests.  The
line ``run_suite (outside families)`` is ``run_suite``'s wall time minus
that of the wrapped functions it called: record assembly, sampling and
set-up.  So a request splits into families, that line and ``emit_report``.
``triadbench/`` is only read.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "triadbench")]

import triadlab  # noqa: E402
import workloads  # noqa: E402
from triadlab import runner  # noqa: E402
from triadlab.checks import CHECKS  # noqa: E402

TIMED = sorted({spec.family for spec in CHECKS.values()}
               | {"_projected_nijenhuis_scale", "emit_report", "run_suite"})
OUTSIDE = "run_suite (outside families)"


def timed_run(reqs) -> tuple:
    """(seconds per timed name, calls per timed name, total seconds)."""
    spent, calls = Counter(), Counter()
    originals = {name: getattr(runner, name) for name in TIMED}

    def wrap(name, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - t0
                calls[name] += 1
        return timed

    for name, fn in originals.items():
        setattr(runner, name, wrap(name, fn))
    try:
        t0 = time.perf_counter()
        for req in reqs:
            report = runner.run_suite(triadlab.RunConfig(**req))
            runner.emit_report(report, "json")
        total = time.perf_counter() - t0
    finally:
        for name, fn in originals.items():
            setattr(runner, name, fn)
    inside = sum(t for name, t in spent.items()
                 if name not in ("run_suite", "emit_report"))
    spent[OUTSIDE] = spent.pop("run_suite") - inside
    calls[OUTSIDE] = calls.pop("run_suite")
    return spent, calls, total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]
    reqs = [req for seed in args.seeds
            for req in workloads.requests(args.workload, seed,
                                          w.round_seconds)]
    spent, calls, total = timed_run(reqs)
    print("%s: %d requests (seeds %s)" % (args.workload, len(reqs),
                                         " ".join(map(str, args.seeds))))
    for name in sorted(spent, key=spent.get, reverse=True):
        print("%-28s %8.3f s %5.1f%% %6d calls"
              % (name, spent[name], 100.0 * spent[name] / total, calls[name]))
    print("%-28s %8.3f s" % ("total", total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
