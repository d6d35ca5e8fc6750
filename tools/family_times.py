"""Wall time of each check family over a benchmark workload's requests.

    python3 tools/family_times.py fd-wide --seeds 1 2

Runs one round of the workload's requests (every example once, as
``triadbench/workloads.py`` builds them) for each seed, in this process,
with ``src`` of the checkout this script lives in on the path.  One round at
the first seed minus one is served first, untimed, so that the process's
first-call set-up is not timed, as in ``tools/ab_times.py``.  Each family
function the runner calls, and ``emit_report``, is wrapped by a timer for
the run; the script prints each one's total wall time, its share of the
total and its call count, then the total wall time of the requests.  The
base batch, the Gamma table naturality reads built once at the sample
points and every map's images (``_base_batch``), is timed as its own line,
in a checkout that has it; without it, that work lands in the families
that read the table.  The line ``run_suite (outside families)`` is
``run_suite``'s wall time minus that of the wrapped functions it called:
record assembly, sampling and set-up.  So a request splits into families,
the base batch, that line and ``emit_report``.
``triadbench/`` is only read.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "triadbench"))

import workloads  # noqa: E402

OUTSIDE = "run_suite (outside families)"


@contextlib.contextmanager
def family_timers(pkg, spent: Counter, calls: Counter):
    """Within the block, every family that ``pkg``'s check registry names,
    the Nijenhuis gate of the controls, the base batch (where ``pkg`` has
    one), ``emit_report`` and ``run_suite``, as ``pkg.runner`` binds them,
    add their wall time to ``spent`` and their calls to ``calls``, under
    their names."""
    runner = pkg.runner
    names = ({spec.family for spec in pkg.checks.CHECKS.values()}
             | {"_projected_nijenhuis_scale", "emit_report", "run_suite"}
             | {"_base_batch"} & set(vars(runner)))
    originals = {name: getattr(runner, name) for name in sorted(names)}

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
        yield
    finally:
        for name, fn in originals.items():
            setattr(runner, name, fn)


def split_outside(spent: Counter, calls: Counter) -> None:
    """Replace ``run_suite``'s figures by those of its time outside the
    other wrapped functions it called."""
    inside = sum(t for name, t in spent.items()
                 if name not in ("run_suite", "emit_report"))
    spent[OUTSIDE] = spent.pop("run_suite", 0.0) - inside
    calls[OUTSIDE] = calls.pop("run_suite", 0)


def serve(pkg, req) -> None:
    pkg.runner.emit_report(pkg.runner.run_suite(pkg.RunConfig(**req)), "json")


def timed_run(pkg, reqs, warm=()) -> tuple:
    """(seconds per timed name, calls per timed name, total seconds) of the
    requests ``reqs`` through the package ``pkg``, after the requests
    ``warm``, untimed."""
    for req in warm:
        serve(pkg, req)
    spent, calls = Counter(), Counter()
    with family_timers(pkg, spent, calls):
        t0 = time.perf_counter()
        for req in reqs:
            serve(pkg, req)
        total = time.perf_counter() - t0
    split_outside(spent, calls)
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
    warm = workloads.requests(args.workload, args.seeds[0] - 1,
                              w.round_seconds)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import triadlab
    spent, calls, total = timed_run(triadlab, reqs, warm)
    print("%s: %d requests (seeds %s)" % (args.workload, len(reqs),
                                         " ".join(map(str, args.seeds))))
    for name in sorted(spent, key=spent.get, reverse=True):
        print("%-28s %8.3f s %5.1f%% %6d calls"
              % (name, spent[name], 100.0 * spent[name] / total, calls[name]))
    print("%-28s %8.3f s" % ("total", total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
