"""The benchmark's workloads and the fixed request lists derived from a seed.

A request is what ``triadlab check`` does after start-up: one
``run_suite(RunConfig)`` followed by one ``emit_report(report, "json")``.
A round sends every example of a workload once, in catalog order; a run
sends ``rounds(workload, seconds)`` rounds.  The round count depends only on
``--seconds`` and a fixed nominal cost per round, never on how fast a run
goes, so every run of a workload does the same work.  Each request carries
its own seed, drawn from the benchmark's seed, which moves the sampled chart
points and field draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

C_VALUES = (-1.0, 0.0, 1.0)


@dataclass(frozen=True)
class Workload:
    examples: tuple
    mode: str
    points: int
    negative_controls: bool
    round_seconds: float      # nominal cost of one round; sets the round count


WORKLOADS = {
    # Dual arithmetic (ad) and the generic LU over Dual objects (engine) do
    # about 80% of the work here.
    "ad-highdim": Workload(("r7-standard", "r9-standard"), "ad", 2, False,
                           4.8),
    # No Dual arithmetic; float work in engine, contact, connections and
    # catalog plus the largest reports.  Per-point caches grow with points.
    # r3-perturbed-J runs the z-dependent J through the fd derivatives.
    # t3-tight and r5-perturbed-J are left out: they fail fd checks on some
    # seeds (fd tolerances ignore fd's error).
    "fd-wide": Workload(("r3-standard", "r5-standard", "r7-standard",
                         "r3-perturbed-J"), "fd", 8, False, 2.4),
    # Short requests: per-request set-up and the fault constructions.  The
    # only workload that runs t3-tight and the J-sensitive controls.
    "controls-catalog": Workload(("r3-standard", "r5-standard",
                                  "r7-standard", "r9-standard", "t3-tight",
                                  "r3-perturbed-J", "r5-perturbed-J"),
                                 "ad", 2, True, 1.4),
}


def rounds(workload: str, seconds: float) -> int:
    return max(1, round(seconds / WORKLOADS[workload].round_seconds))


def requests(workload: str, seed: int, seconds: float) -> list:
    """The run's request list, as RunConfig keyword dicts."""
    w = WORKLOADS[workload]
    rng = random.Random(seed)
    out = []
    for _ in range(rounds(workload, seconds)):
        for ex in w.examples:
            out.append(dict(example_id=ex, c_values=C_VALUES,
                            points=w.points, seed=rng.randrange(2 ** 31),
                            mode=w.mode,
                            negative_controls=w.negative_controls))
    return out
