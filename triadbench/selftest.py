"""Self-test of the benchmark's verifier, oracle and tracer.

    python3 triadbench/selftest.py

Run from the root of a triadlab checkout.  It checks that

* real reports (a normal run and a control run) pass the verifier and the
  oracle;
* the verifier rejects four corrupted reports, each for the rule the
  corruption breaks: a flipped verdict, a NaN residual, a missing record and
  a control that passes;
* the oracle rejects the tables of a different example;
* two traced runs of one request give identical counts, tracing leaves the
  report bytes unchanged, and ``restore`` puts every original back.

Exits 0 when every item holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

import run

os.environ.update(run.child_env())
sys.path.insert(0, os.environ["PYTHONPATH"])

import numpy as np  # noqa: E402

import triadlab  # noqa: E402
import tracer as tracing  # noqa: E402
import verify  # noqa: E402

NORMAL = dict(example_id="r3-perturbed-J", c_values=(-1.0, 0.0, 1.0),
              points=2, seed=11, mode="ad", negative_controls=False)
CONTROL = dict(example_id="r5-perturbed-J", c_values=(-1.0, 0.0, 1.0),
               points=1, seed=11, mode="ad", negative_controls=True)


def serve(req) -> bytes:
    return triadlab.emit_report(triadlab.run_suite(triadlab.RunConfig(**req)),
                                "json")


def corrupt(payload: bytes, edit) -> bytes:
    rep = json.loads(payload)
    edit(rep["records"])
    return json.dumps(rep).encode()


def flip_verdict(recs):
    rec = next(r for r in recs if r["name"] == "axiom-hermitian")
    rec["passed"] = not rec["passed"]


def nan_residual(recs):
    recs[0]["residual"] = float("nan")


def drop_record(recs):
    del recs[len(recs) // 2]


def passing_control(recs):
    recs[0]["residual"] = 0.1 * recs[0]["tolerance"]
    recs[0]["passed"] = True


def bindings() -> dict:
    """Every attribute of the triadlab modules and of their classes."""
    owners = list(tracing.MODULES) + [
        v for m in tracing.MODULES for v in vars(m).values()
        if isinstance(v, type) and v.__module__.startswith("triadlab")]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def main() -> int:
    results = []

    def item(label, ok, detail=""):
        results.append(ok)
        print("%s  %s%s" % ("PASS" if ok else "FAIL", label,
                            (": " + detail) if detail and not ok else ""))

    normal, control = serve(NORMAL), serve(CONTROL)
    for req, payload in ((NORMAL, normal), (CONTROL, control)):
        errs = verify.verify_report(payload, req)
        item("verifier accepts a real %s report"
             % ("control" if req["negative_controls"] else "normal"),
             not errs, "; ".join(errs[:3]))

    cases = (("flipped verdict", normal, NORMAL, flip_verdict,
              "verdict is wrong"),
             ("NaN residual", normal, NORMAL, nan_residual, "not finite"),
             ("missing record", normal, NORMAL, drop_record,
              "record set differs"),
             ("passing control", control, CONTROL, passing_control,
              "control passes"))
    for label, payload, req, edit, rule in cases:
        errs = verify.verify_report(corrupt(payload, edit), req)
        item("verifier rejects a %s" % label,
             any(rule in e for e in errs), "got %r" % errs[:3])

    cat = triadlab.catalog()
    p = np.asarray(json.loads(normal)["records"][0]["point"])
    for mode in ("ad", "fd"):
        triad = cat["r3-perturbed-J"].build(triadlab.DiffEngine(mode=mode))
        errs = verify.oracle_errors(triad, "r3-perturbed-J", mode, p)
        item("oracle accepts r3-perturbed-J (%s)" % mode, not errs,
             "; ".join(errs))
    wrong = cat["r3-standard"].build(triadlab.DiffEngine())
    item("oracle rejects the tables of another example",
         bool(verify.oracle_errors(wrong, "r3-perturbed-J", "ad", p)))

    before = bindings()
    counts, payloads = [], []
    for _ in range(2):
        tr = tracing.Tracer()
        tr.install()
        try:
            tr.begin_request(0)
            payloads.append(serve(NORMAL))
            tr.end_request()
        finally:
            tr.restore()
        counts.append(tracing.count_metrics(tr.layer_metrics()))
    item("two traced runs give identical counts", counts[0] == counts[1],
         "%r vs %r" % (counts[0], counts[1]))
    item("tracing leaves the report bytes unchanged",
         payloads[0] == normal and payloads[1] == normal)
    after = bindings()
    item("restore puts every original back", before.keys() == after.keys()
         and all(after[k] is v for k, v in before.items()))

    print("%d of %d self-test items hold" % (sum(results), len(results)))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
