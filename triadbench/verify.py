"""Report verifier and independent oracle.

The verifier checks a canonical JSON report against rules that follow from
the paper (Oh & Wang, arXiv 1212.4817) and from the catalog, never against
stored output:

* every non-control record passes, except ``cr-form-xi`` at c != 0, which
  must fail, because the contact form is parallel only at c = 0;
* in control mode every control fails;
* the J-sensitive controls appear exactly on the examples whose plane
  rotation J is not integrable on the contact plane;
* the report holds exactly the expected records: check names x variants x
  maps x points;
* every residual is finite, and no note starts with ``error:``;
* ``passed`` holds exactly when residual <= tolerance.

The oracle recomputes, with plain numpy and no ``DiffEngine``, the Reeb
field, the triad metric and the Levi-Civita table of each catalog example
from the closed forms below, and compares them with what the program
computes at a point taken from the report.
"""

from __future__ import annotations

import json
import math

import numpy as np

# -- catalog facts, restated here from the catalog's documentation ---------

BOX = 1.5
EPS_PERTURBED = 0.1


class Example:
    """What the verifier knows about one catalog example."""

    def __init__(self, dim, maps, j_integrable, torus=False, perturbed=False):
        self.dim = dim
        self.n = (dim - 1) // 2
        self.maps = tuple(maps)
        # J-sensitive controls run only where the projected Nijenhuis tensor
        # of J is nonzero.  Every 3-dimensional plane rotation is integrable,
        # and the standard examples have a constant J.
        self.j_integrable = j_integrable
        self.torus = torus
        self.perturbed = perturbed

    @property
    def domain(self):
        if self.torus:
            return np.zeros(3), 2.0 * np.pi * np.ones(3)
        return -BOX * np.ones(self.dim), BOX * np.ones(self.dim)

    # closed forms -------------------------------------------------------

    def lam(self, q):
        if self.torus:
            return np.array([math.cos(q[2]), math.sin(q[2]), 0.0])
        out = np.zeros(self.dim)
        out[0:2 * self.n:2] = -q[1:2 * self.n:2]
        out[-1] = 1.0
        return out

    def dlam(self, q):
        """A[i, j] = d_i lam_j - d_j lam_i."""
        A = np.zeros((self.dim, self.dim))
        if self.torus:
            s, c = math.sin(q[2]), math.cos(q[2])
            A[2, 0], A[0, 2] = -s, s
            A[2, 1], A[1, 2] = c, -c
            return A
        for k in range(self.n):
            A[2 * k + 1, 2 * k], A[2 * k, 2 * k + 1] = -1.0, 1.0
        return A

    def reeb(self, q):
        """d/dz on R^{2n+1}; (cos z, sin z, 0) on the torus chart."""
        if self.torus:
            return np.array([math.cos(q[2]), math.sin(q[2]), 0.0])
        out = np.zeros(self.dim)
        out[-1] = 1.0
        return out

    def j(self, q):
        """J from its action matrix C on the plane frame F: J = B D B^-1."""
        d, m = self.dim, 2 * self.n
        X = self.reeb(q)
        P = np.eye(d) - np.outer(X, self.lam(q))
        if self.torus:
            s, c = math.sin(q[2]), math.cos(q[2])
            F = np.array([[0.0, -s], [0.0, c], [1.0, 0.0]])
        else:
            F = np.eye(d)[:, :m]
        C = np.zeros((m, m))
        for k in range(self.n):
            C[2 * k + 1, 2 * k], C[2 * k, 2 * k + 1] = 1.0, -1.0
        if self.perturbed:
            z = q[d - 1]
            a = EPS_PERTURBED * math.sin(z)
            b = math.sqrt(1.0 + a * a) * math.exp(EPS_PERTURBED * math.cos(z))
            C[0, 0], C[0, 1] = a, -(1.0 + a * a) / b
            C[1, 0], C[1, 1] = b, -a
        B = np.column_stack([np.dot(P, F), X])
        D = np.zeros((d, d))
        D[:m, :m] = C
        return np.dot(np.dot(B, D), np.linalg.inv(B))

    def metric(self, q):
        """g = lam lam^T + Pi^T dlam J Pi."""
        lam = self.lam(q)
        P = np.eye(self.dim) - np.outer(self.reeb(q), lam)
        return np.outer(lam, lam) + np.dot(P.T, np.dot(self.dlam(q),
                                                      np.dot(self.j(q), P)))

    def christoffel(self, q, h=1e-5):
        """Gamma[k, i, j] from Koszul's formula, dg by central differences."""
        d = self.dim
        dg = np.empty((d, d, d))             # dg[i, j, l] = d_l g_ij
        for l in range(d):
            e = np.zeros(d)
            e[l] = h
            dg[:, :, l] = (self.metric(q + e) - self.metric(q - e)) / (2.0 * h)
        t1 = np.transpose(dg, (2, 0, 1))     # d_i g_jl
        t2 = np.transpose(dg, (0, 2, 1))     # d_j g_il
        return 0.5 * np.einsum('kl,ijl->kij', np.linalg.inv(self.metric(q)),
                               t1 + t2 - dg)


EXAMPLES = {
    "r3-standard": Example(3, ("x-shift+0.7", "vertical-shift+0.3",
                               "shear+0.4"), True),
    "r5-standard": Example(5, ("x1-shift+0.5", "vertical-shift+0.3",
                               "shear+0.4"), True),
    "r7-standard": Example(7, ("vertical-shift+0.3",), True),
    "r9-standard": Example(9, ("vertical-shift+0.3",), True),
    "t3-tight": Example(3, ("x-shift+0.7", "y-shift+0.5", "reeb-flow+0.4"),
                        True, torus=True),
    "r3-perturbed-J": Example(3, ("x-shift+0.7", "vertical-shift+0.3"), True,
                              perturbed=True),
    "r5-perturbed-J": Example(5, ("x1-shift+0.5", "vertical-shift+0.3"),
                              False, perturbed=True),
}

# -- expected records ------------------------------------------------------

AXIOMS = ("axiom-hermitian", "axiom-xi-torsion", "axiom-reeb-torsion",
          "axiom-reeb-invariance", "axiom-cr-coupling",
          "axiom-reeb-metric-dual")
CR_FORM = ("cr-form-reeb", "cr-form-xi")
LEMMAS = (
    "two-form-j-invariance", "reeb-lie-j-symmetry", "reeb-geodesic-foliation",
    "lc-j-derivative-pairing", "lc-j-derivative-reeb-slots",
    "nijenhuis-reeb-slots", "nijenhuis-j-shuffle",
    "lc-j-antilinear-cancellation", "lc-reeb-parallel-j",
    "lc-reeb-covariant-slope", "semi-connection-j-linearity",
    "p-tensor-metric-skew", "semi-connection-metric",
    "semi-connection-reeb-metric-dual", "semi-connection-torsion-quarter-n",
    "reeb-covariant-family", "torsion-split-values", "torsion-type-symmetries",
    "p-antisymmetrized-bracket", "reeb-parallel-two-form",
)
CONTROLS = (("fault-wrong-family-parameter", ""),
            ("fault-scale-mismatch", "a=2"),
            ("control-structure-equation-dropped-torsion", "c=0"))
J_CONTROLS = (("fault-flipped-correction", ""),
              ("fault-levi-civita-not-complex-linear", ""))


def expected_keys(ex: Example, c_values, points: int, controls: bool) -> list:
    """Sorted (name, variant, point_index) triples a report must hold."""
    keys = []
    for idx in range(points):
        if controls:
            pairs = CONTROLS + (J_CONTROLS if not ex.j_integrable else ())
            keys += [(n, v, idx) for n, v in pairs]
            continue
        for c in c_values:
            keys += [(n, "c=%g" % c, idx) for n in AXIOMS + CR_FORM]
        keys += [(n, "", idx) for n in LEMMAS]
        keys += [("frame-orthonormality", "frame", idx),
                 ("structure-equation", "frame", idx),
                 ("frame-skew-hermitian", "frame", idx)]
        keys += [("frame-coefficient-rederivation", "frame",
                  idx)] * len(c_values)
        keys.append(("scaling-transfer", "a=2", idx))
        keys += [("naturality-pullback", m, idx) for m in ex.maps]
    return sorted(keys)


def expected_verdict(rec: dict, controls: bool) -> bool:
    if controls:
        return False
    if rec["name"] == "cr-form-xi":
        return rec["variant"] == "c=0"
    return True


def verify_report(payload: bytes, request: dict) -> list:
    """Every rule the report breaks, as one line each; empty when it holds."""
    try:
        rep = json.loads(payload)
    except ValueError as exc:
        return ["report is not JSON: %s" % exc]
    errs = []
    ex = EXAMPLES.get(request["example_id"])
    if ex is None:
        return ["no catalog facts for example %r" % request["example_id"]]
    controls = request["negative_controls"]
    cs = [float(c) for c in request["c_values"]]
    cfg = rep.get("config", {})
    want = {"example": request["example_id"], "c_values": cs,
            "points": request["points"], "seed": request["seed"],
            "mode": request["mode"], "negative_controls": controls}
    for key, val in want.items():
        if cfg.get(key) != val:
            errs.append("config %s is %r, want %r" % (key, cfg.get(key), val))
    info = rep.get("example", {})
    if info.get("dim") != ex.dim or tuple(info.get("maps", ())) != ex.maps:
        errs.append("example block %r disagrees with the catalog" % info)
    if rep.get("engine", {}).get("mode") != request["mode"]:
        errs.append("engine mode is not %r" % request["mode"])

    records = rep.get("records", [])
    keys = [(r["name"], r["variant"], r["point_index"]) for r in records]
    if keys != sorted(keys):
        errs.append("records are not ordered by (name, variant, point index)")
    want_keys = expected_keys(ex, cs, request["points"], controls)
    if sorted(keys) != want_keys:
        missing = len(set(want_keys) - set(keys))
        extra = len(set(keys) - set(want_keys))
        errs.append("record set differs: %d records, want %d (%d keys "
                    "missing, %d unexpected)" % (len(keys), len(want_keys),
                                                 missing, extra))

    lo, hi = ex.domain
    points = {}
    for r in records:
        tag = "%s[%s]#%d" % (r["name"], r["variant"], r["point_index"])
        res, tol = r["residual"], r["tolerance"]
        if not (isinstance(res, float) and math.isfinite(res) and res < 1e300):
            errs.append("%s: residual %r is not finite" % (tag, res))
            continue
        if r["note"].startswith("error:"):
            errs.append("%s: %s" % (tag, r["note"]))
        if r["passed"] != (res <= tol):
            errs.append("%s: passed=%s but residual %.3e vs tolerance %.3e"
                        % (tag, r["passed"], res, tol))
        if r["passed"] != expected_verdict(r, controls):
            kind = "control passes" if controls else "verdict is wrong"
            errs.append("%s: %s (residual %.3e, tolerance %.3e)"
                        % (tag, kind, res, tol))
        p = np.asarray(r["point"], dtype=float)
        seen = points.setdefault(r["point_index"], p)
        if p.shape != (ex.dim,) or np.any(p != seen):
            errs.append("%s: point differs from the other records of its "
                        "index" % tag)
        elif np.any(p < lo) or np.any(p > hi):
            errs.append("%s: point %s lies outside the chart domain"
                        % (tag, p))

    ok_want = (all(not r["passed"] for r in records) and bool(records)
               if controls else all(r["passed"] for r in records))
    if rep.get("ok") != ok_want:
        errs.append("ok is %r, want %r" % (rep.get("ok"), ok_want))
    summary = {}
    for r in records:
        s = summary.setdefault(r["name"], [0, 0, 0.0])
        s[0] += 1
        s[1] += int(r["passed"])
        s[2] = max(s[2], r["residual"])
    got = {k: [v["count"], v["passed"], v["max_residual"]]
           for k, v in rep.get("summary", {}).items()}
    if got != summary:
        errs.append("summary disagrees with the records")
    return errs


# -- oracle ----------------------------------------------------------------

# Agreement the engines reach with the closed forms: ad is exact to rounding;
# fd (step 1e-4) carries O(h^2) truncation, nested once for the Christoffel
# table.  The oracle's own central differences (h = 1e-5) add about 1e-10.
ORACLE_TOL = {"ad": {"reeb": 1e-12, "metric": 1e-12, "christoffel": 1e-8},
              "fd": {"reeb": 1e-7, "metric": 1e-7, "christoffel": 1e-6}}


def oracle_errors(triad, example_id: str, mode: str, p) -> list:
    """Compare the program's Reeb field, metric and Christoffel table at p."""
    ex = EXAMPLES[example_id]
    p = np.asarray(p, dtype=float)
    tol = ORACLE_TOL[mode]
    got = {"reeb": triad.reeb_any(p), "metric": triad.metric_any(p),
           "christoffel": triad.christoffel_at(p)}
    want = {"reeb": ex.reeb(p), "metric": ex.metric(p),
            "christoffel": ex.christoffel(p)}
    errs = []
    for key in ("reeb", "metric", "christoffel"):
        gap = float(np.max(np.abs(np.asarray(got[key], dtype=float)
                                  - want[key])))
        if not gap <= tol[key]:
            errs.append("oracle: %s of %s (%s) at %s is off by %.3e > %.1e"
                        % (key, example_id, mode, p.tolist(), gap, tol[key]))
    return errs
