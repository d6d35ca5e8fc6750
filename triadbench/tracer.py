"""Span tracer that wraps triadlab's public calls from outside the package.

``Tracer.install()`` replaces the functions and methods listed in ``LAYERS``
with wrappers and ``Tracer.restore()`` puts the originals back; the package
itself is not edited.  A module-level function is replaced under every name
that binds it in any triadlab module, because the modules import each other's
functions by name.

Each wrapped call records a span (name, start, end, parent, request id) in
flat arrays held in memory; ``write`` saves them when the run ends.  A
span's self time is its duration minus the part its direct child spans
cover.  Hot calls that would cost more to time than to run are only counted.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter

import numpy as np

import triadlab

# The package re-exports functions under its submodules' names (the function
# triadlab.catalog hides the module), so the modules are looked up by path.
(ad, engine, contact, connections, frames, checks, catalog, runner) = (
    importlib.import_module("triadlab." + m)
    for m in ("ad", "engine", "contact", "connections", "frames", "checks",
              "catalog", "runner"))
MODULES = (ad, engine, contact, connections, frames, checks, catalog, runner,
           triadlab)

# Wrapped calls, as (layer, owner, attribute).  A class owner wraps the
# attribute in that class's own namespace; a module owner wraps every binding
# of the function in MODULES.
CONTACT_ACCESSORS = ("lam_any", "dlam_any", "reeb_any", "pi_any", "j_any",
                     "metric_any", "metric_inv_at", "jac_lam_at",
                     "jac_reeb_at", "jac_j_at", "dmetric_at",
                     "christoffel_at", "lie_reeb_j_at")
LAYERS = (
    [("engine.deriv", engine.DiffEngine, "deriv"),
     ("engine.jacobian", engine.DiffEngine, "jacobian"),
     ("engine.solve", engine, "solve"),
     ("engine.solve", engine, "inv")]
    + [("contact", contact.ContactTriad, a) for a in CONTACT_ACCESSORS]
    + [("connections.gamma_apply", connections.TriadConnection, "gamma_apply"),
       ("connections.gamma_apply", connections.LeviCivitaConnection,
        "gamma_apply"),
       ("connections.gamma_tensor", connections.LocalConnection,
        "gamma_tensor"),
       ("connections.gamma_tensor", connections.LeviCivitaConnection,
        "gamma_tensor"),
       ("connections.lc_nabla_j", connections, "_lc_nabla_j"),
       ("connections.nijenhuis", connections, "nijenhuis"),
       ("connections", connections.LocalConnection, "apply_vec"),
       ("connections", connections.PullbackConnection, "apply_vec"),
       ("connections", connections, "tensor_P"),
       ("connections", connections, "tensor_B1"),
       ("connections", connections, "tensor_B2"),
       ("connections", connections, "torsion_tensor"),
       ("connections", connections, "covariant_derivative_endo"),
       ("connections", connections, "covariant_derivative_form"),
       ("connections", connections, "covariant_derivative_two_form"),
       ("frames.build_unitary_frame", frames, "build_unitary_frame"),
       ("frames.connection_one_forms", frames, "connection_one_forms"),
       ("frames", frames, "structure_equation_residual"),
       ("frames", frames, "gamma_from_axioms"),
       ("frames", frames, "cross_check_gamma"),
       ("frames", frames, "skew_hermitian_check"),
       ("frames", frames.MovingFrame, "matrix_any"),
       ("frames", frames.MovingFrame, "coframe_any"),
       ("frames", frames.MovingFrame, "jac_frame_at"),
       ("frames", frames.MovingFrame, "jac_coframe_at"),
       ("checks.axioms", checks, "check_axioms"),
       ("checks.cr_form", checks, "check_cr_form"),
       ("checks.lemma_suite", checks, "check_lemma_suite"),
       ("checks.scaling", checks, "check_scaling"),
       ("checks.naturality", checks, "check_naturality"),
       ("checks.frame_records", runner, "_frame_records"),
       ("checks.controls", checks, "fault_flipped_b1"),
       ("checks.controls", checks, "fault_wrong_c"),
       ("checks.controls", checks, "fault_levi_civita"),
       ("checks.controls", checks, "fault_scale_mismatch"),
       ("checks.controls", runner, "_dropped_torsion_control"),
       ("checks.controls", runner, "_projected_nijenhuis_scale"),
       ("runner.run_suite", runner, "run_suite"),
       ("runner.emit_report", runner, "emit_report")])

CHECK_FAMILIES = ("axioms", "cr_form", "lemma_suite", "scaling", "naturality",
                  "frame_records", "controls")


def _is_float_point(q) -> bool:
    return isinstance(q, np.ndarray) and q.dtype != np.dtype(object)


def _solve_kind(A) -> str:
    if A.dtype != np.dtype(object):
        return "float_calls"
    if any(isinstance(x, ad.Dual) for x in A.flat):
        return "dual_calls"
    return "object_float_calls"


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.request_id = -1
        self._stack = [-1]
        self._saved: list = []
        self.triads: list = []
        self.max_cache_entries = 0

    # -- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, classify=None):
        nid = self._name_id(name)
        rec_name, rec_parent, rec_request = (self.name, self.parent,
                                             self.request)
        rec_start, rec_end, stack = self.start, self.end, self._stack
        counts, clock = self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if classify is not None:
                counts[classify(args)] += 1
            idx = len(rec_start)
            rec_name.append(nid)
            rec_parent.append(stack[-1])
            rec_request.append(self.request_id)
            rec_end.append(0.0)
            stack.append(idx)
            rec_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                rec_end[idx] = clock()
                stack.pop()
        return wrapper

    # -- install / restore -----------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap_everywhere(self, fn, new):
        for mod in MODULES:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._replace(mod, attr, new)

    def install(self) -> None:
        counts = self.counts
        for layer, owner, attr in LAYERS:
            fn = owner.__dict__[attr]
            classify = None
            if layer == "engine.solve":
                classify = lambda a: "engine.solve." + _solve_kind(a[0])
            elif layer == "contact":
                classify = (lambda a, attr=attr: "contact.%s.%s" % (
                    attr, "float_calls" if _is_float_point(a[1])
                    else "dual_calls"))
            new = self.span(layer, fn, classify)
            if isinstance(owner, type):
                self._replace(owner, attr, new)
            else:
                self._wrap_everywhere(fn, new)

        dual_init = ad.Dual.__init__

        def counted_init(obj, lvl, re, du):
            counts["ad.duals_created"] += 1
            dual_init(obj, lvl, re, du)
        self._replace(ad.Dual, "__init__", counted_init)

        # catalog.lam.calls: wrap the contact-form closures the catalog makes.
        def count_lam(lam):
            @functools.wraps(lam)
            def counted(q):
                counts["catalog.lam.calls"] += 1
                return lam(q)
            return counted
        r2n1 = catalog._r2n1_lam
        self._replace(catalog, "_r2n1_lam", lambda n: count_lam(r2n1(n)))
        self._replace(catalog, "_t3_lam", count_lam(catalog._t3_lam))

        conn_init = connections.LocalConnection.__init__

        def counted_conn_init(obj, triad):
            counts["connections.built"] += 1
            conn_init(obj, triad)
        self._replace(connections.LocalConnection, "__init__",
                      counted_conn_init)

        triad_init = contact.ContactTriad.__init__
        triads = self.triads

        def kept_triad_init(obj, *args, **kwargs):
            triad_init(obj, *args, **kwargs)
            triads.append(obj)
        self._replace(contact.ContactTriad, "__init__", kept_triad_init)

    def restore(self) -> None:
        while self._saved:
            owner, attr, val = self._saved.pop()
            setattr(owner, attr, val)

    # -- requests --------------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        self.request_id = request_id

    def end_request(self) -> None:
        """Note the cache entries the request's triads hold, then drop them."""
        held = sum(len(t._cache) for t in self.triads)
        self.max_cache_entries = max(self.max_cache_entries, held)
        self.triads.clear()
        self.request_id = -1

    # -- results ---------------------------------------------------------

    def self_times(self):
        """Name index, duration and self time of every span, as arrays."""
        dur = np.array(self.end, dtype=float) - np.array(self.start,
                                                         dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return np.array(self.name, dtype=np.int64), dur, dur - covered

    def layer_metrics(self) -> dict:
        """Per-layer counts and times, keyed by metric name."""
        name_idx, dur, self_t = self.self_times()
        ids = {n: i for i, n in enumerate(self.names)}

        def of(name, arr):
            if name not in ids:
                return 0.0
            return float(np.sum(arr[name_idx == ids[name]]))

        def calls(name):
            return int(np.sum(name_idx == ids[name])) if name in ids else 0

        def layer_self(prefix):
            return sum(of(n, self_t) for n in self.names
                       if n == prefix or n.startswith(prefix + "."))

        c = self.counts
        out = {
            "ad.duals_created": c["ad.duals_created"],
            "engine.deriv.calls": calls("engine.deriv"),
            "engine.jacobian.calls": calls("engine.jacobian"),
            "engine.deriv.self_s": of("engine.deriv", self_t),
            "engine.jacobian.self_s": of("engine.jacobian", self_t),
            "engine.solve.dual_calls": c["engine.solve.dual_calls"],
            "engine.solve.object_float_calls":
                c["engine.solve.object_float_calls"],
            "engine.solve.float_calls": c["engine.solve.float_calls"],
            "engine.solve.self_s": of("engine.solve", self_t),
            "catalog.lam.calls": c["catalog.lam.calls"],
            "contact.float_calls": sum(v for k, v in c.items()
                                       if k.startswith("contact.")
                                       and k.endswith(".float_calls")),
            "contact.self_s": layer_self("contact"),
            "contact.cache_entries": self.max_cache_entries,
            "contact.j_any.dual_calls": c["contact.j_any.dual_calls"],
            "connections.built": c["connections.built"],
            "connections.gamma_apply.calls": calls("connections.gamma_apply"),
            "connections.gamma_tensor.calls":
                calls("connections.gamma_tensor"),
            "connections.lc_nabla_j.calls": calls("connections.lc_nabla_j"),
            "connections.nijenhuis.calls": calls("connections.nijenhuis"),
            "connections.self_s": layer_self("connections"),
            "frames.build_unitary_frame.calls":
                calls("frames.build_unitary_frame"),
            "frames.connection_one_forms.calls":
                calls("frames.connection_one_forms"),
            "frames.self_s": layer_self("frames"),
            "runner.run_suite.self_s": of("runner.run_suite", self_t),
            "runner.emit_report_s": of("runner.emit_report", dur),
            "runner.report_bytes": c["runner.report_bytes"],
        }
        for fam in CHECK_FAMILIES:
            out["checks.%s_s" % fam] = of("checks." + fam, dur)
        return out

    def write(self, path: str) -> None:
        """Save every span: name, start, end, parent index, request id."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.array(self.name, dtype=np.int32),
            start=np.array(self.start, dtype=float),
            end=np.array(self.end, dtype=float),
            parent=np.array(self.parent, dtype=np.int32),
            request=np.array(self.request, dtype=np.int32))


def count_metrics(metrics: dict) -> dict:
    """The metrics that must repeat exactly between two traced runs."""
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}
