"""Suite orchestration: sample points, run every check, emit stable reports.

A run, in either mode, calls each check family once, on the batch of its
sample points and the whole c sweep, the frame families among them.  A
normal run first builds the Gamma table naturality reads at the sample
points and every map's images in one batch, split among them.  Each
family returns its residuals by name.  ``check_axioms`` and
``check_cr_form`` keep the sweep's axis in front, and row k is recorded
under the variant ``c=%g`` of c_k; ``RunConfig`` rejects a sweep in which
two values print as the same variant.  The frame re-derivation keeps the
variant ``frame``, with one record per c.  The run builds its table of
families once, and each row's function takes a batch of points: a family
that raised on the batch runs again through the same function on each
one-point batch ``pts[i:i+1]`` (a frame whose Gram-Schmidt would pick other
chart columns at some points raises there).  A run never aborts
because one check raised; the failure is recorded under each name and
variant the family emits, with an unevaluable-residual sentinel, and the
run moves on.  A family call yields groups (name, variant, residuals, first
point's index, note), one per row of each residual.  ``_records`` alone
holds them to the registry: it sorts them by (check name, variant), merges
a key's several groups (one per c, or per rerun point) by point index, and
gives each record its check's tolerance and anchor and the verdict
residual <= tolerance, so a fixed configuration always serializes to
identical bytes.

``_canon`` defines those bytes: sorted keys, every float as ``%.12e``, a
non-finite one as the unevaluable sentinel.  ``emit_report(report, fmt)``
alone picks the format; a run's config holds none, and the config a JSON
report echoes says ``"format":"json"``.  It writes the header and summary
through ``_canon``, and each record from one template of its nine keys,
formatting every string and every point once per report; CSV writes its
numbers with the same ``_number``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import groupby
from numbers import Integral, Real

import numpy as np

from .catalog import catalog
from .checks import (CHECKS, SAMPLES, check_axioms,
                     check_cr_form, check_lemma_suite, check_naturality,
                     check_scaling, fault_flipped_b1, fault_levi_civita,
                     fault_scale_mismatch, fault_wrong_c, family_names,
                     _in_frame)
from .connections import TriadConnection
from .contact import seed_int
from .engine import FD_STEP, DiffEngine
from .frames import (build_unitary_frame, connection_one_forms,
                     cross_check_gamma, skew_hermitian_check,
                     structure_equation_residual, structure_gap)

SCHEMA_VERSION = "1"
RESIDUAL_UNEVALUABLE = 1e300


class ConfigError(ValueError):
    """Raised for invalid run configurations; maps to exit code 2."""


def _num(kind, x) -> bool:
    """x is an instance of the ``numbers`` class ``kind``, and not a bool."""
    return isinstance(x, kind) and not isinstance(x, bool)


@dataclass
class RunConfig:
    example_id: str
    c_values: tuple = (-1.0, 0.0, 1.0)
    points: int = 5
    seed: int = 0
    mode: str = "ad"
    fd_step: float = FD_STEP
    negative_controls: bool = False

    def validate(self) -> None:
        if not (isinstance(self.example_id, str)
                and self.example_id in catalog()):
            raise ConfigError("unknown example %r; run list-examples"
                              % self.example_id)
        if isinstance(self.c_values, Iterable):
            # copied first: a one-shot iterable would be spent here
            self.c_values = tuple(self.c_values)
        if not (isinstance(self.c_values, tuple) and (cs := self.c_values)):
            raise ConfigError("pass a sequence of at least one c value")
        if not all(_num(Real, c) and math.isfinite(c) for c in cs):
            raise ConfigError("every c must be a finite real number")
        variants = ["c=%g" % c for c in cs]
        if len(set(variants)) < len(variants):
            raise ConfigError("two values of the c sweep print as the same "
                              "variant: %s" % ", ".join(variants))
        try:
            seed_int(self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not _num(Integral, self.points) or self.points < 1:
            raise ConfigError("point count must be an integer >= 1")
        try:
            DiffEngine(self.mode, self.fd_step)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not isinstance(self.negative_controls, (bool, np.bool_)):
            raise ConfigError("negative_controls must be a bool")

    def to_dict(self) -> dict:
        return {
            "example": self.example_id,
            "c_values": [float(c) for c in self.c_values],
            "points": int(self.points),
            "seed": int(self.seed),
            "mode": self.mode,
            "fd_step": float(self.fd_step),
            "format": "json",     # only a JSON report carries its config
            "negative_controls": bool(self.negative_controls),
            "samples": SAMPLES,
        }


@dataclass
class Report:
    config: dict
    engine: dict
    example: dict
    records: list
    summary: dict
    ok: bool

    def to_dict(self) -> dict:
        return dict(vars(self), schema_version=SCHEMA_VERSION)


def _run_family(groups, names, variants, fn, pts, first=0) -> None:
    """Append fn(pts)'s residuals as groups (name, variant, residuals,
    index of the batch's first point, note), one per row of a residual:
    row k of one stacked over the sweep takes variant k of a swept family,
    or a ``per_c`` entry's one variant.

    A family that raises on a batch of several points runs again on each
    one-point batch ``pts[i:i+1]``, whose first point has index first + i;
    one that raises on one point gets one unevaluable residual per expected
    name and variant there.
    """
    try:
        out = fn(pts)
    except Exception as exc:  # recorded, never fatal for the run
        if len(pts) > 1:
            for i in range(len(pts)):
                _run_family(groups, names, variants, fn, pts[i:i + 1],
                            first + i)
            return
        groups.extend((n, v, [RESIDUAL_UNEVALUABLE], first,
                       "error: " + repr(exc)) for v in variants for n in names)
        return
    for name, r in out.items():
        rows = np.asarray(r, dtype=float).reshape(-1, len(pts)).tolist()
        groups.extend((name, variants[k % len(variants)], row, first, "")
                      for k, row in enumerate(rows))


def _records(groups, rows) -> list:
    """The groups' records in the order (name, variant, point index), point
    i's row read from rows[i]; a tie keeps the order of its groups.  Each
    record takes its check's tolerance and anchor from the registry, and
    passes when its residual is at most that tolerance."""
    def key(group):
        return group[:2]

    records: list = []
    for (name, variant), run in groupby(sorted(groups, key=key), key=key):
        spec, run = CHECKS[name], list(run)
        part = [{"name": name, "variant": variant, "point_index": i,
                 "residual": r, "tolerance": spec.tolerance,
                 "passed": r <= spec.tolerance, "anchor": spec.anchor,
                 "point": rows[i],
                 "note": note or ("" if math.isfinite(r)
                                  else "error: residual is not finite")}
                for _, _, residuals, first, note in run
                for i, r in enumerate(residuals, first)]
        if len(run) > 1:    # one group per c, or per rerun point
            part.sort(key=lambda r: r["point_index"])
        records += part
    return records


def _projected_nijenhuis_scale(triad, pts) -> float:
    """Largest entry of the projected Nijenhuis table Pi N(Pi ., Pi .), read
    from the batch's tables, which the batched controls read too.

    Where it vanishes (the standard examples, and every three-dimensional
    one) the J-sensitivity controls read zero and cannot fire, so they
    do not run.
    """
    P = triad.pi_any(pts)
    return np.max(_in_frame(triad.nijenhuis_at(pts), P.mT, P, P))


def _meets_role(record: dict) -> bool:
    """A check must pass; a control must fail on an evaluable residual."""
    if CHECKS[record["name"]].control:
        return not record["passed"] and not record["note"].startswith("error:")
    return record["passed"]


def run_suite(config: RunConfig) -> Report:
    config.validate()
    spec = catalog()[config.example_id]
    engine = DiffEngine(mode=config.mode, step=config.fd_step)
    triad = spec.build(engine)
    pts = triad.sample_points(config.points, config.seed)
    seed = config.seed
    cs = tuple(float(c) for c in config.c_values)
    swept = tuple("c=%g" % c for c in cs)
    # a NaN scale cannot rule the J-sensitive controls out, so they run
    with_j_controls = config.negative_controls and not (
        _projected_nijenhuis_scale(triad, pts) <= 1e-3)

    # (family, variants, fn): fn(q) gives the family's residuals by name
    # at each point of the batch q
    if config.negative_controls:
        rows = [("fault_wrong_c", ("",), lambda q: fault_wrong_c(triad, q)),
                ("fault_scale_mismatch", ("a=2",),
                 lambda q: fault_scale_mismatch(triad, 2.0, q)),
                ("_dropped_torsion_control", ("c=0",),
                 lambda q: _dropped_torsion_control(triad, q, seed))]
        if with_j_controls:
            rows += [("fault_flipped_b1", ("",),
                      lambda q: fault_flipped_b1(triad, q)),
                     ("fault_levi_civita", ("",),
                      lambda q: fault_levi_civita(triad, q))]
    else:
        if spec.maps:
            _base_batch(triad, pts, spec.maps)
        rows = [("check_axioms", swept, lambda q: check_axioms(triad, cs, q)),
                ("check_cr_form", swept,
                 lambda q: check_cr_form(triad, cs, q)),
                ("check_lemma_suite", ("",),
                 lambda q: check_lemma_suite(triad, q, seed=seed,
                                             c_values=cs)),
                ("_frame_records", ("frame",),
                 lambda q: _frame_records(triad, cs, q, seed)),
                ("check_scaling", ("a=2",),
                 lambda q: check_scaling(triad, 2.0, q))]
        rows += [("check_naturality", (m.label,),
                  lambda q, m=m: check_naturality(triad, m, 0.0, q))
                 for m in spec.maps]

    groups: list = []
    for family, variants, fn in rows:
        _run_family(groups, family_names(family, cs), variants, fn, pts)
    records = _records(groups, pts.tolist())
    ok = bool(records) and all(_meets_role(r) for r in records)
    return Report(config=config.to_dict(),
                  engine={"mode": engine.mode, "fd_step": float(engine.step),
                          "numpy": np.__version__},
                  example={"id": spec.id, "dim": int(spec.dim),
                           "description": spec.description,
                           "maps": [m.label for m in spec.maps]},
                  records=records, summary=_summarize(records), ok=ok)


def _base_batch(triad, pts, maps) -> None:
    """Build the Gamma table naturality reads (c = 0) in one batch, at the
    sample points and at every map's images, and split it among them.  If
    that raises, nothing is split and each family builds its own points."""
    try:
        U = np.concatenate([pts] + [m.forward(pts) for m in maps])
        TriadConnection(triad, 0.0).gamma_tensor(U)
    except Exception:   # the families record it where it arises
        return
    triad.split_batch(U, len(maps) + 1)


def _frame_records(triad, cs, p, seed):
    frame = build_unitary_frame(triad, p, seed=seed)
    conn0 = TriadConnection(triad, 0.0)
    return {"frame-orthonormality": frame.gram_residual(p),
            "frame-coefficient-rederivation":
                cross_check_gamma(triad, cs, frame, p),
            "structure-equation": structure_equation_residual(conn0, frame, p),
            "frame-skew-hermitian": skew_hermitian_check(conn0, frame, p)}


def _dropped_torsion_control(triad, p, seed):
    frame = build_unitary_frame(triad, p, seed=seed)
    om = connection_one_forms(TriadConnection(triad, 0.0), frame, p)
    return {"control-structure-equation-dropped-torsion": structure_gap(
        frame.coframe_any(p), frame.jac_coframe_at(p), om, 0.0)}


def _summarize(records) -> dict:
    summary: dict = {}
    for r in records:
        s = summary.setdefault(r["name"], {"count": 0, "passed": 0,
                                           "max_residual": 0.0})
        s["count"] += 1
        s["passed"] += int(r["passed"])
        # np.maximum on two floats: the later of equal ones (-0.0 after
        # 0.0), and NaN once either one is NaN
        m, x = s["max_residual"], r["residual"]
        if m == m and not m > x:
            s["max_residual"] = x
    return summary


# -- serialization ---------------------------------------------------------


def _number(x) -> str:
    """A float as %.12e; NaN and +inf as the unevaluable sentinel, -inf as
    its negative."""
    if not math.isfinite(x):
        x = -RESIDUAL_UNEVALUABLE if x < 0 else RESIDUAL_UNEVALUABLE
    return "%.12e" % x


def _canon(obj) -> str:
    """Canonical JSON: sorted keys, every float rendered by ``_number``."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        return _number(float(obj))
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, dict):
        parts = ["%s:%s" % (json.dumps(str(kk)), _canon(vv))
                 for kk, vv in sorted(obj.items())]
        return "{" + ",".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in obj) + "]"
    raise TypeError("cannot serialize %r" % type(obj))


# The nine keys of a ``_record``, in sorted order, as ``_canon`` writes them.
_RECORD = ('{"anchor":%s,"name":%s,"note":%s,"passed":%s,"point":%s,'
           '"point_index":%d,"residual":%s,"tolerance":%s,"variant":%s}')


class _Memo(dict):
    """fn(key), computed at the first lookup of each key that ``keep``
    admits and at every lookup of one it does not."""

    def __init__(self, fn, keep=None):
        super().__init__()
        self.fn, self.keep = fn, keep

    def __missing__(self, key):
        value = self.fn(key)
        if self.keep is None or self.keep(key):
            self[key] = value
        return value


def _render_records(records) -> str:
    """``_canon(records)`` for ``_record`` dicts: one template per record,
    with each string and each point formatted once per call.

    Equal floats can differ in their bytes (0.0 and -0.0), so a point that
    holds a zero is formatted afresh at every record.
    """
    text = _Memo(json.dumps)
    point = _Memo(lambda xs: "[" + ",".join(map(_number, xs)) + "]",
                  lambda xs: 0.0 not in xs)
    return "[" + ",".join([
        _RECORD % (text[r["anchor"]], text[r["name"]], text[r["note"]],
                   "true" if r["passed"] else "false",
                   point[tuple(r["point"])], r["point_index"],
                   _number(r["residual"]), _number(r["tolerance"]),
                   text[r["variant"]])
        for r in records]) + "]"


def emit_report(report: Report, fmt: str) -> bytes:
    if fmt == "json":
        parts = ["%s:%s" % (json.dumps(key), _render_records(value)
                            if key == "records" else _canon(value))
                 for key, value in sorted(report.to_dict().items())]
        return ("{" + ",".join(parts) + "}\n").encode("utf-8")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "variant", "point_index", "residual",
                         "tolerance", "passed"])
        for r in report.records:
            writer.writerow([r["name"], r["variant"], r["point_index"],
                             _number(r["residual"]), _number(r["tolerance"]),
                             "true" if r["passed"] else "false"])
        return buf.getvalue().encode("utf-8")
    raise ConfigError("unknown report format %r" % fmt)
