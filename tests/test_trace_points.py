"""The benchmark's span tracer (``triadbench/tracer.py``) wraps the package
from outside, by name.  Every name it patches must resolve in the package,
so a rename or a move that drops one fails here and not only in the
benchmark's self-test.  The lists below are the names a refactor keeps."""

import importlib.util
import os

from triadlab import catalog

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracer():
    path = os.path.join(ROOT, "triadbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_of_the_tracer_resolves():
    """Each ``LAYERS`` entry is a callable in its owner's own namespace, as
    ``Tracer._replace`` reads it, and so are the five counting patches."""
    tracer = _tracer()
    points = [(owner, attr) for _, owner, attr in tracer.LAYERS]
    points += [(tracer.catalog, "_r2n1_lam"), (tracer.catalog, "_t3_lam"),
               (tracer.connections.LocalConnection, "__init__"),
               (tracer.contact.ContactTriad, "__init__"),
               (tracer.ad.Dual, "__init__")]
    missing = ["%s.%s" % (owner.__name__, attr) for owner, attr in points
               if not callable(vars(owner).get(attr))]
    assert not missing


def test_builds_read_the_contact_forms_by_name_when_they_run(monkeypatch):
    """The tracer counts ``catalog.lam.calls`` by replacing ``_r2n1_lam``
    and ``_t3_lam`` in the catalog module, so each build must look them up
    when it runs, not when the catalog is made."""
    mod = importlib.import_module("triadlab.catalog")
    calls = []
    r2n1, t3 = mod._r2n1_lam, mod._t3_lam

    def counted(lam, tag):
        return lambda q: calls.append(tag) or lam(q)
    monkeypatch.setattr(mod, "_r2n1_lam", lambda n: counted(r2n1(n), n))
    monkeypatch.setattr(mod, "_t3_lam", counted(t3, "t3"))
    for spec in catalog().values():
        t = spec.build()
        t.lam_any(t.sample_points(1, 0))
    assert sorted(set(map(str, calls))) == ["1", "2", "3", "4", "t3"]
