"""Numerical workbench for the canonical connection family of contact triads.

A contact triad is a contact form together with a compatible almost-complex
structure on its distribution; the package builds the associated metric,
Reeb field, and the one-parameter family of adapted connections in explicit
charts, then verifies the defining properties of that family to near
machine precision with forward-mode derivatives.
"""

from .ad import Dual
from .catalog import (ExampleSpec, StrictContactMap, catalog, perturbed_triad,
                      standard_triad, t3_triad)
from .checks import (CheckResult, check_axioms, check_cr_form,
                     check_lemma_suite, check_naturality, check_scaling)
from .connections import (LeviCivitaConnection, TriadConnection,
                          triad_connection)
from .contact import ContactTriad
from .engine import DiffEngine
from .frames import MovingFrame, build_unitary_frame, cross_check_gamma
from .runner import Report, RunConfig, emit_report, run_suite

__version__ = "0.1.0"

__all__ = [
    "Dual", "DiffEngine", "ContactTriad", "ExampleSpec", "catalog",
    "standard_triad", "perturbed_triad", "t3_triad", "CheckResult",
    "StrictContactMap", "check_axioms", "check_cr_form", "check_lemma_suite",
    "check_naturality", "check_scaling", "LeviCivitaConnection",
    "TriadConnection", "triad_connection", "MovingFrame",
    "build_unitary_frame", "cross_check_gamma", "Report", "RunConfig",
    "emit_report", "run_suite", "__version__",
]
