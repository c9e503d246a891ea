"""Exact computer algebra for relative Sullivan models of fibrewise H-spaces.

The package represents a relative model B -> B (x) Lambda(W) and a
fibrewise comultiplication of models over exact rationals, and normalizes
them constructively: the `hopf` pipeline removes the differential from the
fiber generators, the `ls` pipeline reduces an associative comultiplication
to the standard one C0(w) = w + w'.  Each run emits either a
machine-checkable equivalence certificate or a precise obstruction class.
"""

from .algebra import (
    AlgebraError,
    GeneratorTable,
    Generator,
    Monomial,
    Polynomial,
    normalize_monomial,
)
from .certify import (
    ChangeOfGenerators,
    EquivalenceCertificate,
    conjugate,
    emit_triviality_report,
    verify_equivalence,
)
from .dga import (
    EngineError,
    FreeCDGA,
    Verdict,
    cohomology_in_degree,
)
from .model import (
    Comultiplication,
    HypothesisReport,
    RelativeModel,
    associativity_defect,
    check_homotopy_associative,
    check_hypotheses,
    validate_comultiplication,
    validate_input,
    validate_relative_model,
)
from .normalize import (
    InvalidModelError,
    NormalizationResult,
    Obstruction,
    hopf_normalize,
    ls_normalize,
)
from .perturb import PerturbationError, PerturbationSpec, perturb
from .propsolver import (
    BasicFormError,
    apply_map,
    basic_form_element,
    brute_force_solution_space,
    solve_basic_form,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
