"""Seeded perturbation of an already-standard model.

Starting from D(W) = 0 and the standard comultiplication, a perturbation
conjugates by a pseudo-random unipotent change of generators and/or adds
d(eta) to the comultiplication, for a drawn mixed eta of the tensor square
(a DG homotopy from C0).  The result is a valid model that is equivalent
to the standard one by construction, so the normalization pipelines must
recover it exactly; this is the oracle behind the round-trip tests.  The
base may lie outside the normalization hypotheses: both modes stay valid
on any base, and such a result is recovered by the forced pipelines.  The
same seed on the same model always produces the same output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraError,
    Polynomial,
    is_mixed_square_monomial,
    split_monomial,
)
from .certify import ChangeOfGenerators, conjugate
from .dga import EngineError
from .model import (
    Comultiplication,
    RelativeModel,
    truncation_verdict,
    validate_input,
    validate_relative_model,
)

MODES = ("change-of-generators", "exact-homotopy", "both")


class PerturbationError(AlgebraError):
    """The requested perturbation is unsatisfiable for this model."""


@dataclass(frozen=True)
class PerturbationSpec:
    seed: int
    max_word_length: int = 3
    mode: str = "both"

    def __post_init__(self):
        if self.mode not in MODES:
            raise PerturbationError(f"unknown perturbation mode {self.mode!r}")
        if self.max_word_length < 1:
            raise PerturbationError("max_word_length must be at least 1")


_COEFFICIENTS = (1, -1, 2, -2, Fraction(1, 2), 3)


def _draw(rng, candidates):
    """The sum of one or two distinct candidate monomials, each times a
    random coefficient; zero when there are no candidates.  The random
    calls come in one order: `randint`, `sample`, then one `choice` per
    drawn candidate, so a seed keeps its output."""
    if not candidates:
        return Polynomial.zero()
    count = rng.randint(1, min(2, len(candidates)))
    return Polynomial({mono: rng.choice(_COEFFICIENTS) for mono in rng.sample(candidates, count)})


def _change_of_generators(model, rng, max_word_length):
    table = model.table
    images = {}
    for position, gen in enumerate(table.fiber):
        # a tail has no pure-base term: the shape `conjugate` checks
        candidates = table.monomial_basis(
            gen.degree, model.fiber_prefix_gens(position), max_word_length,
            min_word_length=1)
        tail = _draw(rng, candidates)
        if tail:
            images[gen.id] = Polynomial.from_generator(gen) + tail
    return ChangeOfGenerators(images) if images else None


def _exact_candidates(model, degree, max_word_length):
    """The mixed monomials eta of the tensor square in `degree`, of word
    length at most `max_word_length`, whose differential does not vanish,
    in basis order.  D(W) = 0, so D(b m) = d_B(b) m for b the base part of
    eta and m its fiber part: eta is live exactly when d_B(b) is nonzero,
    which is decided once per base part."""
    base = model.base_cdga()
    live = []
    live_base = {}  # base part b -> whether d_B(b) is nonzero
    # a mixed monomial has a w0 and a w1 factor, so the lower bound 2 only
    # prunes what `is_mixed_square_monomial` would drop
    for mono in model.table.monomial_basis(
            degree, model.tensor_cdga(2).gens, max_word_length, min_word_length=2):
        if not is_mixed_square_monomial(mono):
            continue
        base_part = split_monomial(mono)[0]
        alive = live_base.get(base_part)
        if alive is None:
            alive = live_base[base_part] = bool(base.d(Polynomial._of({base_part: 1})))
        if alive:
            live.append(mono)
    return live


def _exact_additions(model, rng, max_word_length):
    """Per generator, a random eta of one lower degree drawn from the live
    candidates; `perturb` adds d(eta) to its image."""
    etas = {}
    for gen in model.table.fiber:
        eta = _draw(rng, _exact_candidates(model, gen.degree - 1, max_word_length))
        if eta:
            etas[gen.name] = eta
    return etas


def perturb(
    model: RelativeModel, comul: Comultiplication, spec: PerturbationSpec
) -> tuple[RelativeModel, Comultiplication]:
    # D(W) = 0 and C = C0 are required below; C0 is then valid iff D is
    validate_relative_model(model).or_raise(PerturbationError, "differential: ")
    truncation_verdict(model).or_raise(PerturbationError)
    if any(model.D(gen) for gen in model.table.fiber):
        raise PerturbationError("perturbation requires a vanishing fiber differential")
    if not comul.is_standard():
        raise PerturbationError("perturbation requires the standard comultiplication")
    rng = random.Random(spec.seed)
    # d(eta) first, on the pristine model: D(W) = 0 there, so d(b m) =
    # d_B(b) m, and a boundary keeps the DG condition; conjugation
    # preserves validity of whatever it is given, so it goes second.  The
    # input is valid and both moves keep validity, so an invalid output is
    # an internal fault
    if spec.mode in ("exact-homotopy", "both"):
        etas = _exact_additions(model, rng, spec.max_word_length)
        if etas:
            d, images = model.tensor_cdga(2).d, dict(comul.images)
            for name, eta in etas.items():
                images[name] = images[name] + d(eta)
            comul = Comultiplication(model.table, images)
        elif spec.mode == "exact-homotopy" and model.table.fiber:
            raise PerturbationError(
                "no exact comultiplication perturbations are available at this "
                "truncation (no solvable differential images)"
            )
    if spec.mode in ("change-of-generators", "both"):
        phi = _change_of_generators(model, rng, spec.max_word_length)
        if phi is not None:
            model, comul = conjugate(model, comul, phi)
    validate_input(model, comul).or_raise(
        EngineError, "perturbation produced an invalid model: ")
    return model, comul
