"""Seeded perturbation of an already-standard model.

Starting from D(W) = 0 and the standard comultiplication, a perturbation
conjugates by a pseudo-random unipotent change of generators and/or adds
exact coefficients (images of the differential) to the comultiplication.
The result is a valid model that is equivalent to the standard one by
construction, so the normalization pipelines must recover it exactly; this
is the oracle behind the round-trip tests.  The base may lie outside the
normalization hypotheses: both modes stay valid on any base, and such a
result is recovered by the forced pipelines.  The same seed on the same
model always produces the same output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraError,
    Polynomial,
    is_mixed_square_monomial,
    monomial_word_length,
)
from .certify import ChangeOfGenerators, conjugate
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


_COEFFICIENTS = (
    Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
    Fraction(1, 2), Fraction(3),
)


def _draw(rng, candidates, term):
    """The sum of one or two distinct candidates, each as `term(candidate)`
    times a random coefficient; zero when there are no candidates.  The
    random calls come in one order: `randint`, `sample`, then one `choice`
    per drawn candidate, so a seed keeps its output."""
    if not candidates:
        return Polynomial.zero()
    count = rng.randint(1, min(2, len(candidates)))
    total = Polynomial.zero()
    for candidate in rng.sample(candidates, count):
        total = total + term(candidate).scale(rng.choice(_COEFFICIENTS))
    return total


def _change_of_generators(model, rng, max_word_length):
    table = model.table
    images = {}
    for position, gen in enumerate(table.fiber):
        allowed = model.fiber_prefix_gens(position)
        candidates = [
            mono
            for mono in table.monomial_basis(gen.degree, allowed)
            if 1 <= monomial_word_length(mono) <= max_word_length
        ]
        tail = _draw(rng, candidates, lambda mono: Polynomial({mono: Fraction(1)}))
        if tail:
            images[gen.id] = Polynomial.from_generator(gen) + tail
    return ChangeOfGenerators(images) if images else None


def _exact_additions(model, rng, max_word_length):
    """Per generator, D(eta) for a random mixed eta of one lower degree;
    terms with vanishing differential contribute nothing and are skipped."""
    table = model.table
    square = model.tensor_cdga(2)
    additions = {}
    for gen in table.fiber:
        candidates = []
        for mono in table.monomial_basis(gen.degree - 1, square.gens):
            if (not is_mixed_square_monomial(mono)
                    or monomial_word_length(mono) > max_word_length):
                continue
            image = square.d(Polynomial({mono: Fraction(1)}))
            if image:
                candidates.append(image)
        total = _draw(rng, candidates, lambda image: image)
        if total:
            additions[gen.name] = total
    return additions


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
    # exact additions first, on the pristine model (where D vanishes they
    # always preserve the DG condition); conjugation preserves validity of
    # whatever it is given, so it goes second
    if spec.mode in ("exact-homotopy", "both"):
        additions = _exact_additions(model, rng, spec.max_word_length)
        if additions:
            images = dict(comul.images)
            for name, extra in additions.items():
                images[name] = images[name] + extra
            comul = Comultiplication(model.table, images)
        elif spec.mode == "exact-homotopy" and model.table.fiber:
            raise PerturbationError(
                "no exact comultiplication perturbations are available at this "
                "truncation (no solvable differential images)"
            )
    if spec.mode in ("change-of-generators", "both"):
        phi = _change_of_generators(model, rng, spec.max_word_length)
        if phi is not None:
            return conjugate(model, comul, phi)  # which validates its result
    validate_input(model, comul).or_raise(
        PerturbationError, "perturbation produced an invalid model: ")
    return model, comul
