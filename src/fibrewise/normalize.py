"""The two normalization pipelines.

The first (hopf) removes the differential from the fiber generators: a
linear stage solves each length-one coefficient of D(w_k) as a base
boundary and absorbs it into a change of generators, then a higher stage
extracts preimages from the comultiplication coefficients, raising the
lowest word length of D(w_k) until it vanishes.  The second (ls) runs the
same prefix (after a homotopy-associativity check) and then standardizes
the comultiplication: even-length excess terms are removed by DG
homotopies whose coefficients are solved base boundaries; odd-length
excess splits along the cycle decomposition Z = E + N, the complement part
is forced into the shape sum b_I (S_I - w_I - w'_I) and absorbed by a
change of generators, and the exact part is removed by a homotopy.

Every stage reduces to one move, `_solve_coefficients`: solve each
fiber-monomial coefficient as a base boundary, or reduce it against the
boundary space when it is not one.  Both pipelines emit certificates that
the independent verifier replays, or stop with an obstruction: a non-exact
cycle reduced against the boundary space, so equal classes always report
equal witnesses.  They require a truncation degree above every fiber
degree, since they solve in all degrees up to the largest one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    AlgebraError,
    Generator,
    Polynomial,
    monomial_key,
    normalize_monomial,
)
from .certify import (
    CertificateStep,
    ChangeOfGenerators,
    DGHomotopy,
    EquivalenceCertificate,
    conjugate,
    new_certificate,
    snapshot,
)
from .dga import EngineError
from .model import (
    Comultiplication,
    HypothesisReport,
    RelativeModel,
    check_homotopy_associative,
    check_hypotheses,
    validate_comultiplication,
    validate_relative_model,
)


class InvalidModelError(AlgebraError):
    """The input fails a structural precondition (not an obstruction)."""


@dataclass
class Obstruction:
    """A normalization step hit a nonzero class.

    The witness is a cycle with no preimage under the relevant
    differential, reduced against the boundary space.
    """

    stage: str  # hopf-linear | hopf-higher | ls-even | ls-odd
    generator: Generator
    word_length: int
    class_witness: Polynomial
    detail: str = ""


@dataclass
class NormalizationResult:
    outcome: str  # normalized | obstructed | hypothesis-violation
    report: HypothesisReport
    certificate: EquivalenceCertificate | None = None
    obstruction: Obstruction | None = None

    @property
    def normalized(self) -> bool:
        return self.outcome == "normalized"


def _processing_order(model: RelativeModel) -> list[Generator]:
    """The ordered fiber basis, stably re-sorted so degrees never decrease;
    this refines the given order exactly when needed by the inductions and
    is the identity on inputs already listed by degree."""
    return sorted(model.table.fiber, key=lambda gen: gen.degree)


def _require_valid(model: RelativeModel, comul: Comultiplication) -> None:
    fiber_degree = max((g.degree for g in model.table.fiber), default=0)
    if model.truncation <= fiber_degree:
        raise InvalidModelError(
            f"truncation degree {model.truncation} must exceed the largest fiber "
            f"degree {fiber_degree}: the pipelines solve in every degree up to it"
        )
    verdict = validate_relative_model(model)
    if not verdict.ok:
        raise InvalidModelError("invalid relative model: " + verdict.failures[0])
    verdict = validate_comultiplication(model, comul)
    if not verdict.ok:
        raise InvalidModelError("invalid comultiplication: " + verdict.failures[0])


def _step(action, model, comul, note: str, stage: str) -> CertificateStep:
    """The certificate step of `action` (a change of generators or a DG
    homotopy), recording the state it leads to."""
    d_after, c_after = snapshot(model, comul)
    if isinstance(action, ChangeOfGenerators):
        return CertificateStep("change_of_generators", action, None, d_after, c_after,
                               note, stage)
    return CertificateStep("homotopy", None, action, d_after, c_after, note, stage)


def _solve_coefficients(base, poly: Polynomial, label: str, guess=None):
    """Solve each fiber-monomial coefficient of `poly` as a base boundary.

    Yields (fiber monomial as a polynomial, eta, witness) in monomial order:
    eta with d(eta) = coefficient, or eta None and the coefficient reduced
    against the boundaries.  `guess(fiber_mono)` may offer a candidate eta,
    taken only when its differential is the coefficient.
    """
    for fiber_mono, coeff in sorted(
        poly.group_by_fiber_part().items(), key=lambda kv: monomial_key(kv[0])
    ):
        if base.d(coeff):
            raise EngineError(f"coefficient of {label} is not a cycle")
        eta = guess(fiber_mono) if guess else None
        if eta is None or base.d(eta) != coeff:
            eta = base.solve_preimage(coeff)
        mono_poly = Polynomial({fiber_mono: Fraction(1)})
        if eta is None:
            degree = coeff.homogeneous_degree()
            yield mono_poly, None, base.cohomology_slice(degree).reduce(coeff)
        else:
            yield mono_poly, eta, None


def _solve_tail(base, poly: Polynomial, label: str, guess=None):
    """(sum of eta times fiber monomial, None), or (None, witness) for the
    first coefficient that is not a boundary."""
    tail = Polynomial.zero()
    for mono_poly, eta, witness in _solve_coefficients(base, poly, label, guess):
        if eta is None:
            return None, witness
        tail = tail + eta * mono_poly
    return tail, None


# -- the Hopf pipeline -----------------------------------------------------------


def hopf_stage_linear(model, comul):
    """Remove the word-length-one part of every D(w_k).

    Each linear coefficient is an odd-degree cycle whenever the model is
    valid; solving it as a boundary feeds the change of generators
    w_k -> w_k - sum eta_i w_i.  Returns (model, comul, steps, obstruction).
    """
    steps: list[CertificateStep] = []
    base = model.base_cdga()
    for gen in _processing_order(model):
        linear = model.D(gen).word_length_parts().get(1)
        if not linear:
            continue
        tail, witness = _solve_tail(base, linear, f"the linear part of D({gen.display()})")
        if tail is None:
            return model, comul, steps, Obstruction(
                "hopf-linear", gen, 1, witness,
                f"linear coefficient of D({gen.display()}) represents a "
                f"nonzero class in degree {witness.homogeneous_degree()}",
            )
        phi = ChangeOfGenerators({gen.id: Polynomial.from_generator(gen) - tail})
        model, comul = conjugate(model, comul, phi)
        steps.append(_step(phi, model, comul,
                           f"remove linear differential of {gen.display()}",
                           "hopf-linear"))
    for gen in model.table.fiber:
        if 1 in model.D(gen).word_length_parts():
            raise EngineError("linear stage left a length-one differential term")
    return model, comul, steps, None


def _extract_eta(model, comul, gen, fiber_mono):
    """The preimage candidate for the coefficient of w_I = `fiber_mono` in
    D(w_k), read off the comultiplication coefficients: the coefficient of
    w'_{i1} w_{i2} ... w_{ir}, divided by the leading multiplicity when the
    leading index repeats."""
    table = model.table
    seq_gens = [table.copy(g, 0) for g, e in fiber_mono for _ in range(e)]
    leading = seq_gens[0]
    repeats = sum(1 for g in seq_gens if g.id == leading.id)
    factors = []
    if repeats > 1:
        factors.append((table.copy(leading, 0), repeats - 1))
    factors.append((table.copy(leading, 1), 1))
    factors.extend((table.copy(g, 0), 1) for g in seq_gens[repeats:])
    mono, sign = normalize_monomial(factors)
    if sign == 0:
        return None
    coeff = comul.image(gen).group_by_fiber_part().get(mono)
    if coeff is None:
        return None
    return coeff.scale(Fraction(sign, repeats))


def hopf_stage_higher(model, comul):
    """Raise the lowest word length of each D(w_k) until it vanishes.

    Requires every D(w) to lie in word length two or more.  Preimages come
    from the comultiplication coefficients (with the 1/N division when the
    leading index repeats); a deterministic boundary solve is the fallback,
    and failure of both is an obstruction.
    """
    steps: list[CertificateStep] = []
    base = model.base_cdga()
    for gen in model.table.fiber:
        parts = model.D(gen).word_length_parts()
        if parts and min(parts) < 2:
            raise InvalidModelError(
                f"D({gen.display()}) has word length below two; "
                "run the linear stage first"
            )
    for gen in _processing_order(model):
        guard = 0
        while model.D(gen):
            guard += 1
            if guard > model.truncation + 2:
                raise EngineError("word length failed to increase")
            parts = model.D(gen).word_length_parts()
            r = min(parts)
            tail, witness = _solve_tail(
                base, parts[r], f"D({gen.display()}) in word length {r}",
                guess=lambda fiber_mono: _extract_eta(model, comul, gen, fiber_mono),
            )
            if tail is None:
                return model, comul, steps, Obstruction(
                    "hopf-higher", gen, r, witness,
                    f"coefficient of D({gen.display()}) at word length {r} "
                    f"represents a nonzero class in degree {witness.homogeneous_degree()}",
                )
            phi = ChangeOfGenerators({gen.id: Polynomial.from_generator(gen) - tail})
            new_model, new_comul = conjugate(model, comul, phi)
            new_parts = new_model.D(gen).word_length_parts()
            if new_parts and min(new_parts) <= r:
                raise EngineError(
                    f"lowest word length of D({gen.display()}) did not increase"
                )
            model, comul = new_model, new_comul
            steps.append(_step(
                phi, model, comul,
                f"raise differential word length of {gen.display()} past {r}",
                "hopf-higher",
            ))
    return model, comul, steps, None


def _normalize_differential(model, comul, force: bool, associative: bool):
    """The prefix both pipelines share: validate, scan the hypotheses, check
    homotopy associativity when `associative` (after the scan, so invalid
    input outranks an obstruction), then run both Hopf stages.

    Returns (result, model, comul).  The result is final unless it is
    "normalized": then its certificate holds the Hopf steps and still needs
    its target.
    """
    _require_valid(model, comul)
    report = check_hypotheses(model)
    if not report.satisfied and not force:
        return NormalizationResult("hypothesis-violation", report), model, comul
    if associative:
        assoc = check_homotopy_associative(model, comul)
        if not assoc.ok:
            witnesses = ", ".join(
                f"{name}: {cls!r}" for name, cls in sorted(assoc.failures.items())
            )
            raise InvalidModelError(
                "comultiplication is not homotopy associative; non-exact defect "
                f"classes: {witnesses}"
            )
    cert = new_certificate(model, comul)
    for stage in (hopf_stage_linear, hopf_stage_higher):
        model, comul, steps, obstruction = stage(model, comul)
        cert.steps.extend(steps)
        if obstruction is not None:
            return (NormalizationResult("obstructed", report, obstruction=obstruction),
                    model, comul)
    return NormalizationResult("normalized", report, certificate=cert), model, comul


def hopf_normalize(
    model: RelativeModel, comul: Comultiplication, force: bool = False
) -> NormalizationResult:
    """Full differential removal: hypotheses, linear stage, higher stage."""
    result, model, comul = _normalize_differential(model, comul, force, associative=False)
    if result.normalized:
        result.certificate.target_d, result.certificate.target_c = snapshot(model, comul)
    return result


# -- the Leray-Samelson pipeline ---------------------------------------------------


def _excess_parts(comul: Comultiplication, gen: Generator) -> dict[int, Polynomial]:
    return comul.excess(gen).word_length_parts()


def _remove_by_homotopy(model, comul, gen, part, note, stage):
    """Remove `part` from C(w_k) by one DG homotopy

        H(w_k) = C(w_k) - P t - eta dt,  constant on the other generators,

    where eta solves the coefficients of P = `part` as base boundaries.
    Returns (comul, steps, witness): when a coefficient is not a boundary,
    nothing is removed and the witness is the sum of the reduced non-exact
    coefficients times their fiber monomials.
    """
    table = model.table
    eta_poly = witness = Polynomial.zero()
    for mono_poly, eta, reduced in _solve_coefficients(
        model.base_cdga(), part, f"the excess of C({gen.display()})"
    ):
        if eta is None:
            witness = witness + reduced * mono_poly
        else:
            eta_poly = eta_poly + eta * mono_poly
    if witness:
        return comul, [], witness
    images = {other.id: comul.image(other) for other in table.fiber}
    images[gen.id] = (comul.image(gen) - part * Polynomial.from_generator(table.t)
                      - eta_poly * Polynomial.from_generator(table.dt))
    psi1 = dict(comul.images)
    psi1[gen.name] = comul.image(gen) - part
    homotopy = DGHomotopy(images, dict(comul.images), psi1)
    new_comul = Comultiplication(table, psi1)
    return new_comul, [_step(homotopy, model, new_comul, note, stage)], None


def ls_even_step(model, comul, gen, r):
    """Remove the even-length excess P_r of C(w_k) by one DG homotopy.

    Every coefficient of P_r is a cycle; each must be a boundary, and the
    solved preimages form the dt-coefficient of the homotopy.  Returns
    (comul, steps, obstruction).
    """
    part = _excess_parts(comul, gen).get(r)
    if not part:
        return comul, [], None
    comul, steps, witness = _remove_by_homotopy(
        model, comul, gen, part,
        f"remove even excess of length {r} from C({gen.display()})", "ls-even",
    )
    if witness:
        return comul, [], Obstruction(
            "ls-even", gen, r, witness,
            f"word-length-{r} excess of C({gen.display()}) has non-exact "
            "coefficients",
        )
    return comul, steps, None


def ls_odd_step(model, comul, gen, r):
    """Remove the odd-length excess P_r of C(w_k).

    The excess splits coefficientwise along Z = E + N.  The complement part
    must take the shape sum b_I (S_I - w_I - w'_I); the change of
    generators w_k -> w_k + sum b_I w_I absorbs it, and the remaining exact
    part is removed by a homotopy as in the even case.  Returns
    (comul, steps, obstruction).
    """
    from .propsolver import BasicFormError, solve_basic_form

    part = _excess_parts(comul, gen).get(r)
    if not part:
        return comul, [], None
    base = model.base_cdga()
    table = model.table
    exact_part = Polynomial.zero()
    complement_part = Polynomial.zero()
    for fiber_mono, coeff in part.group_by_fiber_part().items():
        if base.d(coeff):
            raise EngineError(
                f"excess coefficient of C({gen.display()}) is not a cycle"
            )
        slice_ = base.cohomology_slice(coeff.homogeneous_degree())
        exact, rest = slice_.decompose(coeff)
        mono_poly = Polynomial({fiber_mono: Fraction(1)})
        exact_part = exact_part + exact * mono_poly
        complement_part = complement_part + rest * mono_poly
    steps: list[CertificateStep] = []
    if complement_part:
        try:
            coefficients = solve_basic_form(table, complement_part)
        except BasicFormError as exc:
            return comul, [], Obstruction(
                "ls-odd", gen, r, complement_part,
                f"word-length-{r} excess of C({gen.display()}) is not of the "
                f"basic form ({exc.kind} failure)",
            )
        absorb = Polynomial.zero()
        for names, b in sorted(coefficients.items()):
            if base.d(b):
                raise EngineError("basic-form coefficient is not a cycle")
            w_I = Polynomial.one()
            for name in names:
                w_I = w_I * table.poly(name, copy=0)
            absorb = absorb + b * w_I
        phi = ChangeOfGenerators({gen.id: Polynomial.from_generator(gen) - absorb})
        model2, comul2 = conjugate(model, comul, phi)
        if snapshot(model2, comul2)[0] != snapshot(model, comul)[0]:
            raise EngineError("odd-step change of generators moved the differential")
        expected = comul.image(gen) - complement_part
        if comul2.image(gen) != expected:
            raise EngineError("odd-step change of generators did not absorb the "
                              "complement part")
        model, comul = model2, comul2
        steps.append(_step(phi, model, comul,
                           f"absorb complement part of length {r} into {gen.display()}",
                           "ls-odd"))
    if exact_part:
        comul, removed, witness = _remove_by_homotopy(
            model, comul, gen, exact_part,
            f"remove exact part of length {r} from C({gen.display()})", "ls-odd",
        )
        if witness:
            raise EngineError("exact part of the odd excess failed to solve")
        steps.extend(removed)
    return comul, steps, None


def ls_normalize(
    model: RelativeModel, comul: Comultiplication, force: bool = False
) -> NormalizationResult:
    """Full standardization of the comultiplication.

    Hypothesis check, homotopy-associativity check, differential removal,
    then per generator and ascending word length the even/odd steps until
    every image is standard.
    """
    result, model, comul = _normalize_differential(model, comul, force, associative=True)
    if not result.normalized:
        return result
    cert = result.certificate
    for gen in _processing_order(model):
        guard = 0
        while True:
            guard += 1
            if guard > model.truncation + 2:
                raise EngineError("excess word length failed to increase")
            parts = _excess_parts(comul, gen)
            if not parts:
                break
            r = min(parts)
            step = ls_even_step if r % 2 == 0 else ls_odd_step
            comul, steps, obstruction = step(model, comul, gen, r)
            if obstruction is not None:
                return NormalizationResult("obstructed", result.report,
                                           obstruction=obstruction)
            cert.steps.extend(steps)
            parts = _excess_parts(comul, gen)
            if parts and min(parts) <= r:
                raise EngineError("excess word length did not increase")
    if not comul.is_standard():
        raise EngineError("pipeline finished with a non-standard comultiplication")
    cert.target_d, cert.target_c = snapshot(model, comul)
    return result
