"""The two normalization pipelines, both one induction on word length.

`_induct` is that induction: for each fiber generator in processing order
it makes one step at the lowest word length r of a polynomial, and every
step must raise r.  The first pipeline (hopf) runs it on D(w_k): a step
(`_hopf_step`) solves the coefficients of the length-r part as base
boundaries and absorbs them into a change of generators, guessing each
preimage from C(w_k) from r = 2 on; the linear stage stops after r = 1,
the higher stage runs until D(w_k) vanishes.  The second (ls) runs the
same stages and then the induction on the excess C(w_k) - w_k - w'_k,
one step (`_ls_step`) for every word length: the excess splits along the
cycle decomposition Z = E + N, a nonzero class part is forced into the
shape sum b_I (S_I - w_I - w'_I) and absorbed by a change of generators,
and the exact part is subtracted from C.  `_run_stages` runs a pipeline's
stages into one certificate in normal form (`certify`): it composes the
changes of generators into Phi, and eta from the subtracted parts'
preimages, carried through each later change whose tail has a factor with
an eta (`_carry_through`).

The ls theorem needs a homotopy-associative comultiplication.  An ls run
that normalizes proves it, since its target C0 is strictly coassociative
and every step preserves homotopy associativity; only a run that does not
normalize checks it, exactly in the tensor cube, before it answers.

Every step makes one move, the base's `split`, on each fiber-monomial
coefficient (`_split_coefficients`): it is solved as a boundary first,
and only a coefficient with no preimage is decomposed into a preimage of
its exact part and its class reduced against the boundaries.  Both
pipelines run the independent verifier on a certificate before returning
it (`_run_stages`), or stop with an obstruction: a reduced class, so equal
classes always report equal witnesses.  They require a truncation degree
above every fiber degree, since they solve in all degrees up to the
largest one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    AlgebraError,
    Generator,
    Polynomial,
    apply_images,
    monomial_key,
)
from .certify import (
    CertificateStep,
    ChangeOfGenerators,
    EquivalenceCertificate,
    conjugate,
    verify_equivalence,
)
from .dga import EngineError
from .model import (
    Comultiplication,
    HypothesisReport,
    RelativeModel,
    check_homotopy_associative,
    check_hypotheses,
    truncation_verdict,
    validate_input,
    # unused here, kept bound: perfbench/layertrace.py wraps them
    validate_comultiplication,
    validate_relative_model,
)
from . import propsolver
from .propsolver import leading_prime_coefficient


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


@dataclass
class Step:
    """What one step did: `phi`, its change of generators, or None when it
    subtracted an exact part P of C(w), with `eta` = {w: eta}, d(eta) = P;
    `stage` and `note` make its trail entry."""

    phi: ChangeOfGenerators | None
    stage: str
    note: str
    eta: dict[str, Polynomial] = field(default_factory=dict)


def _split_coefficients(base, poly: Polynomial, label: str, guess=None):
    """(eta, rest): each fiber-monomial coefficient of `poly` split by
    `base.split`, summed times its fiber monomial in monomial order, with
    d(eta) = poly - rest; rest is zero exactly when every coefficient is a
    boundary.  `guess(fiber_mono)` may offer a candidate eta, taken (rest
    zero) only when its differential is the coefficient.
    """
    eta_sum = rest_sum = Polynomial.zero()
    for fiber_mono, coeff in sorted(
        poly.group_by_fiber_part().items(), key=lambda kv: monomial_key(kv[0])
    ):
        if base.d(coeff):
            raise EngineError(f"coefficient of {label} is not a cycle")
        eta = guess(fiber_mono) if guess else None
        rest = Polynomial.zero()
        if eta is None or base.d(eta) != coeff:
            eta, rest = base.split(coeff)
        mono_poly = Polynomial._of({fiber_mono: 1})
        eta_sum = eta_sum + eta * mono_poly
        if rest:
            rest_sum = rest_sum + rest * mono_poly
    return eta_sum, rest_sum


# -- the induction on word length ----------------------------------------------


def _induct(model, comul, parts_of, step, last=None):
    """The induction both theorems run: for each fiber generator in
    processing order, `step(model, comul, gen, r)` at the lowest word
    length r of `parts_of(model, comul, gen)`, until no part is left or
    none is at most `last`.

    Each step must raise r; the first obstruction ends the induction.
    Returns (model, comul, steps, obstruction).
    """
    steps: list[Step] = []
    for gen in _processing_order(model):
        done = 0
        while parts := parts_of(model, comul, gen):
            r = min(parts)
            if last is not None and r > last:
                break
            if r <= done:
                raise EngineError(f"word length at {gen.display()} did not rise past {done}")
            model, comul, new_steps, obstruction = step(model, comul, gen, r)
            steps.extend(new_steps)
            if obstruction is not None:
                return model, comul, steps, obstruction
            done = r
    return model, comul, steps, None


# -- the Hopf pipeline -----------------------------------------------------------


def _differential_parts(model, comul, gen) -> dict[int, Polynomial]:
    return model.D(gen).word_length_parts()


def _hopf_step(model, comul, gen, r):
    """Remove the word-length-r part of D(w_k) by the change of generators
    w_k -> w_k - sum eta_I w_I, d(eta_I) the coefficient of w_I.

    From r = 2 on, the candidate eta_I is the coefficient of w'_{i1} w_{i2}
    ... w_{ir} in C(w_k) (grouped once per step), divided by N when the
    leading index repeats N times; a boundary solve is the fallback, and a
    coefficient with no preimage is an obstruction.
    """
    name, guess = gen.display(), None
    if r == 1:
        stage, label = "hopf-linear", f"the linear part of D({name})"
        where, note = f"linear coefficient of D({name})", f"remove linear differential of {name}"
    else:
        stage, label = "hopf-higher", f"D({name}) in word length {r}"
        where = f"coefficient of D({name}) at word length {r}"
        note = f"raise differential word length of {name} past {r}"
        grouped = comul.image(gen).group_by_fiber_part()

        def guess(fiber_mono):
            seq = [g for g, e in fiber_mono for _ in range(e)]
            return leading_prime_coefficient(model.table, grouped, seq)
    part = _differential_parts(model, comul, gen)[r]
    tail, rest = _split_coefficients(model.base_cdga(), part, label, guess)
    if rest:
        # the witness is the coefficient of rest's first fiber monomial
        _, witness = min(rest.group_by_fiber_part().items(),
                         key=lambda kv: monomial_key(kv[0]))
        return model, comul, [], Obstruction(
            stage, gen, r, witness, f"{where} represents a nonzero class in "
            f"degree {witness.homogeneous_degree()}")
    phi = ChangeOfGenerators({gen.id: Polynomial.from_generator(gen) - tail})
    model, comul = conjugate(model, comul, phi)
    return model, comul, [Step(phi, stage, note)], None


def hopf_stage_linear(model, comul):
    """Remove the word-length-one part of every D(w_k): the induction
    stopped after r = 1.

    Each linear coefficient is an odd-degree cycle whenever the model is
    valid; solving it as a boundary feeds the change of generators
    w_k -> w_k - sum eta_i w_i.  `_induct` leaves w_k only when D(w_k) has
    no length-one part, and a later step changes D(w_k) only through the
    generators D(w_k) contains.  Those come first in processing order (one
    of higher degree would be a linear term with a constant coefficient,
    which is no boundary and obstructs), so no length-one part is left.
    Returns (model, comul, steps, obstruction).
    """
    return _induct(model, comul, _differential_parts, _hopf_step, last=1)


def hopf_stage_higher(model, comul):
    """Raise the lowest word length of each D(w_k) until it vanishes.

    After the linear stage every D(w) lies in word length two or more.  On
    any other input a length-one part is removed here too, as the step
    `_hopf_step` labels hopf-linear; the pipelines still run both stages, in
    that order.  Returns (model, comul, steps, obstruction).
    """
    return _induct(model, comul, _differential_parts, _hopf_step)


def _screen(model, comul) -> HypothesisReport:
    """Validate the input, then scan the hypotheses.  Both pipelines run this
    first, so invalid input outranks every later answer.

    The odd base degrees scanned are those a split coefficient can take.
    D(w) has degree |w| + 1 and no pure-base term, so each of its terms
    carries a fiber factor of degree at least min|w|; an excess lies in the
    mixed part, with a factor in each copy.  Changes of generators and DG
    homotopies keep both shapes.  So every coefficient has degree at most
    N0 = max|w| + 1 - min|w|, over the fiber generators w, and the scan
    stops there: odd classes above N0 never meet a step."""
    truncation_verdict(model).or_raise(InvalidModelError)
    validate_input(model, comul).or_raise(InvalidModelError)
    degrees = [gen.degree for gen in model.table.fiber]
    return check_hypotheses(model, max(degrees) + 2 - min(degrees) if degrees else 1)


def _carry_through(model, comul, change, eta) -> None:
    """Carry eta through an ls change w -> w - T in place: the source
    conjugated by Phi applies C + d(eta) to T's factors where the pipeline
    applies C, so eta(w) gains the preimage of C(T) - (C + d(eta))(T).  A
    factor v of T has degree below |w|, so its steps came first: eta(v) is
    whole, and C(v) is final in the stage's `comul`."""
    images, d = comul.as_images(), model.tensor_cdga(2).d  # D = 0 here
    for gen in model.table.fiber:
        tail = Polynomial.from_generator(gen) - change.image(gen)
        through = {g.id: images[g.id] + d(eta[g.name])
                   for mono in tail.terms for g, _ in mono if g.name in eta}
        if through:
            gain = apply_images(images, tail) - apply_images({**images, **through}, tail)
            part, rest = _split_coefficients(model.base_cdga(), gain, f"eta({gen.display()})")
            if rest:
                raise EngineError(f"the eta carried into {gen.display()} is not exact")
            eta[gen.name] = eta.get(gen.name, Polynomial.zero()) + part


def _run_stages(model, comul, report: HypothesisReport, stages) -> NormalizationResult:
    """Run `stages` in turn, each (model, comul) -> (model, comul, steps,
    obstruction), into one certificate; the first obstruction ends the run.

    A run that took a step checks what it returns, once: its certificate
    (`verify_equivalence`), or the state its obstruction is read in
    (`validate_input`), which a faulty earlier step leaves invalid since
    every step keeps validity both ways.  No step returns `_screen`'s input.

    Phi is composed as the steps come, Phi(w_k) <- Phi(phi(w_k)) for each
    w_k a step's phi moves, and eta with it (`_carry_through`), so C^Phi - C_T
    is d(eta).  eta(v) and d(eta(v)) are mixed of degree at most |v|, so
    their factors have degree below |v|, and no later change moves them.
    Word lengths keep fiber monomials apart and a preimage is linear in its
    coefficient, so eta is the coefficientwise split of C^Phi - C_T."""
    phi: dict[int, Polynomial] = {}
    eta: dict[str, Polynomial] = {}
    trail: list[CertificateStep] = []
    source, source_comul = model, comul
    for stage in stages:
        model, comul, steps, obstruction = stage(model, comul)
        if obstruction is not None:
            if trail or steps:
                validate_input(model, comul).or_raise(
                    EngineError, "the state the obstruction was found in is invalid: ")
            return NormalizationResult("obstructed", report, obstruction=obstruction)
        for step in steps:
            if step.phi is not None:
                if eta:
                    _carry_through(model, comul, step.phi, eta)
                phi.update({gid: apply_images(phi, image)
                            for gid, image in step.phi.images.items()})
            for name, part in step.eta.items():
                eta[name] = eta.get(name, Polynomial.zero()) + part
            trail.append(CertificateStep(step.stage, step.note))
    composite = ChangeOfGenerators({
        gen.id: phi[gen.id] for gen in model.table.fiber
        if gen.id in phi and phi[gen.id] != Polynomial.from_generator(gen)})
    cert = EquivalenceCertificate(
        table=model.table, phi=composite, target_c=dict(comul.images),
        target_d=dict(model.d_fiber), steps=trail, eta={n: e for n, e in eta.items() if e})
    if trail:
        verify_equivalence(cert, source, source_comul).or_raise(
            EngineError, "the run's certificate fails verification: ")
    return NormalizationResult("normalized", report, certificate=cert)


def hopf_normalize(
    model: RelativeModel, comul: Comultiplication, force: bool = False
) -> NormalizationResult:
    """Full differential removal: hypotheses, linear stage, higher stage."""
    report = _screen(model, comul)
    if not report.satisfied and not force:
        return NormalizationResult("hypothesis-violation", report)
    return _run_stages(model, comul, report, (hopf_stage_linear, hopf_stage_higher))


# -- the Leray-Samelson pipeline ---------------------------------------------------


def _excess_parts(model, comul, gen) -> dict[int, Polynomial]:
    return comul.excess(gen).word_length_parts()


def _require_associative(model, comul) -> None:
    """Raise unless C is homotopy associative, naming the reduced non-exact
    defect classes; an exact check in the tensor cube."""
    failures = check_homotopy_associative(model, comul)
    if failures:
        witnesses = ", ".join(
            f"{name}: {cls!r}" for name, cls in sorted(failures.items())
        )
        raise InvalidModelError(
            "comultiplication is not homotopy associative; non-exact defect "
            f"classes: {witnesses}"
        )


def _ls_step(model, comul, gen, r):
    """Remove the word-length-r excess P_r of C(w_k), for every r.

    Its coefficients split (`split`) into their exact part and their
    reduced classes, the class part.  A nonzero class part must take the
    shape sum b_I (S_I - w_I - w'_I); the change of generators
    w_k -> w_k - sum b_I w_I absorbs it.  The exact part is subtracted from
    C(w_k), and the step keeps the preimage eta of its coefficients for the
    certificate's eta (`_run_stages`).  Stage labels, notes and obstruction
    details follow r's parity; under the hypotheses an even-r coefficient
    has odd degree, so its class part is zero.  Returns (model, comul,
    steps, obstruction).
    """
    part = _excess_parts(model, comul, gen).get(r)
    if not part:
        return model, comul, [], None
    base, table, name = model.base_cdga(), model.table, gen.display()
    even = r % 2 == 0
    stage = "ls-even" if even else "ls-odd"
    eta, class_part = _split_coefficients(base, part, f"the excess of C({name})")
    steps: list[Step] = []
    if class_part:
        try:
            coefficients = propsolver.solve_basic_form(table, class_part)
        except propsolver.BasicFormError as exc:
            detail = ("has non-exact coefficients" if even
                      else f"is not of the basic form ({exc.kind} failure)")
            return model, comul, [], Obstruction(
                stage, gen, r, class_part, f"word-length-{r} excess of C({name}) {detail}")
        absorb = Polynomial.zero()
        for names, b in sorted(coefficients.items()):
            if base.d(b):
                raise EngineError("basic-form coefficient is not a cycle")
            gens = [table.generator("w0", n) for n in names]
            absorb = absorb + b * propsolver.copy_product(table, gens, 0)
        phi = ChangeOfGenerators({gen.id: Polynomial.from_generator(gen) - absorb})
        model, comul = conjugate(model, comul, phi)
        steps.append(Step(phi, stage, f"absorb complement part of length {r} into {name}"))
    exact_part = part - class_part
    if exact_part:
        comul = Comultiplication(table, {**comul.images,
                                         gen.name: comul.image(gen) - exact_part})
        steps.append(Step(None, stage, f"remove even excess of length {r} from C({name})"
                          if even else f"remove exact part of length {r} from C({name})",
                          {gen.name: eta}))
    return model, comul, steps, None


# perfbench/layertrace.py wraps these two names; they stay bound until the
# benchmark revision replaces those spans (ROADMAP item 2)
ls_even_step = ls_odd_step = _ls_step


def _ls_stage(model, comul):
    """Per generator and ascending word length, the excess step until
    every image is standard.  Returns (model, comul, steps, obstruction)."""
    model, comul, steps, obstruction = _induct(model, comul, _excess_parts, _ls_step)
    if obstruction is None and not comul.is_standard():
        raise EngineError("pipeline finished with a non-standard comultiplication")
    return model, comul, steps, obstruction


def ls_normalize(
    model: RelativeModel, comul: Comultiplication, force: bool = False
) -> NormalizationResult:
    """Full standardization of the comultiplication.

    Hypothesis check, differential removal, then the excess steps until
    every image is standard.  The theorem needs C homotopy associative.  A
    run that normalizes proves it: the target C0 is strictly coassociative,
    and changes of generators and the subtraction of exact parts (a DG
    homotopy) preserve homotopy associativity.  So the exact check in the
    tensor cube runs only on a run that does not normalize (an obstruction
    or an error), on the source model and before anything is returned or
    raised, where "not homotopy associative" (InvalidModelError) outranks
    the rest.
    """
    report = _screen(model, comul)
    if not report.satisfied and not force:
        return NormalizationResult("hypothesis-violation", report)
    try:
        result = _run_stages(model, comul, report,
                             (hopf_stage_linear, hopf_stage_higher, _ls_stage))
    except (AlgebraError, EngineError):
        _require_associative(model, comul)
        raise
    if not result.normalized:
        _require_associative(model, comul)
    return result
