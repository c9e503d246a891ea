"""Certificates of equivalence in normal form, and their independent verifier.

A certificate states the paper's conclusion for the model it is checked
against: over B the model is isomorphic to (B (x) Lambda(W), D = 0), and
under that isomorphism C is homotopic to the target comultiplication.  It
records one unipotent change of generators Phi, fixing the base (the
composite phi_1 ... phi_n of a run's changes of generators), the target
(D_T = 0, C_T) and, for each fiber generator w, a mixed element eta(w) of
the tensor square of degree |w| - 1, such that

    D(Phi(w)) = 0                                  in B (x) Lambda(W), and
    (Phi (x) Phi)(C_T(w) + d eta(w)) = C(Phi(w))   in the tensor square,

d being the target square's differential (D_T = 0, so d acts on the base
coefficients).  The first makes Phi an isomorphism from the target's
algebra onto the source's; the second says that C carried back by Phi
differs from C_T by the boundary of eta, the dt-part of a DG homotopy
between them, which respects both counits since eta is mixed.  A generator
that `phi` or `eta` omits is fixed by Phi or has eta = 0.  The trail
`steps` names what the run did, stage and note, and is not checked.  A
certificate holds no copy of its model: the model pair (D, C) is given to
`verify_equivalence` beside it.

`verify_equivalence` checks the claim and nothing it implies, each part
before anything is substituted into it: d_B (`validate_base_differential`:
each d(y) in B, of degree |y| + 1, and d_B^2 = 0 on generators); the
shapes (Phi's tails, D_T = 0, the degrees of C_T(w) and eta(w), eta
mixed); C_T(w) = w + w' + (mixed terms) and d(C_T(w)) = 0 in the target
square; then the two identities.  These make the model pair valid without
validating it:

- Phi is unipotent and D(Phi(w)) = 0, so D o Phi and Phi o D_T are
  Phi-derivations that agree on generators: D = Phi D_T Phi^-1.  Hence
  D^2 = 0, and D has the relative Sullivan shape (degree |w| + 1, earlier
  generators only, no pure-base term) since Phi and D_T keep it.
- C_T has the counit shape and commutes with D_T, and d eta(w) is mixed,
  so C_T + d eta is a DG map with the counit shape.  The second identity
  gives C = (Phi (x) Phi)(C_T + d eta) Phi^-1: a DG map of degree 0, with
  the counit shape since the counit commutes with Phi.

A certificate holds no truncation degree: the identities are checked on
generators.  What the verifier shares with the engine is the algebra
itself: `Polynomial`, `apply_images`, `FreeCDGA.d`, `GeneratorTable.on_copy`
and the shape checks of `model`.  It calls no conjugation helper, no
validator of a model pair and solves nothing: not `conjugate`, not
`invert`, not `model`'s validity gate, not `FreeCDGA.split`.

The pipelines run this checker on a certificate before returning it
(`normalize._run_stages`), so `invert` and `conjugate`, which build what
it checks, check nothing of their own but Phi's shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .algebra import (
    AlgebraError,
    Generator,
    GeneratorTable,
    Polynomial,
    apply_images,
    is_mixed_square_monomial,
)
from .dga import Verdict
from .model import (
    Comultiplication,
    RelativeModel,
    _has_counit_shape,
    tail_shape_verdict,
    validate_base_differential,
    # unused here, kept bound: perfbench/layertrace.py wraps them
    validate_comultiplication,
    validate_relative_model,
)


@dataclass
class ChangeOfGenerators:
    """A unipotent automorphism: w_k -> w_k + (terms in earlier generators).

    Images are keyed by first-copy fiber generator id; omitted generators
    map to themselves, and the base is always fixed.
    """

    images: dict[int, Polynomial]

    def image(self, gen: Generator) -> Polynomial:
        return self.images.get(gen.id, Polynomial.from_generator(gen))

    def shape_verdict(self, model: RelativeModel) -> Verdict:
        for position, gen in enumerate(model.table.fiber):
            image = self.images.get(gen.id)
            if image is None:
                continue
            verdict = tail_shape_verdict(
                model, position, f"tail of {gen.display()}",
                image - Polynomial.from_generator(gen), gen.degree,
            )
            if not verdict.ok:
                return verdict
        return Verdict.passed()


def invert(model: RelativeModel, phi: ChangeOfGenerators) -> ChangeOfGenerators:
    """Inverse by back-substitution along the ordered fiber basis."""
    phi.shape_verdict(model).or_raise(AlgebraError, "not a valid change of generators: ")
    inverse_images: dict[int, Polynomial] = {}
    for gen in model.table.fiber:
        image = phi.images.get(gen.id)
        gen_poly = Polynomial.from_generator(gen)
        if image is None or image == gen_poly:
            continue
        tail = image - gen_poly
        inverse_images[gen.id] = gen_poly - apply_images(inverse_images, tail)
    return ChangeOfGenerators(inverse_images)


def conjugate(
    model: RelativeModel,
    comul: Comultiplication,
    phi: ChangeOfGenerators,
) -> tuple[RelativeModel, Comultiplication]:
    """D' = phi^-1 D phi and C' = (phi^-1 (x) phi^-1) C phi; only phi's
    shape is checked, since conjugation keeps validity both ways.
    (phi^-1 (x) phi^-1) o C is an algebra map that fixes B, so its values on
    the fiber generators determine it: composed once, it is applied to phi(w)."""
    table = model.table
    phi_inv = invert(model, phi)
    total = model.total_cdga()
    new_model = model.with_fiber_differential({
        gen.name: apply_images(phi_inv.images, total.d(phi.image(gen))) for gen in table.fiber})
    square_inv = {**phi_inv.images, **table.on_copy(phi_inv.images, 1)}
    composite = {gen.id: apply_images(square_inv, comul.image(gen)) for gen in table.fiber}
    return new_model, Comultiplication(table, {
        gen.name: apply_images(composite, phi.image(gen)) for gen in table.fiber})


@dataclass
class CertificateStep:
    """One entry of a certificate's trail: the pipeline pass that made a
    step (`stage`) and what it did (`note`)."""

    stage: str
    note: str


@dataclass
class EquivalenceCertificate:
    """Phi, the target and eta over a generator table (see the module
    docstring); images are keyed by fiber generator name, Phi's by id."""

    table: GeneratorTable
    phi: ChangeOfGenerators
    target_c: dict[str, Polynomial]
    target_d: dict[str, Polynomial] = field(default_factory=dict)
    eta: dict[str, Polynomial] = field(default_factory=dict)
    steps: list[CertificateStep] = field(default_factory=list)


def _shape_verdict(model: RelativeModel, cert: EquivalenceCertificate) -> Verdict:
    """The shape of everything the identities substitute into: Phi's
    tails, D_T = 0, C_T(w) homogeneous of degree |w| and eta(w) mixed and
    homogeneous of degree |w| - 1.  A substitution into an image of
    unchecked degree has no bound."""
    verdict = cert.phi.shape_verdict(model)
    if not verdict.ok:
        return verdict
    for gen in model.table.fiber:
        name = gen.display()
        image = cert.target_d.get(gen.name)
        if image:
            return Verdict.failed(f"target D({name}) is not zero", image)
        image = cert.target_c.get(gen.name)
        if image is None:
            return Verdict.failed(f"target comultiplication image missing for {name}")
        if not image.is_homogeneous_of_degree(gen.degree):
            return Verdict.failed(
                f"target C({name}) is not homogeneous of degree {gen.degree}", image)
        eta = cert.eta.get(gen.name)
        if eta is None:
            continue
        if not eta.is_homogeneous_of_degree(gen.degree - 1):
            return Verdict.failed(
                f"eta({name}) is not homogeneous of degree {gen.degree - 1}", eta)
        if not all(is_mixed_square_monomial(mono) for mono in eta.terms):
            return Verdict.failed(
                f"eta({name}) is not mixed: a term lacks a factor in one of the two "
                "fiber copies", eta)
    return Verdict.passed()


def _target_verdict(model: RelativeModel, cert: EquivalenceCertificate) -> Verdict:
    """C_T(w) = w + w' + (mixed terms) and d(C_T(w)) = 0 in the target
    square, for every fiber generator w: C_T is then a comultiplication of
    (B (x) Lambda(W), D_T = 0).  The degrees of `_shape_verdict` must hold."""
    table = model.table
    d_target = model.with_fiber_differential({}).tensor_cdga(2).d
    for gen in table.fiber:
        name, image, copy = gen.display(), cert.target_c[gen.name], table.copy(gen, 1)
        if not _has_counit_shape(image, gen, copy):
            return Verdict.failed(
                f"target C({name}) - {name} - {name}' has a term outside the mixed "
                "tensor part (counit shape violation)",
                image - Polynomial.from_generator(gen) - Polynomial.from_generator(copy))
        boundary = d_target(image)
        if boundary:
            return Verdict.failed(f"target C({name}) is not a cycle: d(C_T({name})) != 0",
                                  boundary)
    return Verdict.passed()


def verify_homotopy(
    model: RelativeModel, comul: Comultiplication, phi: ChangeOfGenerators,
    target_c: Mapping[str, Polynomial], eta: Mapping[str, Polynomial],
) -> Verdict:
    """(Phi (x) Phi)(C_T(w) + d eta(w)) = C(Phi(w)) for every fiber
    generator w, with d the target square's differential (D_T = 0).  The
    shapes of `_shape_verdict` must hold.  For w fixed by Phi the right side
    is C(w) itself, and a left side none of whose factors Phi moves is
    compared as it stands (`apply_images` returns it)."""
    table = model.table
    square = {**phi.images, **table.on_copy(phi.images, 1)}
    d_target = model.with_fiber_differential({}).tensor_cdga(2).d if eta else None
    c_images = comul.as_images()
    for gen in table.fiber:
        lhs = target_c[gen.name]
        if gen.name in eta:
            lhs = lhs + d_target(eta[gen.name])
        if square:
            lhs = apply_images(square, lhs)
        image = phi.images.get(gen.id)
        rhs = comul.image(gen) if image is None else apply_images(c_images, image)
        if lhs != rhs:
            return Verdict.failed(
                f"phi does not intertwine the comultiplications at {gen.display()}: "
                "(phi (x) phi)(C_T + d eta) != C phi", lhs - rhs)
    return Verdict.passed()


def verify_equivalence(cert: EquivalenceCertificate, model: RelativeModel,
                       comul: Comultiplication) -> Verdict:
    """Check `cert` against the model pair (D, C) it is for: the certificate
    must have been read against the model's generator table, since
    polynomials compare only within one table.  Then d_B
    (`validate_base_differential`), the shapes (`_shape_verdict`), C_T
    (`_target_verdict`), D(Phi(w)) = 0 in the model's total algebra (for w
    fixed by Phi: D(w) absent) and the comultiplication identity
    (`verify_homotopy`).  The module docstring says why these make the pair
    valid."""
    if cert.table is not model.table:
        return Verdict.failed("certificate is for a different generator table")
    verdict = validate_base_differential(model)
    if verdict.ok:
        verdict = _shape_verdict(model, cert)
    if verdict.ok:
        verdict = _target_verdict(model, cert)
    if not verdict.ok:
        return verdict
    total = model.total_cdga()
    for gen in model.table.fiber:
        image = cert.phi.images.get(gen.id)
        boundary = model.D(gen) if image is None else total.d(image)
        if boundary:
            return Verdict.failed(
                f"phi does not intertwine the differentials at {gen.display()}: "
                "D(phi(w)) != 0", boundary)
    return verify_homotopy(model, comul, cert.phi, cert.target_c, cert.eta)


def emit_triviality_report(result, pipeline: str) -> str:
    """Human-readable summary of what a normalization outcome supports.

    The algebraic statements are machine-verified; the geometric reading
    (triviality of a realizing fibration) depends on realization theory
    outside this engine and is labelled as such.
    """
    lines = [f"pipeline: {pipeline}"]
    lines.append(f"outcome: {result.outcome}")
    if result.outcome == "normalized":
        if pipeline == "hopf":
            lines.append(
                "fibrewise trivial (algebraic criterion met): the differential "
                "vanishes on every fiber generator after the certified change "
                "of generators."
            )
        else:
            lines.append(
                "fibrewise H-trivial (algebraic criterion met): the "
                "comultiplication is certified equivalent to the standard one "
                "C0(w) = w + w'."
            )
        lines.append(
            "note: the corresponding statement about an actual fibration is a "
            "consequence of realization theory and is not machine-verified; "
            "the attached certificate is."
        )
        lines.append(f"certificate steps: {len(result.certificate.steps)}")
    elif result.outcome == "obstructed":
        ob = result.obstruction
        lines.append(
            "not trivializable by this method; obstruction class attached."
        )
        lines.append(
            f"stage: {ob.stage}; generator: {ob.generator.display()}; "
            f"word length: {ob.word_length}"
        )
        lines.append(f"class witness: {ob.class_witness!r}")
    else:
        lines.append("hypothesis violations:")
        lines.extend("  " + line for line in result.report.describe())
    return "\n".join(lines)
