"""Certificates of equivalence in normal form, and their independent verifier.

A certificate states the paper's conclusion for its model: over B the
model is isomorphic to (B (x) Lambda(W), D = 0), and under that
isomorphism C is homotopic to the target comultiplication.  It records one
unipotent change of generators Phi, fixing the base (the composite
phi_1 ... phi_n of a run's changes of generators), the target (D_T = 0,
C_T) and, for each fiber generator w, a mixed element eta(w) of the tensor
square of degree |w| - 1, such that

    D(Phi(w)) = 0                                  in B (x) Lambda(W), and
    (Phi (x) Phi)(C_T(w) + d eta(w)) = C(Phi(w))   in the tensor square,

d being the target square's differential (D_T = 0, so d acts on the base
coefficients).  The first makes Phi an isomorphism from the target's
algebra onto the source's; the second says that C carried back by Phi
differs from C_T by the boundary of eta, the dt-part of a DG homotopy
between them, which respects both counits since eta is mixed.  A generator
that `phi` or `eta` omits is fixed by Phi or has eta = 0.  The trail
`steps` names what the run did, stage and note, and is not checked.

`verify_equivalence` validates the source, then checks the shape of
everything it substitutes into before it substitutes: Phi's tails, D_T = 0,
the degrees of C_T(w) and eta(w), and that eta is mixed; then the two
identities.  A certificate holds no truncation degree: the identities are
checked on generators, and its source model takes `RelativeModel`'s
default.  What the verifier shares with the engine is the algebra itself:
`Polynomial`, `apply_images`, `FreeCDGA.d`, `GeneratorTable.on_copy` and
the validators of `model`.  It calls no conjugation helper and solves
nothing: not `conjugate`, not `invert`, not `FreeCDGA.split`.
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
from .dga import EngineError, Verdict
from .model import (
    Comultiplication,
    RelativeModel,
    tail_shape_verdict,
    validate_input,
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

    def apply(self, p: Polynomial) -> Polynomial:
        return apply_images(self.images, p)

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
    """Inverse by back-substitution along the ordered fiber basis; both
    compositions are verified to be the identity."""
    phi.shape_verdict(model).or_raise(AlgebraError, "not a valid change of generators: ")
    table = model.table
    inverse_images: dict[int, Polynomial] = {}
    for gen in table.fiber:
        image = phi.images.get(gen.id)
        gen_poly = Polynomial.from_generator(gen)
        if image is None or image == gen_poly:
            continue
        tail = image - gen_poly
        inverse_images[gen.id] = gen_poly - apply_images(inverse_images, tail)
    inverse = ChangeOfGenerators(inverse_images)
    for gen in table.fiber:
        gen_poly = Polynomial.from_generator(gen)
        if inverse.apply(phi.image(gen)) != gen_poly or phi.apply(
            inverse.image(gen)
        ) != gen_poly:
            raise EngineError(f"inversion failed at generator {gen.display()}")
    return inverse


def conjugate(
    model: RelativeModel,
    comul: Comultiplication,
    phi: ChangeOfGenerators,
) -> tuple[RelativeModel, Comultiplication]:
    """D' = phi^-1 D phi and C' = (phi^-1 (x) phi^-1) C phi, revalidated."""
    table = model.table
    phi_inv = invert(model, phi)
    total = model.total_cdga()
    new_d: dict[str, Polynomial] = {}
    for gen in table.fiber:
        image = phi_inv.apply(total.d(phi.image(gen)))
        if image:
            new_d[gen.name] = image
    new_model = model.with_fiber_differential(new_d)
    square_inv = {**phi_inv.images, **table.on_copy(phi_inv.images, 1)}
    c_images = comul.as_images()
    new_c: dict[str, Polynomial] = {}
    for gen in table.fiber:
        through = apply_images(c_images, phi.image(gen))
        new_c[gen.name] = apply_images(square_inv, through)
    new_comul = Comultiplication(table, new_c)
    validate_input(new_model, new_comul).or_raise(EngineError, "conjugation broke the ")
    return new_model, new_comul


@dataclass
class CertificateStep:
    """One entry of a certificate's trail: the pipeline pass that made a
    step (`stage`) and what it did (`note`)."""

    stage: str
    note: str


@dataclass
class EquivalenceCertificate:
    """A source model pair, Phi, the target and eta (see the module
    docstring); images are keyed by fiber generator name, Phi's by id."""

    table: GeneratorTable
    d_base: dict[str, Polynomial]
    source_d: dict[str, Polynomial]
    source_c: dict[str, Polynomial]
    phi: ChangeOfGenerators
    target_c: dict[str, Polynomial]
    target_d: dict[str, Polynomial] = field(default_factory=dict)
    eta: dict[str, Polynomial] = field(default_factory=dict)
    steps: list[CertificateStep] = field(default_factory=list)

    def source_model(self) -> tuple[RelativeModel, Comultiplication]:
        model = RelativeModel(self.table, self.d_base, self.source_d)
        return model, Comultiplication(self.table, self.source_c)


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
        rhs = comul.images[gen.name] if image is None else apply_images(c_images, image)
        if lhs != rhs:
            return Verdict.failed(
                f"phi does not intertwine the comultiplications at {gen.display()}: "
                "(phi (x) phi)(C_T + d eta) != C phi", lhs - rhs)
    return Verdict.passed()


def verify_equivalence(cert: EquivalenceCertificate) -> Verdict:
    """Validate the source, check the shapes (`_shape_verdict`), then
    D(Phi(w)) = 0 in the source total algebra (for w fixed by Phi: D(w)
    absent) and the comultiplication identity (`verify_homotopy`)."""
    model, comul = cert.source_model()
    verdict = validate_input(model, comul)
    if verdict.ok:
        verdict = _shape_verdict(model, cert)
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
