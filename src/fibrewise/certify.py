"""Certificates of equivalence and their independent verifier.

A certificate is a chain of steps, each either a change of generators
(a unipotent automorphism fixing the base, conjugating the differential and
the comultiplication) or a DG homotopy through the interval algebra
Lambda(t, dt).  Every step records the full generator images of its result,
so the verifier checks each step against the recorded states alone: a
change of generators phi by its shape, the degrees of the recorded images
(before anything is substituted into them) and the intertwining identities
phi D' = D phi and (phi (x) phi) C' = C phi, which need neither phi^-1 nor
a recomputed state; a homotopy by its maps, its projection condition and
its ends: at t = 0 the current comultiplication, at t = 1 the step's
recorded one.  A certificate holds no truncation degree: the identities
are checked on generators, and its source model takes `RelativeModel`'s
default.  What the verifier shares with the engine is the algebra
itself: `Polynomial`, `apply_images` (which also evaluates t and dt at an
endpoint), `FreeCDGA.d`, `GeneratorTable.on_copy` and the validators of
`model`.  It calls no conjugation helper: not `conjugate`, not `invert`.
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
)
from .dga import EngineError, Verdict
from .model import (
    Comultiplication,
    RelativeModel,
    tail_shape_verdict,
    validate_comultiplication,
    validate_input,
    validate_relative_model,  # unused here, kept bound: perfbench/layertrace.py wraps it
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


def evaluate_interval(table: GeneratorTable, p: Polynomial, value: int) -> Polynomial:
    """Evaluate t at 0 or 1 and dt at 0."""
    return apply_images(
        {table.t.id: Polynomial.constant(value), table.dt.id: Polynomial.zero()}, p
    )


@dataclass
class DGHomotopy:
    """Generator images in the tensor square extended by Lambda(t, dt); its
    ends are the comultiplications before and after its step."""

    images: dict[int, Polynomial]


def verify_homotopy(
    model: RelativeModel, homotopy: DGHomotopy,
    start: Mapping[str, Polynomial], end: Mapping[str, Polynomial],
) -> Verdict:
    """A DG map to the interval-extended tensor square, fixing the base,
    equal to `start` at t = 0 and to `end` at t = 1, and compatible with the
    projections: no image has a component over the base and the interval
    alone (a condition of its own, not the tail shape of
    `model.tail_shape_verdict`)."""
    table = model.table
    target = model.homotopy_cdga()
    allowed = {"base", "w0", "w1", "interval"}
    for gen in table.fiber:
        image = homotopy.images.get(gen.id)
        if image is None:
            return Verdict.failed(f"homotopy image missing for {gen.display()}")
        if not image.is_homogeneous_of_degree(gen.degree):
            return Verdict.failed(
                f"homotopy image of {gen.display()} is not degree-preserving", image
            )
        if not image.spaces() <= allowed:
            return Verdict.failed(
                f"homotopy image of {gen.display()} leaves the target algebra", image
            )
        pure = Polynomial(
            {m: c for m, c in image.terms.items()
             if all(g.space in ("base", "interval") for g, _ in m)}
        )
        if pure:
            return Verdict.failed(
                f"homotopy image of {gen.display()} has a component over the base "
                "(projection compatibility fails)", pure
            )
        for value, state, label in ((0, start, "current"), (1, end, "recorded")):
            expected = state.get(gen.name)
            if expected is None:
                return Verdict.failed(
                    f"{label} comultiplication image missing for {gen.display()}"
                )
            actual = evaluate_interval(table, image, value)
            if actual != expected:
                return Verdict.failed(
                    f"homotopy at t={value} differs from the {label} comultiplication "
                    f"at {gen.display()}", actual - expected
                )
    for gen in table.fiber:
        lhs = apply_images(homotopy.images, model.D(gen))
        rhs = target.d(homotopy.images[gen.id])
        if lhs != rhs:
            return Verdict.failed(
                f"homotopy does not commute with the differentials at "
                f"{gen.display()}", lhs - rhs
            )
    return Verdict.passed()


@dataclass
class CertificateStep:
    """One link of the chain, with the full resulting generator images."""

    action: ChangeOfGenerators | DGHomotopy
    d_after: dict[str, Polynomial]
    c_after: dict[str, Polynomial]
    note: str = ""
    stage: str = ""  # which pipeline pass produced the step (metadata)

    @property
    def kind(self) -> str:
        if isinstance(self.action, ChangeOfGenerators):
            return "change_of_generators"
        return "homotopy"


@dataclass
class EquivalenceCertificate:
    """Everything needed to replay a chain of equivalences from scratch."""

    table: GeneratorTable
    d_base: dict[str, Polynomial]
    source_d: dict[str, Polynomial]
    source_c: dict[str, Polynomial]
    target_d: dict[str, Polynomial]
    target_c: dict[str, Polynomial]
    steps: list[CertificateStep] = field(default_factory=list)

    def source_model(self) -> tuple[RelativeModel, Comultiplication]:
        model = RelativeModel(self.table, self.d_base, self.source_d)
        return model, Comultiplication(self.table, self.source_c)


def snapshot(model: RelativeModel, comul: Comultiplication) -> tuple[dict, dict]:
    return dict(model.d_fiber), dict(comul.images)


def new_certificate(
    model: RelativeModel, comul: Comultiplication
) -> EquivalenceCertificate:
    d_images, c_images = snapshot(model, comul)
    return EquivalenceCertificate(
        table=model.table,
        d_base=dict(model.d_base),
        source_d=d_images,
        source_c=c_images,
        target_d=d_images,
        target_c=c_images,
    )


def _verify_change(
    model: RelativeModel, comul: Comultiplication, phi: ChangeOfGenerators,
    d_after: Mapping[str, Polynomial], c_after: Mapping[str, Polynomial],
) -> Verdict:
    """phi is unipotent and fixes the base, phi(D'(w)) = D(phi(w)) in the
    total algebra and (phi (x) phi)(C'(w)) = C(phi(w)) in the tensor square.

    Since phi is then an automorphism, the identities force D' and C' to be
    the conjugates of a valid state, so neither needs re-validation.  They
    also force the degrees of D'(w) and C'(w), which are checked first: a
    substitution into an image of unchecked degree has no bound."""
    verdict = phi.shape_verdict(model)
    if not verdict.ok:
        return verdict
    for gen in model.table.fiber:
        for label, recorded, degree in (("D", d_after, gen.degree + 1),
                                        ("C", c_after, gen.degree)):
            image = recorded.get(gen.name, Polynomial.zero())
            if not image.is_homogeneous_of_degree(degree):
                return Verdict.failed(f"recorded {label}({gen.display()}) is not "
                                      f"homogeneous of degree {degree}", image)
    total = model.total_cdga()
    square = {**phi.images, **model.table.on_copy(phi.images, 1)}
    for gen in model.table.fiber:
        lhs = phi.apply(d_after.get(gen.name, Polynomial.zero()))
        rhs = total.d(phi.image(gen))
        if lhs != rhs:
            return Verdict.failed(
                f"change of generators does not intertwine the differentials at "
                f"{gen.display()}", lhs - rhs
            )
        image = c_after.get(gen.name)
        if image is None:
            return Verdict.failed(f"recorded comultiplication image missing for "
                                  f"{gen.display()}")
        lhs = apply_images(square, image)
        rhs = comul.apply(phi.image(gen))
        if lhs != rhs:
            return Verdict.failed(
                f"change of generators does not intertwine the comultiplications "
                f"at {gen.display()}", lhs - rhs
            )
    return Verdict.passed()


def _verify_homotopy_step(
    model: RelativeModel, comul: Comultiplication, homotopy: DGHomotopy,
    d_after: Mapping[str, Polynomial], c_after: Mapping[str, Polynomial],
) -> Verdict:
    """A valid homotopy from the current comultiplication to the recorded
    one, which is valid, with the differential unchanged."""
    verdict = verify_homotopy(model, homotopy, comul.images, c_after)
    if not verdict.ok:
        return verdict
    check = validate_comultiplication(model, Comultiplication(model.table, c_after))
    if not check.ok:
        return Verdict.failed("homotopy endpoint is invalid: " + check.failures[0])
    if d_after != model.d_fiber:
        return Verdict.failed("recorded differential differs from the current one")
    return Verdict.passed()


def verify_equivalence(cert: EquivalenceCertificate) -> Verdict:
    """Validate the source, check every step against its recorded result,
    and compare the last recorded state with the declared target."""
    model, comul = cert.source_model()
    check = validate_input(model, comul)
    if not check.ok:
        return check
    for index, step in enumerate(cert.steps):
        check_step = (_verify_change if isinstance(step.action, ChangeOfGenerators)
                      else _verify_homotopy_step)
        verdict = check_step(model, comul, step.action, step.d_after, step.c_after)
        if not verdict.ok:
            return Verdict.failed(
                f"step {index}: " + verdict.failures[0], verdict.witness, index
            )
        if step.d_after != model.d_fiber:
            model = model.with_fiber_differential(step.d_after)
        comul = Comultiplication(cert.table, step.c_after)
    if snapshot(model, comul) != (cert.target_d, cert.target_c):
        return Verdict.failed("the chain does not reach the declared target")
    return Verdict.passed()


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
