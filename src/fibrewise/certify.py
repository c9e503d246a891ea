"""Certificates of equivalence and their independent verifier.

A certificate is a chain of steps, each either a change of generators
(a unipotent automorphism fixing the base, conjugating the differential and
the comultiplication) or a DG homotopy through the interval algebra
Lambda(t, dt).  Every step records the full generator images of its result,
so the verifier can replay the chain from the source data alone, recompute
each conjugation, re-check each homotopy, and compare against the recorded
states exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
    verdict = phi.shape_verdict(model)
    if not verdict.ok:
        raise AlgebraError("not a valid change of generators: " + verdict.failures[0])
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


def tensor_square_images(
    table: GeneratorTable, images: Mapping[int, Polynomial]
) -> dict[int, Polynomial]:
    """(phi (x) phi) on the tensor square: first-copy generators through phi
    and second-copy generators through the shifted phi."""
    shift = table.shift_images({0: 1})
    out: dict[int, Polynomial] = {}
    for gen in table.fiber:
        image = images.get(gen.id)
        if image is None:
            continue
        out[gen.id] = image
        out[table.copy(gen, 1).id] = apply_images(shift, image)
    return out


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
    square_inv = tensor_square_images(table, phi_inv.images)
    c_images = comul.as_images()
    new_c: dict[str, Polynomial] = {}
    for gen in table.fiber:
        through = apply_images(c_images, phi.image(gen))
        new_c[gen.name] = apply_images(square_inv, through)
    new_comul = Comultiplication(table, new_c)
    for check, label in (
        (validate_relative_model(new_model), "differential"),
        (validate_comultiplication(new_model, new_comul), "comultiplication"),
    ):
        if not check.ok:
            raise EngineError(
                f"conjugation broke the {label}: {check.failures[0]}"
            )
    return new_model, new_comul


def evaluate_interval(table: GeneratorTable, p: Polynomial, value: int) -> Polynomial:
    """Evaluate t at 0 or 1 and dt at 0."""
    out: dict = {}
    for mono, coeff in p.terms.items():
        scale = Fraction(1)
        kept = []
        dead = False
        for gen, exp in mono:
            if gen.space != "interval":
                kept.append((gen, exp))
            elif gen.name == "dt":
                dead = True
                break
            else:
                scale *= Fraction(value) ** exp
        if dead or not scale:
            continue
        key = tuple(kept)
        total = out.get(key, 0) + coeff * scale
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return Polynomial(out)


@dataclass
class DGHomotopy:
    """Generator images in the tensor square extended by Lambda(t, dt),
    with the declared endpoint comultiplication images at t = 0 and t = 1."""

    images: dict[int, Polynomial]
    psi0: dict[str, Polynomial]
    psi1: dict[str, Polynomial]

    def image(self, gen: Generator) -> Polynomial:
        image = self.images.get(gen.id)
        if image is None:
            raise AlgebraError(f"homotopy image missing for {gen.display()}")
        return image


def verify_homotopy(model: RelativeModel, homotopy: DGHomotopy) -> Verdict:
    """A DG map to the interval-extended tensor square, fixing the base,
    compatible with the projections, with the declared endpoints."""
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
        for value, declared in ((0, homotopy.psi0), (1, homotopy.psi1)):
            expected = declared.get(gen.name)
            if expected is None:
                return Verdict.failed(
                    f"declared endpoint at t={value} missing for {gen.display()}"
                )
            actual = evaluate_interval(table, image, value)
            if actual != expected:
                return Verdict.failed(
                    f"endpoint at t={value} differs from declaration at "
                    f"{gen.display()}", actual - expected
                )
    for gen in table.fiber:
        lhs = apply_images(homotopy.images, model.D(gen))
        rhs = target.d(homotopy.image(gen))
        if lhs != rhs:
            return Verdict.failed(
                f"homotopy does not commute with the differentials at "
                f"{gen.display()}", lhs - rhs
            )
    return Verdict.passed()


@dataclass
class CertificateStep:
    """One link of the chain, with the full resulting generator images."""

    kind: str  # "change_of_generators" | "homotopy"
    change: ChangeOfGenerators | None
    homotopy: DGHomotopy | None
    d_after: dict[str, Polynomial]
    c_after: dict[str, Polynomial]
    note: str = ""
    stage: str = ""  # which pipeline pass produced the step (metadata)


@dataclass
class EquivalenceCertificate:
    """Everything needed to replay a chain of equivalences from scratch."""

    table: GeneratorTable
    base_spec: list[tuple[str, int]]
    fiber_spec: list[tuple[str, int]]
    d_base: dict[str, Polynomial]
    truncation: int
    source_d: dict[str, Polynomial]
    source_c: dict[str, Polynomial]
    target_d: dict[str, Polynomial]
    target_c: dict[str, Polynomial]
    steps: list[CertificateStep] = field(default_factory=list)

    def source_model(self) -> tuple[RelativeModel, Comultiplication]:
        model = RelativeModel(self.table, self.d_base, self.source_d, self.truncation)
        return model, Comultiplication(self.table, self.source_c)


def snapshot(model: RelativeModel, comul: Comultiplication) -> tuple[dict, dict]:
    d_images = {name: p for name, p in model.d_fiber.items() if p}
    c_images = dict(comul.images)
    return d_images, c_images


def new_certificate(
    model: RelativeModel, comul: Comultiplication
) -> EquivalenceCertificate:
    d_images, c_images = snapshot(model, comul)
    return EquivalenceCertificate(
        table=model.table,
        base_spec=[(g.name, g.degree) for g in model.table.base],
        fiber_spec=[(g.name, g.degree) for g in model.table.fiber],
        d_base=dict(model.d_base),
        truncation=model.truncation,
        source_d=d_images,
        source_c=c_images,
        target_d=d_images,
        target_c=c_images,
    )


def verify_equivalence(cert: EquivalenceCertificate) -> Verdict:
    """Replay every step from the certificate's own data: recompute each
    conjugation, verify each homotopy, and compare the recorded states."""
    model, comul = cert.source_model()
    for check in (validate_relative_model(model), validate_comultiplication(model, comul)):
        if not check.ok:
            return Verdict.failed("invalid source model: " + check.failures[0])
    for index, step in enumerate(cert.steps):
        if step.kind == "change_of_generators":
            if step.change is None:
                return Verdict.failed(
                    f"step {index} is missing its change of generators", step=index
                )
            try:
                next_model, next_comul = conjugate(model, comul, step.change)
            except (AlgebraError, EngineError) as exc:
                return Verdict.failed(f"step {index} failed to replay: {exc}", step=index)
        elif step.kind == "homotopy":
            if step.homotopy is None:
                return Verdict.failed(
                    f"step {index} is missing its homotopy", step=index
                )
            if step.homotopy.psi0 != comul.images:
                return Verdict.failed(
                    f"step {index}: homotopy start differs from the current "
                    "comultiplication", step=index
                )
            verdict = verify_homotopy(model, step.homotopy)
            if not verdict.ok:
                return Verdict.failed(
                    f"step {index}: " + verdict.failures[0], verdict.witness, index
                )
            next_model = model
            next_comul = Comultiplication(cert.table, dict(step.homotopy.psi1))
            check = validate_comultiplication(next_model, next_comul)
            if not check.ok:
                return Verdict.failed(
                    f"step {index}: homotopy endpoint is invalid: " + check.failures[0],
                    step=index,
                )
        else:
            return Verdict.failed(f"step {index} has unknown kind {step.kind!r}", step=index)
        got_d, got_c = snapshot(next_model, next_comul)
        if got_d != step.d_after or got_c != step.c_after:
            return Verdict.failed(
                f"step {index}: recorded result differs from the replayed result",
                step=index,
            )
        model, comul = next_model, next_comul
    final_d, final_c = snapshot(model, comul)
    if final_d != cert.target_d or final_c != cert.target_c:
        return Verdict.failed("replayed chain does not reach the declared target")
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
