"""Relative Sullivan models and fibrewise comultiplications of models.

A RelativeModel is an inclusion of the base algebra B into B (x) Lambda(W)
with a differential that extends d_B (which takes B to B), respects the
ordered fiber basis (each D(w) involves only earlier fiber generators) and
has no pure-base component on fiber generators.  `validate_relative_model`
is the one place that checks all of this, d*d = 0 included; the algebras of
`dga` hold no validity rule.  A Comultiplication sends each fiber
generator w to w + w' + (mixed terms) in the tensor square over B and
commutes with the differentials.  `validate_input` is the one validity
gate of a model pair: the differential first, then the comultiplication.

Every algebra here is a tensor power over B of one model, built over one
generator table by `RelativeModel.tensor_cdga(n)`: B for n = 0, B (x)
Lambda(W) for 1, the square (the target of C) for 2, the cube (where
associativity is decided) for 3.  A certificate's eta lives in the
square too, under the target's differential D = 0.  `GeneratorTable.on_copy`
places a map given on W on a tensor copy by shifting copy tags.
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
from .dga import EngineError, FreeCDGA, Verdict


class RelativeModel:
    """The base algebra, the ordered fiber generators and the differential.

    `d_base` and `d_fiber` map generator names to polynomials; fiber images
    live in the algebra over base + first-copy fiber generators.
    """

    def __init__(
        self,
        table: GeneratorTable,
        d_base: Mapping[str, Polynomial] | None = None,
        d_fiber: Mapping[str, Polynomial] | None = None,
        truncation: int | None = None,
    ):
        self.table = table
        if truncation is None:  # the one default: twice the top generator degree, plus 2
            truncation = 2 * max((g.degree for g in table.base + table.fiber), default=1) + 2
        self.truncation = truncation
        self.d_base = {name: p for name, p in (d_base or {}).items() if p}
        self.d_fiber = {name: p for name, p in (d_fiber or {}).items() if p}
        for name in self.d_base:
            table.generator("base", name)
        for name in self.d_fiber:
            table.generator("w0", name)
        self._powers: dict[int, FreeCDGA] = {}

    # -- differentials -----------------------------------------------------

    def D(self, gen: Generator) -> Polynomial:
        """Differential of a first-copy fiber generator."""
        image = self.d_fiber.get(gen.name)
        return Polynomial.zero() if image is None else image

    def base_cdga(self) -> FreeCDGA:
        return self.tensor_cdga(0)

    def total_cdga(self) -> FreeCDGA:
        """B (x) Lambda(W) with the full differential."""
        return self.tensor_cdga(1)

    def tensor_cdga(self, copies: int = 2) -> FreeCDGA:
        """B (x) Lambda(W)^(x copies): the base for 0, the total algebra for
        1, the square for 2, the cube for 3; D acts on each fiber copy."""
        cdga = self._powers.get(copies)
        if cdga is None:
            table = self.table
            diff = {table.generator("base", name).id: p for name, p in self.d_base.items()}
            d_fiber = {table.generator("w0", name).id: p for name, p in self.d_fiber.items()}
            gens = list(table.base)
            for copy in range(copies):
                gens.extend(table.copy(gen, copy) for gen in table.fiber)
                diff.update(table.on_copy(d_fiber, copy))
            cdga = self._powers[copies] = FreeCDGA(table, gens, diff, self.truncation)
        return cdga

    def with_fiber_differential(self, d_fiber: Mapping[str, Polynomial]) -> RelativeModel:
        new = RelativeModel(self.table, self.d_base, d_fiber, self.truncation)
        new._powers[0] = self.tensor_cdga(0)  # base cohomology is unaffected
        return new

    def fiber_prefix_gens(self, position: int) -> tuple[Generator, ...]:
        """Base generators plus the fiber generators strictly before
        `position` in the ordered basis."""
        return self.table.base + self.table.fiber[:position]


class Comultiplication:
    """Generator images of a fibrewise comultiplication of models."""

    def __init__(self, table: GeneratorTable, images: Mapping[str, Polynomial]):
        self.table = table
        self.images = dict(images)
        for name in self.images:
            table.generator("w0", name)

    @classmethod
    def standard(cls, table: GeneratorTable) -> Comultiplication:
        images = {}
        for gen in table.fiber:
            images[gen.name] = Polynomial.from_generator(gen) + Polynomial.from_generator(
                table.copy(gen, 1)
            )
        return cls(table, images)

    def image(self, gen: Generator) -> Polynomial:
        name = self.table.copy(gen, 0).name
        if name not in self.images:
            raise AlgebraError(f"comultiplication image missing for {name!r}")
        return self.images[name]

    def as_images(self) -> dict[int, Polynomial]:
        return {
            self.table.generator("w0", name).id: p for name, p in self.images.items()
        }

    def left_extension_images(self) -> dict[int, Polynomial]:
        """(C (x) 1): first copy through C, second copy shifted to the third."""
        return {**self.as_images(), **self.table.shift_images({1: 2})}

    def right_extension_images(self) -> dict[int, Polynomial]:
        """(1 (x) C): second copy through C placed in copies two and three."""
        return self.table.on_copy(self.as_images(), 1)

    def is_standard(self) -> bool:
        return self.images == Comultiplication.standard(self.table).images

    def excess(self, gen: Generator) -> Polynomial:
        """C(w) - w - w' (the mixed part when the counit shape holds)."""
        w0 = self.table.copy(gen, 0)
        return (
            self.image(w0)
            - Polynomial.from_generator(w0)
            - Polynomial.from_generator(self.table.copy(gen, 1))
        )


@dataclass
class HypothesisReport:
    """Which normalization hypotheses a model violates."""

    odd_cohomology_violations: list[tuple[int, list[Polynomial]]] = field(default_factory=list)
    even_fiber_generators: list[Generator] = field(default_factory=list)

    @property
    def satisfied(self) -> bool:
        return not self.odd_cohomology_violations and not self.even_fiber_generators

    def describe(self) -> list[str]:
        lines = []
        for degree, classes in self.odd_cohomology_violations:
            reps = ", ".join(repr(c) for c in classes)
            lines.append(
                f"base cohomology is nonzero in odd degree {degree} (classes: {reps})"
            )
        for gen in self.even_fiber_generators:
            lines.append(
                f"fiber generator {gen.display()} has even degree {gen.degree}"
            )
        return lines


def truncation_verdict(model: RelativeModel) -> Verdict:
    """The truncation must exceed the largest fiber degree: the pipelines,
    and the perturbations that feed them, work in every degree up to it."""
    fiber_degree = max((g.degree for g in model.table.fiber), default=0)
    if model.truncation <= fiber_degree:
        return Verdict.failed(
            f"truncation degree {model.truncation} must exceed the largest fiber "
            f"degree {fiber_degree}: the pipelines solve in every degree up to it"
        )
    return Verdict.passed()


def tail_shape_verdict(
    model: RelativeModel, position: int, label: str, tail: Polynomial, degree: int
) -> Verdict:
    """The shape of `tail` (D(w) or phi(w) - w for the fiber generator at
    `position`, shown as `label`): homogeneous of `degree`, no pure-base
    term, and only earlier fiber generators (the ordered-basis condition)."""
    if not tail.is_homogeneous_of_degree(degree):
        return Verdict.failed(f"{label} is not homogeneous of degree {degree}", tail)
    allowed = {g.id for g in model.fiber_prefix_gens(position)}
    for mono in tail.terms:
        if all(g.space == "base" for g, _ in mono):
            return Verdict.failed(f"{label} has a pure-base component", tail)
        for g, _ in mono:
            if g.id not in allowed:
                return Verdict.failed(
                    f"{label} involves {g.display()}, which is not an earlier "
                    "fiber generator (ordered-basis violation)",
                    tail,
                )
    return Verdict.passed()


def validate_base_differential(model: RelativeModel) -> Verdict:
    """d_B, generator by generator in order: each image d(y) homogeneous of
    degree |y| + 1 and in the base algebra B, and d(d(y)) = 0, which the
    first two make a computation in B alone."""
    base = model.base_cdga()
    for gen in base.gens:
        image = base.diff.get(gen.id)
        if image is None:
            continue
        if not image.is_homogeneous_of_degree(gen.degree + 1):
            return Verdict.failed(
                f"d({gen.display()}) is not homogeneous of degree {gen.degree + 1}", image)
        if any(g.space != "base" for mono in image.terms for g, _ in mono):
            return Verdict.failed(f"d({gen.display()}) leaves the base algebra", image)
        square = base.d(image)
        if square:
            return Verdict.failed(f"d*d != 0 at generator {gen.display()}", square)
    return Verdict.passed()


def validate_relative_model(model: RelativeModel) -> Verdict:
    """The one validity check of a model's differential, first failure
    first: the shape of each fiber tail D(w) (`tail_shape_verdict`), then
    d_B (`validate_base_differential`), then d(D(w)) = 0 for each fiber
    generator in order.  A fiber tail's shape already places it in the
    total algebra in the right degree.  Leibniz extends d*d = 0 from the
    generators to the whole algebra."""
    for position, gen in enumerate(model.table.fiber):
        verdict = tail_shape_verdict(
            model, position, f"D({gen.display()})", model.D(gen), gen.degree + 1
        )
        if not verdict.ok:
            return verdict
    verdict = validate_base_differential(model)
    if not verdict.ok:
        return verdict
    total = model.total_cdga()
    for gen in model.table.fiber:
        image = model.d_fiber.get(gen.name)
        if image is None:
            continue
        square = total.d(image)
        if square:
            return Verdict.failed(f"d*d != 0 at generator {gen.display()}", square)
    return Verdict.passed()


def _has_counit_shape(image: Polynomial, w: Generator, w1: Generator) -> bool:
    """C(w) = w + w' + (mixed terms), read on C(w)'s own terms: w and w'
    each with coefficient 1 and every other term mixed.  Neither w nor w'
    is mixed, so this is C(w) - w - w' having only mixed terms."""
    w_mono, w1_mono = ((w, 1),), ((w1, 1),)
    terms = image.terms
    return terms.get(w_mono) == 1 and terms.get(w1_mono) == 1 and all(
        mono == w_mono or mono == w1_mono or is_mixed_square_monomial(mono)
        for mono in terms)


def validate_comultiplication(model: RelativeModel, comul: Comultiplication) -> Verdict:
    """Counit shape and commutation with the differentials.  The counit
    shape is checked on C(w) itself; C(w) - w - w' is built only as the
    witness of a failure."""
    table = model.table
    square = model.tensor_cdga(2)
    images = comul.as_images()
    for gen in table.fiber:
        if gen.name not in comul.images:
            return Verdict.failed(f"missing comultiplication image for {gen.display()}")
        image = comul.images[gen.name]
        if not image.is_homogeneous_of_degree(gen.degree):
            return Verdict.failed(
                f"C({gen.display()}) is not homogeneous of degree {gen.degree}", image
            )
        if not _has_counit_shape(image, gen, table.copy(gen, 1)):
            return Verdict.failed(
                f"C({gen.display()}) - {gen.display()} - {gen.display()}' has a term "
                "outside the mixed tensor part (counit shape violation)",
                comul.excess(gen),
            )
    for gen in table.fiber:
        lhs = square.d(comul.images[gen.name])
        rhs = apply_images(images, model.D(gen))
        if lhs != rhs:
            return Verdict.failed(
                f"C does not commute with the differentials at {gen.display()}",
                lhs - rhs,
            )
    return Verdict.passed()


def validate_input(model: RelativeModel, comul: Comultiplication) -> Verdict:
    """The one validity gate of a model pair, located at the part that fails
    first: `differential: ...`, else `comultiplication: ...`.  C is checked
    only once D has passed: its DG condition substitutes C into D(w), which
    is bounded only once the degrees of D(w) are checked."""
    part, verdict = "differential", validate_relative_model(model)
    if verdict.ok:
        part, verdict = "comultiplication", validate_comultiplication(model, comul)
    if verdict.ok:
        return verdict
    return Verdict.failed(f"{part}: {verdict.failures[0]}", verdict.witness)


def check_hypotheses(model: RelativeModel, top: int | None = None) -> HypothesisReport:
    """Scan for odd base cohomology below degree `top` (default: the
    truncation) and for even fiber generators.

    The pipelines pass `top` = N0 + 1, where N0 = max|w| + 1 - min|w| over
    the fiber generators w is the highest degree a base coefficient they
    split can take (`normalize._screen`), so their report says whether the
    hypotheses hold in every degree a coefficient of the model can take.
    Each odd degree is counted by one rank count on the base algebra
    (`FreeCDGA.cohomology_dimension`), read off the basis size when d = 0.
    The eliminations it makes fill the base's own per-degree records, which
    the steps' base solves then read instead of eliminating again.  Only a
    degree with classes has them computed, by the base's cohomology slice.
    The counts are cached on the base, so a repeated scan of one model is
    free.
    """
    report = HypothesisReport()
    base = model.base_cdga()
    for degree in range(1, model.truncation if top is None else top, 2):
        if base.cohomology_dimension(degree):
            report.odd_cohomology_violations.append(
                (degree, base.cohomology_slice(degree).complement)
            )
    for gen in model.table.fiber:
        if not gen.is_odd:
            report.even_fiber_generators.append(gen)
    return report


def associativity_defect(
    model: RelativeModel, comul: Comultiplication, gen: Generator
) -> Polynomial:
    """(C (x) 1) C(w) - (1 (x) C) C(w) in the tensor cube."""
    image = comul.image(model.table.copy(gen, 0))
    left = apply_images(comul.left_extension_images(), image)
    right = apply_images(comul.right_extension_images(), image)
    return left - right


def check_homotopy_associative(
    model: RelativeModel, comul: Comultiplication
) -> dict[str, Polynomial]:
    """The associativity defects that are not exact in the tensor cube, by
    generator name, each reduced against the boundary space: empty exactly
    when C is homotopy associative."""
    cube = model.tensor_cdga(3)
    failures: dict[str, Polynomial] = {}
    for gen in model.table.fiber:
        defect = associativity_defect(model, comul, gen)
        if not defect:
            continue
        if cube.d(defect):
            raise EngineError(
                f"associativity defect of {gen.display()} is not a cycle"
            )
        if rest := cube.split(defect)[1]:
            failures[gen.name] = rest
    return failures
