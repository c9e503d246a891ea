"""Relative Sullivan models and fibrewise comultiplications of models.

A RelativeModel is an inclusion of the base algebra B into B (x) Lambda(W)
with a differential that extends d_B, respects the ordered fiber basis
(each D(w) involves only earlier fiber generators) and has no pure-base
component on fiber generators.  A Comultiplication sends each fiber
generator w to w + w' + (mixed terms) in the tensor square over B and
commutes with the differentials.  The tensor square, cube, and the target
of homotopies are all built over the same generator table via space tags.
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


def default_truncation(table: GeneratorTable) -> int:
    degrees = [g.degree for g in table.base + table.fiber]
    return 2 * max(degrees, default=1) + 2


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
        self.truncation = truncation if truncation is not None else default_truncation(table)
        self.d_base = {name: p for name, p in (d_base or {}).items() if p}
        self.d_fiber = {name: p for name, p in (d_fiber or {}).items() if p}
        for name in self.d_base:
            table.generator("base", name)
        for name in self.d_fiber:
            table.generator("w0", name)
        self._base_cdga: FreeCDGA | None = None
        self._total_cdga: FreeCDGA | None = None
        self._tensor_cdga: dict[int, FreeCDGA] = {}
        self._homotopy_cdga: FreeCDGA | None = None

    # -- differentials -----------------------------------------------------

    def _base_diff(self) -> dict[int, Polynomial]:
        return {
            self.table.generator("base", name).id: p
            for name, p in self.d_base.items()
        }

    def D(self, gen: Generator) -> Polynomial:
        """Differential of a first-copy fiber generator."""
        return self.d_fiber.get(gen.name, Polynomial.zero())

    def base_cdga(self) -> FreeCDGA:
        if self._base_cdga is None:
            self._base_cdga = FreeCDGA(
                self.table, self.table.base, self._base_diff(), self.truncation
            )
        return self._base_cdga

    def total_cdga(self) -> FreeCDGA:
        """B (x) Lambda(W) with the full differential."""
        if self._total_cdga is None:
            diff = self._base_diff()
            for name, p in self.d_fiber.items():
                diff[self.table.generator("w0", name).id] = p
            self._total_cdga = FreeCDGA(
                self.table,
                self.table.base + self.table.fiber,
                diff,
                self.truncation,
            )
        return self._total_cdga

    def tensor_cdga(self, copies: int = 2) -> FreeCDGA:
        """The tensor power over B with `copies` fiber copies; the
        differential acts on each copy by the tag-shifted images of D."""
        cached = self._tensor_cdga.get(copies)
        if cached is not None:
            return cached
        diff = self._base_diff()
        gens = list(self.table.base)
        for copy in range(copies):
            shift = self.table.shift_images({0: copy}) if copy else {}
            for w0 in self.table.fiber:
                gen = self.table.copy(w0, copy)
                gens.append(gen)
                image = self.D(w0)
                if image:
                    diff[gen.id] = apply_images(shift, image) if copy else image
        cdga = FreeCDGA(self.table, gens, diff, self.truncation)
        self._tensor_cdga[copies] = cdga
        return cdga

    def homotopy_cdga(self) -> FreeCDGA:
        """Tensor square extended by the interval algebra (t, dt)."""
        if self._homotopy_cdga is None:
            square = self.tensor_cdga(2)
            diff = dict(square.diff)
            diff[self.table.t.id] = Polynomial.from_generator(self.table.dt)
            self._homotopy_cdga = FreeCDGA(
                self.table,
                square.gens + (self.table.t, self.table.dt),
                diff,
                self.truncation,
            )
        return self._homotopy_cdga

    def with_fiber_differential(self, d_fiber: Mapping[str, Polynomial]) -> RelativeModel:
        new = RelativeModel(self.table, self.d_base, d_fiber, self.truncation)
        new._base_cdga = self.base_cdga()  # base cohomology is unaffected
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

    def apply(self, p: Polynomial) -> Polynomial:
        """Extend over the algebra (identity on base) and apply."""
        return apply_images(self.as_images(), p)

    def left_extension_images(self) -> dict[int, Polynomial]:
        """(C (x) 1): first copy through C, second copy shifted to the third."""
        images = self.as_images()
        images.update(self.table.shift_images({1: 2}))
        return images

    def right_extension_images(self) -> dict[int, Polynomial]:
        """(1 (x) C): second copy through C placed in copies two and three."""
        shift = self.table.shift_images({0: 1, 1: 2})
        images: dict[int, Polynomial] = {}
        for name, p in self.images.items():
            w1 = self.table.generator("w1", name)
            images[w1.id] = apply_images(shift, p)
        return images

    def is_standard(self) -> bool:
        return all(
            self.images.get(g.name, Polynomial.zero())
            == Polynomial.from_generator(g) + Polynomial.from_generator(self.table.copy(g, 1))
            for g in self.table.fiber
        )

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


def validate_relative_model(model: RelativeModel) -> Verdict:
    """Ordered-basis condition, no pure-base components, and d*d = 0."""
    for position, gen in enumerate(model.table.fiber):
        verdict = tail_shape_verdict(
            model, position, f"D({gen.display()})", model.D(gen), gen.degree + 1
        )
        if not verdict.ok:
            return verdict
    return model.total_cdga().check_d_squared()


def validate_comultiplication(model: RelativeModel, comul: Comultiplication) -> Verdict:
    """Counit shape and commutation with the differentials."""
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
        excess = comul.excess(gen)
        if not all(is_mixed_square_monomial(mono) for mono in excess.terms):
            return Verdict.failed(
                f"C({gen.display()}) - {gen.display()} - {gen.display()}' has a term "
                "outside the mixed tensor part (counit shape violation)",
                excess,
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


def check_hypotheses(model: RelativeModel) -> HypothesisReport:
    """Scan for odd base cohomology and even fiber generators."""
    report = HypothesisReport()
    base = model.base_cdga()
    for degree in range(1, model.truncation, 2):
        slice_ = base.cohomology_slice(degree)
        if slice_.complement:
            report.odd_cohomology_violations.append((degree, slice_.complement))
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


@dataclass
class AssociativityReport:
    ok: bool
    witnesses: dict[str, Polynomial] = field(default_factory=dict)
    failures: dict[str, Polynomial] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def check_homotopy_associative(
    model: RelativeModel, comul: Comultiplication
) -> AssociativityReport:
    """Exactness of every associativity defect in the tensor cube.

    The witness for each generator is a deterministic preimage of its
    defect under the cube differential; a failure carries the defect
    reduced against the boundary space.
    """
    cube = model.tensor_cdga(3)
    report = AssociativityReport(True)
    for gen in model.table.fiber:
        defect = associativity_defect(model, comul, gen)
        if not defect:
            report.witnesses[gen.name] = Polynomial.zero()
            continue
        if cube.d(defect):
            raise EngineError(
                f"associativity defect of {gen.display()} is not a cycle"
            )
        preimage = cube.solve_preimage(defect)
        if preimage is None:
            report.ok = False
            slice_ = cube.cohomology_slice(defect.homogeneous_degree())
            report.failures[gen.name] = slice_.reduce(defect)
        else:
            report.witnesses[gen.name] = preimage
    return report
