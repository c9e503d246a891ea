"""Differentials by Leibniz extension, degreewise cohomology and exactness.

A FreeCDGA is a list of generators from one GeneratorTable together with a
degree +1 differential given on generators; the differential of anything
else is the graded Leibniz extension.  Cohomology is computed one degree at
a time by exact Gaussian elimination, producing the cycle splitting
Z = E + N (boundaries plus a deterministically chosen complement) that the
odd-length normalization steps rely on.

Each degree is eliminated once.  The cycle basis is the kernel basis read
off the reduced row echelon form of d, one vector per free column, equal to
1 at its own free column and 0 at every other one.  So the coordinates of a
cycle in that basis are simply its entries at the free columns: boundaries
and decomposed cycles are written in cycle coordinates by a read-off and a
sparse rebuild that checks it, never by a further solve.  The differential
of a monomial is the graded Leibniz rule peeled off its first factor, with
the differential of the remaining factors served from a cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from . import linalg
from .algebra import (
    AlgebraError,
    Generator,
    GeneratorTable,
    Monomial,
    Polynomial,
    apply_images,  # unused here, kept bound: perfbench/layertrace.py wraps it
)


class EngineError(RuntimeError):
    """An internal invariant broke; indicates a bug, not a bad input."""


@dataclass
class Verdict:
    """Outcome of a structural check, with human-readable failures and an
    optional polynomial witness for the first failure."""

    ok: bool
    failures: list[str] = field(default_factory=list)
    witness: Polynomial | None = None
    failed_step: int | None = None

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def passed(cls) -> Verdict:
        return cls(True)

    @classmethod
    def failed(cls, message: str, witness: Polynomial | None = None,
               step: int | None = None) -> Verdict:
        return cls(False, [message], witness, step)


@dataclass
class CohomologySlice:
    """One degree of the cycle decomposition Z = E + N.

    E is the space of boundaries, N the chosen complement (so N is a model
    for the cohomology in this degree).  The choice of N is deterministic:
    cycle basis vectors at the non-pivot coordinates of the boundary space
    written in cycle coordinates.  Cycle coordinates are the entries at the
    free columns of d (`linalg.kernel_coordinates`), so placing a boundary
    or splitting a cycle costs a read-off and a sparse sum, not a solve.
    """

    degree: int
    cycles: list[Polynomial]
    boundaries: list[Polynomial]
    complement: list[Polynomial]
    _basis: tuple[Monomial, ...]
    _index: dict[Monomial, int]
    _free: list[int]
    _cycle_vecs: list[linalg.Vector]
    # reduced row echelon form of the boundaries in cycle coordinates
    _boundary_pivots: list[int]
    _boundary_coords: list[linalg.Vector]

    @property
    def dim_cohomology(self) -> int:
        return len(self.complement)

    def decompose(self, cycle: Polynomial) -> tuple[Polynomial, Polynomial]:
        """Write a cycle as (boundary part, complement part), exactly."""
        coords = linalg.kernel_coordinates(
            self._free, self._cycle_vecs, _to_vector(cycle, self._index)
        )
        if coords is None:
            raise AlgebraError("polynomial is not a cycle in this degree")
        # clearing the boundary pivots leaves the complement coordinates
        for pivot, row in zip(self._boundary_pivots, self._boundary_coords):
            val = coords.get(pivot)
            if val:
                coords = linalg.vec_add(coords, row, -val)
        rest = _from_vector(linalg.combine(self._cycle_vecs, coords), self._basis)
        return cycle - rest, rest

    def reduce(self, cycle: Polynomial) -> Polynomial:
        """The complement-part of a cycle: its canonical reduced form."""
        return self.decompose(cycle)[1]


def _to_vector(p: Polynomial, index: Mapping[Monomial, int]) -> linalg.Vector:
    vec: linalg.Vector = {}
    for mono, coeff in p.terms.items():
        pos = index.get(mono)
        if pos is None:
            raise AlgebraError(f"monomial {mono!r} outside the expected basis")
        vec[pos] = coeff
    return vec


def _from_vector(vec: linalg.Vector, basis: Sequence[Monomial]) -> Polynomial:
    return Polynomial({basis[i]: Fraction(v) for i, v in vec.items()})


class FreeCDGA:
    """A free graded-commutative algebra with a Leibniz differential."""

    def __init__(
        self,
        table: GeneratorTable,
        gens: Sequence[Generator],
        differential: Mapping[int, Polynomial],
        truncation: int,
    ):
        self.table = table
        self.gens = tuple(sorted(gens, key=lambda g: g.sort_key))
        self.diff = {gid: p for gid, p in differential.items() if p}
        self.truncation = truncation
        self._gen_ids = {g.id for g in self.gens}
        self._d_mono_cache: dict[Monomial, Polynomial] = {}
        self._slice_cache: dict[int, CohomologySlice] = {}
        self._image_rows_cache: dict[int, list[linalg.Vector]] = {}

    # -- differential --------------------------------------------------------

    def d_generator(self, gen: Generator) -> Polynomial:
        return self.diff.get(gen.id, Polynomial.zero())

    def d(self, p: Polynomial) -> Polynomial:
        out = Polynomial.zero()
        for mono, coeff in p.terms.items():
            out = out + self._d_monomial(mono).scale(coeff)
        return out

    def _d_monomial(self, mono: Monomial) -> Polynomial:
        cached = self._d_mono_cache.get(mono)
        if cached is not None:
            return cached
        if not mono:
            return Polynomial.zero()
        # d(g^e rest) = e g^(e-1) dg rest + (-1)^(e|g|) g^e d(rest); odd
        # generators have e = 1 and even powers g^(e-1) commute with dg.
        (gen, exp), rest = mono[0], mono[1:]
        total = self._d_monomial(rest)
        if total:
            sign = -1 if gen.is_odd else 1
            total = Polynomial({mono[:1]: Fraction(sign)}) * total
        dg = self.diff.get(gen.id)
        if dg:
            lowered = ((gen, exp - 1),) + rest if exp > 1 else rest
            total = total + dg * Polynomial({lowered: Fraction(exp)})
        self._d_mono_cache[mono] = total
        return total

    # -- bases and vectors -----------------------------------------------------

    def basis(self, degree: int) -> tuple[Monomial, ...]:
        if degree < 0:
            return ()
        return self.table.monomial_basis(degree, self.gens)

    def _index(self, degree: int) -> dict[Monomial, int]:
        return {mono: i for i, mono in enumerate(self.basis(degree))}

    def contains(self, p: Polynomial) -> bool:
        return all(
            gen.id in self._gen_ids for mono in p.terms for gen, _ in mono
        )

    # -- structural checks -----------------------------------------------------

    def check_d_squared(self) -> Verdict:
        """d(d(g)) = 0 for every generator; Leibniz extends this to the
        whole algebra, which is not re-verified monomial by monomial."""
        for gen in self.gens:
            image = self.diff.get(gen.id)
            if image is None:
                continue
            if not image.is_homogeneous_of_degree(gen.degree + 1):
                return Verdict.failed(
                    f"d({gen.display()}) is not homogeneous of degree {gen.degree + 1}",
                    image,
                )
            if not self.contains(image):
                return Verdict.failed(
                    f"d({gen.display()}) leaves the algebra", image
                )
            square = self.d(image)
            if square:
                return Verdict.failed(
                    f"d*d != 0 at generator {gen.display()}", square
                )
        return Verdict.passed()

    # -- degreewise linear algebra ----------------------------------------------

    def _equation_rows(self, degree: int) -> list[linalg.Vector]:
        """Rows of the matrix of d: degree -> degree+1 (rows are indexed by
        the target basis, columns by the source basis)."""
        source = self.basis(degree)
        target_index = self._index(degree + 1)
        rows: list[linalg.Vector] = [{} for _ in target_index]
        for j, mono in enumerate(source):
            image = self._d_monomial(mono)
            for m, coeff in image.terms.items():
                rows[target_index[m]][j] = coeff
        return rows

    def _image_rows(self, degree: int) -> list[linalg.Vector]:
        """Reduced row basis of d(degree-1 slice) inside the degree slice."""
        cached = self._image_rows_cache.get(degree)
        if cached is not None:
            return cached
        index = self._index(degree)
        vectors = []
        for mono in self.basis(degree - 1):
            image = self._d_monomial(mono)
            if image:
                vectors.append(_to_vector(image, index))
        _, reduced = linalg.rref(vectors, len(index))
        self._image_rows_cache[degree] = reduced
        return reduced

    def cohomology_slice(self, degree: int) -> CohomologySlice:
        cached = self._slice_cache.get(degree)
        if cached is not None:
            return cached
        basis = self.basis(degree)
        free, cycle_vecs = linalg.nullspace(self._equation_rows(degree), len(basis))
        boundary_vecs = self._image_rows(degree) if degree >= 1 else []
        # boundaries in cycle coordinates, then the complement at non-pivots
        coord_rows: list[linalg.Vector] = []
        for bvec in boundary_vecs:
            coords = linalg.kernel_coordinates(free, cycle_vecs, bvec)
            if coords is None:
                raise EngineError("boundary vector outside the cycle space")
            coord_rows.append(coords)
        pivots, reduced = linalg.rref(coord_rows, len(cycle_vecs))
        pivot_set = set(pivots)
        complement_vecs = [
            cvec for j, cvec in enumerate(cycle_vecs) if j not in pivot_set
        ]
        slice_ = CohomologySlice(
            degree=degree,
            cycles=[_from_vector(v, basis) for v in cycle_vecs],
            boundaries=[_from_vector(v, basis) for v in boundary_vecs],
            complement=[_from_vector(v, basis) for v in complement_vecs],
            _basis=basis,
            _index={m: i for i, m in enumerate(basis)},
            _free=free,
            _cycle_vecs=cycle_vecs,
            _boundary_pivots=pivots,
            _boundary_coords=reduced,
        )
        self._slice_cache[degree] = slice_
        return slice_

    def is_cycle(self, p: Polynomial) -> bool:
        return not self.d(p)

    def solve_preimage(self, target: Polynomial) -> Polynomial | None:
        """A deterministic eta with d(eta) = target (free variables zero),
        or None when the target represents a nonzero class.  The target must
        be a homogeneous cycle."""
        if not target:
            return Polynomial.zero()
        degree = target.homogeneous_degree()
        if self.d(target):
            raise AlgebraError("preimage target is not a cycle")
        if degree == 0:
            return None
        rhs = _to_vector(target, self._index(degree))
        source = self.basis(degree - 1)
        solution = linalg.solve(self._equation_rows(degree - 1), rhs, len(source))
        if solution is None:
            return None
        return _from_vector(solution, source)


# -- spec-level operation wrappers ------------------------------------------------


def cohomology_in_degree(algebra: FreeCDGA, degree: int) -> CohomologySlice:
    if not 0 <= degree <= algebra.truncation - 1:
        raise AlgebraError(
            f"degree {degree} outside the truncated range "
            f"[0, {algebra.truncation - 1}]"
        )
    return algebra.cohomology_slice(degree)
