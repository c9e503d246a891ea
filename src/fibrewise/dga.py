"""Differentials by Leibniz extension, degreewise cohomology and exactness.

A FreeCDGA is a list of generators from one GeneratorTable together with a
degree +1 differential given on generators; the differential of anything
else is the graded Leibniz extension.  Cohomology is computed one degree at
a time by exact elimination, producing the cycle splitting Z = E + N
(boundaries plus a deterministically chosen complement) that the
normalization steps rely on.

Each degree k has one record, filled as it is asked for: the basis and its
index, the matrix of d_k by columns (d of each basis monomial in the degree
k+1 basis), its exact column elimination (`linalg.eliminate`), dim H^k and
the cohomology slice.  The elimination of d_k gives the rank of d_k, the
cycles of degree k (its kernel basis, vector j equal to 1 at free column j
and 0 at the other free columns) and the preimages of degree k+1 targets,
so each degree is eliminated at most once per algebra.

dim H^k is counted on the algebra itself, from the same records: dim
Lambda^k - rank d_k - rank d_(k-1) once d_k d_(k-1) = 0 is checked exactly
(`cohomology_dimension`).  So the eliminations that count a degree are the
ones that later solve and split in it.  An algebra with d = 0 (such as the
polynomial base of BG) has H = Lambda, read off the basis size with no
matrix or elimination.  Only a degree with classes needs the algebra's
cohomology slice, which is always built from the per-degree record.

A cycle's coordinates in the cycle basis are its entries at the free
columns, so boundaries and decomposed cycles are written in cycle
coordinates by a read-off and a sparse rebuild that checks it, never by a
solve.  One reduction of the boundaries in cycle coordinates then yields
both the basis of E and the complement N.  `FreeCDGA.split` is the one
exactness move: it solves a cycle first, and only a cycle with no preimage
is decomposed, into its reduced class and a preimage of the rest.
The differential of a monomial g^e rest is built in one term dict by
monomial merges: g^e merged into each term of the cached d(rest), then each
term of dg merged into the lowered monomial g^(e-1) rest.  `FreeCDGA.d`
adds c d(m) over the terms c m of a polynomial into one dict; neither
builds a product polynomial or a scaled copy per term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from . import linalg
from .algebra import (
    AlgebraError,
    Coefficient,
    Generator,
    GeneratorTable,
    Monomial,
    Polynomial,
    _add_terms,
    _merge_monomials,
    _products,
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

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def passed(cls) -> Verdict:
        return cls(True)

    @classmethod
    def failed(cls, message: str, witness: Polynomial | None = None) -> Verdict:
        return cls(False, [message], witness)

    def or_raise(self, error: type[Exception], prefix: str = "") -> None:
        """Raise `error` with the first failure, after `prefix`, unless ok."""
        if not self.ok:
            raise error(prefix + self.failures[0])


@dataclass
class CohomologySlice:
    """One degree of the cycle decomposition Z = E + N.

    E is the space of boundaries, N the chosen complement (so N is a model
    for the cohomology in this degree).  The cycles are the kernel basis of
    the degree's elimination of d, and cycle coordinates are the entries at
    its free columns (`Elimination.coordinates`), so placing a boundary or
    splitting a cycle costs a read-off and a sparse sum, not a solve.
    `boundaries` is the basis of E whose cycle coordinates are the rows of
    the reduced row echelon form of E (`linalg.rref`, one elimination of the
    boundary coordinates); N is spanned by the cycle basis vectors at the
    non-pivot coordinates of that form.  Both choices are deterministic, the
    form being unique; `decompose` clears a cycle's coordinates at its
    pivots (`linalg.clear_pivots`) and `FreeCDGA.split` decomposes by it.
    """

    degree: int
    cycles: list[Polynomial]
    boundaries: list[Polynomial]
    complement: list[Polynomial]
    _record: _Degree = field(repr=False, compare=False)  # basis, index, elimination
    # reduced row echelon form of the boundaries in cycle coordinates
    _boundary_pivots: list[int]
    _boundary_coords: list[linalg.Vector]

    def decompose(self, cycle: Polynomial) -> tuple[Polynomial, Polynomial]:
        """Write a cycle as (boundary part, complement part), exactly."""
        record = self._record
        coords = record.elimination.coordinates(_to_vector(cycle, record.index))
        if coords is None:
            raise AlgebraError("polynomial is not a cycle in this degree")
        # clearing the boundary pivots leaves the complement coordinates
        linalg.clear_pivots(coords, self._boundary_pivots, self._boundary_coords)
        rest = _from_vector(linalg.combine(record.elimination.kernel, coords), record.basis)
        return cycle - rest, rest


def _to_vector(p: Polynomial, index: Mapping[Monomial, int]) -> linalg.Vector:
    vec: linalg.Vector = {}
    for mono, coeff in p.terms.items():
        pos = index.get(mono)
        if pos is None:
            raise AlgebraError(f"monomial {mono!r} outside the expected basis")
        vec[pos] = coeff
    return vec


def _from_vector(vec: linalg.Vector, basis: Sequence[Monomial]) -> Polynomial:
    return Polynomial({basis[i]: v for i, v in vec.items()})


@dataclass
class _Degree:
    """One degree k of a FreeCDGA: basis and index, then, each filled when
    first asked for, d_k by columns, its elimination, dim H^k and slice."""

    basis: tuple[Monomial, ...]
    index: dict[Monomial, int]
    columns: list[linalg.Vector] | None = None
    elimination: linalg.Elimination | None = None
    dimension: int | None = None
    slice: CohomologySlice | None = None


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
        self._d_mono_cache: dict[Monomial, Polynomial] = {}
        self._degrees: dict[int, _Degree] = {}

    # -- differential --------------------------------------------------------

    def d(self, p: Polynomial) -> Polynomial:
        """The sum of c d(m) over the terms c m of `p`, in one term dict."""
        terms: dict[Monomial, Coefficient] = {}
        for mono, coeff in p.terms.items():
            _add_terms(terms, self._d_monomial(mono).terms.items(), coeff)
        return Polynomial._of(terms)

    def _d_monomial(self, mono: Monomial) -> Polynomial:
        """d(g^e rest) = (-1)^(e|g|) g^e d(rest) + e g^(e-1) dg rest, cached
        per monomial and per suffix.  Odd generators have e = 1 and even
        powers g^(e-1) commute with dg.  The head g^e is merged into each
        term of d(rest), then each term of dg into the lowered monomial
        g^(e-1) rest, all in one term dict.  The suffixes not yet cached are
        filled shortest first from the longest one cached, so a long
        monomial costs no recursion."""
        cache = self._d_mono_cache
        cached = cache.get(mono)
        if cached is not None:
            return cached
        if not mono:
            return Polynomial.zero()
        d_rest, start = None, 1
        while start < len(mono):
            d_rest = cache.get(mono[start:])
            if d_rest is not None:
                break
            start += 1
        if d_rest is None:
            d_rest = Polynomial.zero()
        for position in range(start - 1, -1, -1):
            factor = mono[position]
            gen, exp = factor
            head, sign = (factor,), -1 if gen.is_odd else 1
            terms: dict[Monomial, Coefficient] = {}
            # a product with a fixed monomial is injective: no two collide
            for tail, coeff in d_rest.terms.items():
                merged, merge_sign = _merge_monomials(head, tail)
                if merge_sign:
                    terms[merged] = coeff if merge_sign == sign else -coeff
            dg = self.diff.get(gen.id)
            if dg:
                rest = mono[position + 1:]
                lowered = ((gen, exp - 1),) + rest if exp > 1 else rest
                _add_terms(terms, _products(dg.terms, {lowered: exp}))
            d_rest = cache[mono[position:]] = Polynomial._of(terms)
        return d_rest

    # -- bases and vectors -----------------------------------------------------

    def basis(self, degree: int) -> tuple[Monomial, ...]:
        """The monomial basis in `degree`, refused above the truncation."""
        if degree < 0:
            return ()
        self._require_truncated(degree)
        return self.table.monomial_basis(degree, self.gens)

    def _require_truncated(self, degree: int) -> None:
        if degree > self.truncation:
            raise AlgebraError(
                f"degree {degree} is above the truncation degree {self.truncation}"
            )

    def _degree(self, degree: int) -> _Degree:
        """The record of `degree`, made with its basis and index on first use."""
        record = self._degrees.get(degree)
        if record is None:
            basis = self.basis(degree)
            record = _Degree(basis, {mono: i for i, mono in enumerate(basis)})
            self._degrees[degree] = record
        return record

    # -- degreewise linear algebra ----------------------------------------------

    def _d_columns(self, degree: int) -> list[linalg.Vector]:
        """The matrix of d: degree -> degree+1 by columns, one per source
        basis monomial, in the coordinates of the target basis; built once.
        Callers share the columns and must not modify them."""
        record = self._degree(degree)
        if record.columns is None:
            index = self._degree(degree + 1).index
            record.columns = [
                _to_vector(self._d_monomial(mono), index) for mono in record.basis
            ]
        return record.columns

    def _elimination(self, degree: int) -> linalg.Elimination:
        """The exact column elimination of d: degree -> degree+1, built once:
        the cycles of `degree` and the preimages of degree+1 targets."""
        record = self._degree(degree)
        if record.elimination is None:
            record.elimination = linalg.eliminate(self._d_columns(degree))
        return record.elimination

    def cohomology_dimension(self, degree: int) -> int:
        """dim H^degree.  With d = 0 it is the basis size, refused above the
        truncation like `basis`, with no matrix or elimination.  Otherwise it
        is dim Lambda^degree - rank d_degree - rank d_(degree-1), the ranks
        read off the per-degree eliminations once d_degree d_(degree-1) = 0
        is checked exactly (`EngineError` if not), cached per degree; d_degree
        needs the basis of degree + 1, so this is refused from the
        truncation on."""
        if not self.diff:
            return len(self.basis(degree))
        record = self._degree(degree)
        if record.dimension is None:
            here = self._d_columns(degree)
            for column in self._d_columns(degree - 1):
                if linalg.combine(here, column):
                    raise EngineError("boundary vector outside the cycle space")
            record.dimension = (len(record.basis) - len(self._elimination(degree).pivots)
                                - len(self._elimination(degree - 1).pivots))
        return record.dimension

    def cohomology_slice(self, degree: int) -> CohomologySlice:
        record = self._degree(degree)
        if record.slice is not None:
            return record.slice
        elimination = self._elimination(degree)
        cycle_vecs = elimination.kernel
        # the boundaries in cycle coordinates, then one reduction gives the
        # basis of E and the complement at its non-pivots
        coord_rows: list[linalg.Vector] = []
        for column in self._d_columns(degree - 1):
            coords = elimination.coordinates(column)
            if coords is None:
                raise EngineError("boundary vector outside the cycle space")
            coord_rows.append(coords)
        pivots, reduced = linalg.rref(coord_rows, len(cycle_vecs))
        pivot_set, basis = set(pivots), record.basis
        record.slice = CohomologySlice(
            degree=degree,
            cycles=[_from_vector(v, basis) for v in cycle_vecs],
            boundaries=[
                _from_vector(linalg.combine(cycle_vecs, row), basis) for row in reduced
            ],
            complement=[
                _from_vector(v, basis) for j, v in enumerate(cycle_vecs) if j not in pivot_set
            ],
            _record=record,
            _boundary_pivots=pivots,
            _boundary_coords=reduced,
        )
        return record.slice

    def solve_preimage(self, target: Polynomial) -> Polynomial | None:
        """A deterministic eta with d(eta) = target (free variables zero),
        or None when the target represents a nonzero class.  The target must
        be a homogeneous cycle."""
        if not target:
            return Polynomial.zero()
        degree = target.homogeneous_degree()
        if self.d(target):
            raise AlgebraError("preimage target is not a cycle")
        target_vec = _to_vector(target, self._degree(degree).index)
        solution = self._elimination(degree - 1).preimage(target_vec)
        if solution is None:
            return None
        return _from_vector(solution, self._degree(degree - 1).basis)

    def split(self, cycle: Polynomial) -> tuple[Polynomial, Polynomial]:
        """(eta, rest) with d(eta) = cycle - rest and rest the homogeneous
        cycle's class reduced against the boundaries: zero exactly for a
        boundary, which costs one solve and no slice, and equal for cycles
        of equal class."""
        eta = self.solve_preimage(cycle)
        if eta is not None:
            return eta, Polynomial.zero()
        exact, rest = self.cohomology_slice(cycle.homogeneous_degree()).decompose(cycle)
        eta = self.solve_preimage(exact)
        if eta is None:
            raise EngineError("exact part of a cycle has no preimage")
        return eta, rest


# -- spec-level operation wrappers ------------------------------------------------


def cohomology_in_degree(algebra: FreeCDGA, degree: int) -> CohomologySlice:
    if not 0 <= degree <= algebra.truncation - 1:
        raise AlgebraError(
            f"degree {degree} outside the truncated range "
            f"[0, {algebra.truncation - 1}]"
        )
    return algebra.cohomology_slice(degree)
