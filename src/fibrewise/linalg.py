"""Exact sparse linear algebra over the rationals.

Vectors, matrix rows and columns are dicts {index: coefficient} holding
only nonzero entries, each an int or a Fraction (`algebra.coefficient`).
Everything is deterministic.  The one division is a pivot's inverse
(`_inverse`): a unit pivot inverts to an int, so a matrix with unit pivots
is eliminated in int arithmetic alone.

`eliminate` is the one exact elimination: it reduces a matrix's columns,
left to right, against the pivot columns met so far by their smallest row
index.  That gives the rank, the kernel basis on the free columns and the
preimage with the free variables zero, each unique given the free columns.
`rref` reduces equation rows; `solve` is the row-wise reference solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .algebra import Coefficient, coefficient

Vector = dict[int, Coefficient]


def _inverse(v: Coefficient) -> Coefficient:
    """1 / v exactly, under the coefficient rule: a pivot of 1 or -1 is its
    own inverse, any other goes through one Fraction division."""
    if v == 1 or v == -1:
        return v
    return coefficient(Fraction(1) / v)


def add_into(out: Vector, b: Vector, scale: Coefficient) -> None:
    """out += scale * b in place, dropping the entries that cancel."""
    for col, val in b.items():
        total = out.get(col, 0) + val * scale
        if total:
            out[col] = total if type(total) is int else coefficient(total)
        else:
            out.pop(col, None)


def vec_scale(a: Vector, scale: Coefficient) -> Vector:
    out: Vector = {}
    for col, val in a.items():
        val *= scale
        out[col] = val if type(val) is int else coefficient(val)
    return out


def rref(rows: Iterable[Vector], ncols: int) -> tuple[list[int], list[Vector]]:
    """Reduced row echelon form.

    Returns (pivot columns ascending, reduced nonzero rows); row i has its
    leading 1 in pivot column i and zeros in every other pivot column.
    """
    work = [dict(r) for r in rows if r]
    pivots: list[int] = []
    reduced: list[Vector] = []
    for col in range(ncols):
        pivot_row = None
        for i, row in enumerate(work):
            if row.get(col):
                pivot_row = i
                break
        if pivot_row is None:
            continue
        row = work.pop(pivot_row)
        row = vec_scale(row, _inverse(row[col]))
        for other in work + reduced:
            val = other.get(col)
            if val:
                add_into(other, row, -val)
        work = [r for r in work if r]
        pivots.append(col)
        reduced.append(row)
    return pivots, reduced


@dataclass
class Elimination:
    """The column elimination of a matrix A, from `eliminate`.  `pivots`
    maps a leading row to (its reduced column, 1 there and 0 above; the
    combination of source columns giving it).  `kernel[j]` is 1 at free
    column `free[j]` and 0 at the other free columns, its entries listed
    free column first, then pivot columns ascending."""

    pivots: dict[int, tuple[Vector, Vector]]
    free: list[int]
    kernel: list[Vector]

    def _reduce(self, vec: Vector, spent: Vector) -> int | None:
        """Reduce `vec` in place by its smallest row until that row has no
        pivot (returned; None once `vec` is zero), adding the source
        combination taken off to `spent`: old vec = new vec + A . spent."""
        while vec:
            lead = min(vec)
            pivot = self.pivots.get(lead)
            if pivot is None:
                return lead
            column, source = pivot
            factor = vec[lead]
            add_into(vec, column, -factor)
            add_into(spent, source, factor)
        return None

    def coordinates(self, vec: Vector) -> Vector | None:
        """The coordinates of `vec` in the kernel basis, its entries at the
        free columns; None when their sparse sum is not `vec`."""
        coords = {j: vec[free] for j, free in enumerate(self.free) if vec.get(free)}
        return coords if combine(self.kernel, coords) == vec else None

    def preimage(self, target: Vector) -> Vector | None:
        """x with A x = target, zero at the free columns, keys ascending;
        None when the target is outside the column space."""
        spent: Vector = {}
        if self._reduce(dict(target), spent) is not None:
            return None
        return dict(sorted(spent.items()))


def eliminate(columns: Iterable[Vector]) -> Elimination:
    """The exact column elimination of the matrix with these columns: a
    column that reduces to zero is free and gives a kernel vector, any other
    becomes the pivot of its remainder's smallest row."""
    elimination = Elimination({}, [], [])
    for j, column in enumerate(columns):
        vec, spent = dict(column), {}
        lead = elimination._reduce(vec, spent)
        if lead is None:
            elimination.free.append(j)
            elimination.kernel.append(
                {j: 1, **{col: -val for col, val in sorted(spent.items())}})
            continue
        inverse = _inverse(vec[lead])
        source = vec_scale(spent, -inverse)
        source[j] = inverse
        elimination.pivots[lead] = (vec_scale(vec, inverse), source)
    return elimination


def combine(basis: list[Vector], coords: Vector) -> Vector:
    """The linear combination sum_j coords[j] * basis[j]."""
    out: Vector = {}
    for j, coeff in coords.items():
        for col, val in basis[j].items():
            out[col] = out.get(col, 0) + coeff * val
    return {col: val if type(val) is int else coefficient(val)
            for col, val in out.items() if val}


def solve(rows: list[Vector], rhs: Vector, ncols: int) -> Vector | None:
    """One solution of the equation system `rows . x = rhs`, free variables
    set to zero; None when the system is inconsistent."""
    augmented = []
    for i, row in enumerate(rows):
        aug = dict(row)
        val = rhs.get(i)
        if val:
            aug[ncols] = val
        if aug:
            augmented.append(aug)
    pivots, reduced = rref(augmented, ncols + 1)
    solution: Vector = {}
    for pivot, row in zip(pivots, reduced):
        if pivot == ncols:
            return None
        val = row.get(ncols)
        if val:
            solution[pivot] = val
    return solution
