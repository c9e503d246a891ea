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
`rref` and `solve` are views of it: `rref` eliminates the rows as vectors
and clears each pivot row at the later pivots (`clear_pivots`); `solve`
takes the preimage in the elimination of the transposed rows.
"""

from __future__ import annotations

from bisect import bisect_left
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
        free columns, j ascending; None when their sparse sum is not `vec`.
        Each of `vec`'s own keys is looked up in the ascending free list."""
        free, coords = self.free, {}
        for col in sorted(vec):
            j = bisect_left(free, col)
            if j < len(free) and free[j] == col and vec[col]:
                coords[j] = vec[col]
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


def clear_pivots(vec: Vector, pivots: Iterable[int], rows: Iterable[Vector]) -> None:
    """Subtract from `vec` in place each reduced row (row i is 1 at pivot i
    and 0 at the other pivots) times its entry at that pivot, leaving `vec`
    0 at every pivot."""
    for pivot, row in zip(pivots, rows):
        val = vec.get(pivot)
        if val:
            add_into(vec, row, -val)


def rref(rows: Iterable[Vector], ncols: int) -> tuple[list[int], list[Vector]]:
    """Reduced row echelon form of rows with entries in columns 0..ncols-1.

    Returns (pivot columns ascending, reduced nonzero rows); row i has its
    leading 1 in pivot column i and zeros in every other pivot column.  The
    rows are eliminated as vectors led by their smallest column, then each
    pivot row is cleared at the later pivots.
    """
    pivots = eliminate([row for row in rows if row]).pivots
    leads = sorted(pivots)
    reduced = [pivots[lead][0] for lead in leads]
    for i in range(len(leads) - 2, -1, -1):
        clear_pivots(reduced[i], leads[i + 1:], reduced[i + 1:])
    return leads, reduced


# unused in the package, kept bound: perfbench/layertrace.py wraps it
def solve(rows: list[Vector], rhs: Vector, ncols: int) -> Vector | None:
    """One solution of the equation system `rows . x = rhs`, free variables
    set to zero; None when the system is inconsistent."""
    columns: list[Vector] = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, val in row.items():
            columns[j][i] = val
    return eliminate(columns).preimage(rhs)
