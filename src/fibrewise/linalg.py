"""Exact sparse linear algebra over the rationals.

Vectors and matrix rows are dicts {column index: Fraction} holding only
nonzero entries.  Everything is deterministic: pivots are chosen as the
first usable row in index order, so repeated runs produce identical
echelon forms, kernels and particular solutions.

`rank_mod_p` is the one computation over a finite field: the rank of a
matrix reduced modulo the prime P, in `int` arithmetic.  When no entry has
a denominator divisible by P, that rank is a lower bound for the rank over
the rationals (a minor that is nonzero mod P is nonzero), which is all its
callers use it for.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

Vector = dict[int, Fraction]

P = 2**31 - 1  # the Mersenne prime of `rank_mod_p`


def vec_add(a: Vector, b: Vector, scale: Fraction = Fraction(1)) -> Vector:
    out = dict(a)
    for col, val in b.items():
        total = out.get(col, 0) + val * scale
        if total:
            out[col] = total
        else:
            out.pop(col, None)
    return out


def vec_scale(a: Vector, scale: Fraction) -> Vector:
    if not scale:
        return {}
    return {col: val * scale for col, val in a.items()}


def transpose(columns: list[Vector], nrows: int) -> list[Vector]:
    """Equation rows of the matrix whose columns are `columns`."""
    rows: list[Vector] = [{} for _ in range(nrows)]
    for j, column in enumerate(columns):
        for i, val in column.items():
            rows[i][j] = val
    return rows


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
        row = vec_scale(row, Fraction(1) / row[col])
        for other in work:
            val = other.get(col)
            if val:
                updated = vec_add(other, row, -val)
                other.clear()
                other.update(updated)
        for other in reduced:
            val = other.get(col)
            if val:
                updated = vec_add(other, row, -val)
                other.clear()
                other.update(updated)
        work = [r for r in work if r]
        pivots.append(col)
        reduced.append(row)
    return pivots, reduced


def rank(rows: Iterable[Vector], ncols: int) -> int:
    return len(rref(rows, ncols)[0])


def rank_mod_p(columns: Iterable[Vector]) -> int | None:
    """Rank over F_P of the matrix with these sparse columns, or None when an
    entry's denominator vanishes mod P (the reduction is then undefined).

    Each column is reduced against the pivot columns met so far by its
    smallest row index, so every stored pivot column is 1 at its own pivot
    row and 0 above it.
    """
    pivots: dict[int, dict[int, int]] = {}
    for column in columns:
        vec: dict[int, int] = {}
        for row, value in column.items():
            if value.denominator % P == 0:
                return None
            entry = value.numerator * pow(value.denominator, -1, P) % P
            if entry:
                vec[row] = entry
        while vec:
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                inverse = pow(vec[lead], -1, P)
                pivots[lead] = {row: val * inverse % P for row, val in vec.items()}
                break
            factor = vec[lead]
            for row, val in pivot.items():
                entry = (vec.get(row, 0) - factor * val) % P
                if entry:
                    vec[row] = entry
                else:
                    vec.pop(row, None)
    return len(pivots)


def nullspace(rows: Iterable[Vector], ncols: int) -> tuple[list[int], list[Vector]]:
    """Deterministic kernel basis of the linear map with the given equation
    rows, with its free columns (ascending): vector j has a 1 at free column
    j and a 0 at every other free column."""
    pivots, reduced = rref(rows, ncols)
    pivot_set = set(pivots)
    free_cols: list[int] = []
    basis: list[Vector] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec: Vector = {free: Fraction(1)}
        for pivot, row in zip(pivots, reduced):
            val = row.get(free)
            if val:
                vec[pivot] = -val
        free_cols.append(free)
        basis.append(vec)
    return free_cols, basis


def kernel_coordinates(free_cols: list[int], basis: list[Vector], vec: Vector) -> Vector | None:
    """Coordinates of `vec` in a kernel basis from `nullspace`, or None when
    `vec` is outside its span.

    The coordinates are the entries of `vec` at the free columns; the
    membership test rebuilds `vec` from them by a sparse sum, no elimination.
    """
    coords: Vector = {}
    for j, free in enumerate(free_cols):
        val = vec.get(free)
        if val:
            coords[j] = val
    if combine(basis, coords) != vec:
        return None
    return coords


def combine(basis: list[Vector], coords: Vector) -> Vector:
    """The linear combination sum_j coords[j] * basis[j]."""
    out: Vector = {}
    for j, coeff in coords.items():
        for col, val in basis[j].items():
            out[col] = out.get(col, 0) + coeff * val
    return {col: val for col, val in out.items() if val}


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
