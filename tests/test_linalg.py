"""The exact column elimination, and `rref` and `solve` as views of it,
against dense and row-pivoting oracles on seeded sparse rational matrices,
with zero, duplicate and empty columns and rows."""

import random
from fractions import Fraction

from fibrewise import linalg

import util

P = 2_147_483_647  # the prime 2^31 - 1


def _entry(rng):
    """A nonzero rational; one in fifty is the large prime P or 1/P."""
    if rng.random() < 0.02:
        return rng.choice((Fraction(P), Fraction(1, P)))
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 4)), rng.choice((1, 1, 2, 3, 7)))


def _random_matrix(rng):
    """(number of rows, sparse columns); some columns and rows are empty,
    some repeat or scale an earlier one, and a few entries are P or 1/P."""
    nrows, ncols = rng.randint(0, 8), rng.randint(0, 8)
    density = rng.choice((0.0, 0.2, 0.4, 0.8))
    columns = []
    for _ in range(ncols):
        roll = rng.random()
        if roll < 0.15:
            columns.append({})
        elif roll < 0.35 and columns:
            scale = rng.choice((Fraction(1), Fraction(-2), Fraction(1, 3)))
            columns.append(linalg.vec_scale(rng.choice(columns), scale))
        else:
            columns.append({row: _entry(rng) for row in range(nrows)
                            if rng.random() < density})
    rows = util.transpose(columns, nrows)
    for _ in range(rng.randint(0, 3)):
        extra = {} if rng.random() < 0.4 or not rows else linalg.vec_scale(
            rng.choice(rows), rng.choice((1, -1, Fraction(2, 3))))
        rows.insert(rng.randint(0, len(rows)), extra)
    return len(rows), util.transpose(rows, ncols)


def _targets(rng, nrows, columns):
    """An image A.x of random x, a random vector and the zero vector."""
    coords = {j: Fraction(rng.randint(-3, 3)) for j in range(len(columns))}
    image = linalg.combine(columns, {j: c for j, c in coords.items() if c})
    other = {row: Fraction(rng.randint(-2, 2), rng.choice((1, 5)))
             for row in range(nrows) if rng.random() < 0.5}
    return [image, {row: val for row, val in other.items() if val}, {}]


def _typed(vec):
    return {key: (val, type(val)) for key, val in vec.items()}


def test_elimination_equals_the_dense_oracles():
    rng = random.Random(2024)
    exact_targets = inexact_targets = 0
    for _ in range(200):
        nrows, columns = _random_matrix(rng)
        elimination = linalg.eliminate(columns)
        rank = util.dense_rank(columns, nrows)
        assert len(elimination.pivots) == rank
        assert len(elimination.free) == len(columns) - rank
        # the kernel: vector j is 1 at free column j, 0 at the others, and
        # lists its free column first, then its pivots ascending
        free = elimination.free
        assert free == sorted(free)
        for j, vec in enumerate(elimination.kernel):
            assert not linalg.combine(columns, vec)
            assert [vec.get(f, 0) for f in free] == [int(f == free[j]) for f in free]
            keys = list(vec)
            assert keys[0] == free[j] and keys[1:] == sorted(keys[1:])
        assert (free, elimination.kernel) == util.kernel_by_rref(columns, nrows)
        # rref and solve, views of the elimination, equal the row oracles
        # coefficient for coefficient, int or Fraction alike
        rows = util.transpose(columns, nrows)
        pivots, reduced = linalg.rref(rows, len(columns))
        oracle_pivots, oracle_reduced = util.rref_by_rows(rows, len(columns))
        assert pivots == oracle_pivots == sorted(pivots) and len(pivots) == rank
        assert list(map(_typed, reduced)) == list(map(_typed, oracle_reduced))
        for target in _targets(rng, nrows, columns):
            solvable = util.dense_rank(columns + [target], nrows) == rank
            x = elimination.preimage(target)
            assert (x is not None) == solvable
            solved = linalg.solve(rows, target, len(columns))
            expected = util.solve_by_rows(rows, target, len(columns))
            assert x == solved == expected
            assert x is None or _typed(x) == _typed(solved) == _typed(expected)
            if x is not None:
                assert linalg.combine(columns, x) == target
                assert not set(x) & set(free) and list(x) == sorted(x)
                exact_targets += bool(target)
            else:
                inexact_targets += 1
    assert exact_targets > 100 and inexact_targets > 30


def test_coordinates_equal_the_scan_oracle():
    # each of the vector's keys looked up in the free list, against a scan
    # of every free column; the keys come in shuffled, the coordinates leave
    # j ascending
    rng = random.Random(2025)
    placed = refused = 0
    for _ in range(200):
        nrows, columns = _random_matrix(rng)
        elimination = linalg.eliminate(columns)
        kernel = elimination.kernel
        combination = {j: Fraction(rng.randint(-2, 2), rng.choice((1, 3)))
                       for j in range(len(kernel)) if rng.random() < 0.6}
        inside = linalg.combine(kernel, {j: c for j, c in combination.items() if c})
        outside = dict(inside)
        if columns:
            linalg.add_into(outside, {rng.randrange(len(columns)): Fraction(1)}, 1)
        for vec in [*kernel, inside, outside, *_targets(rng, nrows, columns)]:
            keys = list(vec)
            rng.shuffle(keys)
            vec = {key: vec[key] for key in keys}
            coords = elimination.coordinates(vec)
            expected = util.coordinates_by_scan(elimination, vec)
            assert coords == expected
            if coords is None:
                refused += 1
            else:
                assert _typed(coords) == _typed(expected) and list(coords) == sorted(coords)
                placed += bool(coords)
        assert [elimination.coordinates(vec) for vec in kernel] == [
            {j: 1} for j in range(len(kernel))]
    assert placed > 600 and refused > 250


def test_elimination_of_edge_cases():
    empty = linalg.eliminate([])
    assert (empty.pivots, empty.free, empty.kernel) == ({}, [], [])
    assert empty.preimage({}) == {} and empty.preimage({0: Fraction(1)}) is None
    zero = linalg.eliminate([{}, {}])
    assert zero.free == [0, 1] and zero.kernel == [{0: 1}, {1: 1}]
    twice = linalg.eliminate([{1: Fraction(2)}, {1: Fraction(2)}, {0: Fraction(1)}])
    assert twice.free == [1] and list(twice.kernel[0].items()) == [(1, 1), (0, -1)]
    assert list(twice.preimage({0: Fraction(3), 1: Fraction(1)}).items()) == [
        (0, Fraction(1, 2)), (2, 3)]
