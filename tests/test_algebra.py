"""Canonical form, Koszul signs, products and degreewise bases."""

import random

import pytest

from fibrewise import (
    AlgebraError,
    GeneratorTable,
    Polynomial,
    normalize_monomial,
)
from fibrewise.algebra import monomial_display

import util


@pytest.fixture
def table():
    return GeneratorTable(base=[("b3", 3)], fiber=[("w3", 3), ("w5", 5)])


def test_odd_generator_squares_to_zero(table):
    w3 = table.generator("w0", "w3")
    mono, sign = normalize_monomial([(w3, 1), (w3, 1)])
    assert sign == 0 and mono is None
    assert table.poly("w3") * table.poly("w3") == Polynomial.zero()


def test_single_odd_transposition(table):
    w3 = table.generator("w0", "w3")
    w3p = table.generator("w1", "w3")
    mono, sign = normalize_monomial([(w3p, 1), (w3, 1)])
    assert sign == -1
    assert mono == ((w3, 1), (w3p, 1))


def test_three_odd_factors_sign_matches_bubble_sort(table):
    # w5 * b3 * w3 sorts to b3 w3 w5 by two odd-odd transpositions: sign +1
    w5 = table.generator("w0", "w5")
    b3 = table.generator("base", "b3")
    w3 = table.generator("w0", "w3")
    raw = [(w5, 1), (b3, 1), (w3, 1)]
    _, oracle_sign = util.bubble_sort_sign(raw)
    mono, sign = normalize_monomial(raw)
    assert sign == oracle_sign == 1
    assert [g.name for g, _ in mono] == ["b3", "w3", "w5"]


def test_normalize_against_bubble_sort_oracle_randomized(table):
    rng = random.Random(41)
    gens = list(table.base + table.fiber + table.spaces_gens(("w1",)))
    for _ in range(400):
        raw = [(rng.choice(gens), 1) for _ in range(rng.randint(1, 6))]
        word, oracle_sign = util.bubble_sort_sign(raw)
        mono, sign = normalize_monomial(raw)
        assert sign == oracle_sign
        if sign:
            flattened = [g for g, e in mono for _ in range(e)]
            assert flattened == word


def test_normalize_idempotent(table):
    rng = random.Random(7)
    gens = list(table.base + table.fiber)
    for _ in range(100):
        raw = [(rng.choice(gens), 1) for _ in range(rng.randint(1, 4))]
        mono, sign = normalize_monomial(raw)
        if sign == 0:
            continue
        again, sign2 = normalize_monomial(mono)
        assert sign2 == 1 and again == mono


def test_anticommutativity_of_odd_product(table):
    w3, w5 = table.poly("w3"), table.poly("w5")
    assert w3 * w5 + w5 * w3 == Polynomial.zero()


def test_unit_and_mixed_product(table):
    p = table.poly("b3") * table.poly("w3") + 2 * table.poly("w5")
    assert Polynomial.one() * p == p
    b3w3 = table.poly("b3") * table.poly("w3")
    prod = b3w3 * table.poly("w3", copy=1)
    ((mono, coeff),) = prod.terms.items()
    assert coeff == 1
    assert monomial_display(mono) == "b3*w3*w3'"


def test_koszul_commutativity_randomized():
    table = GeneratorTable(
        base=[("x", 2), ("s", 3)], fiber=[("u", 1), ("v", 3), ("e", 2)]
    )
    gens = table.base + table.fiber
    rng = random.Random(11)
    for _ in range(300):
        dp = rng.randint(1, 7)
        dq = rng.randint(1, 7)
        p = util.random_homogeneous(rng, table, gens, dp)
        q = util.random_homogeneous(rng, table, gens, dq)
        lhs = p * q
        rhs = (q * p).scale((-1) ** (dp * dq))
        assert lhs == rhs


def test_polynomial_equality_is_canonical(table):
    w3, w5, b3 = table.poly("w3"), table.poly("w5"), table.poly("b3")
    assert w5 * w3 == -(w3 * w5)
    assert (w3 + w5) - w3 == w5
    assert b3 * (w3 + w5) == b3 * w3 + b3 * w5


def test_homogeneous_parts(table):
    p = table.poly("w3") + table.poly("b3") * table.poly("w5")
    assert p.homogeneous_part(3) == table.poly("w3")
    assert p.homogeneous_part(8) == table.poly("b3") * table.poly("w5")
    with pytest.raises(AlgebraError):
        p.homogeneous_degree()


def test_basis_of_degree_fixture(table):
    basis = table.monomial_basis(3, table.spaces_gens(("base",)))
    assert [monomial_display(m) for m in basis] == ["b3"]


def test_basis_of_degree_s2_base():
    model = util.s2_base_model()
    basis = model.table.monomial_basis(4, model.table.spaces_gens(("base",)))
    assert [monomial_display(m) for m in basis] == ["x^2"]


def test_basis_degree_zero(table):
    basis = table.monomial_basis(0, table.spaces_gens(("base", "w0")))
    assert list(basis) == [()]


def test_basis_against_enumeration_oracle():
    table = GeneratorTable(base=[("x", 2), ("y", 3)], fiber=[("u", 1), ("e", 2)])
    gens = table.base + table.fiber
    for degree in range(0, 9):
        expected = util.enumerate_basis_oracle(gens, degree)
        got = table.monomial_basis(degree, gens)
        assert list(got) == list(expected)


def test_mixed_minimum_counts():
    table = GeneratorTable(base=[("b3", 3)], fiber=[("w3", 3)])
    gens = table.spaces_gens(("base", "w0", "w1"))
    mixed = table.monomial_basis(6, gens, {"w0": 1, "w1": 1})
    assert [monomial_display(m) for m in mixed] == ["w3*w3'"]


def test_serialization_roundtrip_is_bit_identical():
    from fibrewise import io as fio

    table = GeneratorTable(base=[("x", 2)], fiber=[("u", 3), ("v", 3)])
    rng = random.Random(3)
    gens = table.spaces_gens(("base", "w0", "w1"))
    for _ in range(50):
        p = util.random_homogeneous(rng, table, gens, rng.randint(1, 9))
        doc = fio.polynomial_to_doc(p)
        back = fio.polynomial_from_doc(table, doc, "$")
        assert back == p
        assert fio.polynomial_to_doc(back) == doc


def test_reserved_generator_names():
    with pytest.raises(AlgebraError):
        GeneratorTable(base=[("t", 2)], fiber=[])
    with pytest.raises(AlgebraError):
        GeneratorTable(base=[("x", 2)], fiber=[("x", 3)])
