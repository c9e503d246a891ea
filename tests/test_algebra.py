"""Canonical form, Koszul signs, products and degreewise bases."""

import json
import random
from pathlib import Path

import pytest

from fibrewise import (
    AlgebraError,
    GeneratorTable,
    Polynomial,
    RelativeModel,
    normalize_monomial,
)
from fibrewise import io as fio
from fibrewise.algebra import is_mixed_square_monomial, monomial_display, monomial_key

import util

GOLDEN = Path(__file__).parent / "golden"


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
    gens = list(table.base + table.fiber + tuple(table.copy(g, 1) for g in table.fiber))
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
    with pytest.raises(AlgebraError):
        p.homogeneous_degree()


def test_basis_of_degree_fixture(table):
    basis = table.monomial_basis(3, table.base)
    assert [monomial_display(m) for m in basis] == ["b3"]


def test_basis_of_degree_s2_base():
    model = util.s2_base_model()
    basis = model.table.monomial_basis(4, model.table.base)
    assert [monomial_display(m) for m in basis] == ["x^2"]


def test_basis_degree_zero(table):
    basis = table.monomial_basis(0, table.base + table.fiber)
    assert list(basis) == [()]


def test_basis_against_enumeration_oracle():
    table = GeneratorTable(base=[("x", 2), ("y", 3)], fiber=[("u", 1), ("e", 2)])
    gens = table.base + table.fiber
    for degree in range(0, 9):
        expected = util.enumerate_basis_oracle(gens, degree)
        got = table.monomial_basis(degree, gens)
        assert list(got) == list(expected)


def test_basis_equals_recursive_oracle_on_golden_models():
    # every degree up to the truncation, over the base, total, square and
    # cube generators, asked in a shuffled order so that the suffix memo is
    # filled out of degree order
    rng = random.Random(7)
    for path in sorted(GOLDEN.glob("*.model.json")):
        model = fio.parse_model(json.loads(path.read_text(encoding="utf-8")))[0]
        for copies in range(4):
            gens = model.tensor_cdga(copies).gens
            degrees = list(range(model.truncation + 1))
            rng.shuffle(degrees)
            for degree in degrees:
                got = model.table.monomial_basis(degree, gens)
                assert got == util.basis_by_recursion(gens, degree), (path.name, degree)


def test_basis_is_enumerated_in_monomial_key_order():
    # no sort follows the enumeration, so it must itself yield monomial_key
    # order: seeded tables of mixed parities and degrees, over random subsets
    # of the base, the three fiber copies and dt, degrees asked out of order
    rng = random.Random(28)
    for _ in range(12):
        table = GeneratorTable(
            base=[(f"b{i}", rng.randint(1, 5)) for i in range(rng.randint(1, 3))],
            fiber=[(f"f{i}", rng.randint(1, 5)) for i in range(rng.randint(1, 3))])
        gens = [gen for gen in table.all_generators if gen is not table.t]
        rng.shuffle(gens)
        gens = gens[:rng.randint(2, len(gens))]
        degrees = list(range(11))
        rng.shuffle(degrees)
        for degree in degrees:
            expected = sorted(util.enumerate_basis_oracle(gens, degree), key=monomial_key)
            assert list(table.monomial_basis(degree, gens)) == expected, degree


def test_basis_refuses_the_degree_zero_generator_t():
    table = GeneratorTable(base=[("x", 2)], fiber=[("u", 3)])
    gens = RelativeModel(table).tensor_cdga(2).gens
    assert table.monomial_basis(3, gens)  # a basis over gens alone is fine
    for degree in (0, 2, 3):
        with pytest.raises(AlgebraError, match="degree-0 generator"):
            table.monomial_basis(degree, gens + (table.t,))
    with pytest.raises(AlgebraError, match="degree-0 generator"):
        RelativeModel(table, truncation=8).homotopy_cdga().basis(4)
    with pytest.raises(AlgebraError, match="degree >= 1"):
        GeneratorTable(base=[("c", 0)], fiber=[])  # t is the only one


def test_mixed_minimum_counts():
    table = GeneratorTable(base=[("b3", 3)], fiber=[("w3", 3)])
    gens = RelativeModel(table).tensor_cdga(2).gens
    mixed = [m for m in table.monomial_basis(6, gens) if is_mixed_square_monomial(m)]
    assert [monomial_display(m) for m in mixed] == ["w3*w3'"]


def test_serialization_roundtrip_is_bit_identical():
    from fibrewise import io as fio

    table = GeneratorTable(base=[("x", 2)], fiber=[("u", 3), ("v", 3)])
    rng = random.Random(3)
    gens = RelativeModel(table).tensor_cdga(2).gens
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
