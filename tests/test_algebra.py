"""Canonical form, Koszul signs, products, degreewise bases and the
coefficient rule."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fibrewise import (
    AlgebraError,
    FreeCDGA,
    GeneratorTable,
    InvalidModelError,
    Polynomial,
    RelativeModel,
    hopf_normalize,
    linalg,
    ls_normalize,
    normalize_monomial,
)
from fibrewise import io as fio
from fibrewise.algebra import (
    apply_images,
    is_mixed_square_monomial,
    monomial_display,
    monomial_key,
    monomial_word_length,
    split_monomial,
)

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


WORD_LENGTHS = (0, 1, 2, 3, 4, None)


def test_bounded_basis_is_the_filtered_full_basis_on_golden_models():
    # every degree up to the truncation, over the base, total, square and
    # cube generators, every word-length bound from 0 to 4 and none, with
    # no lower bound or at least one or two fiber factors, asked in a
    # shuffled order so that the memo is filled out of order
    rng = random.Random(31)
    for path in sorted(GOLDEN.glob("*.model.json")):
        model = fio.parse_model(json.loads(path.read_text(encoding="utf-8")))[0]
        top = model.truncation
        for copies in range(4):
            gens = model.tensor_cdga(copies).gens
            full = [[(m, monomial_word_length(m)) for m in util.basis_by_recursion(gens, degree)]
                    for degree in range(top + 1)]
            asks = [(degree, least, most) for degree in range(top + 1)
                    for least in (0, 1, 2) for most in WORD_LENGTHS]
            rng.shuffle(asks)
            for degree, least, most in asks:
                expected = tuple(m for m, length in full[degree]
                                 if least <= length and (most is None or length <= most))
                got = model.table.monomial_basis(degree, gens, most, min_word_length=least)
                assert got == expected, (path.name, copies, degree, least, most)
            # the products oracle of the ladder test agrees where both run
            for most in (0, 1, 2):
                products = util.bounded_bases_by_products(gens, top, most)
                for degree in range(top + 1):
                    assert products[degree] == tuple(
                        m for m, length in full[degree] if length <= most)


def test_bounded_basis_on_the_ladder():
    # L(8): the base and total algebras at every bound against the filtered
    # full basis; the square and the cube (540,631 and 5,877,107 monomials
    # below the truncation) at bounds 0-2 against their products
    model = util.ladder_model(8)
    table, top = model.table, model.truncation
    for copies in range(4):
        gens = model.tensor_cdga(copies).gens
        if copies < 2:
            for degree in range(top + 1):
                full = util.basis_by_recursion(gens, degree)
                for most in WORD_LENGTHS:
                    assert table.monomial_basis(degree, gens, most) == tuple(
                        m for m in full if most is None or monomial_word_length(m) <= most)
        else:
            for most in (0, 1, 2):
                products = util.bounded_bases_by_products(gens, top, most)
                for degree in range(top + 1):
                    assert table.monomial_basis(degree, gens, most) == products[degree]


def test_basis_is_enumerated_in_monomial_key_order():
    # no sort follows the enumeration, so it must itself yield monomial_key
    # order: seeded tables of mixed parities and degrees, over random subsets
    # of the base and the three fiber copies, degrees asked out of order
    rng = random.Random(28)
    for _ in range(12):
        table = GeneratorTable(
            base=[(f"b{i}", rng.randint(1, 5)) for i in range(rng.randint(1, 3))],
            fiber=[(f"f{i}", rng.randint(1, 5)) for i in range(rng.randint(1, 3))])
        gens = list(table.all_generators)
        rng.shuffle(gens)
        gens = gens[:rng.randint(2, len(gens))]
        degrees = list(range(11))
        rng.shuffle(degrees)
        for degree in degrees:
            expected = sorted(util.enumerate_basis_oracle(gens, degree), key=monomial_key)
            assert list(table.monomial_basis(degree, gens)) == expected, degree


def test_basis_refuses_the_degree_zero_generator_t():
    # a degree-0 generator would make every basis infinite: a table refuses
    # one in the base and in the fiber
    table = GeneratorTable(base=[("x", 2)], fiber=[("u", 3)])
    gens = RelativeModel(table).tensor_cdga(2).gens
    assert table.monomial_basis(3, gens)
    assert all(gen.degree >= 1 for gen in table.all_generators)
    for degree in (0, -1):
        with pytest.raises(AlgebraError, match="degree >= 1"):
            GeneratorTable(base=[("c", degree)], fiber=[])
        with pytest.raises(AlgebraError, match="degree >= 1"):
            GeneratorTable(base=[], fiber=[("c", degree)])


def test_split_monomial_cuts_where_the_two_scans_split():
    # base factors come first in the canonical order, so the cut at the
    # first factor outside the base keeps what the two scans kept
    model = util.ladder_model(5)
    gens = model.tensor_cdga(3).gens
    split = 0
    for degree in range(model.truncation + 1):
        for mono in model.table.monomial_basis(degree, gens):
            base = tuple((g, e) for g, e in mono if g.space == "base")
            rest = tuple((g, e) for g, e in mono if g.space != "base")
            assert split_monomial(mono) == (base, rest)
            split += bool(base) and bool(rest)
    assert split


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


# -- the coefficient rule ------------------------------------------------------------
#
# A coefficient is an int when integral and a Fraction only for a denominator
# above 1.  Each operation is checked against an oracle computing on
# all-Fraction term dicts (`util.fraction_*`): the same term dict, the same
# document, and every coefficient of the result under the rule.

RULE_POOL = (1, -1, 2, -2, 3, Fraction(4, 2), Fraction(1, 2), Fraction(-3, 4))


def _rule_algebra():
    """A free algebra whose differential has ints, halves and -3/4."""
    table = GeneratorTable(base=[("x", 2), ("y", 3)], fiber=[("u", 3), ("e", 2), ("w", 5)])
    x, y, u, e = (table.poly(name) for name in ("x", "y", "u", "e"))
    diff = {
        table.generator("base", "y").id: 2 * x * x,
        table.generator("w0", "u").id: Fraction(1, 2) * x * x,
        table.generator("w0", "w").id: Fraction(-3, 4) * x * x * x + 2 * y * u - x * e * e,
    }
    gens = table.base + table.fiber
    return table, FreeCDGA(table, gens, diff, truncation=12)


def _rule_draw(rng, table, gens, degree, max_terms=3):
    basis = table.monomial_basis(degree, gens)
    if not basis:
        return Polynomial.zero()
    monos = rng.sample(basis, min(len(basis), rng.randint(1, max_terms)))
    return Polynomial({mono: rng.choice(RULE_POOL) for mono in monos})


def _assert_as_oracle(got, oracle_terms):
    assert all(util.is_rule_coefficient(c) for c in got.terms.values()), got.terms
    assert got.terms == oracle_terms
    assert fio.polynomial_to_doc(got) == fio.polynomial_to_doc(Polynomial._of(oracle_terms))


def test_coefficients_follow_the_rule_against_the_fraction_oracle():
    rng = random.Random(30)
    table, cdga = _rule_algebra()
    gens = cdga.gens
    for _ in range(150):
        p = _rule_draw(rng, table, gens, rng.randint(2, 7))
        q = _rule_draw(rng, table, gens, rng.randint(2, 7))
        fp, fq = util.fraction_terms(p), util.fraction_terms(q)
        value = rng.choice(RULE_POOL + (0, Fraction(2, 3)))
        _assert_as_oracle(p, fp)
        _assert_as_oracle(p * q, util.fraction_product(fp, fq))
        _assert_as_oracle(p + q, util.fraction_sum(fp, fq))
        _assert_as_oracle(p + q.scale(-1), util.fraction_sum(fp, util.fraction_scale(fq, -1)))
        _assert_as_oracle(p.scale(value), util.fraction_scale(fp, value))
        exponent = rng.randint(0, 3)
        _assert_as_oracle(p ** exponent, util.fraction_power(fp, exponent))
        images = {gen.id: _rule_draw(rng, table, gens, gen.degree, 2)
                  for gen in rng.sample(gens, 2)}
        _assert_as_oracle(
            apply_images(images, p),
            util.fraction_apply_images(
                {gid: util.fraction_terms(image) for gid, image in images.items()}, fp))
        _assert_as_oracle(cdga.d(p), util.fraction_d(cdga, fp))
    # halves that sum to an integer leave an int
    half = Polynomial.constant(Fraction(1, 2))
    assert type((half + half).terms[()]) is int
    assert type((half * Polynomial.constant(2)).terms[()]) is int
    assert type(half.scale(Fraction(-4, 2)).terms[()]) is int


def _assert_vector_as_oracle(got, oracle):
    assert all(util.is_rule_coefficient(c) for c in got.values()), got
    assert got == oracle


def test_elimination_follows_the_rule_against_the_fraction_oracle():
    rng = random.Random(31)
    _, cdga = _rule_algebra()
    matrices = [(cdga._d_columns(k), len(cdga.basis(k + 1))) for k in range(2, 9)]
    for _ in range(40):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        columns = [{i: rng.choice(RULE_POOL)
                    for i in rng.sample(range(nrows), rng.randint(0, nrows))}
                   for _ in range(ncols)]
        matrices.append((columns, nrows))
    for columns, nrows in matrices:
        elimination = linalg.eliminate(columns)
        reachable = linalg.combine(
            columns, {j: rng.choice(RULE_POOL) for j in range(len(columns))})
        arbitrary = {i: rng.choice(RULE_POOL) for i in range(nrows) if rng.random() < 0.5}
        for target in (reachable, arbitrary):
            kernel, preimage = util.fraction_column_solve(columns, nrows, target)
            assert len(kernel) == len(elimination.kernel)
            for got, oracle in zip(elimination.kernel, kernel):
                _assert_vector_as_oracle(got, oracle)
            got = elimination.preimage(target)
            if preimage is None:
                assert got is None
            else:
                _assert_vector_as_oracle(got, preimage)
        for column, source in elimination.pivots.values():
            assert all(util.is_rule_coefficient(c) for c in column.values())
            assert all(util.is_rule_coefficient(c) for c in source.values())


def test_a_pivot_of_three_inverts_to_a_fraction():
    elimination = linalg.eliminate([{0: 3}, {0: 1, 1: -1}])
    column, source = elimination.pivots[0]
    assert column == {0: 1} and type(column[0]) is int
    assert source == {0: Fraction(1, 3)} and type(source[0]) is Fraction
    third = elimination.preimage({0: 1})
    assert third == {0: Fraction(1, 3)} and type(third[0]) is Fraction
    one = elimination.preimage({0: 3})
    assert one == {0: 1} and type(one[0]) is int
    # a unit pivot keeps the whole elimination in ints
    unit = linalg.eliminate([{0: -1, 1: 2}, {0: 2, 1: -4}])
    assert unit.kernel == [{1: 1, 0: 2}]
    assert all(type(c) is int for c in unit.kernel[0].values())
    column, source = unit.pivots[0]
    assert column == {0: 1, 1: -2} and source == {0: -1}
    assert all(type(c) is int for c in (*column.values(), *source.values()))


def test_coefficients_refuse_floats_and_store_no_bool():
    with pytest.raises(AlgebraError):
        Polynomial({(): 0.5})
    with pytest.raises(AlgebraError):
        Polynomial.constant(1).scale(2.0)
    stored = Polynomial({(): True}).terms[()]
    assert stored == 1 and type(stored) is int
    stored = Polynomial({(): Fraction(4, 2)}).terms[()]
    assert stored == 2 and type(stored) is int


def _polynomials_of_result(model, comul, result):
    """Every polynomial a pipeline run holds: the model, the certificate's
    target, Phi and eta, the obstruction witness."""
    yield from model.d_fiber.values()
    yield from model.d_base.values()
    yield from comul.images.values()
    cert = result.certificate
    if cert is not None:
        for images in (cert.target_d, cert.target_c, cert.phi.images, cert.eta):
            yield from images.values()
    if result.obstruction is not None:
        yield result.obstruction.class_witness


def test_golden_result_states_follow_the_rule():
    walked = 0
    for path in sorted(GOLDEN.glob("*.model.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        for pipeline in (hopf_normalize, ls_normalize):
            model, comul = fio.parse_model(doc)
            try:
                result = pipeline(model, comul, force=True)
            except InvalidModelError:  # ls on a model that is not homotopy associative
                continue
            for poly in _polynomials_of_result(model, comul, result):
                for coeff in poly.terms.values():
                    assert util.is_rule_coefficient(coeff), (path.name, coeff)
                    walked += 1
    # a certificate holds Phi, the target and eta, not a state per step nor a
    # copy of its model (587 coefficients in all)
    assert walked > 520
