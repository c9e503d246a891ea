"""Comparison maps, the basic-form solver and its brute-force oracles."""

import itertools
import re

import pytest

from fibrewise import (
    AlgebraError,
    BasicFormError,
    GeneratorTable,
    Polynomial,
    apply_map,
    basic_form_element,
    brute_force_solution_space,
    lemma_kernel,
    solve_basic_form,
)
from fibrewise import propsolver
from fibrewise.propsolver import (
    _same_polynomial_span,
    binomial_product,
    copy_product,
    identity_residual,
    polynomial_span_contains,
)


@pytest.fixture(scope="module")
def table():
    return GeneratorTable(base=[("a", 2)], fiber=[(f"w{i}", 3) for i in range(1, 6)])


def scalar_table():
    return GeneratorTable(base=[], fiber=[(f"w{i}", 3) for i in range(1, 6)])


def test_map_generator_rules(table):
    w1 = table.poly("w1")
    w1p = table.poly("w1", copy=1)
    w2p = table.poly("w2", copy=1)
    w1pp = table.poly("w1", copy=2)
    w2pp = table.poly("w2", copy=2)
    chi = w1 * w2p
    assert apply_map(table, "beta", chi) == (w1 + w1p) * w2pp
    assert apply_map(table, "delta", chi) == w1p * w2pp
    assert apply_map(table, "alpha", chi) == chi
    assert apply_map(table, "gamma", chi) == w1 * (w2p + w2pp)
    # the maps fix the base algebra
    a = table.poly("a")
    assert apply_map(table, "beta", a * chi) == a * ((w1 + w1p) * w2pp)


def test_solve_basic_form_on_generator(table):
    gens = [table.generator("w0", f"w{i}") for i in (1, 2, 3)]
    chi = basic_form_element(table, gens)
    solution = solve_basic_form(table, chi)
    assert solution == {("w1", "w2", "w3"): Polynomial.one()}


def test_solve_basic_form_with_base_coefficients(table):
    a = table.poly("a")
    gens = [table.generator("w0", f"w{i}") for i in (1, 2, 3)]
    gens2 = [table.generator("w0", f"w{i}") for i in (2, 3, 4)]
    chi = (3 * a) * basic_form_element(table, gens) \
        + (a * a) * basic_form_element(table, gens2)
    solution = solve_basic_form(table, chi)
    assert solution == {
        ("w1", "w2", "w3"): 3 * a,
        ("w2", "w3", "w4"): a * a,
    }


def test_solve_basic_form_rejects_identity_failure(table):
    chi = table.poly("w1") * table.poly("w2", copy=1) * table.poly("w3", copy=1)
    with pytest.raises(BasicFormError) as err:
        solve_basic_form(table, chi)
    assert err.value.kind == "identity"
    # the residual is the actual four-map imbalance
    assert err.value.residual == identity_residual(table, chi)


def test_repeated_index_forces_zero(table):
    # chi with subscript sequence (1,1,2): w1 w1' w2 satisfies the identity
    # only when zero, so any nonzero such element is rejected
    chi = table.poly("w1") * table.poly("w1", copy=1) * table.poly("w2")
    with pytest.raises(BasicFormError):
        solve_basic_form(table, chi)
    # and a mixed repeated-index element never appears in a reconstruction:
    # solving a valid element leaves no repeated-index coefficients
    gens = [table.generator("w0", f"w{i}") for i in (1, 2, 3)]
    solution = solve_basic_form(table, basic_form_element(table, gens))
    assert all(len(set(names)) == len(names) for names in solution)


def test_solve_basic_form_requires_length_two(table):
    # a length-1 term cannot use both copies
    for chi in (table.poly("w1"), table.poly("a") * table.poly("w1", copy=1)):
        with pytest.raises(AlgebraError, match="not mixed"):
            solve_basic_form(table, chi)


def test_solve_basic_form_at_length_two():
    # no shape theorem at r = 2: the reconstruction check alone decides
    table = GeneratorTable(base=[("b3", 3)], fiber=[("u", 3), ("v", 3), ("w3", 3)])
    b = table.poly("b3")
    gens = [table.generator("w0", name) for name in ("u", "v")]
    assert solve_basic_form(table, b * basic_form_element(table, gens)) == {("u", "v"): b}
    # both satisfy the four-map identity and are of no basic form: a
    # repeated index, and a lone w_u w'_v
    for chi in (b * table.poly("w3") * table.poly("w3", copy=1),
                table.poly("u") * table.poly("v", copy=1)):
        assert not identity_residual(table, chi)
        with pytest.raises(BasicFormError) as err:
            solve_basic_form(table, chi)
        assert err.value.kind == "reconstruction"


def test_mixed_tensor_validation(table):
    w1, w2, w3 = (table.poly(f"w{i}") for i in (1, 2, 3))
    w1p = table.poly("w1", copy=1)
    for chi, message in (
        (w1 * w2 * w3, "not mixed"),
        (Polynomial.zero(), "must be nonzero"),
        (w1 * w2 * w1p + w2 * w1p, "mixed word lengths [2, 3]"),
    ):
        with pytest.raises(AlgebraError, match=re.escape(message)):
            solve_basic_form(table, chi)


def test_lemma_kernels_closed_forms(table):
    w1 = table.generator("w0", "w1")
    one_seq = [w1]
    assert lemma_kernel(table, "beta=gamma", one_seq) == [binomial_product(table, one_seq)]
    assert lemma_kernel(table, "beta=0", one_seq) == []
    assert lemma_kernel(table, "beta=delta", one_seq) == [copy_product(table, one_seq, 1)]
    sol = lemma_kernel(table, "alpha+beta=gamma", one_seq)
    assert sol == [binomial_product(table, one_seq) - copy_product(table, one_seq, 0)]
    assert sol[0] == table.poly("w1", copy=1)  # a' w' = a'(S - w)
    assert lemma_kernel(table, "beta=gamma+delta", one_seq) == [
        binomial_product(table, one_seq) - copy_product(table, one_seq, 1)
    ]


def test_lemma_kernels_match_brute_force_for_all_small_sequences(table):
    # lemma_kernel internally raises when the closed form disagrees with the
    # brute-force null space, so success here is the comparison
    gens = [table.generator("w0", f"w{i}") for i in range(1, 6)]
    conditions = ("beta=gamma", "beta=0", "beta=delta", "alpha+beta=gamma",
                  "beta=gamma+delta")
    for size in range(1, 5):
        for combo in itertools.combinations(gens, size):
            for condition in conditions:
                lemma_kernel(table, condition, list(combo))


def test_brute_force_r3_full_pool():
    table = scalar_table()
    gens = [table.generator("w0", f"w{i}") for i in (1, 2, 3)]
    space = brute_force_solution_space(table, 3, gens)
    assert len(space) == 1
    assert polynomial_span_contains(space, basic_form_element(table, gens))


def test_brute_force_r3_with_forced_repeat_is_trivial():
    table = scalar_table()
    gens = [table.generator("w0", f"w{i}") for i in (1, 2)]
    assert brute_force_solution_space(table, 3, gens) == []


def test_brute_force_r2_is_strictly_larger():
    # every a w_i w'_j satisfies the identity at length two, so the solution
    # space strictly exceeds the basic-form span (which is empty for r = 2)
    table = scalar_table()
    gens = [table.generator("w0", f"w{i}") for i in (1, 2)]
    space = brute_force_solution_space(table, 2, gens)
    assert len(space) == 4
    chi = table.poly("w1") * table.poly("w2", copy=1)
    assert polynomial_span_contains(space, chi)
    assert identity_residual(table, chi) == Polynomial.zero()


def test_brute_force_refuses_a_basis_above_the_limit(monkeypatch):
    # r = 2 over two odd generators: the four monomials w_i w'_j
    table = scalar_table()
    gens = [table.generator("w0", f"w{i}") for i in (1, 2)]
    monkeypatch.setattr(propsolver, "BRUTE_FORCE_LIMIT", 3)
    with pytest.raises(AlgebraError, match="basis of 4 monomials exceeds the "
                                           "documented limit of 3"):
        brute_force_solution_space(table, 2, gens)
    monkeypatch.setattr(propsolver, "BRUTE_FORCE_LIMIT", 4)
    assert len(brute_force_solution_space(table, 2, gens)) == 4


def test_brute_force_matches_basic_span_r3_r4():
    table = scalar_table()
    gens = [table.generator("w0", f"w{i}") for i in range(1, 6)]
    for r, pool_size in ((3, 3), (3, 4), (4, 4), (4, 5)):
        pool = gens[:pool_size]
        space = brute_force_solution_space(table, r, pool)
        expected = [
            basic_form_element(table, list(combo))
            for combo in itertools.combinations(pool, r)
        ]
        assert _same_polynomial_span(space, expected)


def test_solve_basic_form_round_trip_random():
    import random
    from fractions import Fraction

    table = scalar_table()
    gens = [table.generator("w0", f"w{i}") for i in range(1, 6)]
    rng = random.Random(23)
    for _ in range(25):
        coeffs = {}
        for combo in itertools.combinations(gens, 3):
            if rng.random() < 0.4:
                coeffs[tuple(g.name for g in combo)] = Polynomial.constant(
                    Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                )
        coeffs = {k: v for k, v in coeffs.items() if v}
        chi = Polynomial.zero()
        for names, b in coeffs.items():
            chi = chi + b * basic_form_element(
                table, [table.generator("w0", n) for n in names]
            )
        if not chi:
            continue
        assert solve_basic_form(table, chi) == coeffs
