"""Leibniz differentials, cohomology slices, preimage solving."""

import json
import random
from fractions import Fraction

import pytest

from fibrewise import (
    AlgebraError,
    EngineError,
    FreeCDGA,
    GeneratorTable,
    PerturbationSpec,
    Polynomial,
    RelativeModel,
    check_homotopy_associative,
    cohomology_in_degree,
    conjugate,
    Comultiplication,
    ChangeOfGenerators,
    linalg,
    ls_normalize,
    normalize_monomial,
    perturb,
    validate_relative_model,
)
from fibrewise import io as fio
from fibrewise.algebra import apply_images, monomial_key

import util
from test_scan import GOLDEN, golden_models


def test_leibniz_on_fixture_a():
    model, _ = util.fixture_a()
    w5, w3 = model.table.poly("w5"), model.table.poly("w3")
    total = model.total_cdga()
    # d(w5 w3) = (b3 w3) w3 = 0 because the odd square vanishes
    assert total.d(w5 * w3) == Polynomial.zero()
    assert total.d(Polynomial.one()) == Polynomial.zero()


def test_leibniz_hand_value_on_s2_base():
    model = util.s2_base_model()
    x, y = model.table.poly("x"), model.table.poly("y")
    assert model.base_cdga().d(x * y) == x ** 3


def test_leibniz_powers():
    table = GeneratorTable(base=[("x", 2), ("y", 3)], fiber=[])
    x = table.poly("x")
    cdga = FreeCDGA(table, table.base, {table.generator("base", "y").id: x * x},
                    truncation=12)
    y = table.poly("y")
    # d(y x^2) = x^4, d(x^3) = 0
    assert cdga.d(y * x * x) == x ** 4
    assert cdga.d(x ** 3) == Polynomial.zero()


def test_d_squared_vanishes_on_random_elements():
    model = util.s2_base_model(fiber=[("u", 1), ("e", 2)])
    table = model.table
    total = model.total_cdga()
    rng = random.Random(5)
    gens = table.base + table.fiber
    for _ in range(200):
        p = util.random_homogeneous(rng, table, gens, rng.randint(1, 10))
        assert total.d(total.d(p)) == Polynomial.zero()


def test_check_d_squared_pass_and_fail():
    model, _ = util.fixture_a()
    assert validate_relative_model(model).ok
    assert validate_relative_model(util.s2_base_model()).ok
    bad_table = GeneratorTable(base=[("u", 2), ("v", 3)], fiber=[])
    u, v = bad_table.poly("u"), bad_table.poly("v")
    bad = RelativeModel(bad_table, d_base={"u": v, "v": u * u}, truncation=10)
    verdict = validate_relative_model(bad)
    assert not verdict.ok
    assert verdict.failures == ["d*d != 0 at generator u"]


def test_cohomology_dims_fixture_a():
    model, _ = util.fixture_a()
    slice_ = cohomology_in_degree(model.base_cdga(), 3)
    assert (len(slice_.cycles), len(slice_.boundaries), len(slice_.complement)) == (1, 0, 1)
    assert slice_.complement[0] == model.table.poly("b3")


def test_cohomology_s2_base_degree_4_vanishes():
    model = util.s2_base_model()
    slice_ = cohomology_in_degree(model.base_cdga(), 4)
    assert len(slice_.complement) == 0
    # x^2 is the boundary of y, verified by the solver
    x, y = model.table.poly("x"), model.table.poly("y")
    assert model.base_cdga().solve_preimage(x * x) == y


def test_cohomology_degree_zero_is_constants():
    model, _ = util.fixture_a()
    slice_ = cohomology_in_degree(model.base_cdga(), 0)
    assert len(slice_.complement) == 1
    assert slice_.complement[0] == Polynomial.one()


def test_cohomology_respects_truncation():
    model, _ = util.fixture_a()
    with pytest.raises(AlgebraError):
        cohomology_in_degree(model.base_cdga(), model.truncation)


def test_basis_and_preimage_refuse_degrees_above_the_truncation():
    model = util.s2_base_model(truncation=4)
    base = model.base_cdga()
    x = model.table.poly("x")
    assert base.basis(4) == (((model.table.generator("base", "x"), 2),),)
    with pytest.raises(AlgebraError, match="above the truncation degree 4"):
        base.basis(5)
    # x^3 = d(x y) is a cycle of degree 6, whose preimage lies in degree 5
    with pytest.raises(AlgebraError, match="above the truncation degree 4"):
        base.solve_preimage(x ** 3)


def d_columns(cdga, degree):
    """The matrix of d: degree -> degree+1 by columns, built from `cdga.d` of
    each basis monomial (oracle for the assembly inside FreeCDGA)."""
    index = {m: i for i, m in enumerate(cdga.basis(degree + 1))}
    return [
        {index[m]: c for m, c in cdga.d(Polynomial({mono: Fraction(1)})).terms.items()}
        for mono in cdga.basis(degree)
    ]


def test_cohomology_dims_match_dense_rank_oracle():
    model = util.s2_base_model(fiber=[("u", 1), ("e", 2)])
    total = model.total_cdga()
    for degree in range(0, 8):
        slice_ = total.cohomology_slice(degree)
        source = total.basis(degree)
        rank_n = util.dense_rank(d_columns(total, degree), len(total.basis(degree + 1)))
        dim_z = len(source) - rank_n
        assert len(slice_.cycles) == dim_z
        rank_e = util.dense_rank(d_columns(total, degree - 1), len(source))
        assert len(slice_.boundaries) == rank_e
        assert len(slice_.complement) == dim_z - rank_e


def test_solve_preimage_deterministic_and_exact():
    model = util.s2_base_model()
    base = model.base_cdga()
    x = model.table.poly("x")
    eta = base.solve_preimage(x ** 2)
    assert base.d(eta) == x ** 2
    assert base.solve_preimage(Polynomial.zero()) == Polynomial.zero()
    modelA, _ = util.fixture_a()
    assert modelA.base_cdga().solve_preimage(modelA.table.poly("b3")) is None


def test_solve_preimage_rejects_non_cycles():
    model = util.s2_base_model()
    y = model.table.poly("y")
    with pytest.raises(AlgebraError):
        model.base_cdga().solve_preimage(y)


def test_split_cycles_fixture_and_acyclic():
    model, _ = util.fixture_a()
    slice_ = model.base_cdga().cohomology_slice(3)
    assert slice_.complement == [model.table.poly("b3")]
    table = GeneratorTable(base=[("u", 1), ("v", 2)], fiber=[])
    cdga = FreeCDGA(table, table.base,
                    {table.generator("base", "u").id: table.poly("v")}, 10)
    slice2 = cdga.cohomology_slice(2)
    assert slice2.boundaries == [table.poly("v")]
    assert slice2.complement == []
    slice3 = cdga.cohomology_slice(1)
    assert slice3.cycles == [] and slice3.boundaries == [] and slice3.complement == []


def test_split_cycles_decompose_is_exact():
    model = util.s2_base_model(fiber=[("u", 1)])
    base = model.base_cdga()
    x, y = model.table.poly("x"), model.table.poly("y")
    slice_ = base.cohomology_slice(4)
    exact, rest = slice_.decompose(x ** 2)
    assert exact == x ** 2 and rest == Polynomial.zero()
    slice2 = base.cohomology_slice(2)
    exact, rest = slice2.decompose(3 * x)
    assert exact == Polynomial.zero() and rest == 3 * x


def test_split_solves_the_exact_part_and_keeps_the_class():
    # Lambda(x2, y3, p2; dy = x^2): x^2 = d(y) is exact, x p is a class
    table = GeneratorTable(base=[("x", 2), ("y", 3), ("p", 2)], fiber=[])
    x, y, p = (table.poly(name) for name in "xyp")
    cdga = FreeCDGA(table, table.base, {table.generator("base", "y").id: x * x}, 10)
    assert cdga.split(x * x + x * p) == (y, x * p)
    assert cdga.split(x * x) == (y, Polynomial.zero())
    assert cdga.split((x * p).scale(3)) == (Polynomial.zero(), (x * p).scale(3))
    assert cdga.split(Polynomial.zero()) == (Polynomial.zero(), Polynomial.zero())


def test_split_equals_decompose_on_seeded_cycles_of_the_golden_bases():
    rng = random.Random(19)
    outcomes = {True: 0, False: 0}
    for base in (model.base_cdga() for model in golden_models()):
        for degree in range(base.truncation):
            slice_ = base.cohomology_slice(degree)
            if not slice_.cycles:
                continue
            # a boundary, then random combinations of cycles
            draws = [[(b, rng.randint(-3, 3)) for b in slice_.boundaries]]
            draws += [[(c, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                       for c in rng.sample(slice_.cycles, min(3, len(slice_.cycles)))]
                      for _ in range(3)]
            for draw in draws:
                cycle = Polynomial.sum(c.scale(k) for c, k in draw)
                eta, rest = base.split(cycle)
                assert base.d(eta) == cycle - rest
                assert rest == slice_.decompose(cycle)[1]
                exact = base.solve_preimage(cycle) is not None
                assert (not rest) == exact
                outcomes[exact] += 1
    assert min(outcomes.values()) > 20, outcomes


def test_ls_solves_each_exact_odd_excess_coefficient_once_and_builds_no_slice(
        monkeypatch):
    # the golden model whose ls run is one "remove exact part" homotopy
    doc = json.loads((GOLDEN / "exact_odd_excess.model.json").read_text(encoding="utf-8"))
    model, comul = fio.parse_model(doc)
    w = model.table.generator("w0", "w")
    grouped = comul.excess(w).word_length_parts()[3].group_by_fiber_part()
    coefficients = [coeff for _, coeff in sorted(grouped.items(),
                                                 key=lambda kv: monomial_key(kv[0]))]
    solved, slices = [], []
    real_solve, real_slice = FreeCDGA.solve_preimage, FreeCDGA.cohomology_slice
    monkeypatch.setattr(FreeCDGA, "solve_preimage",
                        lambda self, target: solved.append(target) or real_solve(self, target))
    monkeypatch.setattr(FreeCDGA, "cohomology_slice",
                        lambda self, degree: slices.append(degree) or real_slice(self, degree))
    result = ls_normalize(model, comul)
    assert [step.note for step in result.certificate.steps] == [
        "remove exact part of length 3 from C(w)"]
    assert len(coefficients) > 1 and solved == coefficients
    assert slices == []


def _commutes_with_d(source, target, images):
    """f(d(g)) = d(f(g)) on every generator g of `source`, for the algebra map
    f given by generator images (identity where omitted)."""
    return all(
        apply_images(images, source.diff.get(gen.id, Polynomial.zero()))
        == target.d(apply_images(images, Polynomial.from_generator(gen)))
        for gen in source.gens
    )


def test_check_dg_map_identity_and_failure():
    model, _ = util.fixture_a()
    total = model.total_cdga()
    assert _commutes_with_d(total, total, {})
    w3 = model.table.generator("w0", "w3")
    degree_breaking = {w3.id: model.table.poly("w5")}
    assert not degree_breaking[w3.id].is_homogeneous_of_degree(w3.degree)
    assert not _commutes_with_d(total, total, degree_breaking)


def test_check_dg_map_between_conjugated_differentials():
    # Psi(w) = w - p u between D' = Psi^-1 D Psi and D is a DG map
    model = util.contractible_base_model(fiber=[("u", 3), ("w", 5)], truncation=14)
    table = model.table
    comul = Comultiplication.standard(table)
    psi = ChangeOfGenerators(
        {table.generator("w0", "w").id: table.poly("w") - table.poly("p") * table.poly("u")}
    )
    conjugated, _ = conjugate(model, comul, psi)
    assert _commutes_with_d(conjugated.total_cdga(), model.total_cdga(), psi.images)
    assert psi.shape_verdict(model).ok
    # breaking the image with a pure-base term must break the check
    broken = dict(psi.images)
    wid = table.generator("w0", "w").id
    broken[wid] = broken[wid] + table.poly("q") * table.poly("p")
    verdict = ChangeOfGenerators(broken).shape_verdict(model)
    assert not verdict.ok and "pure-base" in verdict.failures[0]


# -- the recursive Leibniz rule against the per-factor sum ---------------------------


def perturbed_contractible_model():
    """A round-trip model whose perturbed fiber differential is nonzero."""
    model = util.contractible_base_model(
        fiber=[("u", 3), ("v", 3), ("z", 3), ("w", 9)], truncation=20
    )
    perturbed, _ = perturb(
        model, Comultiplication.standard(model.table),
        PerturbationSpec(seed=0, mode="change-of-generators"),
    )
    assert perturbed.d_fiber
    return perturbed


def test_d_monomial_matches_oracle_on_wide_base():
    base = util.wide_base_model().base_cdga()
    for degree in range(base.truncation + 1):
        for mono in base.basis(degree):
            assert base._d_monomial(mono) == util.leibniz_by_factors(base, mono)


def test_d_monomial_matches_oracle_on_the_perturbed_wide_base():
    # the basescan shape: the wide base with fiber u3, v5, z7, w9 and a
    # perturbed D, through the total algebra and the square at every degree
    model = util.wide_base_model(fiber=[("u", 3), ("v", 5), ("z", 7), ("w", 9)])
    perturbed, _ = perturb(
        model, Comultiplication.standard(model.table),
        PerturbationSpec(seed=1, max_word_length=3, mode="change-of-generators"),
    )
    assert perturbed.d_fiber
    for copies in (1, 2):
        cdga = perturbed.tensor_cdga(copies)
        for degree in range(perturbed.truncation + 1):
            for mono in cdga.basis(degree):
                assert cdga._d_monomial(mono) == util.leibniz_by_factors(cdga, mono)


def test_d_monomial_matches_oracle_on_tensor_square_and_cube():
    model = perturbed_contractible_model()
    for copies in (2, 3):
        cdga = model.tensor_cdga(copies)
        for degree in range(model.truncation + 1):
            for mono in cdga.basis(degree):
                assert cdga._d_monomial(mono) == util.leibniz_by_factors(cdga, mono)


def test_d_monomial_matches_oracle_on_powers_of_t():
    # square monomials times powers p^k of the even base generator, with or
    # without the odd q = dp, in the square and in the target square
    # (D = 0), where a certificate's eta lives
    model = perturbed_contractible_model()
    table = model.table
    p, q = table.generator("base", "p"), table.generator("base", "q")
    square = model.tensor_cdga(2)
    target = model.with_fiber_differential({}).tensor_cdga(2)
    for degree in range(9):
        for mono in square.basis(degree):
            for power in (1, 2, 3):
                for extra in ([(p, power)], [(p, power), (q, 1)]):
                    full, sign = normalize_monomial(list(mono) + extra)
                    if not sign:  # q was already a factor
                        continue
                    for cdga in (square, target):
                        expected = util.leibniz_by_factors(cdga, full)
                        assert cdga._d_monomial(full) == expected


# -- free-column read-off against exact solves ------------------------------------


READOFF_ALGEBRAS = {
    "wide-base": lambda: util.wide_base_model().base_cdga(),
    "fixture-a": lambda: util.fixture_a()[0].base_cdga(),
    "fixture-b": lambda: util.fixture_b()[0].base_cdga(),
    "fixture-c": lambda: util.fixture_c()[0].base_cdga(),
    "tensor-square": lambda: perturbed_contractible_model().tensor_cdga(2),
}


@pytest.mark.parametrize("name", sorted(READOFF_ALGEBRAS))
def test_cycle_coordinates_read_off_equal_solve(name):
    cdga = READOFF_ALGEBRAS[name]()
    for degree in range(cdga.truncation):
        basis = cdga.basis(degree)
        free, kernel = util.kernel_by_rref(d_columns(cdga, degree), len(cdga.basis(degree + 1)))
        elimination = cdga._elimination(degree)
        assert (elimination.free, elimination.kernel) == (free, kernel)
        for j, vec in enumerate(kernel):
            assert [vec.get(f, 0) for f in free] == [int(f == free[j]) for f in free]
            assert elimination.coordinates(vec) == {j: 1}
        matrix = util.transpose(kernel, len(basis))
        for bvec in d_columns(cdga, degree - 1):
            coords = elimination.coordinates(bvec)
            assert coords is not None
            assert coords == util.solve_by_rows(matrix, bvec, len(kernel))
        slice_ = cdga.cohomology_slice(degree)
        assert len(slice_.cycles) == len(kernel)
        for cycle, vec in zip(slice_.cycles, kernel):
            util.assert_same_terms(cycle, Polynomial({basis[i]: v for i, v in vec.items()}))
        generic = Polynomial.zero()
        for j, cycle in enumerate(slice_.cycles):
            generic = generic + cycle.scale(j + 1)
        for got, expected in zip(slice_.decompose(generic),
                                 util.decompose_by_solve(slice_, generic)):
            util.assert_same_terms(got, expected)


PREIMAGE_ALGEBRAS = dict(
    READOFF_ALGEBRAS, **{"rt-tensor-cube": lambda: util.rt_tables()[1].tensor_cdga(3)}
)


@pytest.mark.parametrize("name", sorted(PREIMAGE_ALGEBRAS))
def test_preimages_and_boundaries_match_the_assembled_matrix(name):
    cdga = PREIMAGE_ALGEBRAS[name]()
    rng = random.Random(11)
    for degree in range(1, cdga.truncation):
        source, target_basis = cdga.basis(degree - 1), cdga.basis(degree)
        index = {m: i for i, m in enumerate(target_basis)}
        columns = d_columns(cdga, degree - 1)
        rows = util.transpose(columns, len(target_basis))
        image_rank = util.dense_rank(columns, len(target_basis))
        slice_ = cdga.cohomology_slice(degree)
        assert len(slice_.boundaries) == image_rank
        for boundary in slice_.boundaries:
            assert not cdga.d(boundary)
            eta = cdga.solve_preimage(boundary)
            assert eta is not None and cdga.d(eta) == boundary
        # a random boundary, then random boundaries plus cycle combinations
        for mixed in (False, True, True):
            target = cdga.d(util.random_homogeneous(rng, cdga.table, cdga.gens, degree - 1))
            if mixed:
                for cycle in rng.sample(slice_.cycles, min(2, len(slice_.cycles))):
                    target = target + cycle.scale(Fraction(rng.randint(-3, 3)))
            rhs = {index[m]: c for m, c in target.terms.items()}
            exact = util.dense_rank(columns + [rhs], len(target_basis)) == image_rank
            solution = util.solve_by_rows(rows, rhs, len(source))
            assert (solution is not None) == exact
            expected = None if solution is None else Polynomial(
                {source[j]: val for j, val in solution.items()}
            )
            got = cdga.solve_preimage(target)
            if expected is None:
                assert got is None
            else:
                util.assert_same_terms(got, expected)


def test_preimages_match_solve_on_the_ladder_cube():
    # L(5)'s tensor cube, d from degree 12 (2,511 monomials) to degree 13
    # (2,855): exact and non-exact targets against the row-wise solve
    model = util.ladder_model(5)
    cube, poly = model.tensor_cdga(3), model.table.poly
    source, target_basis = cube.basis(12), cube.basis(13)
    assert (len(source), len(target_basis)) == (2511, 2855)
    index = {m: i for i, m in enumerate(target_basis)}
    rows = util.transpose(d_columns(cube, 12), len(target_basis))
    moving = [mono for mono in source if cube.d(Polynomial({mono: Fraction(1)}))]
    # fiber cycles times a base class that is not exact: nonzero classes
    classes = [poly("a1") * poly("a2", copy=1) * poly("a3", copy=2) * poly("x") ** 2,
               poly("v") * poly("a1", copy=1) * poly("a5", copy=2) * poly("x")]
    rng = random.Random(13)
    outcomes = []
    for n in range(6):
        eta = Polynomial({mono: Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2)))
                          for mono in rng.sample(moving, 4)})
        target = cube.d(eta) + classes[n % 2].scale(n % 3)
        solution = util.solve_by_rows(rows, {index[m]: c for m, c in target.terms.items()},
                                len(source))
        got = cube.solve_preimage(target)
        outcomes.append(solution is not None)
        if solution is None:
            assert got is None
        else:
            expected = Polynomial({source[j]: val for j, val in solution.items()})
            util.assert_same_terms(got, expected)
    assert True in outcomes and False in outcomes


def test_preimages_and_the_slice_below_share_one_elimination(monkeypatch):
    model = util.ladder_model(3)
    cdga, poly = model.tensor_cdga(2), model.table.poly
    degree = 10
    calls = util.spy_eliminations(monkeypatch)
    targets = [cdga.d(Polynomial({mono: Fraction(1)})) for mono in cdga.basis(degree - 1)]
    targets = [target for target in targets if target]
    # cycles whose class is nonzero: x^2 is not exact in the base
    targets += [poly("a1") * poly(name, copy=1) * poly("x") ** 2 for name in ("a1", "a2")]
    assert len(targets) > 3
    solved = [cdga.solve_preimage(target) for target in targets]
    assert solved[-2:] == [None, None]
    for target, eta in zip(targets, solved):
        assert eta is None or cdga.d(eta) == target
    assert util.d_matrix_degrees(cdga, calls) == [[degree - 1]]
    # the slice one degree down has its cycles from that same elimination,
    # and reduces its boundaries in at most one more, of no matrix of d
    slice_ = cdga.cohomology_slice(degree - 1)
    assert util.d_matrix_degrees(cdga, calls) in ([[degree - 1]], [[degree - 1], []])
    assert len(slice_.cycles) == len(calls[0]) - util.dense_rank(
        calls[0], len(cdga.basis(degree)))


def test_associativity_check_eliminates_each_cube_degree_once(monkeypatch):
    # two defects in degree 15 that are exact (x^3 = dy), one in degree 9
    # that is not: the check reduces it against the slice of degree 9
    table = GeneratorTable(base=[("x", 2), ("y", 5)],
                           fiber=[("u", 3), ("v", 3), ("z", 3), ("w", 9), ("s", 15),
                                  ("r", 15)])
    x, u, v, z = (table.poly(name) for name in "xuvz")
    up, vp, zp = (table.poly(name, copy=1) for name in "uvz")
    model = RelativeModel(table, d_base={"y": x ** 3}, truncation=20)
    images = dict(Comultiplication.standard(table).images)
    for name, extra in (("w", u * v * up), ("s", x ** 3 * u * v * zp),
                        ("r", x ** 3 * u * z * vp)):
        images[name] = table.poly(name) + table.poly(name, copy=1) + extra
    comul = Comultiplication(table, images)
    calls = util.spy_eliminations(monkeypatch)
    assert list(check_homotopy_associative(model, comul)) == ["w"]
    cube = model.tensor_cdga(3)
    degrees = util.d_matrix_degrees(cube, calls)
    assert [k for k in degrees if k] == [[8], [9], [14]]
    # the one slice reduces its boundaries in at most one elimination
    assert [k for k, record in cube._degrees.items() if record.slice] == [9]
    assert degrees.count([]) <= 1


def _slices_equal_the_row_oracle(monkeypatch, cdga, degrees):
    """In each degree, the slice equals one built with the row-pivoting
    `util.rref_by_rows` in place of `linalg.rref`, on the same elimination
    of d: boundaries, complement and the decomposition of two generic
    cycles and of the first boundary and complement vectors, term by term
    in the same order."""
    for degree in degrees:
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "rref", util.rref_by_rows)
            oracle = cdga.cohomology_slice(degree)
        cdga._degrees[degree].slice = None
        slice_ = cdga.cohomology_slice(degree)
        assert slice_ is not oracle
        assert len(slice_.boundaries) == len(oracle.boundaries)
        got = slice_.boundaries + slice_.complement
        expected = oracle.boundaries + oracle.complement
        assert len(got) == len(expected)
        generics = [Polynomial.sum(cycle.scale(weight(j)) for j, cycle in enumerate(slice_.cycles))
                    for weight in (lambda j: j + 1, lambda j: Fraction((-1) ** j, j % 5 + 1))]
        for cycle in generics + slice_.boundaries[:3] + slice_.complement[:3]:
            got += slice_.decompose(cycle)
            expected += oracle.decompose(cycle)
        for poly, oracle_poly in zip(got, expected):
            util.assert_same_terms(poly, oracle_poly)


def test_slices_equal_the_row_oracle_on_the_golden_bases(monkeypatch):
    for model in golden_models():
        base = model.base_cdga()
        _slices_equal_the_row_oracle(monkeypatch, base, range(base.truncation))


def test_slices_equal_the_row_oracle_on_the_ladder_cube(monkeypatch):
    # L(5)'s tensor cube below degree 15, up to 6,762 monomials and rank
    # 1,572 of E (degree 14); the slices of degrees 15 to 17 alone take
    # about 18 s more
    cube = util.ladder_model(5).tensor_cdga(3)
    _slices_equal_the_row_oracle(monkeypatch, cube, range(15))
    assert len(cube.cohomology_slice(14).boundaries) == 1572


def test_transpose_swaps_rows_and_columns():
    assert util.transpose([{0: 1, 2: 3}, {}, {1: 5}], 3) == [{0: 1}, {2: 5}, {0: 3}]
    assert util.transpose([], 2) == [{}, {}]


def test_kernel_coordinates_reject_vectors_outside_the_kernel():
    elimination = linalg.eliminate([{0: Fraction(1)}, {0: Fraction(1)}])
    assert elimination.free == [1] and elimination.kernel == [{1: 1, 0: -1}]
    assert elimination.coordinates({0: 2, 1: -2}) == {0: -2}
    assert elimination.coordinates({0: 1}) is None
    assert elimination.coordinates({1: 1}) is None


def test_cohomology_slice_raises_when_d_squared_is_nonzero():
    # du = v, dv = u^2: the boundary u^2 = d(v) is not a cycle (d(u^2) = 2uv)
    table = GeneratorTable(base=[("u", 2), ("v", 3)], fiber=[])
    bad = FreeCDGA(
        table, table.base,
        {table.generator("base", "u").id: table.poly("v"),
         table.generator("base", "v").id: table.poly("u") ** 2},
        truncation=10,
    )
    with pytest.raises(EngineError, match="outside the cycle space"):
        bad.cohomology_slice(4)
