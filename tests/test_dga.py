"""Leibniz differentials, cohomology slices, preimage solving."""

import random

import pytest

from fibrewise import (
    AlgebraError,
    EngineError,
    FreeCDGA,
    GeneratorTable,
    PerturbationSpec,
    Polynomial,
    cohomology_in_degree,
    conjugate,
    Comultiplication,
    ChangeOfGenerators,
    linalg,
    normalize_monomial,
    perturb,
)
from fibrewise.algebra import apply_images

import util


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
    assert model.total_cdga().check_d_squared().ok
    s2 = util.s2_base_model()
    assert s2.base_cdga().check_d_squared().ok
    bad_table = GeneratorTable(base=[("u", 2), ("v", 3)], fiber=[])
    u, v = bad_table.poly("u"), bad_table.poly("v")
    bad = FreeCDGA(
        bad_table,
        bad_table.base,
        {bad_table.generator("base", "u").id: v,
         bad_table.generator("base", "v").id: u * u},
        truncation=10,
    )
    verdict = bad.check_d_squared()
    assert not verdict.ok
    assert "u" in verdict.failures[0]


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


def test_cohomology_dims_match_dense_rank_oracle():
    model = util.s2_base_model(fiber=[("u", 1), ("e", 2)])
    total = model.total_cdga()
    for degree in range(0, 8):
        slice_ = total.cohomology_slice(degree)
        source = total.basis(degree)
        rows_n = total._equation_rows(degree)
        rank_n = util.dense_rank(rows_n, len(source))
        dim_z = len(source) - rank_n
        assert len(slice_.cycles) == dim_z
        prev = total.basis(degree - 1)
        index = {m: i for i, m in enumerate(source)}
        image_vecs = []
        for mono in prev:
            img = total.d(Polynomial({mono: 1}))
            if img:
                image_vecs.append(
                    {index[m]: c for m, c in img.terms.items()}
                )
        rank_e = util.dense_rank(image_vecs, len(source))
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


def _commutes_with_d(source, target, images):
    """f(d(g)) = d(f(g)) on every generator g of `source`, for the algebra map
    f given by generator images (identity where omitted)."""
    return all(
        apply_images(images, source.d_generator(gen))
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


def test_d_monomial_matches_oracle_on_tensor_square_and_cube():
    model = perturbed_contractible_model()
    for copies in (2, 3):
        cdga = model.tensor_cdga(copies)
        for degree in range(model.truncation + 1):
            for mono in cdga.basis(degree):
                assert cdga._d_monomial(mono) == util.leibniz_by_factors(cdga, mono)


def test_d_monomial_matches_oracle_on_powers_of_t():
    model = perturbed_contractible_model()
    table = model.table
    square, homotopy = model.tensor_cdga(2), model.homotopy_cdga()
    for degree in range(9):
        for mono in square.basis(degree):
            for power in (1, 2, 3):
                for extra in ([(table.t, power)], [(table.t, power), (table.dt, 1)]):
                    full, sign = normalize_monomial(list(mono) + extra)
                    assert sign
                    expected = util.leibniz_by_factors(homotopy, full)
                    assert homotopy._d_monomial(full) == expected


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
        ncols = len(cdga.basis(degree))
        free, kernel = linalg.nullspace(cdga._equation_rows(degree), ncols)
        for j, vec in enumerate(kernel):
            assert [vec.get(f, 0) for f in free] == [int(f == free[j]) for f in free]
            assert linalg.kernel_coordinates(free, kernel, vec) == {j: 1}
        matrix = util.columns_matrix(kernel, ncols)
        for bvec in cdga._image_rows(degree) if degree >= 1 else []:
            coords = linalg.kernel_coordinates(free, kernel, bvec)
            assert coords is not None
            assert coords == linalg.solve(matrix, bvec, len(kernel))
        slice_ = cdga.cohomology_slice(degree)
        generic = Polynomial.zero()
        for j, cycle in enumerate(slice_.cycles):
            generic = generic + cycle.scale(j + 1)
        assert slice_.decompose(generic) == util.decompose_by_solve(slice_, generic)


def test_kernel_coordinates_reject_vectors_outside_the_kernel():
    free, kernel = linalg.nullspace([{0: 1, 1: 1}], 2)
    assert free == [1] and kernel == [{1: 1, 0: -1}]
    assert linalg.kernel_coordinates(free, kernel, {0: 2, 1: -2}) == {0: -2}
    assert linalg.kernel_coordinates(free, kernel, {0: 1}) is None
    assert linalg.kernel_coordinates(free, kernel, {1: 1}) is None


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
