"""The odd-degree hypothesis scan: exact ranks on the base count dim H^k,
a cohomology slice is built only in a degree with classes, and the steps
reuse the scan's eliminations."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fibrewise import (
    AlgebraError,
    Comultiplication,
    EngineError,
    FreeCDGA,
    GeneratorTable,
    Polynomial,
    PerturbationSpec,
    RelativeModel,
    check_hypotheses,
    linalg,
    normalize_monomial,
    perturb,
)
from fibrewise import io as fio
from fibrewise.normalize import _screen, hopf_stage_higher, hopf_stage_linear

import util

GOLDEN = Path(__file__).parent / "golden"
P = 2_147_483_647  # the prime 2^31 - 1: a rank count modulo P would fail
# on the last two, as a denominator and as a numerator
COEFFICIENTS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2),
                Fraction(-3), Fraction(5, 7), Fraction(1, P), Fraction(P))


def _report(report):
    return [(degree, [repr(c) for c in classes])
            for degree, classes in report.odd_cohomology_violations]


def _oracle(model):
    return [(degree, [repr(c) for c in classes])
            for degree, classes in util.scan_by_slices(model)]


def _slices_built(monkeypatch, model):
    """check_hypotheses on `model`, with the (generator names, degree) of
    every cohomology slice it built, on any algebra."""
    built = []
    real = FreeCDGA.cohomology_slice

    def spy(self, degree):
        built.append((frozenset(g.name for g in self.gens), degree))
        return real(self, degree)

    monkeypatch.setattr(FreeCDGA, "cohomology_slice", spy)
    report = check_hypotheses(model)
    monkeypatch.setattr(FreeCDGA, "cohomology_slice", real)
    return report, built


def _scan(monkeypatch, model):
    """check_hypotheses on `model`, with the degrees whose slice its base
    algebra was asked for."""
    report, built = _slices_built(monkeypatch, model)
    base = frozenset(g.name for g in model.table.base)
    return report, sorted({degree for names, degree in built if names == base})


# -- elementary bases and their tensor products ------------------------------------


def _odd_sphere(rng, c):
    return [("e", rng.choice((1, 3, 5, 7)))], {}


def _even_sphere(rng, c):
    k = rng.choice((1, 2))
    return [("x", 2 * k), ("y", 4 * k - 1)], {"y": (c, [("x", 2)])}


def _projective(rng, c):
    step, n = rng.choice((2, 4)), rng.randint(1, 3)
    return [("x", step), ("y", step * (n + 1) - 1)], {"y": (c, [("x", n + 1)])}


def _contractible(rng, c):
    k = rng.randint(1, 5)
    return [("p", k), ("q", k + 1)], {"p": (c, [("q", 1)])}


def _heisenberg(rng, c):
    return [("a", 3), ("b", 3), ("c", 5)], {"c": (c, [("a", 1), ("b", 1)])}


def _mixed_product(rng, c):
    return [("x", 2), ("y", 2), ("z", 3)], {"z": (c, [("x", 1), ("y", 1)])}


PIECES = (_odd_sphere, _even_sphere, _projective, _contractible, _heisenberg,
          _mixed_product)


def product_base(pieces, truncation):
    """The tensor product of elementary bases [(generators, {name: (coeff,
    factors)})], the generators of piece i renamed with the suffix i."""
    gens = [(f"{name}{i}", degree)
            for i, (piece_gens, _) in enumerate(pieces) for name, degree in piece_gens]
    table = GeneratorTable(base=gens, fiber=[])
    d_base = {}
    for i, (_, piece_diff) in enumerate(pieces):
        for name, (c, factors) in piece_diff.items():
            mono, sign = normalize_monomial(
                [(table.generator("base", f"{g}{i}"), e) for g, e in factors])
            d_base[f"{name}{i}"] = Polynomial({mono: Fraction(c) * sign})
    return RelativeModel(table, d_base=d_base, truncation=truncation)


def seeded_product_bases(count=48):
    rng = random.Random(2024)
    models = []
    for _ in range(count):
        pieces = [rng.choice(PIECES)(rng, rng.choice(COEFFICIENTS))
                  for _ in range(rng.randint(2, 3))]
        models.append(product_base(pieces, rng.randint(6, 12)))
    return models


def ladder_base():
    """The base of the ladder models: Lambda(x2, y5, p2, q3; dy = x^3, dp = q)."""
    table = GeneratorTable(base=[("x", 2), ("y", 5), ("p", 2), ("q", 3)], fiber=[])
    return RelativeModel(
        table, d_base={"y": table.poly("x") ** 3, "p": table.poly("q")}, truncation=20)


def golden_models():
    return [fio.parse_model(json.loads(path.read_text(encoding="utf-8")))[0]
            for path in sorted(GOLDEN.glob("*.model.json"))]


# -- the scan equals the slice-based oracle ---------------------------------------


def test_scan_equals_slice_oracle_on_golden_and_named_bases():
    models = golden_models() + [
        util.wide_base_model(), ladder_base(),
        util.contractible_base_model(truncation=24), util.s2_base_model(truncation=16),
    ]
    assert len(models) == 15 + 4
    violations = 0
    for model in models:
        got = _report(check_hypotheses(model))
        assert got == _oracle(model)
        violations += bool(got)
    assert violations == 2  # fixtures a and c, over Lambda(b3)


def test_scan_equals_slice_oracle_on_seeded_product_bases(monkeypatch):
    counts = {"violating": 0, "cleared": 0}
    for model in seeded_product_bases():
        report, asked = _scan(monkeypatch, model)
        expected = _oracle(model)
        assert _report(report) == expected
        counts["violating" if expected else "cleared"] += 1
        # a slice is built exactly where a class exists
        assert asked == [degree for degree, _ in expected]
    assert counts["violating"] >= 10 and counts["cleared"] >= 10, counts


@pytest.mark.parametrize("coeff", [Fraction(1, P), Fraction(P), Fraction(3, P)])
def test_scan_is_exact_on_coefficients_that_vanish_mod_p(monkeypatch, coeff):
    # dy = c x^2 in the 2-sphere factor, c vanishing modulo P as a
    # denominator or a numerator: the exact ranks clear H^3 = 0 with no
    # slice, and the classes are those of the exact oracle
    model = product_base([
        ([("x", 2), ("y", 3)], {"y": (coeff, [("x", 2)])}),
        ([("p", 2), ("q", 3)], {"p": (1, [("q", 1)])}),
        ([("e", 5)], {}),
    ], truncation=12)
    report, built = _slices_built(monkeypatch, model)
    assert _report(report) == _oracle(model)
    assert [degree for degree, _ in report.odd_cohomology_violations] == [5, 7]
    assert not any(degree == 3 for _, degree in built), built


def test_basescan_shaped_scan_builds_no_slice(monkeypatch):
    model = util.wide_base_model()
    report, asked = _scan(monkeypatch, model)
    assert report.satisfied and asked == []


def test_fixture_a_scan_builds_only_its_violating_degree(monkeypatch):
    model, _ = util.fixture_a()
    report, asked = _scan(monkeypatch, model)
    assert [degree for degree, _ in report.odd_cohomology_violations] == [3]
    assert asked == [3]


def test_repeated_scan_reuses_every_verdict(monkeypatch):
    # perturb scans one model once per seed it draws
    for model in (util.wide_base_model(), util.fixture_a()[0]):
        first = _report(check_hypotheses(model))
        calls = []
        real = linalg.eliminate
        monkeypatch.setattr(linalg, "eliminate",
                            lambda columns: calls.append(1) or real(columns))
        assert _report(check_hypotheses(model)) == first
        monkeypatch.setattr(linalg, "eliminate", real)
        assert calls == []


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_vanishing_verdict_in_every_degree_equals_the_slice(order):
    models = [util.wide_base_model(), ladder_base(), util.fixture_a()[0],
              util.s2_base_model(truncation=12)] + seeded_product_bases(8)
    for model in models:
        base = model.base_cdga()
        oracle = FreeCDGA(model.table, model.table.base, base.diff, model.truncation)
        degrees = list(range(model.truncation))
        if order == "descending":
            degrees.reverse()
        for degree in degrees:
            expected = len(oracle.cohomology_slice(degree).complement)
            assert base.cohomology_dimension(degree) == expected, degree


def test_scan_raises_when_d_squared_is_nonzero():
    # dx = y, dy = x^2, dz = 0: in degree 3 the ranks (1 and 1) fill the
    # dimension 2, but d(d(x)) = x^2, so the count proves nothing; at
    # truncation 4 degree 3 is the last one scanned
    table = GeneratorTable(base=[("x", 2), ("y", 3), ("z", 3)], fiber=[])
    d_base = {"x": table.poly("y"), "y": table.poly("x") ** 2}
    with pytest.raises(EngineError, match="outside the cycle space"):
        check_hypotheses(RelativeModel(table, d_base=d_base, truncation=4))
    base = RelativeModel(table, d_base=d_base, truncation=8).base_cdga()
    assert base.cohomology_dimension(1) == 0
    with pytest.raises(EngineError, match="outside the cycle space"):
        base.cohomology_dimension(3)


# -- the rank count on the whole base ----------------------------------------------


def _vanishes_mod_p(model):
    return any(c.numerator % P == 0 or c.denominator % P == 0
               for image in model.d_base.values() for c in image.terms.values())


def _heisenberg_base():
    """Lambda(a3, b3, c5; dc = ab): one component."""
    table = GeneratorTable(base=[("a", 3), ("b", 3), ("c", 5)], fiber=[])
    return RelativeModel(
        table, d_base={"c": table.poly("a") * table.poly("b")}, truncation=16)


def test_bound_is_at_least_the_slice_dimension_in_every_degree():
    # the count is exact: it equals the slice dimension in every degree,
    # on coefficients that vanish modulo P as on any other
    heisenberg = _heisenberg_base()
    models = seeded_product_bases() + golden_models() + [ladder_base(), heisenberg]
    degrees = vanishing = 0
    for model in models:
        base = model.base_cdga()
        oracle = FreeCDGA(model.table, model.table.base, base.diff, model.truncation)
        for degree in range(model.truncation):
            dim = len(oracle.cohomology_slice(degree).complement)
            assert base.cohomology_dimension(degree) == dim, degree
            degrees += 1
        vanishing += _vanishes_mod_p(model)
    assert degrees > 400 and vanishing > 0, (degrees, vanishing)


def test_one_component_scan_leaves_its_eliminations_to_slices_and_preimages(monkeypatch):
    # the scan's ranks come from the base's own records
    model = _heisenberg_base()
    base = model.base_cdga()
    assert not check_hypotheses(model).satisfied
    calls = util.spy_eliminations(monkeypatch)
    for degree in range(model.truncation):
        before = len(calls)
        base.cohomology_slice(degree)
        # a slice reduces its boundaries in at most one elimination
        assert len(calls) - before <= 1
    ab = model.table.poly("a") * model.table.poly("b")
    assert base.solve_preimage(ab) == model.table.poly("c")
    assert not any(util.d_matrix_degrees(base, calls))


def test_one_component_bound_raises_when_d_squared_is_nonzero():
    # dx = y, dy = x^2 in one component; in degree 3 the ranks (1 and 1)
    # exceed the dimension 1, and d(d(x)) = x^2
    table = GeneratorTable(base=[("x", 2), ("y", 3)], fiber=[])
    d_base = {"x": table.poly("y"), "y": table.poly("x") ** 2}
    base = RelativeModel(table, d_base=d_base, truncation=8).base_cdga()
    assert base.cohomology_dimension(1) == 0
    with pytest.raises(EngineError, match="outside the cycle space"):
        base.cohomology_dimension(3)
    with pytest.raises(EngineError, match="outside the cycle space"):
        check_hypotheses(RelativeModel(table, d_base=d_base, truncation=4))


def _basescan_perturbation():
    """The first seeded change-of-generators perturbation of the wide base,
    fiber (u3, v5, z7, w9), with D nonzero on exactly two fiber generators,
    as the basescan benchmark draws them."""
    model = util.wide_base_model(fiber=[("u", 3), ("v", 5), ("z", 7), ("w", 9)])
    std = Comultiplication.standard(model.table)
    for seed in range(50):
        pm, pc = perturb(model, std, PerturbationSpec(
            seed, max_word_length=3, mode="change-of-generators"))
        if sum(1 for gen in pm.table.fiber if pm.D(gen)) == 2:
            return pm, pc
    raise AssertionError("no perturbation with D on two fiber generators")


def test_the_stages_reuse_the_scans_eliminations(monkeypatch):
    # the scan counts ranks on the base itself, in every degree a split
    # coefficient can take (up to N0 = 7), so the Hopf steps' base solves
    # read its eliminations and make none of their own
    model, comul = _basescan_perturbation()
    assert _screen(model, comul).satisfied
    calls = []
    real = linalg.eliminate
    monkeypatch.setattr(linalg, "eliminate",
                        lambda columns: calls.append(len(columns)) or real(columns))
    model, comul, linear, obstruction = hopf_stage_linear(model, comul)
    assert obstruction is None
    model, comul, higher, obstruction = hopf_stage_higher(model, comul)
    monkeypatch.setattr(linalg, "eliminate", real)
    assert obstruction is None and linear + higher
    assert not any(model.D(gen) for gen in model.table.fiber)
    assert calls == []


def _poincare_series(degrees, top):
    """Coefficients up to `top` of the Poincare series of the free algebra
    with d = 0 on generators of these degrees."""
    series = [1] + [0] * top
    for degree in degrees:
        if degree % 2:
            series = [series[n] + (series[n - degree] if n >= degree else 0)
                      for n in range(top + 1)]
        else:
            for n in range(degree, top + 1):
                series[n] += series[n - degree]
    return series


@pytest.mark.parametrize("gens, odd_degrees", [
    ([("c", 4), ("d", 6)], []),                       # BSU(3)
    ([("p", 4), ("q", 8)], []),                       # BSp(2)
    ([("x", 2), ("e", 5)], list(range(5, 24, 2))),    # CP^oo x S^5
])
def test_classifying_space_bases_read_the_poincare_series(gens, odd_degrees):
    table = GeneratorTable(base=gens, fiber=[])
    model = RelativeModel(table, truncation=24)
    base = model.base_cdga()
    series = _poincare_series([degree for _, degree in gens], model.truncation)
    assert [base.cohomology_dimension(k) for k in range(model.truncation)] == series[:-1]
    got = _report(check_hypotheses(model))
    assert got == _oracle(model)
    assert [degree for degree, _ in got] == odd_degrees


# -- a zero differential is read off the basis size --------------------------------


def _bsu3():
    """BSU(3) = Lambda(c4, c6), d = 0."""
    return RelativeModel(GeneratorTable(base=[("c4", 4), ("c6", 6)], fiber=[]), truncation=24)


@pytest.mark.parametrize("build", [
    lambda: util.rt_tables()[0],  # Lambda(x2)
    lambda: util.rt_tables()[2],  # Lambda(x4, y6)
    _bsu3,
], ids=["x2", "x4-y6", "BSU(3)"])
def test_zero_differential_base_scan_builds_no_elimination(monkeypatch, build):
    model = build()
    calls = []
    real = linalg.eliminate
    monkeypatch.setattr(linalg, "eliminate", lambda columns: calls.append(1) or real(columns))
    report = check_hypotheses(model)
    dims = [model.base_cdga().cohomology_dimension(k) for k in range(model.truncation + 1)]
    monkeypatch.undo()
    assert calls == []
    assert report.satisfied and _report(report) == _oracle(model) == []
    gens = model.table.base
    assert dims == [len(model.table.monomial_basis(k, gens))
                    for k in range(model.truncation + 1)]


def test_free_factor_refuses_a_degree_above_the_truncation():
    # with d = 0 (Lambda(e5), BSU(3)) the count reads the basis, so it is
    # refused above the truncation; with d != 0 (S^2 (x) Lambda(e5)) it needs
    # d_top, whose target basis lies above, so it is refused at the truncation
    lone = RelativeModel(GeneratorTable(base=[("e", 5)], fiber=[]), truncation=10)
    mixed = product_base([([("x", 2), ("y", 3)], {"y": (1, [("x", 2)])}),
                          ([("e", 5)], {})], truncation=10).base_cdga()
    free, bsu3 = lone.base_cdga(), _bsu3().base_cdga()
    assert not free.diff and not bsu3.diff and mixed.diff
    for algebra, last in ((free, 10), (bsu3, 24), (mixed, 9)):
        top = algebra.truncation
        algebra.cohomology_dimension(last)
        with pytest.raises(AlgebraError, match=f"degree {top + 1} is above the truncation "
                                               f"degree {top}"):
            algebra.cohomology_dimension(last + 1)
    assert free.cohomology_dimension(5) == mixed.cohomology_dimension(5) == 1
    assert bsu3.cohomology_dimension(12) == 2  # c4^3 and c6^2
