"""Model validators, hypothesis checks and the associativity defect."""

import pytest

from fibrewise import (
    Comultiplication,
    GeneratorTable,
    Polynomial,
    RelativeModel,
    associativity_defect,
    check_homotopy_associative,
    check_hypotheses,
    validate_comultiplication,
    validate_input,
    validate_relative_model,
)
from fibrewise import model as fmodel

import util


def test_fixture_a_validates():
    model, comul = util.fixture_a()
    assert validate_relative_model(model).ok
    assert validate_comultiplication(model, comul).ok


def test_fixture_b_validates():
    model, comul = util.fixture_b()
    assert validate_relative_model(model).ok
    assert validate_comultiplication(model, comul).ok


def test_ordered_basis_violation():
    table = GeneratorTable(base=[("s", 1)], fiber=[("w1", 1), ("w2", 2)])
    model = RelativeModel(
        table, d_fiber={"w1": table.poly("w2")}
    )
    verdict = validate_relative_model(model)
    assert not verdict.ok
    assert "ordered-basis" in verdict.failures[0]


def test_pure_base_component_rejected():
    table = GeneratorTable(base=[("x", 2)], fiber=[("w1", 1)])
    model = RelativeModel(table, d_fiber={"w1": table.poly("x")})
    verdict = validate_relative_model(model)
    assert not verdict.ok
    assert "pure-base" in verdict.failures[0]


def _square_violation_cases():
    """By case, a model whose differential fails one generator check and
    the failure message."""
    uv = GeneratorTable(base=[("u", 2), ("v", 3)], fiber=[("w", 3)])
    xy = GeneratorTable(base=[("x", 2), ("y", 3)], fiber=[("a", 3), ("b", 5)])
    x, y, a = xy.poly("x"), xy.poly("y"), xy.poly("a")
    yu = GeneratorTable(base=[("y", 2)], fiber=[("u", 3)])
    return {
        "base": (RelativeModel(uv, d_base={"u": uv.poly("v"), "v": uv.poly("u") ** 2}),
                 "d*d != 0 at generator u"),
        # D(D(b)) = D(y a) = x^2 a
        "fiber": (RelativeModel(xy, d_base={"y": x * x}, d_fiber={"b": y * a}),
                  "d*d != 0 at generator b"),
        "base-degree": (RelativeModel(xy, d_base={"y": x}),
                        "d(y) is not homogeneous of degree 4"),
        "base-in-fiber": (RelativeModel(yu, d_base={"y": yu.poly("u")}, truncation=8),
                          "d(y) leaves the base algebra"),
    }


@pytest.mark.parametrize("case", ["base", "fiber", "base-degree", "base-in-fiber"])
def test_differential_square_violation(case):
    model, message = _square_violation_cases()[case]
    verdict = validate_relative_model(model)
    assert not verdict.ok
    assert verdict.failures == [message]


def test_comultiplication_counit_violations():
    model, _ = util.fixture_a()
    table = model.table
    # missing the second copy
    images = dict(Comultiplication.standard(table).images)
    images["w3"] = table.poly("w3")
    verdict = validate_comultiplication(model, Comultiplication(table, images))
    assert not verdict.ok and "counit" in verdict.failures[0]
    # term with no second-copy factor
    images = dict(Comultiplication.standard(table).images)
    images["w5"] = images["w5"] + table.poly("w5")
    verdict = validate_comultiplication(model, Comultiplication(table, images))
    assert not verdict.ok and "counit" in verdict.failures[0]
    # the counit shape is read on C(w)'s own terms; each failure has the
    # message it had when C(w) - w - w' was checked, and that whole
    # difference as its witness
    model = util.rt_tables()[0]
    table = model.table
    w, w1 = table.poly("w"), table.poly("w", copy=1)
    mixed = table.poly("u") * table.poly("z") * table.poly("v", copy=1)
    message = ("C(w) - w - w' has a term outside the mixed tensor part "
               "(counit shape violation)")
    standard = Comultiplication.standard(table).images
    assert validate_comultiplication(
        model, Comultiplication(table, {**standard, "w": w + w1 + mixed})).ok
    for image in (
        2 * w + w1 + mixed,  # coefficient 2 on w
        w + mixed,  # w' missing
        w + w1 + mixed + table.poly("u", copy=1) * table.poly("v", copy=1)
        * table.poly("z", copy=1),  # a pure-w' term
        w + w1 + table.poly("u") * table.poly("v", copy=1)
        * table.poly("z", copy=2),  # a w'' factor
    ):
        verdict = validate_comultiplication(
            model, Comultiplication(table, {**standard, "w": image}))
        assert verdict.failures == [message]
        assert verdict.witness == image - w - w1


def test_validate_input_locates_the_first_invalid_part(monkeypatch):
    model, comul = util.fixture_a()
    table = model.table
    calls = []
    real = fmodel.validate_comultiplication
    monkeypatch.setattr(fmodel, "validate_comultiplication",
                        lambda *args: calls.append(args) or real(*args))
    assert validate_input(model, comul).ok and len(calls) == 1
    bad_c = Comultiplication(table, {**comul.images, "w3": table.poly("w3")})
    verdict = validate_input(model, bad_c)
    assert verdict.failures[0].startswith("comultiplication: C(w3) - w3 - w3' ")
    assert len(calls) == 2
    # the comultiplication is not checked until the differential passes:
    # here its DG condition would substitute C into x^1000000000
    table = GeneratorTable(base=[("b", 3)], fiber=[("x", 2), ("w", 5)])
    power = Polynomial({((table.generator("w0", "x"), 1000000000),): 1})
    model = RelativeModel(table, d_fiber={"w": power})
    verdict = validate_input(model, Comultiplication.standard(table))
    assert verdict.failures == ["differential: D(w) is not homogeneous of degree 6"]
    assert verdict.witness == power
    assert len(calls) == 2


def test_comultiplication_dg_violation():
    # counit shape fine, but the excess has a non-cycle coefficient
    table = GeneratorTable(base=[("x", 2), ("y", 3)], fiber=[("xb", 1), ("w", 5)])
    x, y = table.poly("x"), table.poly("y")
    model = RelativeModel(table, d_base={"y": x * x})
    images = dict(Comultiplication.standard(table).images)
    images["w"] = images["w"] + y * table.poly("xb") * table.poly("xb", copy=1)
    verdict = validate_comultiplication(model, Comultiplication(table, images))
    assert not verdict.ok
    assert "commute" in verdict.failures[0]


def test_standard_comultiplication_on_trivial_differential():
    table = GeneratorTable(base=[("x", 2)], fiber=[("w", 3)])
    model = RelativeModel(table)
    assert validate_comultiplication(model, Comultiplication.standard(table)).ok


def test_hypotheses_fixture_a():
    model, _ = util.fixture_a()
    report = check_hypotheses(model)
    assert not report.satisfied
    assert report.odd_cohomology_violations[0][0] == 3
    assert report.odd_cohomology_violations[0][1] == [model.table.poly("b3")]
    assert report.even_fiber_generators == []


def test_hypotheses_fixture_b():
    model, _ = util.fixture_b()
    report = check_hypotheses(model)
    assert not report.satisfied
    assert report.odd_cohomology_violations == []
    assert [g.name for g in report.even_fiber_generators] == ["yb"]


def test_hypotheses_satisfied():
    table = GeneratorTable(base=[("x", 2)], fiber=[("w", 3)])
    report = check_hypotheses(RelativeModel(table))
    assert report.satisfied


def test_standard_coproduct_is_strictly_coassociative():
    model, _ = util.fixture_a()
    comul = Comultiplication.standard(model.table)
    for gen in model.table.fiber:
        assert associativity_defect(model, comul, gen) == Polynomial.zero()


def test_fixture_c_defect_is_zero():
    model, comul = util.fixture_c()
    for gen in model.table.fiber:
        assert associativity_defect(model, comul, gen) == Polynomial.zero()


def test_fixture_b_defect_is_zero():
    model, comul = util.fixture_b()
    for gen in model.table.fiber:
        assert associativity_defect(model, comul, gen) == Polynomial.zero()


def test_nonassociative_comultiplication_detected():
    # C(w9) = w9 + w9' + u v u' has defect u v' u'' + u' v u'' (hand expansion),
    # whose class is nonzero over a base with no exact elements
    model, comul = util.nonassociative_model()
    table = model.table
    u, v = table.poly("u"), table.poly("v")
    up, vp, upp = table.poly("u", copy=1), table.poly("v", copy=1), table.poly("u", copy=2)
    assert validate_comultiplication(model, comul).ok
    defect = associativity_defect(model, comul, table.generator("w0", "w"))
    assert defect == u * vp * upp + up * v * upp
    assert check_homotopy_associative(model, comul) == {"w": defect}


def test_homotopy_associative_but_not_strict():
    # excess x^3 u v z' with x^3 = d(y): the defect is nonzero yet exact
    model, comul = util.exact_defect_model()
    assert validate_comultiplication(model, comul).ok
    defect = associativity_defect(model, comul, model.table.generator("w0", "w"))
    assert defect != Polynomial.zero()
    assert check_homotopy_associative(model, comul) == {}
    witness = model.tensor_cdga(3).solve_preimage(defect)
    assert model.tensor_cdga(3).d(witness) == defect


def test_empty_fiber_is_degenerate_but_valid():
    table = GeneratorTable(base=[("x", 2)], fiber=[])
    model = RelativeModel(table)
    comul = Comultiplication.standard(table)
    assert validate_relative_model(model).ok
    assert validate_comultiplication(model, comul).ok
    assert check_hypotheses(model).satisfied
