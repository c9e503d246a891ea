"""Cross-cutting invariants tying the modules together."""

import importlib
import random

import pytest

from fibrewise import (
    Comultiplication,
    GeneratorTable,
    PerturbationError,
    PerturbationSpec,
    Polynomial,
    RelativeModel,
    check_hypotheses,
    hopf_normalize,
    ls_normalize,
    perturb,
    verify_equivalence,
)

import util


def test_satisfied_hypotheses_imply_odd_cycles_are_exact():
    # cross-check the hypothesis scan against the preimage solver
    model = util.rt_tables()[1]
    base = model.base_cdga()
    assert check_hypotheses(model).satisfied
    rng = random.Random(17)
    for degree in range(1, model.truncation, 2):
        slice_ = base.cohomology_slice(degree)
        for cycle in slice_.cycles:
            assert base.solve_preimage(cycle) is not None
        for _ in range(3):
            if not slice_.cycles:
                break
            combo = Polynomial.zero()
            for c in slice_.cycles:
                combo = combo + c.scale(rng.randint(-3, 3))
            if combo:
                assert base.solve_preimage(combo) is not None


def test_preimage_solutions_satisfy_the_equation_exactly():
    model = util.s2_base_model(fiber=[("u", 1), ("e", 2)], truncation=9)
    total = model.total_cdga()
    rng = random.Random(29)
    gens = model.table.base + model.table.fiber
    solved = 0
    for _ in range(200):
        p = util.random_homogeneous(rng, model.table, gens, rng.randint(1, 8))
        target = total.d(p)
        if not target:
            continue
        eta = total.solve_preimage(target)
        assert eta is not None
        assert total.d(eta) == target
        solved += 1
    assert solved > 50


def test_cycle_splitting_has_full_rank():
    from fibrewise.propsolver import _polynomial_span_matrix

    model = util.s2_base_model(fiber=[("u", 1), ("e", 2)])
    total = model.total_cdga()
    for degree in range(0, 8):
        slice_ = total.cohomology_slice(degree)
        assert len(slice_.boundaries) + len(slice_.complement) == len(slice_.cycles)
        stacked = slice_.boundaries + slice_.complement
        if stacked:
            columns = _polynomial_span_matrix(stacked)
            assert util.dense_rank(columns, 1 + max(max(c) for c in columns)) == len(stacked)
        # every complement element is a cycle outside the boundary span
        for poly in slice_.complement:
            assert total.d(poly) == Polynomial.zero()
            assert total.solve_preimage(poly) is None


def test_perturb_empty_fiber_is_identity():
    table = GeneratorTable(base=[("x", 2)], fiber=[])
    model = RelativeModel(table)
    comul = Comultiplication.standard(table)
    for mode in ("change-of-generators", "exact-homotopy", "both"):
        m2, c2 = perturb(model, comul, PerturbationSpec(seed=1, mode=mode))
        assert m2.d_fiber == {} and c2.images == {}


def test_perturb_preconditions():
    model, comul = util.fixture_a()
    with pytest.raises(PerturbationError):
        perturb(model, comul, PerturbationSpec(seed=1))
    table = GeneratorTable(base=[("x", 2)], fiber=[("u", 3)])
    clean = RelativeModel(table)
    nonstandard = Comultiplication(
        table, {"u": 2 * table.poly("u") + table.poly("u", copy=1)}
    )
    with pytest.raises(PerturbationError):
        perturb(clean, nonstandard, PerturbationSpec(seed=1))


@pytest.mark.parametrize("mode", ["change-of-generators", "exact-homotopy", "both"])
def test_perturb_refuses_an_invalid_differential(mode):
    # Lambda(y2) (x) Lambda(u3) with d(y) = u: D(W) = 0 and the standard C
    # are as perturb requires, but the base differential leaves B
    table = GeneratorTable(base=[("y", 2)], fiber=[("u", 3)])
    model = RelativeModel(table, d_base={"y": table.poly("u")}, truncation=8)
    with pytest.raises(PerturbationError) as err:
        perturb(model, Comultiplication.standard(table), PerturbationSpec(seed=1, mode=mode))
    assert str(err.value) == "differential: d(y) leaves the base algebra"


@pytest.mark.parametrize("mode", ["change-of-generators", "exact-homotopy", "both"])
def test_perturb_validates_its_output_once(monkeypatch, mode):
    # perturb checks its input's differential; conjugate validates the state
    # it returns through the gate, and perturb gates only the states
    # conjugate did not produce
    calls = []
    for namespace, names in (
        ("fibrewise.model", ("validate_relative_model", "validate_comultiplication")),
        ("fibrewise.perturb", ("validate_relative_model",)),
    ):
        module = importlib.import_module(namespace)
        for name in names:
            real = getattr(module, name)

            def counted(*args, _real=real, _where=namespace):
                calls.append((_where, _real.__name__))
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
    model = util.contractible_base_model(fiber=[("u", 3), ("v", 3), ("w", 9)],
                                         truncation=20)
    perturb(model, Comultiplication.standard(model.table),
            PerturbationSpec(seed=4, mode=mode))
    assert calls == [("fibrewise.perturb", "validate_relative_model"),
                     ("fibrewise.model", "validate_relative_model"),
                     ("fibrewise.model", "validate_comultiplication")]


def test_perturb_exact_homotopy_mode_with_real_candidates():
    # over the contractible base, eta = p u v' has d(eta) = q u v' != 0
    model = util.contractible_base_model(fiber=[("u", 3), ("v", 3), ("w", 9)],
                                         truncation=20)
    comul = Comultiplication.standard(model.table)
    m2, c2 = perturb(model, comul, PerturbationSpec(seed=4, mode="exact-homotopy"))
    assert m2.d_fiber == {}
    assert not c2.is_standard()
    result = ls_normalize(m2, c2)
    assert result.outcome == "normalized"
    assert verify_equivalence(result.certificate).ok


def test_ls_forced_on_free_loop_space_stops_at_hopf_stage():
    model, comul = util.fixture_b()
    result = ls_normalize(model, comul, force=True)
    assert result.outcome == "obstructed"
    assert result.obstruction.stage == "hopf-linear"
    assert result.obstruction.class_witness == -2 * model.table.poly("x")


def test_hopf_report_always_carries_hypotheses():
    model, comul = util.fixture_a()
    for force in (False, True):
        result = hopf_normalize(model, comul, force=force)
        assert result.report.odd_cohomology_violations
