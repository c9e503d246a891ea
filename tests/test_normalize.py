"""Stage-level and pipeline-level normalization behavior."""

import hashlib
import importlib
import os
import random
import subprocess
import sys
import time

import pytest

from fibrewise import (
    PerturbationSpec,
    ChangeOfGenerators,
    Comultiplication,
    GeneratorTable,
    InvalidModelError,
    Polynomial,
    RelativeModel,
    conjugate,
    hopf_normalize,
    ls_normalize,
    perturb,
    verify_equivalence,
)
from fibrewise import io, normalize
from fibrewise.certify import verify_homotopy
from fibrewise.dga import EngineError, FreeCDGA
from fibrewise.model import check_homotopy_associative
from fibrewise.normalize import hopf_stage_higher, hopf_stage_linear

import util


# -- hopf: linear stage -------------------------------------------------------


def test_linear_stage_identity_when_already_high():
    table = GeneratorTable(base=[("x", 2), ("y", 5)], fiber=[("u", 3), ("v", 3), ("w", 11)])
    x = table.poly("x")
    model = RelativeModel(table, d_base={"y": x ** 3},
                          d_fiber={"w": x ** 3 * table.poly("u") * table.poly("v")},
                          truncation=24)
    comul = Comultiplication.standard(table)
    # the standard comultiplication is not DG-compatible with this D, so
    # conjugate a compatible one into place first
    model2, comul2 = conjugate(
        RelativeModel(table, d_base={"y": x ** 3}, truncation=24),
        comul,
        ChangeOfGenerators({table.generator("w0", "w").id:
                            table.poly("w") + table.poly("y") * table.poly("u") * table.poly("v")}),
    )
    m3, c3, steps, obstruction = hopf_stage_linear(model2, comul2)
    assert obstruction is None and steps == []
    assert util.state(m3, c3) == util.state(model2, comul2)


def test_linear_stage_round_trip_recovers_seeded_change():
    model = util.contractible_base_model(fiber=[("u", 3), ("w", 5)], truncation=14)
    table = model.table
    comul = Comultiplication.standard(table)
    wid = table.generator("w0", "w").id
    seeded = ChangeOfGenerators(
        {wid: table.poly("w") - table.poly("p") * table.poly("u")}
    )
    m2, c2 = conjugate(model, comul, seeded)
    assert m2.d_fiber["w"] == -table.poly("q") * table.poly("u")
    m3, c3, steps, obstruction = hopf_stage_linear(m2, c2)
    assert obstruction is None
    assert len(steps) == 1
    # the recovered change undoes the seeded one exactly
    assert steps[0].phi.images[wid] == table.poly("w") + table.poly("p") * table.poly("u")
    assert m3.d_fiber == {}
    assert c3.images == comul.images


def test_linear_stage_obstruction_on_free_loop_space():
    model, comul = util.fixture_b()
    m2, c2, steps, obstruction = hopf_stage_linear(model, comul)
    assert obstruction is not None
    assert obstruction.stage == "hopf-linear"
    assert obstruction.generator.name == "yb"
    assert obstruction.word_length == 1
    assert obstruction.class_witness == -2 * model.table.poly("x")


# -- hopf: higher stage -------------------------------------------------------


def test_higher_stage_obstruction_on_a_nonexact_quadratic_coefficient():
    # D(w) = x u v: its word-length-two coefficient x is a class in degree
    # 2, so the higher stage stops there; the stage does not validate
    table = GeneratorTable(base=[("x", 2)], fiber=[("u", 3), ("v", 3), ("w", 7)])
    model = RelativeModel(
        table, d_fiber={"w": table.poly("x") * table.poly("u") * table.poly("v")},
        truncation=16,
    )
    _, _, steps, obstruction = hopf_stage_higher(model, Comultiplication.standard(table))
    assert steps == []
    assert io.obstruction_to_doc(obstruction) == {
        "stage": "hopf-higher",
        "generator": "w",
        "word_length": 2,
        "class_witness": io.polynomial_to_doc(table.poly("x")),
        "detail": "coefficient of D(w) at word length 2 represents a nonzero "
                  "class in degree 2",
    }


def test_higher_stage_identity_on_zero_differential():
    model = util.rt_tables()[0]
    comul = Comultiplication.standard(model.table)
    m2, c2, steps, obstruction = hopf_stage_higher(model, comul)
    assert obstruction is None and steps == []


def test_higher_stage_rejects_linear_terms():
    # the higher stage is the same induction without its stop after r = 1:
    # fixture_a's D(w5) = b3 u3 has a linear coefficient that is a class,
    # and it obstructs there as the linear stage does
    model, comul = util.fixture_a()
    _, _, steps, obstruction = hopf_stage_higher(model, comul)
    assert steps == []
    assert (obstruction.stage, obstruction.generator.name, obstruction.word_length) == (
        "hopf-linear", "w5", 1)
    assert obstruction.class_witness == model.table.poly("b3")
    assert obstruction == hopf_stage_linear(model, comul)[3]


@pytest.mark.parametrize("wrong", [
    pytest.param(lambda eta: 2 * eta, id="doubled"),
    pytest.param(lambda eta: Polynomial.zero(), id="zero"),
])
def test_higher_stage_round_trip(monkeypatch, wrong):
    # a wrong guess fails its differential check and the coefficient is
    # solved by `split`: the same change, and a certificate that verifies
    real = normalize.leading_prime_coefficient
    monkeypatch.setattr(normalize, "leading_prime_coefficient",
                        lambda *args: wrong(real(*args)))
    table = GeneratorTable(base=[("x", 2), ("y", 5)], fiber=[("u", 3), ("v", 3), ("w", 11)])
    x, y = table.poly("x"), table.poly("y")
    model = RelativeModel(table, d_base={"y": x ** 3}, truncation=24)
    comul = Comultiplication.standard(table)
    wid = table.generator("w0", "w").id
    phi = ChangeOfGenerators({wid: table.poly("w") + y * table.poly("u") * table.poly("v")})
    m2, c2 = conjugate(model, comul, phi)
    assert m2.d_fiber["w"] == x ** 3 * table.poly("u") * table.poly("v")
    m3, c3, steps, obstruction = hopf_stage_higher(m2, c2)
    assert obstruction is None
    assert m3.d_fiber == {}
    assert len(steps) == 1
    assert steps[0].phi.images[wid] == table.poly("w") - y * table.poly("u") * table.poly("v")
    assert c3.images == comul.images
    result = hopf_normalize(m2, c2)
    assert result.normalized and result.certificate.target_d == {}
    assert verify_equivalence(result.certificate, m2, c2).ok


def test_higher_stage_repeated_leading_index():
    # an even fiber generator appearing twice: the 1/N division path
    table = GeneratorTable(base=[("x", 2), ("y", 3)], fiber=[("e", 2), ("w", 7)])
    x, y = table.poly("x"), table.poly("y")
    e, w = table.poly("e"), table.poly("w")
    model = RelativeModel(table, d_base={"y": x * x}, truncation=16)
    comul = Comultiplication.standard(table)
    wid = table.generator("w0", "w").id
    phi = ChangeOfGenerators({wid: w + y * e * e})
    m2, c2 = conjugate(model, comul, phi)
    assert m2.d_fiber["w"] == x * x * e * e
    # C'(w) picks up 2 y e e', the observable sum of the two coefficients
    excess = c2.excess(table.generator("w0", "w"))
    assert excess == 2 * y * e * table.poly("e", copy=1)
    m3, c3, steps, obstruction = hopf_stage_higher(m2, c2)
    assert obstruction is None
    assert m3.d_fiber == {}
    assert steps[0].phi.images[wid] == w - y * e * e
    assert c3.images == comul.images


@pytest.mark.parametrize("seed", [1, 4, 5, 6])
def test_higher_stage_groups_each_comultiplication_once_per_step(monkeypatch, seed):
    # seeded changes of generators of L(6) whose higher steps solve several
    # fiber-monomial coefficients: C(w_k) is grouped once per step, not once
    # per coefficient, besides the one grouping of D(w_k)'s lowest part
    ladder = util.ladder_model(6)
    spec = PerturbationSpec(seed, max_word_length=6, mode="change-of-generators")
    model, comul = perturb(ladder, Comultiplication.standard(ladder.table), spec)
    model, comul, _, obstruction = hopf_stage_linear(model, comul)
    assert obstruction is None
    calls = []
    real = Polynomial.group_by_fiber_part
    monkeypatch.setattr(Polynomial, "group_by_fiber_part",
                        lambda self: calls.append(1) or real(self))
    guesses, splits = [], []
    guess = normalize.leading_prime_coefficient
    monkeypatch.setattr(normalize, "leading_prime_coefficient",
                        lambda *args: guesses.append(guess(*args)) or guesses[-1])
    split = FreeCDGA.split
    monkeypatch.setattr(FreeCDGA, "split",
                        lambda self, cycle: splits.append(cycle) or split(self, cycle))
    model, _, steps, obstruction = hopf_stage_higher(model, comul)
    assert obstruction is None and model.d_fiber == {}
    assert steps and all(step.stage == "hopf-higher" for step in steps)
    assert len(calls) <= 2 * len(steps)
    # every coefficient is offered a guess, and every guess is a preimage:
    # the leading primed coefficient of C(w_k), so `split` never runs
    assert guesses and None not in guesses and splits == []


def test_hopf_pipeline_fixture_a():
    model, comul = util.fixture_a()
    result = hopf_normalize(model, comul)
    assert result.outcome == "hypothesis-violation"
    assert result.certificate is None and result.obstruction is None
    forced = hopf_normalize(model, comul, force=True)
    assert forced.outcome == "obstructed"
    assert forced.obstruction.stage == "hopf-linear"
    assert forced.obstruction.class_witness == model.table.poly("b3")
    assert forced.obstruction.generator.name == "w5"


def test_hopf_pipeline_trivial_input():
    model = util.rt_tables()[0]
    comul = Comultiplication.standard(model.table)
    result = hopf_normalize(model, comul)
    assert result.outcome == "normalized"
    assert result.certificate.steps == []
    assert verify_equivalence(result.certificate, model, comul).ok


# -- ls steps ------------------------------------------------------------------


def test_ls_even_step_removes_seeded_exact_excess():
    model = util.contractible_base_model(fiber=[("u", 3), ("v", 3), ("w", 9)],
                                         truncation=20)
    table = model.table
    q, u = table.poly("q"), table.poly("u")
    vp = table.poly("v", copy=1)
    images = dict(Comultiplication.standard(table).images)
    images["w"] = images["w"] + q * u * vp
    comul = Comultiplication(table, images)
    gen = table.generator("w0", "w")
    m2, c2, steps, obstruction = normalize._ls_step(model, comul, gen, 2)
    assert obstruction is None
    assert len(steps) == 1 and steps[0].phi is None
    assert c2.images == Comultiplication.standard(table).images
    # the part subtracted is the boundary of eta(w) = p u v'
    eta = {"w": table.poly("p") * u * vp}
    assert verify_homotopy(model, comul, ChangeOfGenerators({}), c2.images, eta).ok


def test_ls_even_step_obstruction_fixture_c():
    model, comul = util.fixture_c()
    gen = model.table.generator("w0", "w9")
    m2, c2, steps, obstruction = normalize._ls_step(model, comul, gen, 2)
    assert obstruction is not None
    assert obstruction.stage == "ls-even"
    assert obstruction.generator.name == "w9"
    assert obstruction.word_length == 2
    expected = (model.table.poly("b3") * model.table.poly("w3")
                * model.table.poly("w3", copy=1))
    assert obstruction.class_witness == expected
    # w3 repeats, so the class part is of no basic form
    assert obstruction.detail.endswith("has non-exact coefficients")
    assert m2 is model and c2 is comul and steps == []


def test_ls_even_step_no_excess_is_identity():
    model = util.rt_tables()[0]
    comul = Comultiplication.standard(model.table)
    gen = model.table.generator("w0", "w")
    m2, c2, steps, obstruction = normalize._ls_step(model, comul, gen, 2)
    assert obstruction is None and steps == [] and (m2, c2) == (model, comul)


def test_ls_odd_step_absorbs_complement_part():
    # P3 = b (S_I - w_I - w'_I) with b a nonzero class scalar
    table = GeneratorTable(base=[("x", 2)], fiber=[("u", 3), ("v", 3), ("z", 3), ("w", 9)])
    model = RelativeModel(table, truncation=14)
    comul0 = Comultiplication.standard(table)
    gens = [table.generator("w0", n) for n in ("u", "v", "z")]
    from fibrewise import basic_form_element
    images = dict(comul0.images)
    images["w"] = images["w"] + 2 * basic_form_element(table, gens)
    comul = Comultiplication(table, images)
    gen = table.generator("w0", "w")
    m2, c2, steps, obstruction = normalize._ls_step(model, comul, gen, 3)
    assert obstruction is None
    assert len(steps) == 1 and steps[0].phi is not None
    wid = gen.id
    expected = table.poly("w") - 2 * table.poly("u") * table.poly("v") * table.poly("z")
    assert steps[0].phi.images[wid] == expected
    assert c2.images == comul0.images


def test_ls_odd_step_pure_homotopy_when_exact():
    # excess x^3 u v z' has the exact coefficient x^3 = d(y)
    table = GeneratorTable(base=[("x", 2), ("y", 5)],
                           fiber=[("u", 3), ("v", 3), ("z", 3), ("w", 15)])
    x = table.poly("x")
    model = RelativeModel(table, d_base={"y": x ** 3}, truncation=32)
    images = dict(Comultiplication.standard(table).images)
    images["w"] = images["w"] + x ** 3 * table.poly("u") * table.poly("v") * table.poly("z", copy=1)
    comul = Comultiplication(table, images)
    gen = table.generator("w0", "w")
    m2, c2, steps, obstruction = normalize._ls_step(model, comul, gen, 3)
    assert obstruction is None
    assert [s.phi for s in steps] == [None]
    assert c2.images == Comultiplication.standard(table).images


def test_ls_odd_step_mixed_exact_and_complement():
    table = GeneratorTable(base=[("a", 2), ("b", 2), ("y", 3)],
                           fiber=[("u", 3), ("v", 3), ("z", 3), ("w", 13)])
    a, b = table.poly("a"), table.poly("b")
    model = RelativeModel(table, d_base={"y": a * a}, truncation=26)
    comul0 = Comultiplication.standard(table)
    wid = table.generator("w0", "w").id
    phi = ChangeOfGenerators(
        {wid: table.poly("w") + (a * a + a * b) * table.poly("u") * table.poly("v") * table.poly("z")}
    )
    m2, c2 = conjugate(model, comul0, phi)
    gen = table.generator("w0", "w")
    m3, c3, steps, obstruction = normalize._ls_step(m2, c2, gen, 3)
    assert obstruction is None
    # a change of generators absorbs the class part, the exact part is subtracted
    assert [s.phi is None for s in steps] == [False, True]
    assert c3.images == comul0.images


def test_ls_odd_step_no_excess_is_identity():
    model = util.rt_tables()[0]
    comul = Comultiplication.standard(model.table)
    gen = model.table.generator("w0", "w")
    m2, c2, steps, obstruction = normalize._ls_step(model, comul, gen, 3)
    assert steps == [] and obstruction is None


# -- full pipelines ---------------------------------------------------------------


def test_ls_pipeline_fixture_c():
    model, comul = util.fixture_c()
    result = ls_normalize(model, comul)
    assert result.outcome == "hypothesis-violation"
    forced = ls_normalize(model, comul, force=True)
    assert forced.outcome == "obstructed"
    ob = forced.obstruction
    assert (ob.stage, ob.generator.name, ob.word_length) == ("ls-even", "w9", 2)
    # w3 repeats, so the class part b3 w3 w3' is of no basic form
    t = model.table
    assert ob.class_witness == t.poly("b3") * t.poly("w3") * t.poly("w3", copy=1)


def test_forced_pipelines_normalize_models_standard_by_construction():
    # (D = 0, C0) over a base with odd cohomology, conjugated by a seeded
    # unipotent change: equivalent to the standard pair by construction.  A
    # word-length-2 excess coefficient may then be a class (b3 in degree 3),
    # which the excess step absorbs by a change of generators; among these,
    # b3c5 seed 0 and b1x2 seed 1 stopped at ls-even when only an exact even
    # excess could be removed
    absorbed = []
    for label, model in util.odd_cohomology_bases().items():
        for seed in range(5):
            phi = util.seeded_unipotent(model, random.Random(seed), max_terms=3)
            source = conjugate(model, Comultiplication.standard(model.table), phi)
            for pipeline in (hopf_normalize, ls_normalize):
                assert pipeline(*source).outcome == "hypothesis-violation"
                result = pipeline(*source, force=True)
                assert result.normalized, (label, seed, pipeline.__name__)
                assert verify_equivalence(result.certificate, *source).ok, (label, seed)
            absorbed.extend((label, seed) for step in result.certificate.steps
                            if step.stage == "ls-even" and step.note.startswith("absorb"))
    assert {("b3c5", 0), ("b1x2", 1)} <= set(absorbed)


def test_ls_pipeline_rejects_nonassociative_input():
    table = GeneratorTable(base=[("x", 2)], fiber=[("u", 3), ("v", 3), ("w", 9)])
    model = RelativeModel(table, truncation=18)
    images = dict(Comultiplication.standard(table).images)
    images["w"] = images["w"] + table.poly("u") * table.poly("v") * table.poly("u", copy=1)
    comul = Comultiplication(table, images)
    with pytest.raises(InvalidModelError):
        ls_normalize(model, comul)


def test_ls_pipeline_seeded_round_trips():
    from fibrewise import PerturbationSpec, perturb

    rng = random.Random(2)
    for model in util.rt_tables():
        comul = Comultiplication.standard(model.table)
        for mode in ("change-of-generators", "both"):
            spec = PerturbationSpec(seed=rng.randint(0, 10**6), mode=mode)
            m2, c2 = perturb(model, comul, spec)
            result = ls_normalize(m2, c2)
            assert result.outcome == "normalized"
            assert result.certificate.target_d == {}
            assert result.certificate.target_c == comul.images
            assert verify_equivalence(result.certificate, m2, c2).ok


@pytest.mark.parametrize("mode", ["change-of-generators", "both"])
def test_round_trips_that_move_the_differential(mode):
    # over Lambda(p2, q3; dp = q) a change of generators with non-closed
    # coefficients moves D, so hopf has work on every model; no seed is skipped
    from fibrewise import PerturbationSpec, perturb

    model = util.contractible_base_model(
        fiber=[("u", 3), ("v", 3), ("z", 3), ("s", 5), ("w", 11)], truncation=14
    )
    comul = Comultiplication.standard(model.table)
    stages = set()
    for seed in range(27):
        m2, c2 = perturb(model, comul, PerturbationSpec(seed=seed, mode=mode))
        assert m2.d_fiber
        hopf = hopf_normalize(m2, c2)
        assert hopf.normalized and hopf.certificate.steps
        assert hopf.certificate.target_d == {}
        assert verify_equivalence(hopf.certificate, m2, c2).ok
        ls = ls_normalize(m2, c2)
        assert ls.normalized
        assert ls.certificate.target_d == {}
        assert ls.certificate.target_c == comul.images
        assert verify_equivalence(ls.certificate, m2, c2).ok
        stages.update(step.stage for step in ls.certificate.steps)
    assert stages == {"hopf-linear", "hopf-higher", "ls-even", "ls-odd"}


def _carrying_spy(monkeypatch):
    """A list that gets one entry for each change of generators through
    which `_carry_through` moved eta."""
    carried, real = [], normalize._carry_through

    def spy(model, comul, change, eta):
        before = dict(eta)
        real(model, comul, change, eta)
        if eta != before:
            carried.append(change)

    monkeypatch.setattr(normalize, "_carry_through", spy)
    return carried


def test_eta_equals_eta_taken_by_conjugation(monkeypatch):
    # eta is built as the steps come: the preimages of the subtracted parts,
    # carried through each later change whose tail has a factor with an eta;
    # conjugating the source by Phi and splitting C^Phi - C_T takes the same
    # eta.  Over (u3, v3, s11, w17) a change of w by s u v meets eta(s)
    carried = _carrying_spy(monkeypatch)
    runs = change_after_subtraction = carrying_runs = 0
    for fiber in ([("u", 3), ("v", 3), ("z", 3), ("w", 9)],
                  [("u", 3), ("v", 3), ("z", 3), ("s", 5), ("w", 11)],
                  [("u", 3), ("v", 3), ("s", 11), ("w", 17)]):
        model = util.contractible_base_model(fiber=fiber)
        comul = Comultiplication.standard(model.table)
        for mode in ("both", "change-of-generators"):
            for word_length in (3, 4):
                for seed in range(25):
                    m2, c2 = perturb(model, comul, PerturbationSpec(
                        seed, max_word_length=word_length, mode=mode))
                    carried.clear()
                    cert = ls_normalize(m2, c2).certificate
                    target = Comultiplication(m2.table, cert.target_c)
                    assert cert.eta == util.eta_by_conjugation(m2, c2, cert.phi, target), (
                        fiber, mode, word_length, seed)
                    assert verify_equivalence(cert, m2, c2).ok
                    removed = [step.note.startswith(("remove even excess", "remove exact part"))
                               for step in cert.steps]
                    runs += 1
                    change_after_subtraction += (
                        True in removed and not all(removed[removed.index(True):]))
                    carrying_runs += bool(carried)
    assert runs == 300 and change_after_subtraction >= 45 and carrying_runs >= 12


def test_eta_is_carried_through_a_change_whose_tail_has_an_eta(monkeypatch):
    # C conjugated by s -> s + pq uv, w -> w + s u v: ls subtracts the exact
    # part pq (u v' + u' v) of C(s), then absorbs w -> w - s u v, whose
    # factor s has an eta.  Summing the subtracted parts alone misses
    # -2 pq u v' u' v in C^Phi(w) - C_T(w)
    carried = _carrying_spy(monkeypatch)
    model = util.contractible_base_model(fiber=[("u", 3), ("v", 3), ("s", 11), ("w", 17)])
    poly, gen = model.table.poly, model.table.generator
    chi = ChangeOfGenerators({
        gen("w0", "s").id: poly("s") + poly("p") * poly("q") * poly("u") * poly("v"),
        gen("w0", "w").id: poly("w") + poly("s") * poly("u") * poly("v")})
    source, source_comul = conjugate(model, Comultiplication.standard(model.table), chi)
    cert = ls_normalize(source, source_comul).certificate
    assert [step.note for step in cert.steps] == [
        "remove even excess of length 2 from C(s)",
        "absorb complement part of length 3 into w",
        "remove even excess of length 4 from C(w)"]
    assert len(carried) == 1 and verify_equivalence(cert, source, source_comul).ok
    target = Comultiplication(source.table, cert.target_c)
    assert cert.eta == util.eta_by_conjugation(source, source_comul, cert.phi, target)
    assert set(cert.eta) == {"s"}  # the carried gain cancels C(w)'s subtracted part


def test_ls_pipeline_homotopy_associative_but_not_strict_input():
    model, comul = util.exact_defect_model()
    result = ls_normalize(model, comul)
    assert result.outcome == "normalized"
    assert verify_equivalence(result.certificate, model, comul).ok


def test_pipeline_stability_earlier_generators_never_move(monkeypatch):
    # within each pipeline pass, a step for w_k may only change images of
    # w_k and later generators, so the first changed position never drops;
    # the states before and after each step are taken by a spy on the steps
    states = []
    for name in ("_hopf_step", "_ls_step"):
        def spy(model, comul, gen, r, _real=getattr(normalize, name)):
            out = _real(model, comul, gen, r)
            states.append((model, comul, *out))
            return out
        monkeypatch.setattr(normalize, name, spy)
    model, comul = util.full_ladder_model()
    result = ls_normalize(model, comul)
    assert result.outcome == "normalized"
    order = {g.name: i for i, g in
             enumerate(sorted(model.table.fiber, key=lambda g: g.degree))}
    position: dict[str, int] = {}
    made = 0
    for before_m, before_c, after_m, after_c, steps, _ in states:
        if not steps:
            continue
        made += len(steps)
        changed = {n for n in order
                   if after_c.images[n] != before_c.images.get(n)
                   or after_m.d_fiber.get(n) != before_m.d_fiber.get(n)}
        assert changed, "every step must change something"
        first = min(order[n] for n in changed)
        stage = steps[0].stage
        assert first >= position.get(stage, 0), (
            f"{stage} step touched an earlier, settled generator")
        position[stage] = first
    assert made == len(result.certificate.steps) == 4
    assert result.certificate.target_c == Comultiplication.standard(model.table).images


def test_ls_pipeline_mixes_even_and_odd_steps():
    # over the contractible base, tails q u v (cycle coefficient, length 2)
    # create even excess while u v z creates odd excess; one run handles both
    model = util.contractible_base_model(
        fiber=[("u", 3), ("v", 3), ("z", 3), ("w", 9)], truncation=20
    )
    table = model.table
    comul = Comultiplication.standard(table)
    q = table.poly("q")
    uv = table.poly("u") * table.poly("v")
    uvz = uv * table.poly("z")
    phi = ChangeOfGenerators(
        {table.generator("w0", "w").id: table.poly("w") + q * uv + 3 * uvz}
    )
    m2, c2 = conjugate(model, comul, phi)
    lengths = sorted(c2.excess(table.generator("w0", "w")).word_length_parts())
    assert lengths == [2, 3]
    result = ls_normalize(m2, c2)
    assert result.outcome == "normalized"
    stages = [s.stage for s in result.certificate.steps]
    assert "ls-even" in stages and "ls-odd" in stages
    assert verify_equivalence(result.certificate, m2, c2).ok


def test_multi_generator_compound_round_trip():
    # nonzero differential plus excess on two generators at once
    table = GeneratorTable(
        base=[("x", 2), ("y", 5)],
        fiber=[("u", 3), ("v", 3), ("z", 3), ("s", 9), ("w", 11)],
    )
    x, y = table.poly("x"), table.poly("y")
    u, v, z = table.poly("u"), table.poly("v"), table.poly("z")
    model = RelativeModel(table, d_base={"y": x ** 3}, truncation=24)
    comul = Comultiplication.standard(table)
    phi = ChangeOfGenerators({
        table.generator("w0", "s").id: table.poly("s") + 2 * u * v * z,
        table.generator("w0", "w").id: table.poly("w") + y * u * v + x * u * v * z,
    })
    m2, c2 = conjugate(model, comul, phi)
    assert m2.d_fiber["w"] == x ** 3 * u * v
    result = ls_normalize(m2, c2)
    assert result.outcome == "normalized"
    assert result.certificate.target_d == {}
    assert result.certificate.target_c == comul.images
    assert verify_equivalence(result.certificate, m2, c2).ok


def test_full_ladder_every_stage_in_one_run():
    # one seeded model whose normalization needs the linear stage, the
    # higher stage, an even homotopy and an odd absorption, in that order
    m2, c2 = util.full_ladder_model()
    table = m2.table
    assert m2.d_fiber["s"] == table.poly("q") * table.poly("u")
    result = ls_normalize(m2, c2)
    assert result.outcome == "normalized"
    stages = [step.stage for step in result.certificate.steps]
    assert stages == ["hopf-linear", "hopf-higher", "ls-even", "ls-odd"]
    assert result.certificate.target_d == {}
    assert result.certificate.target_c == Comultiplication.standard(table).images
    assert verify_equivalence(result.certificate, m2, c2).ok


def test_pipeline_idempotent_on_normalized_output():
    model = util.rt_tables()[0]
    comul = Comultiplication.standard(model.table)
    result = ls_normalize(model, comul)
    assert result.outcome == "normalized" and result.certificate.steps == []
    result2 = hopf_normalize(model, comul)
    assert result2.outcome == "normalized" and result2.certificate.steps == []


def test_pipelines_on_empty_fiber():
    table = GeneratorTable(base=[("x", 2)], fiber=[])
    model = RelativeModel(table)
    comul = Comultiplication.standard(table)
    for runner in (hopf_normalize, ls_normalize):
        result = runner(model, comul)
        assert result.outcome == "normalized"
        assert result.certificate.steps == []
        assert verify_equivalence(result.certificate, model, comul).ok


def test_classical_hopf_over_a_point():
    # empty base: the classical statement that the differential vanishes
    table = GeneratorTable(base=[], fiber=[("u", 3), ("v", 3), ("w", 9)])
    model = RelativeModel(table, truncation=14)
    comul = Comultiplication.standard(table)
    result = ls_normalize(model, comul)
    assert result.outcome == "normalized"


def test_obstruction_witnesses_are_reduced_and_non_exact():
    model, comul = util.fixture_a()
    forced = hopf_normalize(model, comul, force=True)
    witness = forced.obstruction.class_witness
    base = model.base_cdga()
    assert base.d(witness) == Polynomial.zero()
    assert base.solve_preimage(witness) is None
    modelC, comulC = util.fixture_c()
    forcedC = ls_normalize(modelC, comulC, force=True)
    witnessC = forcedC.obstruction.class_witness
    square = modelC.tensor_cdga(2)
    assert square.d(witnessC) == Polynomial.zero()
    assert square.solve_preimage(witnessC) is None


# -- homotopy associativity: proved by every normalizing ls run ---------------------


def _perturbed(model, seed, mode):
    return perturb(model, Comultiplication.standard(model.table), PerturbationSpec(seed, mode=mode))


def _d_moving_model():
    return util.contractible_base_model(
        fiber=[("u", 3), ("v", 3), ("z", 3), ("s", 5), ("w", 11)], truncation=14)


def _contractible_model():
    return util.contractible_base_model(
        fiber=[("u", 3), ("v", 3), ("z", 3), ("w", 9)], truncation=14)


# (label, builder, the outcome of a forced ls run, or "non-associative")
ASSOCIATIVITY_CASES = [
    ("fixture-a", util.fixture_a, "obstructed"),
    ("fixture-b", util.fixture_b, "obstructed"),
    ("fixture-c", util.fixture_c, "obstructed"),
    ("full-ladder", util.full_ladder_model, "normalized"),
    ("nonassociative", util.nonassociative_model, "non-associative"),
    ("exact-defect", util.exact_defect_model, "normalized"),
    *[(f"rt{index}-{seed}-{mode}",
       lambda index=index, seed=seed, mode=mode: _perturbed(util.rt_tables()[index], seed, mode),
       "normalized")
      for index in range(3) for seed in range(2) for mode in ("change-of-generators", "both")],
    *[(f"contractible-{seed}-{mode}",
       lambda seed=seed, mode=mode: _perturbed(_contractible_model(), seed, mode), "normalized")
      for seed in range(2) for mode in ("exact-homotopy", "both")],
    *[(f"d-moving-{seed}-{mode}",
       lambda seed=seed, mode=mode: _perturbed(_d_moving_model(), seed, mode), "normalized")
      for seed in range(2) for mode in ("change-of-generators", "both")],
    *[(f"L{n}", lambda n=n: util.perturbed_ladder(n), "normalized") for n in range(4, 8)],
]


@pytest.mark.parametrize("build,expected", [case[1:] for case in ASSOCIATIVITY_CASES],
                         ids=[case[0] for case in ASSOCIATIVITY_CASES])
def test_ls_verdict_agrees_with_the_tensor_cube(build, expected):
    # a normalizing run needs no cube: its success proves associativity
    model, comul = build()
    failures = check_homotopy_associative(model, comul)
    if expected == "non-associative":
        assert failures
        with pytest.raises(InvalidModelError, match="not homotopy associative"):
            ls_normalize(model, comul, force=True)
        return
    assert failures == {}
    assert ls_normalize(model, comul, force=True).outcome == expected


def test_ls_success_never_checks_associativity(monkeypatch):
    calls, powers = [], []
    real_check, real_power = check_homotopy_associative, RelativeModel.tensor_cdga

    def spy_check(model, comul):
        calls.append(model)
        return real_check(model, comul)

    def spy_power(self, copies=2):
        powers.append(copies)
        return real_power(self, copies)

    monkeypatch.setattr(normalize, "check_homotopy_associative", spy_check)
    monkeypatch.setattr(RelativeModel, "tensor_cdga", spy_power)
    for model, comul in (util.full_ladder_model(), util.exact_defect_model(),
                         util.perturbed_ladder(7),
                         _perturbed(_d_moving_model(), 0, "both")):
        assert ls_normalize(model, comul).normalized
    assert calls == [] and 3 not in powers
    # a run that does not normalize checks once, in the cube
    model, comul = util.fixture_c()
    assert ls_normalize(model, comul, force=True).outcome == "obstructed"
    assert calls == [model] and 3 in powers


def test_ls_error_after_the_scan_checks_associativity_first(monkeypatch):
    def failing_step(model, comul, gen, r):
        raise EngineError("excess step failed")

    monkeypatch.setattr(normalize, "_ls_step", failing_step)
    model, comul = util.nonassociative_model()
    with pytest.raises(InvalidModelError, match="not homotopy associative"):
        ls_normalize(model, comul, force=True)
    model, comul = util.full_ladder_model()
    with pytest.raises(EngineError, match="excess step failed"):
        ls_normalize(model, comul)


def test_a_step_that_does_not_raise_the_word_length_is_an_error(monkeypatch):
    # every stage runs one induction, which refuses to repeat a word length;
    # a change of generators that changes nothing repeats it
    linear_model = util.contractible_base_model(fiber=[("u", 3), ("w", 5)], truncation=14)
    t = linear_model.table
    linear = conjugate(linear_model, Comultiplication.standard(t), ChangeOfGenerators(
        {t.generator("w0", "w").id: t.poly("w") - t.poly("p") * t.poly("u")}))
    t = GeneratorTable(base=[("x", 2), ("y", 5)], fiber=[("u", 3), ("v", 3), ("w", 11)])
    higher_model = RelativeModel(t, d_base={"y": t.poly("x") ** 3}, truncation=24)
    higher = conjugate(higher_model, Comultiplication.standard(t), ChangeOfGenerators(
        {t.generator("w0", "w").id: t.poly("w") + t.poly("y") * t.poly("u") * t.poly("v")}))
    with monkeypatch.context() as patch:
        patch.setattr(normalize, "conjugate", lambda model, comul, phi: (model, comul))
        with pytest.raises(EngineError):
            hopf_stage_linear(*linear)
        with pytest.raises(EngineError):
            hopf_stage_higher(*higher)
    monkeypatch.setattr(normalize, "_ls_step",
                        lambda model, comul, gen, r: (model, comul, [], None))
    with pytest.raises(EngineError):
        ls_normalize(*util.full_ladder_model())


def test_ls_on_the_ladder_l7_takes_under_a_second():
    model, comul = util.perturbed_ladder(7)
    start = time.perf_counter()
    result = ls_normalize(model, comul)
    elapsed = time.perf_counter() - start
    assert result.normalized and verify_equivalence(result.certificate, model, comul).ok
    assert elapsed < 1.0


# sha256 of the result documents of `ls` and `hopf` on L(12) perturbed in
# mode `both` (seed 3, word length 3; test_perturb pins the model): the ls
# certificate takes a hopf-higher, an ls-even and an ls-odd step and has an
# eta of 15 terms
L12_BOTH_RESULT_SHA256 = {
    "ls": "02e57a1396e3a4e0904c6609da96c2ae836f4f933a8e95d00378c9869cac5bfc",
    "hopf": "a3529a71e2bbd318c59e233107ed172b542a6772fb0a5f174d0339d22576d22c",
}


def _l12_both():
    model = util.ladder_model(12)
    return perturb(model, Comultiplication.standard(model.table),
                   PerturbationSpec(3, max_word_length=3, mode="both"))


@pytest.mark.parametrize("pipeline", sorted(L12_BOTH_RESULT_SHA256))
def test_l12_both_results_keep_their_bytes_and_verify(pipeline):
    model, comul = _l12_both()
    result = (ls_normalize if pipeline == "ls" else hopf_normalize)(model, comul)
    text = io.dumps(io.result_to_document(result, pipeline))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == L12_BOTH_RESULT_SHA256[pipeline]
    assert verify_equivalence(result.certificate, model, comul).ok
    stages = [step.stage for step in result.certificate.steps]
    if pipeline == "ls":
        assert stages == ["hopf-higher", "ls-even", "ls-odd"]
        assert {name: len(eta.terms) for name, eta in result.certificate.eta.items()} == {"w": 15}
    else:
        assert stages == ["hopf-higher"] and not result.certificate.eta


def test_l12_both_results_keep_their_bytes_under_another_hash_seed(tmp_path):
    path = tmp_path / "l12.json"
    path.write_text(io.dumps(io.model_to_document(*_l12_both())), encoding="utf-8")
    env = {**os.environ, "PYTHONHASHSEED": "3"}
    for pipeline, expected in L12_BOTH_RESULT_SHA256.items():
        out = tmp_path / f"{pipeline}.json"
        subprocess.run([sys.executable, "-m", "fibrewise", pipeline, str(path), "-o", str(out)],
                       check=True, capture_output=True, env=env, timeout=120)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected, pipeline


def test_a_normalized_run_validates_once_however_many_steps_it_takes(monkeypatch):
    # the screen validates the input; the run's one post-condition is the
    # verifier on its certificate, and no step validates what it builds
    calls = []
    model_module = importlib.import_module("fibrewise.model")
    for module, name in ((normalize, "conjugate"), (normalize, "validate_input"),
                         (normalize, "verify_equivalence"),
                         (model_module, "validate_relative_model"),
                         (model_module, "validate_comultiplication")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    result = ls_normalize(*util.full_ladder_model())
    assert result.normalized and len(result.certificate.steps) == 4
    assert {name: calls.count(name) for name in set(calls)} == {
        "conjugate": 3, "validate_input": 1, "verify_equivalence": 1,
        "validate_relative_model": 1, "validate_comultiplication": 1}
    assert calls.index("validate_input") == 0 and calls[-1] == "verify_equivalence"


def _step_then_obstruction_model():
    """D(v) = q u removed by one linear step, then D(w) = b u obstructs at
    the odd class b (so only a forced run gets there)."""
    table = GeneratorTable(base=[("b", 3), ("p", 2), ("q", 3)],
                           fiber=[("u", 3), ("v", 5), ("w", 5)])
    u = table.poly("u")
    model = RelativeModel(table, d_base={"p": table.poly("q")},
                          d_fiber={"v": table.poly("q") * u, "w": table.poly("b") * u})
    return model, Comultiplication.standard(table)


@pytest.mark.parametrize("pipeline", ["hopf", "ls"])
def test_an_invalid_state_before_an_obstruction_exits_1(monkeypatch, tmp_path, capsys,
                                                        pipeline):
    # an obstruction is read in the state the run reached; a conjugation
    # that left it invalid (w' dropped from C(v)) makes a forced run exit 1
    # with the gate's message, where the faithful run exits 3
    from fibrewise.cli import run_command

    model, comul = _step_then_obstruction_model()
    path = tmp_path / "model.json"
    path.write_text(io.dumps(io.model_to_document(model, comul)), encoding="utf-8")
    out = tmp_path / "out.json"
    assert run_command([pipeline, str(path), "--force", "-o", str(out)]) == 3
    assert "hopf-linear" in capsys.readouterr().err
    out.unlink()
    moved = []
    monkeypatch.setattr(normalize, "conjugate", util.conjugate_dropping_counit_terms(moved))
    assert run_command([pipeline, str(path), "--force", "-o", str(out)]) == 1
    assert moved == ["v"] and not out.exists()
    assert capsys.readouterr().err.startswith(
        "INTERNAL ERROR: the state the obstruction was found in is invalid: "
        "comultiplication: ")
