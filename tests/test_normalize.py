"""Stage-level and pipeline-level normalization behavior."""

import random

import pytest

from fibrewise import (
    ChangeOfGenerators,
    Comultiplication,
    GeneratorTable,
    InvalidModelError,
    Polynomial,
    RelativeModel,
    conjugate,
    hopf_normalize,
    hopf_stage_higher,
    hopf_stage_linear,
    ls_even_step,
    ls_normalize,
    ls_odd_step,
    verify_equivalence,
)
from fibrewise.certify import snapshot

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
    assert snapshot(m3, c3) == snapshot(model2, comul2)


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
    assert steps[0].change.images[wid] == table.poly("w") + table.poly("p") * table.poly("u")
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


def test_higher_stage_identity_on_zero_differential():
    model = util.rt_tables()[0]
    comul = Comultiplication.standard(model.table)
    m2, c2, steps, obstruction = hopf_stage_higher(model, comul)
    assert obstruction is None and steps == []


def test_higher_stage_rejects_linear_terms():
    model, comul = util.fixture_a()
    with pytest.raises(InvalidModelError):
        hopf_stage_higher(model, comul)


def test_higher_stage_round_trip():
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
    assert steps[0].change.images[wid] == table.poly("w") - y * table.poly("u") * table.poly("v")
    assert c3.images == comul.images


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
    assert steps[0].change.images[wid] == w - y * e * e
    assert c3.images == comul.images


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
    assert verify_equivalence(result.certificate).ok


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
    c2, steps, obstruction = ls_even_step(model, comul, gen, 2)
    assert obstruction is None
    assert len(steps) == 1 and steps[0].kind == "homotopy"
    assert c2.images == Comultiplication.standard(table).images
    from fibrewise import verify_homotopy
    assert verify_homotopy(model, steps[0].homotopy).ok


def test_ls_even_step_obstruction_fixture_c():
    model, comul = util.fixture_c()
    gen = model.table.generator("w0", "w9")
    c2, steps, obstruction = ls_even_step(model, comul, gen, 2)
    assert obstruction is not None
    assert obstruction.stage == "ls-even"
    assert obstruction.generator.name == "w9"
    assert obstruction.word_length == 2
    expected = (model.table.poly("b3") * model.table.poly("w3")
                * model.table.poly("w3", copy=1))
    assert obstruction.class_witness == expected


def test_ls_even_step_no_excess_is_identity():
    model = util.rt_tables()[0]
    comul = Comultiplication.standard(model.table)
    gen = model.table.generator("w0", "w")
    c2, steps, obstruction = ls_even_step(model, comul, gen, 2)
    assert obstruction is None and steps == [] and c2 is comul


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
    c2, steps, obstruction = ls_odd_step(model, comul, gen, 3)
    assert obstruction is None
    assert [s.kind for s in steps] == ["change_of_generators"]
    wid = gen.id
    expected = table.poly("w") - 2 * table.poly("u") * table.poly("v") * table.poly("z")
    assert steps[0].change.images[wid] == expected
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
    c2, steps, obstruction = ls_odd_step(model, comul, gen, 3)
    assert obstruction is None
    assert [s.kind for s in steps] == ["homotopy"]
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
    c3, steps, obstruction = ls_odd_step(m2, c2, gen, 3)
    assert obstruction is None
    assert [s.kind for s in steps] == ["change_of_generators", "homotopy"]
    assert c3.images == comul0.images


def test_ls_odd_step_no_excess_is_identity():
    model = util.rt_tables()[0]
    comul = Comultiplication.standard(model.table)
    gen = model.table.generator("w0", "w")
    c2, steps, obstruction = ls_odd_step(model, comul, gen, 3)
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
            assert verify_equivalence(result.certificate).ok


def test_ls_pipeline_homotopy_associative_but_not_strict_input():
    table = GeneratorTable(base=[("x", 2), ("y", 5)],
                           fiber=[("u", 3), ("v", 3), ("z", 3), ("w", 15)])
    x = table.poly("x")
    model = RelativeModel(table, d_base={"y": x ** 3}, truncation=32)
    images = dict(Comultiplication.standard(table).images)
    images["w"] = images["w"] + x ** 3 * table.poly("u") * table.poly("v") * table.poly("z", copy=1)
    comul = Comultiplication(table, images)
    result = ls_normalize(model, comul)
    assert result.outcome == "normalized"
    assert verify_equivalence(result.certificate).ok


def test_pipeline_stability_earlier_generators_never_move():
    # within each pipeline pass, a step for w_k may only change images of
    # w_k and later generators, so the first changed position never drops
    from fibrewise import PerturbationSpec, perturb

    model = util.rt_tables()[1]
    comul = Comultiplication.standard(model.table)
    m2, c2 = perturb(model, comul, PerturbationSpec(seed=11, mode="both"))
    result = ls_normalize(m2, c2)
    assert result.outcome == "normalized"
    order = {g.name: i for i, g in
             enumerate(sorted(model.table.fiber, key=lambda g: g.degree))}
    prev_d, prev_c = dict(result.certificate.source_d), dict(result.certificate.source_c)
    position: dict[str, int] = {}
    for step in result.certificate.steps:
        changed = {n for n in order
                   if step.c_after[n] != prev_c.get(n)
                   or step.d_after.get(n) != prev_d.get(n)}
        assert changed, "every step must change something"
        first = min(order[n] for n in changed)
        stage = step.stage
        assert first >= position.get(stage, 0), (
            f"{stage} step touched an earlier, settled generator")
        position[stage] = first
        prev_d, prev_c = step.d_after, step.c_after
    assert result.certificate.target_c == comul.images


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
    assert verify_equivalence(result.certificate).ok


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
    assert verify_equivalence(result.certificate).ok


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
    assert verify_equivalence(result.certificate).ok


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
        assert verify_equivalence(result.certificate).ok


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
