"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria (tolerances are exact equality unless stated):
  1. the Hopf counterexample model: check passes, hopf exits 2 (hypothesis
     report names degree 3) and, forced, 3 with obstruction class b3 exactly,
     in under 1 second;
  2. the free-loop-space model: validates, hypothesis check names the even
     fiber generator, the forced run reports the non-exact coefficient -2x,
     and the associativity defect is exactly zero, in under 1 second;
  3. the Leray-Samelson counterexample: defect exactly zero, ls exits 3 with
     class b3 w3 w3' at stage ls-even, generator w9, word length 2, in under
     1 second;
  4. round trips: at least 50 seeded models over the three bases, perturbed
     in the modes change-of-generators and both, normalize to D = 0 and the
     standard comultiplication exactly and every certificate verifies, in
     under 60 seconds (on these bases both modes give the same models, so
     the exact-homotopy mode has its own round trips over a contractible
     base);
  5. the structure theorem as a finite assertion: brute-force solution
     spaces equal the basic-form spans for r in {3, 4} over pools of up to
     five indices, and the containment is strict for r = 2, in under 30
     seconds;
  6. closed-form lemma kernels match brute-force null spaces for all
     strictly increasing sequences of length at most 4;
  7. at least 10^4 randomized algebra-law cases with zero failures;
  8. at least 100 certificate mutations, each of one image of Phi, of eta
     or of the target, all caught, among them every image of eta in the two
     golden certificates whose eta is nonzero.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fibrewise import (
    ChangeOfGenerators,
    Comultiplication,
    GeneratorTable,
    Polynomial,
    RelativeModel,
    associativity_defect,
    basic_form_element,
    brute_force_solution_space,
    check_hypotheses,
    conjugate,
    hopf_normalize,
    ls_normalize,
    normalize_monomial,
    validate_comultiplication,
    validate_relative_model,
    verify_equivalence,
)
from fibrewise import io as fio
from fibrewise.certify import invert
from fibrewise.cli import run_command
from fibrewise.propsolver import _same_polynomial_span, polynomial_span_contains

import util
from test_io_cli import fixture_a_doc, fixture_b_doc, fixture_c_doc

GOLDEN = Path(__file__).parent / "golden"


def _report(n, detail):
    print(f"ACCEPTANCE {n}: PASS ({detail})")


# -- criterion 1 --------------------------------------------------------------


def test_criterion_1_hopf_counterexample(tmp_path):
    start = time.perf_counter()
    path = tmp_path / "a.json"
    path.write_text(json.dumps(fixture_a_doc()))
    assert run_command(["check", str(path)]) == 0
    out = tmp_path / "res.json"
    assert run_command(["hopf", str(path), "-o", str(out)]) == 2
    doc = json.loads(out.read_text())
    degrees = [v["degree"] for v in doc["hypothesis_report"]["odd_cohomology"]]
    assert degrees == [3]
    assert run_command(["hopf", str(path), "--force", "-o", str(out)]) == 3
    doc = json.loads(out.read_text())
    assert doc["obstruction"]["class_witness"] == [
        {"coeff": "1", "factors": [["base", "b3", 1]]}
    ]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"exit 2 then 3, class b3, {elapsed:.2f}s")


# -- criterion 2 --------------------------------------------------------------


def test_criterion_2_free_loop_space(tmp_path):
    start = time.perf_counter()
    model, comul = fio.parse_model(fixture_b_doc())
    assert validate_relative_model(model).ok
    assert validate_comultiplication(model, comul).ok
    report = check_hypotheses(model)
    assert [g.name for g in report.even_fiber_generators] == ["yb"]
    assert report.odd_cohomology_violations == []
    forced = hopf_normalize(model, comul, force=True)
    assert forced.outcome == "obstructed"
    x = model.table.poly("x")
    assert forced.obstruction.class_witness == -2 * x
    assert forced.obstruction.word_length == 1
    for gen in model.table.fiber:
        assert associativity_defect(model, comul, gen) == Polynomial.zero()
    path = tmp_path / "b.json"
    path.write_text(json.dumps(fixture_b_doc()))
    assert run_command(["hopf", str(path)]) == 2
    assert run_command(["hopf", str(path), "--force"]) == 3
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"even generator yb, class -2x, defect 0, {elapsed:.2f}s")


# -- criterion 3 --------------------------------------------------------------


def test_criterion_3_leray_samelson_counterexample(tmp_path):
    start = time.perf_counter()
    model, comul = fio.parse_model(fixture_c_doc())
    for gen in model.table.fiber:
        assert associativity_defect(model, comul, gen) == Polynomial.zero()
    path = tmp_path / "c.json"
    path.write_text(json.dumps(fixture_c_doc()))
    out = tmp_path / "res.json"
    assert run_command(["ls", str(path), "--force", "-o", str(out)]) == 3
    doc = json.loads(out.read_text())
    ob = doc["obstruction"]
    assert ob["stage"] == "ls-even"
    assert ob["generator"] == "w9"
    assert ob["word_length"] == 2
    assert ob["class_witness"] == [
        {"coeff": "1",
         "factors": [["base", "b3", 1], ["w0", "w3", 1], ["w1", "w3", 1]]}
    ]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(3, f"obstruction b3*w3*w3' at ls-even/w9/2, {elapsed:.2f}s")


# -- criterion 4 (round trips, shared with criterion 8) ------------------------


def _round_trip(tmp, name, std, seed, mode):
    """perturb, then hopf and ls, each certificate checked by verify, all
    through the CLI; ls must reach D = 0 and the standard comultiplication.
    Returns the perturbed model document and the ls certificate document."""
    std_doc = json.loads(std.read_text())
    pert = tmp / f"pert_{name}.json"
    assert run_command(["perturb", str(std), "--seed", str(seed),
                        "--mode", mode, "-o", str(pert)]) == 0
    hopf_out = tmp / "hopf.json"
    assert run_command(["hopf", str(pert), "-o", str(hopf_out)]) == 0
    hopf_doc = json.loads(hopf_out.read_text())
    assert hopf_doc["certificate"]["target"]["differential"] == {}
    hopf_cert = tmp / "hopf_cert.json"
    hopf_cert.write_text(json.dumps(hopf_doc["certificate"]))
    assert run_command(["verify", str(pert), str(hopf_cert)]) == 0
    ls_out = tmp / f"ls_{name}.json"
    assert run_command(["ls", str(pert), "-o", str(ls_out)]) == 0
    doc = json.loads(ls_out.read_text())
    assert doc["outcome"] == "normalized"
    cert_doc = doc["certificate"]
    assert cert_doc["target"]["differential"] == {}
    assert cert_doc["target"]["comultiplication"] == std_doc["comultiplication"]
    cert_path = tmp / "cert.json"
    cert_path.write_text(json.dumps(cert_doc))
    assert run_command(["verify", str(pert), str(cert_path)]) == 0
    return json.loads(pert.read_text()), cert_doc


def _standard_document(tmp, name, model):
    std = tmp / f"std_{name}.json"
    std.write_text(fio.dumps(
        fio.model_to_document(model, Comultiplication.standard(model.table))))
    return std


@pytest.fixture(scope="module")
def round_trip_artifacts(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("rt")
    start = time.perf_counter()
    runs = 0
    certificates = []
    for base_idx, model in enumerate(util.rt_tables()):
        std = _standard_document(tmp, str(base_idx), model)
        for seed in range(9):
            for mode in ("change-of-generators", "both"):
                pert_doc, cert_doc = _round_trip(tmp, f"{base_idx}_{seed}_{mode}", std,
                                                  seed, mode)
                runs += 1
                if cert_doc["phi"] or cert_doc["eta"]:
                    certificates.append((pert_doc, cert_doc))
    elapsed = time.perf_counter() - start
    return {"runs": runs, "certificates": certificates, "elapsed": elapsed}


def test_criterion_4_round_trips(round_trip_artifacts):
    art = round_trip_artifacts
    assert art["runs"] >= 50
    assert art["elapsed"] < 60.0
    _report(4, f"{art['runs']} round trips, {len(art['certificates'])} "
               f"non-trivial certificates, {art['elapsed']:.1f}s")


def test_exact_homotopy_round_trips(tmp_path):
    # on Lambda(p2, q3; dp = q) mixed exact terms exist below |w9|, so the
    # exact-homotopy perturbation really moves C and ls must undo it by homotopy
    model = util.contractible_base_model(
        fiber=[("u", 3), ("v", 3), ("z", 3), ("w", 9)], truncation=14
    )
    std = _standard_document(tmp_path, "contractible", model)
    standard = json.loads(std.read_text())["comultiplication"]
    for seed in range(9):
        for mode in ("exact-homotopy", "both"):
            pert_doc, cert_doc = _round_trip(tmp_path, f"{seed}_{mode}", std, seed, mode)
            assert pert_doc["comultiplication"] != standard
            if mode == "exact-homotopy":
                assert cert_doc["eta"]


# -- criterion 5 --------------------------------------------------------------


def test_criterion_5_structure_theorem_oracle():
    start = time.perf_counter()
    table = GeneratorTable(base=[], fiber=[(f"w{i}", 3) for i in range(1, 6)])
    gens = [table.generator("w0", f"w{i}") for i in range(1, 6)]
    checked = 0
    for r in (3, 4):
        for pool_size in range(r, 6):
            pool = gens[:pool_size]
            space = brute_force_solution_space(table, r, pool)
            expected = [
                basic_form_element(table, list(combo))
                for combo in itertools.combinations(pool, r)
            ]
            assert _same_polynomial_span(space, expected), (r, pool_size)
            checked += 1
    # r = 2: the basic-form span is empty yet mixed solutions exist
    pool2 = gens[:2]
    space2 = brute_force_solution_space(table, 2, pool2)
    assert len(space2) == 4
    chi = table.poly("w1") * table.poly("w2", copy=1)
    assert polynomial_span_contains(space2, chi)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(5, f"{checked} (r, pool) spans equal, r=2 strictly larger, "
               f"{elapsed:.1f}s")


# -- criterion 6 --------------------------------------------------------------


def test_criterion_6_lemma_kernels():
    start = time.perf_counter()
    table = GeneratorTable(base=[], fiber=[(f"w{i}", 3) for i in range(1, 6)])
    gens = [table.generator("w0", f"w{i}") for i in range(1, 6)]
    conditions = ("beta=gamma", "beta=0", "beta=delta", "alpha+beta=gamma",
                  "beta=gamma+delta")
    checked = 0
    for size in range(1, 5):
        for combo in itertools.combinations(gens, size):
            for condition in conditions:
                # lemma_kernel raises on any closed-form/brute-force mismatch
                util.lemma_kernel(table, condition, list(combo))
                checked += 1
    elapsed = time.perf_counter() - start
    _report(6, f"{checked} kernel comparisons, {elapsed:.1f}s")


# -- criterion 7 --------------------------------------------------------------


def test_criterion_7_randomized_algebra_laws():
    start = time.perf_counter()
    rng = random.Random(2024)
    cases = 0

    table = GeneratorTable(
        base=[("x", 2), ("s", 3)], fiber=[("u", 1), ("e", 2), ("v", 3)]
    )
    gens = table.base + table.fiber
    # Koszul commutativity
    for _ in range(3500):
        dp, dq = rng.randint(1, 8), rng.randint(1, 8)
        p = util.random_homogeneous(rng, table, gens, dp)
        q = util.random_homogeneous(rng, table, gens, dq)
        assert p * q == (q * p).scale((-1) ** (dp * dq))
        cases += 1
    # odd squares vanish
    odd_gens = [g for g in gens if g.is_odd]
    for _ in range(1500):
        g = rng.choice(odd_gens)
        extra = [(rng.choice(gens), 1) for _ in range(rng.randint(0, 3))]
        mono, sign = normalize_monomial([(g, 1)] + extra + [(g, 1)])
        assert sign == 0 and mono is None
        cases += 1
    # Leibniz differential squares to zero
    model = util.s2_base_model(fiber=[("u", 1), ("e", 2)])
    total = model.total_cdga()
    mgens = model.table.base + model.table.fiber
    for _ in range(2500):
        p = util.random_homogeneous(rng, model.table, mgens, rng.randint(1, 10))
        assert total.d(total.d(p)) == Polynomial.zero()
        cases += 1
    # serialization round trip
    ser_table = GeneratorTable(base=[("x", 2)], fiber=[("u", 3), ("v", 3)])
    ser_gens = RelativeModel(ser_table).tensor_cdga(2).gens
    for _ in range(2000):
        p = util.random_homogeneous(rng, ser_table, ser_gens, rng.randint(1, 9))
        doc = fio.polynomial_to_doc(p)
        assert fio.polynomial_from_doc(ser_table, doc, "$") == p
        cases += 1
    # conjugate-inverse identity
    models = util.rt_tables()
    for _ in range(500):
        model = rng.choice(models)
        comul = Comultiplication.standard(model.table)
        phi = util.seeded_unipotent(model, rng)
        m2, c2 = conjugate(model, comul, phi)
        m3, c3 = conjugate(m2, c2, invert(model, phi))
        assert util.state(m3, c3) == util.state(model, comul)
        cases += 1

    elapsed = time.perf_counter() - start
    assert cases >= 10_000
    _report(7, f"{cases} randomized cases, zero failures, {elapsed:.1f}s")


# -- criterion 8 --------------------------------------------------------------


def _mutate_polynomial_doc(poly_doc):
    """Bump one coefficient by 1 (or introduce a constant-free change) in a
    serialized polynomial; always changes the value."""
    if poly_doc:
        term = poly_doc[0]
        term["coeff"] = str(Fraction(term["coeff"]) + 1)
    else:
        poly_doc.append({"coeff": "1", "factors": []})
    return poly_doc


def _mutation_sites(cert_doc):
    """Where criterion 8 mutates a certificate: each image of Phi and of
    eta, and the target's first comultiplication image."""
    sites = [("phi", name) for name in sorted(cert_doc["phi"])]
    sites += [("eta", name) for name in sorted(cert_doc["eta"])]
    return sites + [("target", sorted(cert_doc["target"]["comultiplication"])[0])]


def test_criterion_8_certificate_mutations(round_trip_artifacts):
    start = time.perf_counter()
    # (model document, certificate document) pairs: a certificate is
    # checked against the model it is for
    certificates = list(round_trip_artifacts["certificates"])
    # the round-trip family yields changes of generators only; these golden
    # certificates have a nonzero eta
    goldens = []
    for name in ("exact_odd_excess", "full_ladder"):
        model_doc, result = (json.loads((GOLDEN / f"{name}.{kind}.json").read_text(
            encoding="utf-8")) for kind in ("model", "ls"))
        goldens.append((model_doc, result["certificate"]))
    golden_eta = sum(len(cert["eta"]) for _, cert in goldens)
    assert golden_eta >= 2
    certificates += goldens
    # extend the pool with guaranteed non-trivial round-trip certificates
    # from the same model family until enough mutation sites exist
    seed = 100
    while sum(len(_mutation_sites(c)) for _, c in certificates) < 110:
        model = util.rt_tables()[seed % 3]
        table = model.table
        comul = Comultiplication.standard(table)
        uvz = table.poly("u") * table.poly("v") * table.poly("z")
        phi = ChangeOfGenerators(
            {table.generator("w0", "w").id:
             table.poly("w") + Fraction(seed % 5 + 1, 2) * uvz}
        )
        m2, c2 = conjugate(model, comul, phi)
        result = ls_normalize(m2, c2)
        assert result.outcome == "normalized" and result.certificate.phi.images
        certificates.append((fio.model_to_document(m2, c2),
                             fio.certificate_to_document(result.certificate)))
        seed += 1
    mutations = {"phi": 0, "eta": 0, "target": 0}
    for model_doc, cert_doc in certificates:
        model, comul = fio.parse_model(model_doc)
        for kind, name in _mutation_sites(cert_doc):
            mutated = json.loads(json.dumps(cert_doc))
            node = mutated["target"]["comultiplication"] if kind == "target" else mutated[kind]
            _mutate_polynomial_doc(node[name])
            verdict = verify_equivalence(fio.certificate_from_document(mutated, model.table),
                                         model, comul)
            assert not verdict.ok, (kind, name)
            mutations[kind] += 1
    elapsed = time.perf_counter() - start
    assert sum(mutations.values()) >= 100
    # every image of eta in the golden certificates is mutated
    assert mutations["eta"] >= golden_eta
    _report(8, f"{sum(mutations.values())} mutations ({mutations['phi']} of Phi, "
               f"{mutations['eta']} of eta, {mutations['target']} of the target), "
               f"all caught, {elapsed:.1f}s")
