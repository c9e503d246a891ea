"""Change-of-generators inversion, conjugation, homotopies, verification."""

import importlib
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fibrewise import (
    AlgebraError,
    ChangeOfGenerators,
    Comultiplication,
    DGHomotopy,
    GeneratorTable,
    Polynomial,
    RelativeModel,
    conjugate,
    emit_triviality_report,
    evaluate_interval,
    ls_normalize,
    verify_equivalence,
    verify_homotopy,
)
from fibrewise import certify
from fibrewise import io as fio
from fibrewise.algebra import is_mixed_square_monomial
from fibrewise.certify import invert, new_certificate, snapshot
from fibrewise.model import validate_comultiplication

import util


def test_invert_identity():
    model, _ = util.fixture_a()
    phi = ChangeOfGenerators({})
    inverse = invert(model, phi)
    assert inverse.images == {}


def test_invert_single_step():
    model = util.contractible_base_model(fiber=[("u", 3), ("w", 5)])
    table = model.table
    wid = table.generator("w0", "w").id
    eta = table.poly("p")
    phi = ChangeOfGenerators({wid: table.poly("w") - eta * table.poly("u")})
    inverse = invert(model, phi)
    assert inverse.images[wid] == table.poly("w") + eta * table.poly("u")


def test_invert_nested_by_back_substitution():
    # Phi(w9) = w9 + s w3 w5 with Phi(w5) = w5 + x w3: the inverse needs the
    # substituted tail, and both composites must be the identity
    table = GeneratorTable(base=[("s", 1), ("x", 2)], fiber=[("w3", 3), ("w5", 5), ("w9", 9)])
    model = RelativeModel(table)
    s, x = table.poly("s"), table.poly("x")
    w3, w5, w9 = table.poly("w3"), table.poly("w5"), table.poly("w9")
    id5 = table.generator("w0", "w5").id
    id9 = table.generator("w0", "w9").id
    phi = ChangeOfGenerators({id5: w5 + x * w3, id9: w9 + s * w3 * w5})
    inverse = invert(model, phi)
    assert inverse.images[id5] == w5 - x * w3
    # w3^2 = 0 kills the substituted correction term
    assert inverse.images[id9] == w9 - s * w3 * w5
    for gen in table.fiber:
        gp = Polynomial.from_generator(gen)
        assert inverse.apply(phi.image(gen)) == gp
        assert phi.apply(inverse.image(gen)) == gp


def test_invert_rejects_bad_shape():
    model, _ = util.fixture_a()
    table = model.table
    id3 = table.generator("w0", "w3").id
    # the tail may only involve strictly earlier generators
    phi = ChangeOfGenerators({id3: 2 * table.poly("w3")})
    with pytest.raises(AlgebraError):
        invert(model, phi)


def test_conjugate_identity_fixes_everything():
    model, comul = util.fixture_a()
    new_model, new_comul = conjugate(model, comul, ChangeOfGenerators({}))
    assert snapshot(new_model, new_comul) == snapshot(model, comul)


def test_conjugate_round_trip_randomized():
    rng = random.Random(19)
    for model in util.rt_tables():
        comul = Comultiplication.standard(model.table)
        for _ in range(5):
            phi = util.seeded_unipotent(model, rng)
            m2, c2 = conjugate(model, comul, phi)
            m3, c3 = conjugate(m2, c2, invert(model, phi))
            assert snapshot(m3, c3) == snapshot(model, comul)


def test_conjugation_raises_word_length():
    # Phi(w) = w + y u v sends the zero differential to x^3 u v (length 2)
    table = GeneratorTable(base=[("x", 2), ("y", 5)], fiber=[("u", 3), ("v", 3), ("w", 11)])
    x, y = table.poly("x"), table.poly("y")
    model = RelativeModel(table, d_base={"y": x ** 3}, truncation=24)
    comul = Comultiplication.standard(table)
    wid = table.generator("w0", "w").id
    phi = ChangeOfGenerators({wid: table.poly("w") + y * table.poly("u") * table.poly("v")})
    m2, _ = conjugate(model, comul, phi)
    parts = m2.D(table.generator("w0", "w")).word_length_parts()
    assert list(parts) == [2]
    assert parts[2] == x ** 3 * table.poly("u") * table.poly("v")


def test_evaluate_interval():
    table = GeneratorTable(base=[("x", 2)], fiber=[("w", 3)])
    t = Polynomial.from_generator(table.t)
    dt = Polynomial.from_generator(table.dt)
    w = table.poly("w")
    p = w + table.poly("x") * w * t - table.poly("x", 0) * w * t * t + w * dt
    assert evaluate_interval(table, p, 0) == w
    assert evaluate_interval(table, p, 1) == w


def test_evaluate_interval_against_the_term_loop():
    # tensor-square polynomials times t^k (k <= 3), with or without dt; a
    # piece -q next to q t^k cancels at t = 1, so sums that cancel are met
    model = util.contractible_base_model(fiber=[("u", 3), ("v", 3), ("w", 9)],
                                         truncation=20)
    table = model.table
    gens = model.tensor_cdga(2).gens
    t = Polynomial.from_generator(table.t)
    dt = Polynomial.from_generator(table.dt)
    rng = random.Random(22)
    cancelled = 0
    for _ in range(150):
        p = Polynomial.zero()
        for _ in range(rng.randint(1, 4)):
            q = util.random_homogeneous(rng, table, gens, rng.choice([3, 6, 9]))
            piece = q * t ** rng.randint(0, 3)
            p = p + (piece * dt if rng.random() < 0.4 else piece)
            if rng.random() < 0.3:
                p = p - q
        # the monomials of the terms without dt, with their t factors removed
        keys = {tuple(f for f in m if f[0].space != "interval")
                for m in p.terms if all(g.name != "dt" for g, _ in m)}
        for value in (0, 1):
            got = evaluate_interval(table, p, value)
            assert got == util.evaluate_interval_by_terms(p, value)
            assert got.spaces() <= {"base", "w0", "w1"}
            cancelled += value == 1 and len(got.terms) < len(keys)
    assert cancelled


def test_verify_homotopy_constant():
    model, comul = util.fixture_a()
    images = {g.id: comul.image(g) for g in model.table.fiber}
    h = DGHomotopy(images)
    assert verify_homotopy(model, h, comul.images, comul.images).ok


def test_verify_homotopy_even_step_shape():
    # H(w) = C(w) - P t - eta dt with P = q u v', eta = p u v'
    model = util.contractible_base_model(fiber=[("u", 3), ("v", 3), ("w", 9)],
                                         truncation=20)
    table = model.table
    p, q = table.poly("p"), table.poly("q")
    u, vp = table.poly("u"), table.poly("v", copy=1)
    images = dict(Comultiplication.standard(table).images)
    images["w"] = images["w"] + q * u * vp
    comul = Comultiplication(table, images)
    t = Polynomial.from_generator(table.t)
    dt = Polynomial.from_generator(table.dt)
    h_images = {g.id: comul.image(g) for g in table.fiber}
    wid = table.generator("w0", "w").id
    h_images[wid] = comul.image(table.generator("w0", "w")) - (q * u * vp) * t - (p * u * vp) * dt
    end = dict(comul.images)
    end["w"] = end["w"] - q * u * vp
    h = DGHomotopy(h_images)
    assert verify_homotopy(model, h, comul.images, end).ok
    # the ends are the states before and after the step: an edit of either
    # is located at its end of the interval, with the difference as witness
    edited = {**comul.images, "w": comul.images["w"] + q * u * vp}
    for start, stop, message, witness in (
        (edited, end, "homotopy at t=0 differs from the current comultiplication at w",
         -(q * u * vp)),
        (comul.images, edited, "homotopy at t=1 differs from the recorded "
                               "comultiplication at w", -2 * (q * u * vp)),
    ):
        verdict = verify_homotopy(model, h, start, stop)
        assert (verdict.failures, verdict.witness) == ([message], witness)
    without_w = {name: image for name, image in comul.images.items() if name != "w"}
    assert verify_homotopy(model, h, without_w, end).failures == [
        "current comultiplication image missing for w"]
    # perturbing the dt-part by a non-cycle breaks differential compatibility
    h_bad = dict(h_images)
    h_bad[wid] = h_bad[wid] + (p * u * vp) * dt
    verdict = verify_homotopy(model, DGHomotopy(h_bad), comul.images, end)
    assert not verdict.ok
    assert verdict.failures[0].startswith("homotopy does not commute with the differentials")


def test_verify_equivalence_empty_certificate():
    model, comul = util.fixture_a()
    cert = new_certificate(model, comul)
    assert verify_equivalence(cert).ok


def test_verify_equivalence_accepts_pipeline_output():
    model = util.rt_tables()[0]
    comul = Comultiplication.standard(model.table)
    from fibrewise import PerturbationSpec, perturb

    m2, c2 = perturb(model, comul, PerturbationSpec(seed=3, mode="change-of-generators"))
    result = ls_normalize(m2, c2)
    assert result.outcome == "normalized"
    assert verify_equivalence(result.certificate).ok


def test_verify_equivalence_rejects_tampered_step():
    model = util.rt_tables()[0]
    comul = Comultiplication.standard(model.table)
    from fibrewise import PerturbationSpec, perturb

    cert = None
    for seed in range(30):  # not every seed perturbs observably
        m2, c2 = perturb(model, comul,
                         PerturbationSpec(seed=seed, mode="change-of-generators"))
        result = ls_normalize(m2, c2)
        if result.certificate.steps:
            cert = result.certificate
            break
    assert cert is not None and cert.steps
    step = cert.steps[0]
    victim = sorted(step.c_after)[0]
    step.c_after[victim] = step.c_after[victim] + model.table.poly("w")
    verdict = verify_equivalence(cert)
    assert not verdict.ok
    assert verdict.failed_step == 0


def test_verify_equivalence_rejects_wrong_target():
    model, comul = util.fixture_a()
    cert = new_certificate(model, comul)
    cert.target_c = dict(cert.target_c)
    cert.target_c["w3"] = cert.target_c["w3"] + model.table.poly("w3")
    verdict = verify_equivalence(cert)
    assert not verdict.ok


def test_triviality_report_wording():
    model = util.rt_tables()[0]
    comul = Comultiplication.standard(model.table)
    from fibrewise import hopf_normalize

    res = hopf_normalize(model, comul)
    text = emit_triviality_report(res, "hopf")
    assert "fibrewise trivial" in text
    res2 = ls_normalize(model, comul)
    text2 = emit_triviality_report(res2, "ls")
    assert "fibrewise H-trivial" in text2
    modelC, comulC = util.fixture_c()
    res3 = ls_normalize(modelC, comulC, force=True)
    text3 = emit_triviality_report(res3, "ls")
    assert "obstruction" in text3 and "ls-even" in text3


# -- the verifier checks identities, it does not replay --------------------------

GOLDEN = Path(__file__).parent / "golden"


def _refuse(*args, **kwargs):
    raise AssertionError("the verifier must not conjugate or invert")


def test_golden_certificates_verify_without_conjugate_or_invert(monkeypatch):
    monkeypatch.setattr(certify, "conjugate", _refuse)
    monkeypatch.setattr(certify, "invert", _refuse)
    names = []
    for path in sorted(GOLDEN.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if "certificate" not in doc:
            continue
        verdict = verify_equivalence(fio.certificate_from_document(doc))
        assert verdict.ok, (path.name, verdict.failures)
        names.append(path.name)
    assert "full_ladder.hopf.json" in names and "full_ladder.ls.json" in names
    assert sum(name.startswith("rt") for name in names) == 20


def _conjugate_adding_exact_term(real, mutated):
    """`conjugate`, then C(w) += d(eta) for the last fiber generator w and the
    first mixed eta of degree |w| - 1 with d(eta) != 0, whenever phi leaves w
    fixed.  The result is a valid comultiplication, so every check of the
    pipeline lets it through, but it is not the conjugate."""

    def mutant(model, comul, phi):
        new_model, new_comul = real(model, comul, phi)
        table = model.table
        last = table.fiber[-1]
        if last.id in phi.images:
            return new_model, new_comul
        square = new_model.tensor_cdga(2)
        for mono in table.monomial_basis(last.degree - 1, square.gens):
            exact = square.d(Polynomial({mono: Fraction(1)}))
            if is_mixed_square_monomial(mono) and exact:
                images = dict(new_comul.images)
                images[last.name] = images[last.name] + exact
                mutated.append(phi)
                return new_model, Comultiplication(table, images)
        return new_model, new_comul

    return mutant


def test_verify_catches_a_conjugation_bug_the_pipeline_lets_through(monkeypatch):
    model, comul = util.full_ladder_model()
    mutated = []
    mutant = _conjugate_adding_exact_term(certify.conjugate, mutated)
    for namespace in ("fibrewise", "fibrewise.certify", "fibrewise.normalize",
                      "fibrewise.perturb"):
        monkeypatch.setattr(importlib.import_module(namespace), "conjugate", mutant)
    result = ls_normalize(model, comul)
    assert result.outcome == "normalized" and mutated
    actions = [step.action for step in result.certificate.steps]
    first = next(i for i, action in enumerate(actions) if action is mutated[0])
    verdict = verify_equivalence(result.certificate)
    assert not verdict.ok
    assert verdict.failed_step == first
    assert "does not intertwine the comultiplications" in verdict.failures[0]


def test_cli_verify_rejects_a_valid_but_wrong_recorded_state(tmp_path, capsys):
    from fibrewise.cli import run_command

    model, comul = util.full_ladder_model()
    cert = ls_normalize(model, comul).certificate
    index = next(i for i, step in enumerate(cert.steps)
                 if isinstance(step.action, ChangeOfGenerators))
    step = cert.steps[index]
    table = model.table
    # p^2 u v' is fixed by the step (it moves s), so the witness is d of it
    after = RelativeModel(table, cert.d_base, step.d_after, model.truncation)
    exact = after.tensor_cdga(2).d(
        table.poly("p") ** 2 * table.poly("u") * table.poly("v", copy=1))
    assert exact
    images = dict(step.c_after)
    images["w"] = images["w"] + exact
    assert validate_comultiplication(after, Comultiplication(table, images)).ok
    doc = fio.certificate_to_document(cert)
    doc["steps"][index]["result"]["comultiplication"]["w"] = fio.polynomial_to_doc(images["w"])
    model_path = tmp_path / "model.json"
    model_path.write_text(fio.dumps(fio.model_to_document(model, comul)), encoding="utf-8")
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(fio.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert run_command(["verify", str(model_path), str(cert_path)]) == 4
    assert capsys.readouterr().out.splitlines() == [
        f"FAIL: step {index}: change of generators does not intertwine the "
        "comultiplications at w",
        f"failed step: {index} (change_of_generators)",
        f"witness: {exact!r}",
    ]


# -- every failure branch of the verifier, through `fibrewise verify` --------------


def _term(coeff, *factors):
    return {"coeff": coeff, "factors": [list(factor) for factor in factors]}


def _edit(doc, op, path, value=None):
    """Apply one edit to a document: "add" appends a term to the polynomial
    at `path`, "set" replaces the node there, "del" removes it."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    if op == "add":
        node[path[-1]].append(value)
    elif op == "set":
        node[path[-1]] = value
    else:
        del node[path[-1]]


# X' = u' s' is a second-copy monomial with d(X') = 0 once D vanishes, so over
# dp = q the term t q X' + dt p X' is a cycle; at t = 1 it leaves q X', which
# breaks the counit shape of the recorded comultiplication
_X = (("w1", "u", 1), ("w1", "s", 1))

# name: (edits of full_ladder.ls.json's certificate, whose steps are change,
# change, homotopy, change; failed step; the verifier's message)
LADDER_MUTATIONS = {
    "change shape": (
        [("add", ["steps", 0, "images", "s"], _term("1", ("base", "p", 1), ("base", "q", 1)))],
        0, "tail of s has a pure-base component"),
    "recorded D degree": (
        [("add", ["steps", 0, "result", "differential", "w"],
          _term("1", ("base", "p", 1), ("base", "q", 1), ("w0", "u", 1), ("w0", "v", 1),
                ("w0", "z", 1)))],
        0, "recorded D(w) is not homogeneous of degree 12"),
    "recorded C degree": (
        [("add", ["steps", 0, "result", "comultiplication", "u"],
          _term("1", ("w0", "u", 1), ("w1", "v", 1)))],
        0, "recorded C(u) is not homogeneous of degree 3"),
    "change differential": (
        [("set", ["steps", 0, "result", "differential", "w", 0, "coeff"], "2")],
        0, "change of generators does not intertwine the differentials at w"),
    "change missing C": (
        [("del", ["steps", 0, "result", "comultiplication", "u"])],
        0, "recorded comultiplication image missing for u"),
    "homotopy start": (  # the image of u has no t: it starts at 2u + u'
        [("set", ["steps", 2, "images", "u", 0, "coeff"], "2")],
        2, "homotopy at t=0 differs from the current comultiplication at u"),
    "homotopy endpoint invalid": (
        [("add", ["steps", 2, "images", "w"], _term("1", ("base", "q", 1), *_X,
                                                   ("interval", "t", 1))),
         ("add", ["steps", 2, "images", "w"], _term("1", ("base", "p", 1), *_X,
                                                   ("interval", "dt", 1))),
         ("add", ["steps", 2, "result", "comultiplication", "w"],
          _term("1", ("base", "q", 1), *_X))],
        2, "homotopy endpoint is invalid: C(w) - w - w' has a term outside the "
           "mixed tensor part (counit shape violation)"),
    "homotopy result": (
        [("set", ["steps", 2, "result", "comultiplication", "u", 0, "coeff"], "2")],
        2, "homotopy at t=1 differs from the recorded comultiplication at u"),
    "homotopy differential": (
        [("set", ["steps", 2, "result", "differential"],
          {"w": [_term("1", ("base", "q", 1), ("w0", "u", 1), ("w0", "v", 1),
                       ("w0", "z", 1))]})],
        2, "recorded differential differs from the current one"),
    "homotopy image missing": (
        [("del", ["steps", 2, "images", "u"])],
        2, "homotopy image missing for u"),
    "homotopy degree": (
        [("add", ["steps", 2, "images", "u"], _term("1", ("w0", "u", 1), ("w1", "v", 1)))],
        2, "homotopy image of u is not degree-preserving"),
    "homotopy target": (
        [("add", ["steps", 2, "images", "u"], _term("1", ("w2", "u", 1)))],
        2, "homotopy image of u leaves the target algebra"),
    "homotopy projection": (
        [("add", ["steps", 2, "images", "u"], _term("1", ("base", "p", 1),
                                                   ("interval", "dt", 1)))],
        2, "homotopy image of u has a component over the base (projection "
           "compatibility fails)"),
    "homotopy endpoint missing": (
        [("del", ["steps", 2, "result", "comultiplication", "u"])],
        2, "recorded comultiplication image missing for u"),
}


@pytest.mark.parametrize("name", sorted(LADDER_MUTATIONS))
def test_cli_verify_reports_each_failure_branch(tmp_path, capsys, name):
    from fibrewise.cli import run_command

    edits, index, message = LADDER_MUTATIONS[name]
    doc = json.loads((GOLDEN / "full_ladder.ls.json").read_text(encoding="utf-8"))
    cert = doc["certificate"]
    for edit in edits:
        _edit(cert, *edit)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert), encoding="utf-8")
    capsys.readouterr()
    code = run_command(["verify", str(GOLDEN / "full_ladder.model.json"), str(cert_path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 4
    assert lines[:2] == [f"FAIL: step {index}: {message}",
                         f"failed step: {index} ({cert['steps'][index]['kind']})"]


def test_cli_verify_locates_a_homotopy_that_does_not_start_at_the_previous_state(
        tmp_path, capsys):
    # exact_odd_excess's only step is a homotopy, so its previous state is the
    # source; x^2 u v' z' is a mixed cycle of degree 13 (D = 0, dx = 0), so
    # the model and source with it added to C(w) stay valid and agree
    from fibrewise.cli import run_command

    cycle = _term("1", ("base", "x", 2), ("w0", "u", 1), ("w1", "v", 1), ("w1", "z", 1))
    model = json.loads((GOLDEN / "exact_odd_excess.model.json").read_text(encoding="utf-8"))
    doc = json.loads((GOLDEN / "exact_odd_excess.ls.json").read_text(encoding="utf-8"))
    _edit(model, "add", ["comultiplication", "w"], cycle)
    _edit(doc["certificate"], "add", ["source", "comultiplication", "w"], cycle)
    model_path, cert_path = tmp_path / "model.json", tmp_path / "cert.json"
    model_path.write_text(json.dumps(model), encoding="utf-8")
    cert_path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert run_command(["verify", str(model_path), str(cert_path)]) == 4
    assert capsys.readouterr().out.splitlines() == [
        "FAIL: step 0: homotopy at t=0 differs from the current comultiplication at w",
        "failed step: 0 (homotopy)",
        "witness: -x^2*u*v'*z'",
    ]


def test_cli_verify_checks_recorded_degrees_before_substituting(tmp_path):
    # C'(u) = u + u' + u^(10^9): substituting phi (x) phi into it would take
    # 10^9 - 1 products, so the degree check must come first
    generators = [{"name": "a", "degree": 2}, {"name": "u", "degree": 2}]
    model = {"base": {"generators": []}, "fiber": {"generators": generators}}

    def standard(name):
        return [_term("1", ("w0", name, 1)), _term("1", ("w1", name, 1))]

    source = {"differential": {}, "comultiplication": {"a": standard("a"),
                                                       "u": standard("u")}}
    result = {"differential": {}, "comultiplication": {
        "a": standard("a"), "u": standard("u") + [_term("1", ("w0", "u", 10**9))]}}
    cert = {
        "truncation_degree": 6, "model": model, "source": source, "target": result,
        "steps": [{"kind": "change_of_generators", "stage": "", "note": "",
                   "images": {"u": [_term("1", ("w0", "u", 1)), _term("1", ("w0", "a", 1))]},
                   "result": result}],
    }
    model_path, cert_path = tmp_path / "model.json", tmp_path / "cert.json"
    model_path.write_text(json.dumps(model), encoding="utf-8")
    cert_path.write_text(json.dumps(cert), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "fibrewise", "verify", str(model_path), str(cert_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stdout.splitlines()[:2] == [
        "FAIL: step 0: recorded C(u) is not homogeneous of degree 2",
        "failed step: 0 (change_of_generators)",
    ]


def test_a_large_power_of_t_in_a_homotopy_is_replayed_at_once(tmp_path):
    # t has degree 0, so t^(10^9) * m passes every shape check and is
    # evaluated at the endpoints as a power of a constant
    doc = json.loads((GOLDEN / "exact_odd_excess.ls.json").read_text(encoding="utf-8"))
    image = doc["certificate"]["steps"][0]["images"]["w"]
    factors = [f for term in image for f in term["factors"] if f[:2] == ["interval", "t"]]
    factors[0][2] = 10**9
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "fibrewise", "verify",
         str(GOLDEN / "exact_odd_excess.model.json"), str(cert_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stdout.splitlines()[:2] == [
        "FAIL: step 0: homotopy does not commute with the differentials at w",
        "failed step: 0 (homotopy)",
    ]
