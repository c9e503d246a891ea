"""Change-of-generators inversion, conjugation, and the verifier of
certificates in normal form (Phi, the target and eta)."""

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
    GeneratorTable,
    PerturbationSpec,
    Polynomial,
    RelativeModel,
    conjugate,
    emit_triviality_report,
    hopf_normalize,
    ls_normalize,
    perturb,
    verify_equivalence,
)
from fibrewise import certify, dga, linalg
from fibrewise import io as fio
from fibrewise.algebra import is_mixed_square_monomial
from fibrewise.certify import invert, verify_homotopy
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
    assert util.state(new_model, new_comul) == util.state(model, comul)


def test_conjugate_round_trip_randomized():
    rng = random.Random(19)
    for model in util.rt_tables():
        comul = Comultiplication.standard(model.table)
        for _ in range(5):
            phi = util.seeded_unipotent(model, rng)
            m2, c2 = conjugate(model, comul, phi)
            m3, c3 = conjugate(m2, c2, invert(model, phi))
            assert util.state(m3, c3) == util.state(model, comul)


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


def test_verify_homotopy_constant():
    model, comul = util.fixture_a()
    assert verify_homotopy(model, comul, ChangeOfGenerators({}), comul.images, {}).ok


def test_verify_homotopy_even_step_shape():
    # C(w) = C0(w) + q u v' is C0 up to the boundary of eta(w) = p u v'
    # (dp = q, and D = 0 in the target square)
    model = util.contractible_base_model(fiber=[("u", 3), ("v", 3), ("w", 9)],
                                         truncation=20)
    table = model.table
    p, q = table.poly("p"), table.poly("q")
    u, vp = table.poly("u"), table.poly("v", copy=1)
    standard = Comultiplication.standard(table).images
    comul = Comultiplication(table, {**standard, "w": standard["w"] + q * u * vp})
    identity = ChangeOfGenerators({})
    eta = {"w": p * u * vp}
    assert verify_homotopy(model, comul, identity, standard, eta).ok
    # an edit of the source, the target or eta is located at w, with the
    # difference (Phi (x) Phi)(C_T + d eta) - C Phi as witness
    edited_source = Comultiplication(table, {**comul.images, "w": comul.images["w"] + q * u * vp})
    for source, target, edited_eta, witness in (
        (edited_source, standard, eta, -(q * u * vp)),
        (comul, {**standard, "w": standard["w"] + q * u * vp}, eta, q * u * vp),
        (comul, standard, {"w": 2 * p * u * vp}, q * u * vp),
        (comul, standard, {}, -(q * u * vp)),
    ):
        verdict = verify_homotopy(model, source, identity, target, edited_eta)
        assert verdict.failures == [
            "phi does not intertwine the comultiplications at w: "
            "(phi (x) phi)(C_T + d eta) != C phi"]
        assert verdict.witness == witness
    # a cycle added to eta changes nothing: eta is fixed up to cycles
    assert verify_homotopy(model, comul, identity, standard,
                           {"w": p * u * vp + q * u * vp}).ok


def test_verify_equivalence_empty_certificate():
    # Phi the identity, eta zero: the certificate of a pair that is its own
    # target, which needs D = 0; fixture a's D(w5) = b3 w3 is refused
    model = util.rt_tables()[0]
    cert = util.identity_certificate(model, Comultiplication.standard(model.table))
    assert verify_equivalence(cert).ok
    fixture, fixture_comul = util.fixture_a()
    verdict = verify_equivalence(util.identity_certificate(fixture, fixture_comul))
    assert (verdict.failures, verdict.witness) == (
        ["target D(w5) is not zero"], fixture.d_fiber["w5"])


def test_verify_equivalence_accepts_pipeline_output():
    model = util.rt_tables()[0]
    comul = Comultiplication.standard(model.table)
    m2, c2 = perturb(model, comul, PerturbationSpec(seed=3, mode="change-of-generators"))
    result = ls_normalize(m2, c2)
    assert result.outcome == "normalized"
    assert verify_equivalence(result.certificate).ok


def test_verify_equivalence_rejects_tampered_step():
    # the composite Phi with one tail doubled: still of valid shape, but no
    # longer the run's change of generators
    model = util.rt_tables()[0]
    comul = Comultiplication.standard(model.table)
    cert = None
    for seed in range(30):  # not every seed perturbs observably
        m2, c2 = perturb(model, comul,
                         PerturbationSpec(seed=seed, mode="change-of-generators"))
        result = ls_normalize(m2, c2)
        if result.certificate.phi.images:
            cert = result.certificate
            break
    assert cert is not None and cert.steps
    gid, image = next(iter(cert.phi.images.items()))
    gen = next(g for g in model.table.fiber if g.id == gid)
    cert.phi.images[gid] = 2 * image - Polynomial.from_generator(gen)
    verdict = verify_equivalence(cert)
    assert not verdict.ok
    assert verdict.failures[0].startswith("phi does not intertwine the ")


def test_a_generator_phi_fixes_is_compared_through_phi():
    # C(w) = w + w' + q u s' conjugated by s -> s + p u: hopf moves s back
    # and fixes w, but C_T(w) = w + w' + q u s' is not the source's
    # C(w) = w + w' + q u s' - p q u u'; only (Phi (x) Phi)(C_T(w)) is
    table = GeneratorTable(base=[("p", 2), ("q", 3)], fiber=[("u", 3), ("s", 5), ("w", 11)])
    model = RelativeModel(table, d_base={"p": table.poly("q")}, truncation=24)
    p, q, u = table.poly("p"), table.poly("q"), table.poly("u")
    standard = Comultiplication.standard(table).images
    comul = Comultiplication(table, {**standard,
                                     "w": standard["w"] + q * u * table.poly("s", copy=1)})
    sid = table.generator("w0", "s").id
    source = conjugate(model, comul, ChangeOfGenerators({sid: table.poly("s") + p * u}))
    cert = hopf_normalize(*source).certificate
    assert list(cert.phi.images) == [sid]
    assert cert.target_c["w"] == comul.images["w"] != source[1].images["w"]
    assert verify_equivalence(cert).ok


def test_verify_equivalence_rejects_wrong_target():
    model = util.rt_tables()[0]
    cert = util.identity_certificate(model, Comultiplication.standard(model.table))
    cert.target_c = dict(cert.target_c)
    cert.target_c["u"] = cert.target_c["u"] + model.table.poly("u")
    verdict = verify_equivalence(cert)
    assert not verdict.ok


def test_triviality_report_wording():
    model = util.rt_tables()[0]
    comul = Comultiplication.standard(model.table)

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


# -- the verifier checks identities: it neither conjugates nor solves -------------

GOLDEN = Path(__file__).parent / "golden"


def _refuse(*args, **kwargs):
    raise AssertionError("the verifier must not conjugate, invert or solve")


def test_golden_certificates_verify_without_conjugate_or_invert(monkeypatch):
    monkeypatch.setattr(certify, "conjugate", _refuse)
    monkeypatch.setattr(certify, "invert", _refuse)
    monkeypatch.setattr(dga.FreeCDGA, "split", _refuse)
    monkeypatch.setattr(linalg, "eliminate", _refuse)
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


def test_an_ls_run_without_an_exact_part_conjugates_once_per_change(monkeypatch):
    # Phi is composed as the run steps; only a run that subtracts an exact
    # part conjugates the source by Phi once more, at the end
    calls = []
    real = certify.conjugate

    def spy(model, comul, phi):
        calls.append(phi)
        return real(model, comul, phi)

    monkeypatch.setattr(importlib.import_module("fibrewise.normalize"), "conjugate", spy)
    wide = util.wide_base_model(fiber=[("u", 3), ("v", 5), ("z", 7), ("w", 9)])
    perturbed = perturb(wide, Comultiplication.standard(wide.table),
                        PerturbationSpec(0, mode="change-of-generators"))
    for (model, comul), subtracts in ((util.full_ladder_model(), True), (perturbed, False)):
        calls.clear()
        result = ls_normalize(model, comul)
        trail = result.certificate.steps
        changes = len(trail) - sum(
            step.note.startswith(("remove even excess", "remove exact part")) for step in trail)
        assert changes >= 2 and len(result.certificate.phi.images) >= 2
        assert bool(result.certificate.eta) == subtracts
        assert len(calls) == changes + subtracts
        if subtracts:
            assert calls[-1] is result.certificate.phi


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
    # hopf's target C is the state its conjugations reach, so an exact term
    # a faulty conjugation adds there is not C carried back by Phi
    model, comul = util.full_ladder_model()
    mutated = []
    mutant = _conjugate_adding_exact_term(certify.conjugate, mutated)
    for namespace in ("fibrewise", "fibrewise.certify", "fibrewise.normalize",
                      "fibrewise.perturb"):
        monkeypatch.setattr(importlib.import_module(namespace), "conjugate", mutant)
    result = hopf_normalize(model, comul)
    assert result.outcome == "normalized" and mutated
    verdict = verify_equivalence(result.certificate)
    assert not verdict.ok
    assert verdict.failures[0].startswith(
        "phi does not intertwine the comultiplications at w")


def test_cli_verify_rejects_a_valid_but_wrong_recorded_state(tmp_path, capsys):
    from fibrewise.cli import run_command

    model, comul = util.full_ladder_model()
    cert = ls_normalize(model, comul).certificate
    table = model.table
    # the target with an exact term added to C(w) is still a valid
    # comultiplication of (B (x) Lambda(W), 0), but not the run's target;
    # Phi fixes u and v, so the witness is the term itself
    target = model.with_fiber_differential({})
    exact = target.tensor_cdga(2).d(
        table.poly("p") ** 2 * table.poly("u") * table.poly("v", copy=1))
    assert exact
    images = dict(cert.target_c)
    images["w"] = images["w"] + exact
    assert validate_comultiplication(target, Comultiplication(table, images)).ok
    doc = fio.certificate_to_document(cert)
    doc["target"]["comultiplication"]["w"] = fio.polynomial_to_doc(images["w"])
    model_path = tmp_path / "model.json"
    model_path.write_text(fio.dumps(fio.model_to_document(model, comul)), encoding="utf-8")
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(fio.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert run_command(["verify", str(model_path), str(cert_path)]) == 4
    assert capsys.readouterr().out.splitlines() == [
        "FAIL: phi does not intertwine the comultiplications at w: "
        "(phi (x) phi)(C_T + d eta) != C phi",
        f"witness: {exact!r}",
    ]


# -- every failure branch of the verifier, through `fibrewise verify` --------------


def _term(coeff, *factors):
    return {"coeff": coeff, "factors": [list(factor) for factor in factors]}


def _edit(doc, op, path, value=None):
    """Apply one edit to a document: "add" appends a term to the polynomial
    at `path` (an absent one is zero), "set" replaces the node there, "del"
    removes it."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    if op == "add":
        node.setdefault(path[-1], []).append(value)
    elif op == "set":
        node[path[-1]] = value
    else:
        del node[path[-1]]


# X' = u' s' is a second-copy monomial and a cycle once D vanishes, so with
# dp = q adding q X' to C_T(w) and -p X' to eta(w) keeps the identity; only
# the mixed condition on eta, which guards the counit of C_T, refuses it
_X = (("w1", "u", 1), ("w1", "s", 1))

# name: (edits of full_ladder.ls.json's certificate, the verifier's message).
# Over Lambda(p2, q3; dp = q) it has Phi(s) = s - p u, Phi(w) = w - p u v z
# - u v s, eta(w) = p u s' - p s u' and the standard target.  The names are
# those of the checks of the chain of steps certificates held before: a
# "change" is now Phi, a "recorded" state or a "result" the target, and a
# "homotopy" eta.
LADDER_MUTATIONS = {
    "change shape": (
        [("add", ["phi", "s"], _term("1", ("base", "p", 1), ("base", "q", 1)))],
        "tail of s has a pure-base component"),
    "recorded D degree": (
        [("add", ["target", "differential", "w"],
          _term("1", ("base", "p", 1), ("base", "q", 1), ("w0", "u", 1), ("w0", "v", 1),
                ("w0", "z", 1)))],
        "target D(w) is not zero"),
    "recorded C degree": (
        [("add", ["target", "comultiplication", "u"],
          _term("1", ("w0", "u", 1), ("w1", "v", 1)))],
        "target C(u) is not homogeneous of degree 3"),
    "change differential": (
        [("set", ["phi", "w", 0, "coeff"], "2")],
        "phi does not intertwine the differentials at w: D(phi(w)) != 0"),
    "change missing C": (
        [("del", ["target", "comultiplication", "u"])],
        "target comultiplication image missing for u"),
    "homotopy start": (  # a non-cycle of eta's degree: d(p^2 u v') = 2 p q u v'
        [("add", ["eta", "w"], _term("1", ("base", "p", 2), ("w0", "u", 1), ("w1", "v", 1)))],
        "phi does not intertwine the comultiplications at w: "
        "(phi (x) phi)(C_T + d eta) != C phi"),
    "homotopy endpoint invalid": (
        [("add", ["eta", "w"], _term("-1", ("base", "p", 1), *_X)),
         ("add", ["target", "comultiplication", "w"], _term("1", ("base", "q", 1), *_X))],
        "eta(w) is not mixed: a term lacks a factor in one of the two fiber copies"),
    "homotopy result": (
        [("set", ["target", "comultiplication", "u", 0, "coeff"], "2")],
        "phi does not intertwine the comultiplications at u: "
        "(phi (x) phi)(C_T + d eta) != C phi"),
    "homotopy differential": (
        [("set", ["target", "differential"],
          {"w": [_term("1", ("base", "q", 1), ("w0", "u", 1), ("w0", "v", 1),
                       ("w0", "z", 1))]})],
        "target D(w) is not zero"),
    "homotopy image missing": (
        [("del", ["eta", "w"])],
        "phi does not intertwine the comultiplications at w: "
        "(phi (x) phi)(C_T + d eta) != C phi"),
    "homotopy degree": (
        [("add", ["eta", "u"], _term("1", ("w0", "u", 1), ("w1", "v", 1)))],
        "eta(u) is not homogeneous of degree 2"),
    "homotopy target": (  # a factor outside the tensor square
        [("add", ["eta", "w"], _term("1", ("base", "p", 1), ("w0", "u", 1), ("w2", "s", 1)))],
        "eta(w) is not mixed: a term lacks a factor in one of the two fiber copies"),
    "homotopy projection": (  # a component over the base alone
        [("add", ["eta", "u"], _term("1", ("base", "p", 1)))],
        "eta(u) is not mixed: a term lacks a factor in one of the two fiber copies"),
    "homotopy endpoint missing": (
        [("del", ["target", "comultiplication", "w"])],
        "target comultiplication image missing for w"),
}


@pytest.mark.parametrize("name", sorted(LADDER_MUTATIONS))
def test_cli_verify_reports_each_failure_branch(tmp_path, capsys, name):
    from fibrewise.cli import run_command

    edits, message = LADDER_MUTATIONS[name]
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
    assert lines[0] == f"FAIL: {message}"


def test_cli_verify_locates_a_homotopy_that_does_not_start_at_the_previous_state(
        tmp_path, capsys):
    # exact_odd_excess's Phi is the identity and its eta accounts for the
    # source; x^2 u v' z' is a mixed cycle of degree 13 (D = 0, dx = 0), so
    # the model and source with it added to C(w) stay valid and agree, but
    # C_T + d eta no longer reaches the source
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
        "FAIL: phi does not intertwine the comultiplications at w: "
        "(phi (x) phi)(C_T + d eta) != C phi",
        "witness: -x^2*u*v'*z'",
    ]


def test_cli_verify_checks_recorded_degrees_before_substituting(tmp_path):
    # C_T(u) = u + u' + u^(10^9): substituting Phi (x) Phi into it would take
    # 10^9 - 1 products, so the degree check must come first
    generators = [{"name": "a", "degree": 2}, {"name": "u", "degree": 2}]
    model = {"base": {"generators": []}, "fiber": {"generators": generators}}

    def standard(name):
        return [_term("1", ("w0", name, 1)), _term("1", ("w1", name, 1))]

    source = {"differential": {}, "comultiplication": {"a": standard("a"),
                                                       "u": standard("u")}}
    target = {"differential": {}, "comultiplication": {
        "a": standard("a"), "u": standard("u") + [_term("1", ("w0", "u", 10**9))]}}
    cert = {
        "truncation_degree": 6, "model": model, "source": source, "target": target,
        "phi": {"u": [_term("1", ("w0", "u", 1)), _term("1", ("w0", "a", 1))]},
        "steps": [{"stage": "", "note": ""}],
    }
    model_path, cert_path = tmp_path / "model.json", tmp_path / "cert.json"
    model_path.write_text(json.dumps(model), encoding="utf-8")
    cert_path.write_text(json.dumps(cert), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "fibrewise", "verify", str(model_path), str(cert_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stdout.splitlines()[0] == "FAIL: target C(u) is not homogeneous of degree 2"


def test_a_large_power_of_t_in_a_homotopy_is_replayed_at_once(tmp_path):
    # eta(w) with a factor x^(10^9): d of it would build a polynomial of
    # that degree, so the degree check refuses it first, at once
    doc = json.loads((GOLDEN / "exact_odd_excess.ls.json").read_text(encoding="utf-8"))
    doc["certificate"]["eta"]["w"][0]["factors"].insert(0, ["base", "x", 10**9])
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "fibrewise", "verify",
         str(GOLDEN / "exact_odd_excess.model.json"), str(cert_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stdout.splitlines()[0] == "FAIL: eta(w) is not homogeneous of degree 12"
