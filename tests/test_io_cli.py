"""Document round-trips, structured parse errors, CLI exit codes."""

import json
import subprocess
import sys

import pytest

from fibrewise import Comultiplication
from fibrewise import io as fio
from fibrewise.cli import run_command

import util


def fixture_a_doc():
    return {
        "truncation_degree": 12,
        "base": {
            "generators": [{"name": "b3", "degree": 3}],
            "differential": {},
        },
        "fiber": {
            "generators": [{"name": "w3", "degree": 3}, {"name": "w5", "degree": 5}],
        },
        "differential": {
            "w5": [{"coeff": "1", "factors": [["base", "b3", 1], ["w0", "w3", 1]]}]
        },
    }


def fixture_b_doc():
    return {
        "truncation_degree": 8,
        "base": {
            "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 3}],
            "differential": {"y": [{"coeff": "1", "factors": [["base", "x", 2]]}]},
        },
        "fiber": {
            "generators": [{"name": "xb", "degree": 1}, {"name": "yb", "degree": 2}],
        },
        "differential": {
            "yb": [{"coeff": "-2", "factors": [["base", "x", 1], ["w0", "xb", 1]]}]
        },
        "comultiplication": {
            "yb": [
                {"coeff": "1", "factors": [["w0", "yb", 1]]},
                {"coeff": "1", "factors": [["w1", "yb", 1]]},
                {"coeff": "1", "factors": [["w0", "xb", 1], ["w1", "xb", 1]]},
            ]
        },
    }


def fixture_c_doc():
    return {
        "truncation_degree": 20,
        "base": {"generators": [{"name": "b3", "degree": 3}], "differential": {}},
        "fiber": {
            "generators": [{"name": "w3", "degree": 3}, {"name": "w9", "degree": 9}],
        },
        "differential": {},
        "comultiplication": {
            "w9": [
                {"coeff": "1", "factors": [["w0", "w9", 1]]},
                {"coeff": "1", "factors": [["w1", "w9", 1]]},
                {"coeff": "1", "factors": [["base", "b3", 1], ["w0", "w3", 1], ["w1", "w3", 1]]},
            ]
        },
    }


def standard_rt_doc():
    model = util.rt_tables()[0]
    return fio.model_to_document(model, Comultiplication.standard(model.table))


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_parse_model_fixture_a():
    model, comul = fio.parse_model(fixture_a_doc())
    assert model.truncation == 12
    assert model.d_fiber["w5"] == model.table.poly("b3") * model.table.poly("w3")
    assert comul.is_standard()


def test_parse_serialize_round_trip():
    for doc in (fixture_a_doc(), fixture_b_doc(), fixture_c_doc()):
        model, comul = fio.parse_model(doc)
        out = fio.model_to_document(model, comul)
        model2, comul2 = fio.parse_model(out)
        assert fio.model_to_document(model2, comul2) == out


def test_parse_tolerates_unordered_factors():
    doc = fixture_a_doc()
    doc["differential"]["w5"] = [
        {"coeff": "-1", "factors": [["w0", "w3", 1], ["base", "b3", 1]]}
    ]
    model, _ = fio.parse_model(doc)
    # b3 and w3 are both odd: one transposition, so the sign flips back
    assert model.d_fiber["w5"] == model.table.poly("b3") * model.table.poly("w3")


def test_parse_empty_fiber_degenerate_model():
    doc = {"base": {"generators": [{"name": "x", "degree": 2}]},
           "fiber": {"generators": []}}
    model, comul = fio.parse_model(doc)
    assert model.table.fiber == ()
    assert comul.images == {}


def test_parse_rejects_zero_denominator():
    doc = fixture_a_doc()
    doc["differential"]["w5"][0]["coeff"] = "1/0"
    with pytest.raises(fio.ParseError) as err:
        fio.parse_model(doc)
    assert "differential.w5[0].coeff" in str(err.value)


def test_parse_rejects_floats_and_unknown_generators():
    doc = fixture_a_doc()
    doc["differential"]["w5"][0]["coeff"] = "0.5"
    with pytest.raises(fio.ParseError):
        fio.parse_model(doc)
    doc = fixture_a_doc()
    doc["differential"]["w5"][0]["factors"] = [["base", "nope", 1]]
    with pytest.raises(fio.ParseError) as err:
        fio.parse_model(doc)
    assert "nope" in str(err.value)


def test_parse_rejects_ks_violation():
    doc = fixture_a_doc()
    doc["differential"] = {
        "w3": [{"coeff": "1", "factors": [["base", "b3", 1], ["w0", "w5", 1]]}]
    }
    with pytest.raises(fio.ParseError) as err:
        fio.parse_model(doc)
    assert "ordered-basis" in str(err.value) or "homogeneous" in str(err.value)


def test_default_truncation_and_env_override(monkeypatch):
    doc = fixture_a_doc()
    del doc["truncation_degree"]
    model, _ = fio.parse_model(doc)
    assert model.truncation == 2 * 5 + 2
    monkeypatch.setenv(fio.TRUNCATION_ENV, "16")
    model, _ = fio.parse_model(doc)
    assert model.truncation == 16


def test_cli_check_exit_codes(tmp_path):
    path = write(tmp_path, "a.json", fixture_a_doc())
    assert run_command(["check", path]) == 0
    bad = fixture_a_doc()
    bad["differential"]["w5"][0]["coeff"] = "1/0"
    bad_path = write(tmp_path, "bad.json", bad)
    assert run_command(["check", bad_path]) == 4
    assert run_command(["check", str(tmp_path / "missing.json")]) == 4


def test_cli_fixture_a_hopf(tmp_path):
    path = write(tmp_path, "a.json", fixture_a_doc())
    out = str(tmp_path / "res.json")
    assert run_command(["hopf", path, "-o", out]) == 2
    doc = json.loads(open(out).read())
    assert doc["outcome"] == "hypothesis-violation"
    assert doc["hypothesis_report"]["odd_cohomology"][0]["degree"] == 3
    assert run_command(["hopf", path, "--force", "-o", out]) == 3
    doc = json.loads(open(out).read())
    assert doc["outcome"] == "obstructed"
    assert doc["obstruction"]["stage"] == "hopf-linear"
    assert doc["obstruction"]["class_witness"] == [
        {"coeff": "1", "factors": [["base", "b3", 1]]}
    ]


def test_cli_fixture_c_ls(tmp_path):
    path = write(tmp_path, "c.json", fixture_c_doc())
    out = str(tmp_path / "res.json")
    assert run_command(["ls", path, "--force", "-o", out]) == 3
    doc = json.loads(open(out).read())
    ob = doc["obstruction"]
    assert (ob["stage"], ob["generator"], ob["word_length"]) == ("ls-even", "w9", 2)
    assert ob["class_witness"] == [
        {"coeff": "1",
         "factors": [["base", "b3", 1], ["w0", "w3", 1], ["w1", "w3", 1]]}
    ]


def test_cli_round_trip_with_verify(tmp_path):
    std = write(tmp_path, "std.json", standard_rt_doc())
    pert = str(tmp_path / "pert.json")
    assert run_command(["perturb", std, "--seed", "1", "--mode",
                        "change-of-generators", "-o", pert]) == 0
    res = str(tmp_path / "res.json")
    assert run_command(["ls", pert, "-o", res]) == 0
    doc = json.loads(open(res).read())
    assert doc["outcome"] == "normalized"
    cert = str(tmp_path / "cert.json")
    open(cert, "w").write(json.dumps(doc["certificate"]))
    assert run_command(["verify", pert, cert]) == 0
    # verifying against a model with different generators fails
    other = write(tmp_path, "other.json", fixture_a_doc())
    assert run_command(["verify", other, cert]) == 4
    # a tampered certificate fails
    mangled = json.loads(open(cert).read())
    if mangled["steps"]:
        mangled["steps"][0]["result"]["comultiplication"]["w"].append(
            {"coeff": "1", "factors": [["w0", "u", 1], ["w0", "v", 1], ["w0", "z", 1]]}
        )
        bad = str(tmp_path / "bad.json")
        open(bad, "w").write(json.dumps(mangled))
        assert run_command(["verify", pert, bad]) == 4


def test_cli_output_determinism(tmp_path):
    std = write(tmp_path, "std.json", standard_rt_doc())
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for target in (a, b):
        assert run_command(["perturb", std, "--seed", "9", "-o", target]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    ra, rb = str(tmp_path / "ra.json"), str(tmp_path / "rb.json")
    for target in (ra, rb):
        assert run_command(["ls", a, "-o", target]) == 0
    assert open(ra, "rb").read() == open(rb, "rb").read()


def test_cli_cohomology(tmp_path, capsys):
    path = write(tmp_path, "a.json", fixture_a_doc())
    assert run_command(["cohomology", path, "-n", "3"]) == 0
    captured = capsys.readouterr()
    assert "dim H = 1" in captured.out
    assert "b3" in captured.out


def test_cli_perturb_exact_mode_unsatisfiable(tmp_path):
    std = write(tmp_path, "std.json", standard_rt_doc())
    # no solvable differential images exist over Lambda(x2) at this size
    assert run_command(["perturb", std, "--seed", "1", "--mode",
                        "exact-homotopy", "-o", str(tmp_path / "o.json")]) == 4


def test_cli_entry_point_subprocess(tmp_path):
    path = write(tmp_path, "a.json", fixture_a_doc())
    proc = subprocess.run(
        [sys.executable, "-m", "fibrewise", "check", path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "valid" in proc.stdout


def test_certificate_document_round_trip(tmp_path):
    from fibrewise import PerturbationSpec, ls_normalize, perturb, verify_equivalence

    model = util.rt_tables()[1]
    comul = Comultiplication.standard(model.table)
    cert = None
    for seed in range(30):
        m2, c2 = perturb(model, comul, PerturbationSpec(seed=seed, mode="both"))
        result = ls_normalize(m2, c2)
        if result.certificate.steps:
            cert = result.certificate
            break
    assert cert is not None
    doc = fio.certificate_to_document(cert)
    text = fio.dumps(doc)
    parsed = fio.certificate_from_document(json.loads(text))
    assert verify_equivalence(parsed).ok
    assert fio.dumps(fio.certificate_to_document(parsed)) == text


def test_certificates_with_homotopy_steps_round_trip():
    # the contractible base produces homotopy steps (interval polynomials in
    # the serialized document) on every seed
    from fibrewise import PerturbationSpec, ls_normalize, perturb, verify_equivalence

    model = util.contractible_base_model(
        fiber=[("u", 3), ("v", 3), ("z", 3), ("w", 9)], truncation=20
    )
    comul = Comultiplication.standard(model.table)
    homotopy_seen = False
    for seed in range(6):
        m2, c2 = perturb(model, comul, PerturbationSpec(seed=seed, mode="both"))
        result = ls_normalize(m2, c2)
        assert result.outcome == "normalized"
        doc = fio.certificate_to_document(result.certificate)
        text = fio.dumps(doc)
        parsed = fio.certificate_from_document(json.loads(text))
        assert verify_equivalence(parsed).ok
        assert fio.dumps(fio.certificate_to_document(parsed)) == text
        kinds = {step.kind for step in parsed.steps}
        homotopy_seen = homotopy_seen or "homotopy" in kinds
    assert homotopy_seen


# -- malformed document nodes exit 4 with their location ---------------------------


def fixture_a_certificate_doc():
    """A structurally valid, step-free certificate over fixture a's table."""
    return {
        "truncation_degree": 12,
        "model": {
            "base": {"generators": [{"name": "b3", "degree": 3}]},
            "fiber": {"generators": [{"name": "w3", "degree": 3},
                                     {"name": "w5", "degree": 5}]},
        },
        "steps": [],
    }


def _with(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


MALFORMED_MODELS = {
    "base": (["base"], 5),
    "fiber": (["fiber"], []),
    "base.differential": (["base", "differential"], 5),
    "differential": (["differential"], [1]),
    "differential.w5[0].factors": (["differential", "w5", 0, "factors"], 5),
    "differential.w5[0].factors[0]": (
        ["differential", "w5", 0, "factors", 0], [["base"], "b3", 1]),
    "base.generators[0]": (["base", "generators", 0, "degree"], True),
    "truncation_degree": (["truncation_degree"], True),
}


@pytest.mark.parametrize("location", sorted(MALFORMED_MODELS))
def test_cli_malformed_model_node_exits_4(tmp_path, capsys, location):
    path, value = MALFORMED_MODELS[location]
    doc = _with(fixture_a_doc(), path, value)
    with pytest.raises(fio.ParseError) as err:
        fio.parse_model(doc)
    assert err.value.location == location
    assert run_command(["check", write(tmp_path, "bad.json", doc)]) == 4
    assert f"ERROR: {location}:" in capsys.readouterr().err


MALFORMED_CERTIFICATES = {
    "model": (["model"], 5),
    "model.base": (["model", "base"], []),
    "source": (["source"], "x"),
    "steps": (["steps"], 5),
    "steps[0]": (["steps"], [5]),
    "steps[0].result": (["steps"], [{"kind": "homotopy", "result": 5}]),
    "steps[0].images.nope": (
        ["steps"], [{"kind": "homotopy", "images": {"nope": []}}]),
    "truncation_degree": (["truncation_degree"], True),
}


@pytest.mark.parametrize("location", sorted(MALFORMED_CERTIFICATES))
def test_cli_malformed_certificate_node_exits_4(tmp_path, capsys, location):
    path, value = MALFORMED_CERTIFICATES[location]
    doc = _with(fixture_a_certificate_doc(), path, value)
    with pytest.raises(fio.ParseError) as err:
        fio.certificate_from_document(doc)
    assert err.value.location == location
    model = write(tmp_path, "a.json", fixture_a_doc())
    cert = write(tmp_path, "cert.json", doc)
    assert run_command(["verify", model, cert]) == 4
    assert f"ERROR: {location}:" in capsys.readouterr().err


def test_truncation_below_one_exits_4(tmp_path, monkeypatch, capsys):
    doc = fixture_a_doc()
    del doc["truncation_degree"]
    path = write(tmp_path, "a.json", doc)
    monkeypatch.setenv(fio.TRUNCATION_ENV, "-3")
    with pytest.raises(fio.ParseError) as err:
        fio.parse_model(doc)
    assert err.value.location == fio.TRUNCATION_ENV
    assert run_command(["check", path]) == 4
    assert f"ERROR: {fio.TRUNCATION_ENV}:" in capsys.readouterr().err
    monkeypatch.delenv(fio.TRUNCATION_ENV)
    assert run_command(["check", path, "--max-degree", "0"]) == 4
    assert run_command(["check", path, "--max-degree", "1"]) == 0
    for value in (0, -3):
        with pytest.raises(fio.ParseError):
            fio.parse_model(_with(fixture_a_doc(), ["truncation_degree"], value))


@pytest.mark.parametrize("pipeline", ["hopf", "ls"])
def test_pipeline_truncation_must_exceed_fiber_degrees(tmp_path, capsys, pipeline):
    # fixture a's largest fiber degree is 5: at truncation 2 or 5 the
    # hypothesis scan would miss degrees the pipelines solve in
    for truncation, code in ((2, 4), (5, 4), (6, 2)):
        doc = _with(fixture_a_doc(), ["truncation_degree"], truncation)
        path = write(tmp_path, f"a{truncation}.json", doc)
        assert run_command([pipeline, path]) == code, truncation
        assert run_command(["check", path]) == 0
    err = capsys.readouterr().err
    assert "ERROR: truncation degree 2 must exceed the largest fiber degree 5" in err
    assert "ERROR: truncation degree 5 must exceed the largest fiber degree 5" in err
