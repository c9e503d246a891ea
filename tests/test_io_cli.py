"""Document round-trips, structured parse errors, CLI exit codes."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from fibrewise import Comultiplication
from fibrewise import io as fio
from fibrewise.cli import run_command
from fibrewise.model import validate_input

import util

# what `check` and `verify` say they checked, after their first words
VERIFIED = "(checked on the generators; Leibniz extends the identities to every degree)\n"
# `verify`'s whole stdout on success: the identities, then whether C_T = C0
VERIFIED_LINE = "certificate verified: phi, the target and eta satisfy both identities " + VERIFIED
STANDARD_TARGET = ("target C_T is the standard C0(w) = w + w': the model is fibrewise "
                   "H-trivial (algebraic criterion met)\n")


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
    # parsing checks only the form; the validity gate locates the fault
    verdict = validate_input(*fio.parse_model(doc))
    assert not verdict.ok
    assert verdict.failures[0].startswith("differential: D(w3) ")
    assert "ordered-basis" in verdict.failures[0] or "homogeneous" in verdict.failures[0]


def test_default_truncation_and_env_override(tmp_path, monkeypatch, capsys):
    # the document's field, else RelativeModel's default; the environment
    # variable FIBREWISE_TRUNCATION was once a third source and is now ignored
    doc = fixture_a_doc()
    del doc["truncation_degree"]
    model, _ = fio.parse_model(doc)
    assert model.truncation == 2 * 5 + 2
    assert fio.parse_model(fixture_a_doc())[0].truncation == 12
    model_doc = json.loads((GOLDEN / "rt0_seed0_both.model.json").read_text(encoding="utf-8"))
    del model_doc["truncation_degree"]
    model_path = write(tmp_path, "model.json", model_doc)

    def run(name):
        out = tmp_path / name
        codes = (run_command(["check", model_path]),
                 run_command(["ls", model_path, "-o", str(out)]))
        return codes, capsys.readouterr(), out.read_bytes()

    capsys.readouterr()
    unset = run("unset.json")
    assert unset[0] == (0, 0)
    assert unset[1].out.startswith("truncation degree: 20\n")
    for i, value in enumerate(("", "ten", "30")):
        monkeypatch.setenv("FIBREWISE_TRUNCATION", value)
        assert fio.parse_model(model_doc)[0].truncation == 20, value
        assert run(f"{i}.json") == unset, value
        # a certificate written with the variable set verifies without it
        monkeypatch.delenv("FIBREWISE_TRUNCATION")
        assert run_command(["verify", model_path, str(tmp_path / f"{i}.json")]) == 0
        assert capsys.readouterr().out == VERIFIED_LINE + STANDARD_TARGET


def test_cli_check_exit_codes(tmp_path, capsys):
    path = write(tmp_path, "a.json", fixture_a_doc())
    assert run_command(["check", path]) == 0
    assert capsys.readouterr().out == ("truncation degree: 12\n"
                                       "model and comultiplication are valid " + VERIFIED)
    bad = fixture_a_doc()
    bad["differential"]["w5"][0]["coeff"] = "1/0"
    bad_path = write(tmp_path, "bad.json", bad)
    assert run_command(["check", bad_path]) == 4
    assert run_command(["check", str(tmp_path / "missing.json")]) == 4
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    capsys.readouterr()
    assert run_command(["check", str(broken)]) == 4
    assert f"ERROR: {broken}: not valid JSON" in capsys.readouterr().err
    # a directory, bytes that are not UTF-8 and an int past the digit limit
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"truncation_degree": "\xe9"}')
    huge = tmp_path / "huge.json"
    huge.write_text('{"truncation_degree": ' + "9" * 5000 + "}", encoding="utf-8")
    for argv, message in (
        (["check", str(tmp_path)], f"ERROR: {tmp_path}: cannot read: "),
        (["check", str(latin1)], f"ERROR: {latin1}: not valid JSON: 'utf-8' codec"),
        (["check", str(huge)],
         f"ERROR: {huge}: integer of 5000 characters has too many digits\n"),
        (["verify", path, str(tmp_path)], f"ERROR: {tmp_path}: cannot read: "),
    ):
        assert run_command(argv) == 4, argv
        err = capsys.readouterr().err
        assert message in err and "set_int_max_str_digits" not in err, argv
    bad["differential"]["w5"][0]["coeff"] = "9" * 5000
    write(tmp_path, "bad.json", bad)
    assert run_command(["check", bad_path]) == 4
    assert ("ERROR: differential.w5[0].coeff: rational of 5000 characters has too "
            "many digits") in capsys.readouterr().err
    # ASCII digits only, and nothing after them: no trailing newline, no
    # surrounding space, no other script's digits (Arabic-Indic three and one)
    for coeff in ("1\n", " 1", "1 ", "2/٣", "١", "-١/2"):
        bad["differential"]["w5"][0]["coeff"] = coeff
        write(tmp_path, "bad.json", bad)
        assert run_command(["check", bad_path]) == 4, coeff
        assert (f"ERROR: differential.w5[0].coeff: malformed rational {coeff!r}"
                in capsys.readouterr().err), coeff


def test_cli_output_in_a_missing_directory_exits_4(tmp_path, capsys, monkeypatch):
    # refused before the input is even read: no pipeline runs
    from fibrewise import cli

    def no_pipeline(*args, **kwargs):
        raise AssertionError("the pipeline ran")

    path = write(tmp_path, "a.json", fixture_a_doc())
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    for name in ("hopf_normalize", "ls_normalize", "perturb"):
        monkeypatch.setattr(cli, name, no_pipeline)
    monkeypatch.setattr(cli.io, "parse_model", no_pipeline)
    for out, reason in ((tmp_path / "missing" / "res.json", "No such file or directory"),
                        (afile / "res.json", "Not a directory"),
                        (afile / "deeper" / "res.json", "Not a directory")):
        for argv in (["hopf", path], ["ls", path, "--force"], ["perturb", path, "--seed", "1"]):
            assert run_command([*argv, "-o", str(out)]) == 4, (argv, out)
            captured = capsys.readouterr()
            assert captured.err == f"ERROR: {out}: cannot write: {reason}\n", (argv, out)
            assert not out.exists()


def test_cli_fixture_a_hopf(tmp_path):
    path = write(tmp_path, "a.json", fixture_a_doc())
    out = str(tmp_path / "res.json")
    assert run_command(["hopf", path, "-o", out]) == 2
    doc = json.loads(Path(out).read_text())
    assert doc["outcome"] == "hypothesis-violation"
    assert doc["hypothesis_report"]["odd_cohomology"][0]["degree"] == 3
    assert run_command(["hopf", path, "--force", "-o", out]) == 3
    doc = json.loads(Path(out).read_text())
    assert doc["outcome"] == "obstructed"
    assert doc["obstruction"]["stage"] == "hopf-linear"
    assert doc["obstruction"]["class_witness"] == [
        {"coeff": "1", "factors": [["base", "b3", 1]]}
    ]


def test_cli_fixture_c_ls(tmp_path):
    path = write(tmp_path, "c.json", fixture_c_doc())
    out = str(tmp_path / "res.json")
    assert run_command(["ls", path, "--force", "-o", out]) == 3
    doc = json.loads(Path(out).read_text())
    ob = doc["obstruction"]
    assert (ob["stage"], ob["generator"], ob["word_length"]) == ("ls-even", "w9", 2)
    assert ob["class_witness"] == [
        {"coeff": "1",
         "factors": [["base", "b3", 1], ["w0", "w3", 1], ["w1", "w3", 1]]}
    ]


def _nonassociative_round_trips():
    """The round-trip, contractible-base and D-moving families with a
    non-exact triple term added to C(w) of the standard model, disguised by
    a seeded change of generators."""
    from fibrewise import conjugate

    families = [(model, ("u", "v", "u")) for model in util.rt_tables()] + [
        (util.contractible_base_model(fiber=[("u", 3), ("v", 3), ("z", 3), ("w", 9)],
                                      truncation=14), ("u", "v", "u")),
        (util.contractible_base_model(
            fiber=[("u", 3), ("v", 3), ("z", 3), ("s", 5), ("w", 11)], truncation=14),
         ("u", "v", "s")),
    ]
    for model, (a, b, c) in families:
        table = model.table
        images = dict(Comultiplication.standard(table).images)
        images["w"] = images["w"] + table.poly(a) * table.poly(b) * table.poly(c, copy=1)
        comul = Comultiplication(table, images)
        for seed in range(2):
            phi = util.seeded_unipotent(model, random.Random(seed))
            yield conjugate(model, comul, phi)


def test_cli_ls_refuses_seeded_nonassociative_input(tmp_path, capsys):
    # exit 4 outranks exit 3: the cube check runs once ls does not normalize
    from fibrewise.model import check_homotopy_associative

    for index, (model, comul) in enumerate(_nonassociative_round_trips()):
        failures = check_homotopy_associative(model, comul)
        assert failures
        expected = (
            "ERROR: comultiplication is not homotopy associative; non-exact defect "
            "classes: " + ", ".join(f"{name}: {cls!r}" for name, cls in sorted(failures.items()))
            + "\n"
        )
        path = write(tmp_path, f"m{index}.json", fio.model_to_document(model, comul))
        for flags in ([], ["--force"]):
            capsys.readouterr()
            assert run_command(["ls", path, *flags]) == 4, (index, flags)
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", expected), (index, flags)


def test_cli_round_trip_with_verify(tmp_path):
    std = write(tmp_path, "std.json", standard_rt_doc())
    pert = str(tmp_path / "pert.json")
    assert run_command(["perturb", std, "--seed", "1", "--mode",
                        "change-of-generators", "-o", pert]) == 0
    res = str(tmp_path / "res.json")
    assert run_command(["ls", pert, "-o", res]) == 0
    doc = json.loads(Path(res).read_text())
    assert doc["outcome"] == "normalized"
    cert = str(tmp_path / "cert.json")
    Path(cert).write_text(json.dumps(doc["certificate"]))
    assert run_command(["verify", pert, cert]) == 0
    # verifying against a model with different generators fails
    other = write(tmp_path, "other.json", fixture_a_doc())
    assert run_command(["verify", other, cert]) == 4
    # a tampered certificate fails
    mangled = json.loads(Path(cert).read_text())
    assert mangled["phi"]
    mangled["target"]["comultiplication"]["w"].append(
        {"coeff": "1", "factors": [["w0", "u", 1], ["w0", "v", 1], ["w0", "z", 1]]}
    )
    bad = str(tmp_path / "bad.json")
    Path(bad).write_text(json.dumps(mangled))
    assert run_command(["verify", pert, bad]) == 4


@pytest.mark.parametrize("mode", ["change-of-generators", "both"])
def test_cli_round_trip_over_a_base_outside_the_hypotheses(tmp_path, mode):
    # Lambda(b3) has odd cohomology; perturbing (D = 0, C0) over it stays
    # valid, and only the forced pipelines normalize the result
    model = util.odd_cohomology_bases()["b3"]
    std = write(tmp_path, "std.json",
                fio.model_to_document(model, Comultiplication.standard(model.table)))
    pert = str(tmp_path / "pert.json")
    assert run_command(["perturb", std, "--seed", "2", "--mode", mode, "-o", pert]) == 0
    for pipeline in ("hopf", "ls"):
        assert run_command([pipeline, pert]) == 2
        res = str(tmp_path / f"{pipeline}.json")
        assert run_command([pipeline, pert, "--force", "-o", res]) == 0
        assert run_command(["verify", pert, res]) == 0


def test_cli_output_determinism(tmp_path):
    std = write(tmp_path, "std.json", standard_rt_doc())
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for target in (a, b):
        assert run_command(["perturb", std, "--seed", "9", "-o", target]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    ra, rb = str(tmp_path / "ra.json"), str(tmp_path / "rb.json")
    for target in (ra, rb):
        assert run_command(["ls", a, "-o", target]) == 0
    assert Path(ra).read_bytes() == Path(rb).read_bytes()


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
        if result.certificate.phi.images:
            cert = result.certificate
            break
    assert cert is not None
    doc = fio.certificate_to_document(cert)
    text = fio.dumps(doc)
    parsed = fio.certificate_from_document(json.loads(text))
    assert verify_equivalence(parsed).ok
    assert fio.dumps(fio.certificate_to_document(parsed)) == text


def test_certificates_with_homotopy_steps_round_trip():
    # the contractible base has exact parts to subtract, so a nonzero eta in
    # the serialized document, on some seed
    from fibrewise import PerturbationSpec, ls_normalize, perturb, verify_equivalence

    model = util.contractible_base_model(
        fiber=[("u", 3), ("v", 3), ("z", 3), ("w", 9)], truncation=20
    )
    comul = Comultiplication.standard(model.table)
    eta_seen = False
    for seed in range(6):
        m2, c2 = perturb(model, comul, PerturbationSpec(seed=seed, mode="both"))
        result = ls_normalize(m2, c2)
        assert result.outcome == "normalized"
        doc = fio.certificate_to_document(result.certificate)
        text = fio.dumps(doc)
        parsed = fio.certificate_from_document(json.loads(text))
        assert verify_equivalence(parsed).ok
        assert fio.dumps(fio.certificate_to_document(parsed)) == text
        eta_seen = eta_seen or bool(doc["eta"])
    assert eta_seen


def test_cli_verify_prints_the_failing_step_and_its_witness(tmp_path, capsys):
    from fibrewise import PerturbationSpec, ls_normalize, perturb

    model = util.contractible_base_model(
        fiber=[("u", 3), ("v", 3), ("z", 3), ("w", 9)], truncation=20
    )
    comul = Comultiplication.standard(model.table)
    for seed in range(6):
        m2, c2 = perturb(model, comul, PerturbationSpec(seed=seed, mode="both"))
        doc = fio.certificate_to_document(ls_normalize(m2, c2).certificate)
        if "w" in doc["eta"]:
            break
    # p*u*v' is mixed, of eta's degree 8, and d(p*u*v') = q*u*v' under
    # D_T = 0; Phi fixes u and v, so that is the witness
    doc["eta"]["w"].append(
        {"coeff": "1", "factors": [["base", "p", 1], ["w0", "u", 1], ["w1", "v", 1]]}
    )
    model_path = write(tmp_path, "model.json", fio.model_to_document(m2, c2))
    cert_path = write(tmp_path, "cert.json", doc)
    capsys.readouterr()
    assert run_command(["verify", model_path, cert_path]) == 4
    assert capsys.readouterr().out.splitlines() == [
        "FAIL: phi does not intertwine the comultiplications at w: "
        "(phi (x) phi)(C_T + d eta) != C phi",
        "witness: q*u*v'",
    ]


# -- malformed document nodes exit 4 with their location ---------------------------


def fixture_a_certificate_doc():
    """A structurally valid, step-free certificate over fixture a's table."""
    return {
        "model": {
            "base": {"generators": [{"name": "b3", "degree": 3}]},
            "fiber": {"generators": [{"name": "w3", "degree": 3},
                                     {"name": "w5", "degree": 5}]},
        },
        "steps": [],
    }


def _with(doc, path, value):
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


MALFORMED_MODELS = {
    "$": ([], 5),
    "base": (["base"], 5),
    "fiber": (["fiber"], []),
    "base.differential": (["base", "differential"], 5),
    "differential": (["differential"], [1]),
    "differential.w5[0].factors": (["differential", "w5", 0, "factors"], 5),
    "differential.w5[0].factors[0]": (
        ["differential", "w5", 0, "factors", 0], [["base"], "b3", 1]),
    "base.generators[0]": (["base", "generators", 0, "degree"], True),
    "differential.w5": (["differential", "w5"], 5),
    "differential.w5[0]": (["differential", "w5", 0], 5),
    "differential.w5[0].factors[1]": (
        ["differential", "w5", 0, "factors"], [["base", "b3", 1], 5]),
    "base.differential.b3[0].factors[0]": (
        ["base", "differential"], {"b3": [{"coeff": "1", "factors": [["base", "b3", 0]]}]}),
    "base.generators": (["base", "generators"], 5),
    "fiber.generators[0]": (["fiber", "generators", 0], {"name": "w3"}),
    "fiber.generators[1]": (["fiber", "generators", 1, "name"], ""),
    "generators": (["fiber", "generators", 0, "name"], "t"),
    "truncation_degree": (["truncation_degree"], True),
    # image maps name generators of their space only
    "base.differential.nope": (["base", "differential"], {"nope": []}),
    "base.differential.w3": (["base", "differential"], {"w3": []}),
    "differential.nope": (["differential"], {"nope": []}),
    "differential.b3": (["differential"], {"b3": []}),
    "comultiplication.nope": (["comultiplication"], {"nope": []}),
    # a model has the top-level keys the writer emits and no others
    "name": (["name"], "fixture a"),
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
    "$": ([], 5),
    "certificate": (["certificate"], 5),
    "steps[0].note": (["steps"], [{"stage": "ls-odd", "note": 5}]),
    "steps[0].stage": (["steps"], [{"stage": ["ls-odd"]}]),
    "model": (["model"], 5),
    "model.base": (["model", "base"], []),
    "source": (["source"], "x"),
    "steps": (["steps"], 5),
    "steps[0]": (["steps"], [5]),
    "model.base.differential.nope": (["model", "base", "differential"], {"nope": []}),
    "source.differential.nope": (["source"], {"differential": {"nope": []}}),
    "source.comultiplication.nope": (["source"], {"comultiplication": {"nope": []}}),
    "target.differential.nope": (["target"], {"differential": {"nope": []}}),
    "target.comultiplication.b3": (["target"], {"comultiplication": {"b3": []}}),
    "phi": (["phi"], [5]),
    "phi.nope": (["phi"], {"nope": []}),
    "phi.b3": (["phi"], {"b3": []}),
    "eta.nope": (["eta"], {"nope": []}),
    "eta.w3[0].coeff": (["eta"], {"w3": [{"coeff": 1, "factors": []}]}),
}


# keys that earlier formats wrote and that are now read as absent: a
# malformed node there is ignored, so exact_odd_excess's certificate (one
# trail entry) holding it still verifies
FORMER_CERTIFICATE_NODES = {
    "truncation_degree": (["truncation_degree"], True),
    "steps[0].kind": (["steps", 0, "kind"], "nope"),
    "steps[0].result": (["steps", 0, "result"], 5),
    "steps[0].images.nope": (["steps", 0, "images"], {"nope": []}),
    "steps[0].result.differential.nope": (["steps", 0, "result"], {"differential": {"nope": []}}),
    "steps[0].result.comultiplication.nope": (
        ["steps", 0, "result"], {"comultiplication": {"nope": []}}),
    "steps[0].start.nope": (["steps", 0, "start"], {"nope": []}),
    "steps[0].end.nope": (["steps", 0, "end"], {"nope": []}),
}


@pytest.mark.parametrize("location",
                         sorted([*MALFORMED_CERTIFICATES, *FORMER_CERTIFICATE_NODES]))
def test_cli_malformed_certificate_node_exits_4(tmp_path, capsys, location):
    if location in FORMER_CERTIFICATE_NODES:
        path, value = FORMER_CERTIFICATE_NODES[location]
        result = json.loads((GOLDEN / "exact_odd_excess.ls.json").read_text(encoding="utf-8"))
        cert = write(tmp_path, "cert.json", _with(result["certificate"], path, value))
        capsys.readouterr()
        assert run_command(["verify", str(GOLDEN / "exact_odd_excess.model.json"), cert]) == 0
        assert capsys.readouterr().out.startswith("certificate verified: ")
        return
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
    # the environment is not read: a value below 1 there changes nothing
    monkeypatch.setenv("FIBREWISE_TRUNCATION", "-3")
    assert fio.parse_model(doc)[0].truncation == 12
    capsys.readouterr()
    assert run_command(["check", path]) == 0
    assert capsys.readouterr().out.startswith("truncation degree: 12\n")
    for value in (0, -3):
        bad = _with(fixture_a_doc(), ["truncation_degree"], value)
        with pytest.raises(fio.ParseError) as err:
            fio.parse_model(bad)
        assert err.value.location == "truncation_degree"
        assert run_command(["check", write(tmp_path, "bad.json", bad)]) == 4
        assert "ERROR: truncation_degree: must be a positive integer" \
            in capsys.readouterr().err
    assert run_command(["check", write(tmp_path, "one.json",
                                       _with(fixture_a_doc(), ["truncation_degree"], 1))]) == 0


def test_non_integer_truncation_override_exits_4(tmp_path, capsys):
    path = write(tmp_path, "a.json", fixture_a_doc())
    capsys.readouterr()
    # check has no option to override the degree
    assert run_command(["check", path, "--max-degree", "12"]) == 4
    assert "unrecognized arguments: --max-degree 12" in capsys.readouterr().err
    path = write(tmp_path, "ten.json", _with(fixture_a_doc(), ["truncation_degree"], "ten"))
    assert run_command(["check", path]) == 4
    assert "ERROR: truncation_degree: must be a positive integer" \
        in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"


BASE_COEFF = ["model", "base", "differential", "p", 0, "coeff"]


@pytest.mark.parametrize("model, path, value, out, err", [
    pytest.param("full_ladder", BASE_COEFF, "2",
                 ["FAIL: certificate base differential differs from the model"], [],
                 id="path0-certificate base differential differs from the model"),
    pytest.param("full_ladder", ["source", "differential", "s", 0, "coeff"], "2",
                 ["FAIL: certificate source does not match the model"], [],
                 id="path1-certificate source does not match the model"),
    # fixture a's model has other generators than the ladder's certificate
    pytest.param("fixture_a", None, None,
                 ["FAIL: certificate is for a different generator table"], [],
                 id="other-table"),
    # a malformed field fails at its location before the table check, read
    # against the model's table or against the certificate's own
    pytest.param("fixture_a", BASE_COEFF, "2/x", [],
                 ["ERROR: model.base.differential.p[0].coeff: malformed rational '2/x'"],
                 id="other-table-malformed-coeff"),
    pytest.param("full_ladder", BASE_COEFF, "2/x", [],
                 ["ERROR: model.base.differential.p[0].coeff: malformed rational '2/x'"],
                 id="same-table-malformed-coeff"),
])
def test_cli_verify_rejects_a_certificate_for_another_model(tmp_path, capsys, model, path,
                                                            value, out, err):
    doc = json.loads((GOLDEN / "full_ladder.ls.json").read_text(encoding="utf-8"))
    cert = doc["certificate"] if path is None else _with(doc["certificate"], path, value)
    cert_path = write(tmp_path, "cert.json", cert)
    capsys.readouterr()
    assert run_command(["verify", str(GOLDEN / f"{model}.model.json"), cert_path]) == 4
    captured = capsys.readouterr()
    assert (captured.out.splitlines(), captured.err.splitlines()) == (out, err)


@pytest.mark.parametrize("truncation", [None, 24, 1000, 1])
def test_cli_verify_ignores_a_certificate_truncation(tmp_path, capsys, truncation):
    # the ladder model's degree is 24; a certificate's identities hold on the
    # generators, so one that still names a truncation verifies whatever it is
    doc = json.loads((GOLDEN / "full_ladder.ls.json").read_text(encoding="utf-8"))
    cert = doc["certificate"]
    assert "truncation_degree" not in doc and "truncation_degree" not in cert
    if truncation is not None:
        cert["truncation_degree"] = truncation
    cert_path = write(tmp_path, "cert.json", cert)
    capsys.readouterr()
    assert run_command(["verify", str(GOLDEN / "full_ladder.model.json"), cert_path]) == 0
    assert capsys.readouterr().out == VERIFIED_LINE + STANDARD_TARGET


@pytest.mark.parametrize("pipeline, target", [
    ("hopf", "target C_T is not the standard C0: C_T(w) != w + w'\n"),
    ("ls", STANDARD_TARGET),
], ids=["hopf", "ls"])
def test_cli_verify_says_whether_the_target_is_standard(capsys, pipeline, target):
    # hopf leaves the ladder's C_T(w) with ten terms; ls brings it to C0
    result = GOLDEN / f"full_ladder.{pipeline}.json"
    c_t = json.loads(result.read_text(encoding="utf-8"))["certificate"]["target"]
    assert len(c_t["comultiplication"]["w"]) == {"hopf": 10, "ls": 2}[pipeline]
    capsys.readouterr()
    assert run_command(["verify", str(GOLDEN / "full_ladder.model.json"), str(result)]) == 0
    assert capsys.readouterr().out == VERIFIED_LINE + target


def test_a_result_written_with_truncation_and_homotopy_ends_still_verifies(capsys):
    # tests/legacy holds full_ladder.ls.json as it was written while
    # certificates were a chain of steps (fibrewise-certificate/1), each with
    # its images and recorded result, and results and certificates carried
    # `truncation_degree`: it is refused at its format, not half-read
    legacy_path = Path(__file__).parent / "legacy" / "full_ladder.ls.json"
    legacy = json.loads(legacy_path.read_text(encoding="utf-8"))
    golden = json.loads((GOLDEN / "full_ladder.ls.json").read_text(encoding="utf-8"))
    assert legacy["certificate"]["format"] == "fibrewise-certificate/1"
    assert golden["certificate"]["format"] == "fibrewise-certificate/2"
    assert set(golden["certificate"]["steps"][2]) == {"stage", "note"}
    message = ("certificate.format: expected 'fibrewise-certificate/2', "
               "got 'fibrewise-certificate/1'")
    with pytest.raises(fio.ParseError) as err:
        fio.certificate_from_document(legacy)
    assert str(err.value) == message
    capsys.readouterr()
    assert run_command(["verify", str(GOLDEN / "full_ladder.model.json"),
                        str(legacy_path)]) == 4
    assert capsys.readouterr().err == f"ERROR: {message}\n"


@pytest.mark.parametrize("path, value, message", [
    (["source"], 5, "source: expected an object"),
    (["steps", 0, "stage"], 5, "steps[0].stage: expected a string"),
    (["model", "base"], 5, "model.base: expected an object"),
    (["steps", 0, "note"], 5, "steps[0].note: expected a string"),
])
def test_errors_in_a_wrapped_certificate_are_located_under_it(tmp_path, capsys, path,
                                                               value, message):
    doc = json.loads((GOLDEN / "full_ladder.ls.json").read_text(encoding="utf-8"))
    _with(doc["certificate"], path, value)
    with pytest.raises(fio.ParseError) as err:
        fio.certificate_from_document(doc)
    assert str(err.value) == "certificate." + message
    capsys.readouterr()
    assert run_command(["verify", str(GOLDEN / "full_ladder.model.json"),
                        write(tmp_path, "result.json", doc)]) == 4
    assert capsys.readouterr().err == f"ERROR: certificate.{message}\n"


def test_a_document_of_another_kind_is_refused_at_format(tmp_path, capsys):
    # before, a result read as a model was an empty model that hopf called
    # fibrewise trivial, and a result without a certificate was read as a
    # certificate for an empty generator table
    ladder_model = str(GOLDEN / "full_ladder.model.json")
    ladder_result = str(GOLDEN / "full_ladder.ls.json")
    result = json.loads((GOLDEN / "full_ladder.ls.json").read_text(encoding="utf-8"))
    cert = write(tmp_path, "cert.json", result["certificate"])
    result["certificate"]["format"] = "fibrewise-model/1"
    wrapped = write(tmp_path, "wrapped.json", result)
    model_format = "format: expected 'fibrewise-model/1'"
    cert_format = "format: expected 'fibrewise-certificate/2'"
    for argv, message in (
        (["hopf", ladder_result], f"{model_format}, got 'fibrewise-result/1'"),
        (["check", cert], f"{model_format}, got 'fibrewise-certificate/2'"),
        (["verify", ladder_model, ladder_model], f"{cert_format}, got 'fibrewise-model/1'"),
        (["verify", ladder_model, wrapped],
         f"certificate.{cert_format}, got 'fibrewise-model/1'"),
        (["verify", str(GOLDEN / "fixture_a.model.json"),
          str(GOLDEN / "fixture_a.hopf-force.json")],
         "certificate: the result holds no certificate (outcome 'obstructed')"),
    ):
        capsys.readouterr()
        assert run_command(argv) == 4, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err.splitlines()) == ("", ["ERROR: " + message]), argv


def test_documents_without_a_format_are_still_read(tmp_path, capsys):
    model = json.loads((GOLDEN / "full_ladder.model.json").read_text(encoding="utf-8"))
    result = json.loads((GOLDEN / "full_ladder.ls.json").read_text(encoding="utf-8"))
    del model["format"], result["format"], result["certificate"]["format"]
    model_path = write(tmp_path, "model.json", model)
    capsys.readouterr()
    for cert in (result, result["certificate"]):
        assert run_command(["verify", model_path, write(tmp_path, "c.json", cert)]) == 0
        assert capsys.readouterr().out.startswith("certificate verified: ")
    # a missing format does not excuse an unknown top-level key: this
    # document once read as an empty model
    assert run_command(["check", str(GOLDEN / "exit_codes.json")]) == 4
    assert capsys.readouterr().err == \
        "ERROR: exact_odd_excess.hopf.json: unknown key in a model document\n"


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


@pytest.mark.parametrize("mode", ["change-of-generators", "exact-homotopy", "both"])
def test_perturb_truncation_must_exceed_fiber_degrees(tmp_path, capsys, mode):
    # the perturbations draw bases in degrees up to the largest fiber degree
    # 9, which truncation 4 does not reach; the pipelines would refuse the
    # document they wrote
    model = util.contractible_base_model(
        fiber=[("u", 3), ("v", 3), ("z", 3), ("w", 9)], truncation=4)
    doc = fio.model_to_document(model, Comultiplication.standard(model.table))
    path = write(tmp_path, "m.json", doc)
    out = tmp_path / "out.json"
    assert run_command(["perturb", path, "--seed", "0", "--mode", mode,
                        "-o", str(out)]) == 4
    assert not out.exists()
    assert ("ERROR: truncation degree 4 must exceed the largest fiber degree 9"
            in capsys.readouterr().err)


def base_image_doc():
    """Lambda(y2) (x) Lambda(u3) with d(y) = u: a base image outside B."""
    return {
        "truncation_degree": 8,
        "base": {
            "generators": [{"name": "y", "degree": 2}],
            "differential": {"y": [{"coeff": "1", "factors": [["w0", "u", 1]]}]},
        },
        "fiber": {"generators": [{"name": "u", "degree": 3}]},
    }


ORDERED_BASIS_VIOLATION = {"w3": [  # w3 depends on the later w5
    {"coeff": "1", "factors": [["base", "b3", 1], ["w0", "w5", 1]]}]}
COUNIT_VIOLATION = {"w3": [  # C(w3) has a term in one fiber copy only
    {"coeff": "1", "factors": [["w0", "w3", 1]]},
    {"coeff": "1", "factors": [["w1", "w3", 1]]},
    {"coeff": "1", "factors": [["base", "b3", 1]]}]}

INVALID_MODELS = {
    "differential": (_with(fixture_a_doc(), ["differential"], ORDERED_BASIS_VIOLATION),
                     "differential: D(w3) "),
    "comultiplication": (_with(fixture_a_doc(), ["comultiplication"], COUNIT_VIOLATION),
                         "comultiplication: C(w3) - w3 - w3' "),
    # both parts invalid: the differential is checked first, and alone
    "both": (_with(_with(fixture_a_doc(), ["differential"], ORDERED_BASIS_VIOLATION),
                   ["comultiplication"], COUNIT_VIOLATION),
             "differential: D(w3) "),
    # d_B sends the base generator y into the fiber
    "base-image": (base_image_doc(), "differential: d(y) leaves the base algebra"),
}

# where each command reports an invalid model pair, and its command line
REPORTS = {
    "check": ("out", "FAIL: ", lambda m, c: ["check", m]),
    "cohomology": ("err", "ERROR: ", lambda m, c: ["cohomology", m, "-n", "3"]),
    "hopf": ("err", "ERROR: ", lambda m, c: ["hopf", m]),
    "ls": ("err", "ERROR: ", lambda m, c: ["ls", m]),
    "verify": ("out", "FAIL: ", lambda m, c: ["verify", m, c]),
    "perturb": ("err", "ERROR: ", lambda m, c: ["perturb", m, "--seed", "1"]),
}


def write_with_certificate(tmp_path, doc):
    """The model document and its empty certificate, both written."""
    model, comul = fio.parse_model(doc)
    return (write(tmp_path, "bad.json", doc),
            write(tmp_path, "cert.json",
                  fio.certificate_to_document(util.identity_certificate(model, comul))))


@pytest.mark.parametrize("case", sorted(INVALID_MODELS))
def test_semantically_invalid_model_exits_4_from_every_command(tmp_path, capsys, case):
    doc, message = INVALID_MODELS[case]
    # parsing alone accepts the document; the consuming command rejects it
    model_path, cert_path = write_with_certificate(tmp_path, doc)
    capsys.readouterr()
    for command, (stream, prefix, argv) in REPORTS.items():
        assert run_command(argv(model_path, cert_path)) == 4, command
        captured = capsys.readouterr()
        assert "Generator(" not in captured.out + captured.err, command
        lines = {"out": captured.out, "err": captured.err}[stream].splitlines()
        located = [line for line in lines if line.startswith(prefix + message)]
        assert len(located) == 1, (command, lines)
        # one failure only: the part checked later is not reported
        other = "comultiplication: " if message.startswith("differential") else "differential: "
        assert not any(other in line for line in lines), (command, lines)


def test_an_unbounded_differential_is_refused_before_the_comultiplication(tmp_path):
    # D(w) = x^1000000000 has the wrong degree; substituting C into it first
    # never returned from check or verify
    doc = {
        "base": {"generators": [{"name": "b", "degree": 3}]},
        "fiber": {"generators": [{"name": "x", "degree": 2}, {"name": "w", "degree": 5}]},
        "differential": {"w": [{"coeff": "1", "factors": [["w0", "x", 1000000000]]}]},
    }
    model_path, cert_path = write_with_certificate(tmp_path, doc)
    for command, (stream, prefix, argv) in REPORTS.items():
        proc = subprocess.run(
            [sys.executable, "-m", "fibrewise", *argv(model_path, cert_path)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 4, command
        lines = {"out": proc.stdout, "err": proc.stderr}[stream].splitlines()
        assert prefix + "differential: D(w) is not homogeneous of degree 6" in lines, (
            command, lines)
