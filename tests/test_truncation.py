"""The pipelines' cost and answers do not depend on the truncation degree.

`hopf` and `ls` scan the base only in the odd degrees a split coefficient
can take, up to N0 = max|w| + 1 - min|w| over the fiber generators, and
count ranks or basis sizes only that far.  So a forced
result is the same bytes at every truncation above the fiber degrees,
an odd class above N0 is no violation, and a truncation of 10^9 costs what
the document's own does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from fibrewise import Comultiplication, GeneratorTable, RelativeModel, check_hypotheses
from fibrewise import io as fio
from fibrewise.cli import run_command
from fibrewise.normalize import _screen, hopf_normalize, ls_normalize

import util
from test_io_cli import write

GOLDEN = Path(__file__).parent / "golden"
MODELS = sorted(path.name[:-len(".model.json")] for path in GOLDEN.glob("*.model.json"))
HUGE = 10**9


def _model_doc(name, truncation=None):
    doc = json.loads((GOLDEN / f"{name}.model.json").read_text(encoding="utf-8"))
    if truncation is not None:
        doc["truncation_degree"] = truncation
    return doc


def _b13_doc(truncation):
    """Lambda(b13), fiber (u3, w5), D = 0, C = C0."""
    return {"truncation_degree": truncation,
            "base": {"generators": [{"name": "b", "degree": 13}]},
            "fiber": {"generators": [{"name": "u", "degree": 3}, {"name": "w", "degree": 5}]}}


def test_an_odd_class_above_n0_is_no_violation(tmp_path, capsys, huge_runs):
    # N0 = 5 + 1 - 3 = 3, so b13 never meets a step, at any truncation above
    # the fiber degrees; 10^9 is run in the capped process of `huge_runs`
    for truncation in (13, 14, 28):
        path = write(tmp_path, f"b13_{truncation}.json", _b13_doc(truncation))
        for pipeline in ("hopf", "ls"):
            assert run_command([pipeline, path]) == 0, (pipeline, truncation)
            assert "outcome: normalized" in capsys.readouterr().err
    for pipeline in ("hopf", "ls"):
        assert huge_runs["b13", pipeline][0] == 0, pipeline


def test_the_library_scan_keeps_the_truncation_and_the_pipelines_stop_at_n0():
    # Lambda(b1, x2), fiber (u3, v3, z5, w9), truncation 10: N0 = 7
    model = util.odd_cohomology_bases()["b1x2"]
    comul = Comultiplication.standard(model.table)
    assert [degree for degree, _ in check_hypotheses(model).odd_cohomology_violations] \
        == [1, 3, 5, 7, 9]
    assert [degree for degree, _ in _screen(model, comul).odd_cohomology_violations] \
        == [1, 3, 5, 7]
    assert [degree for degree, _ in check_hypotheses(model, 8).odd_cohomology_violations] \
        == [1, 3, 5, 7]


def test_a_model_with_no_fiber_scans_no_degree():
    table = GeneratorTable(base=[("b", 3)], fiber=[])
    model = RelativeModel(table, truncation=10)
    comul = Comultiplication.standard(table)
    assert check_hypotheses(model).odd_cohomology_violations[0][0] == 3
    assert _screen(model, comul).satisfied


# One process under a memory cap runs each model written at truncation 10^9
# through each command, timing each.  It prints, per run, the exit code, the
# seconds and the result text of a forced run.
_HUGE_RUN = r"""
import io, json, resource, sys, time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

cap = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from fibrewise.cli import run_command

tmp, names = Path(sys.argv[1]), sys.argv[2:]
runs = []
for name in names:
    path = tmp / f"{name}.model.json"
    for argv in (["check"], ["hopf"], ["hopf", "--force"], ["ls"], ["ls", "--force"]):
        out = tmp / f"{name}.{'-'.join(argv)}.json"
        full = [argv[0], str(path), *argv[1:]] + (["-o", str(out)] if argv[0] != "check" else [])
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = run_command(full)
        seconds = time.perf_counter() - start
        result = out.read_text(encoding="utf-8") if "--force" in argv else None
        runs.append([name, " ".join(argv), code, seconds, result])
print(json.dumps(runs))
"""


@pytest.fixture(scope="module")
def huge_runs(tmp_path_factory):
    """{(model, command): (exit code, seconds, forced result text)} for
    the golden models and Lambda(b13), each at truncation 10^9."""
    tmp = tmp_path_factory.mktemp("huge")
    docs = {name: _model_doc(name, HUGE) for name in MODELS}
    docs["b13"] = _b13_doc(HUGE)
    for name, doc in docs.items():
        write(tmp, f"{name}.model.json", doc)
    proc = subprocess.run([sys.executable, "-c", _HUGE_RUN, str(tmp), *docs],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {(name, command): tuple(rest) for name, command, *rest in json.loads(proc.stdout)}


def test_a_huge_truncation_runs_every_command_at_once_under_a_memory_cap(huge_runs):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert len(huge_runs) == 5 * (len(MODELS) + 1)
    for (name, command), (code, seconds, _) in huge_runs.items():
        assert seconds < 1, (name, command, seconds)
        if name == "b13":  # pinned by test_an_odd_class_above_n0_is_no_violation
            continue
        pipeline, forced = command.split()[0], command.endswith("--force")
        if pipeline == "check":
            expected = 0
        else:
            plain = codes[f"{name}.{pipeline}.json"]
            expected = codes.get(f"{name}.{pipeline}-force.json", plain) if forced else plain
        assert code == expected, (name, command)
    for name in ("fixture_a", "fixture_b"):
        code, _, result = huge_runs[name, "hopf --force"]
        golden = json.loads((GOLDEN / f"{name}.hopf-force.json").read_text(encoding="utf-8"))
        assert (code, json.loads(result)["obstruction"]["class_witness"]) \
            == (3, golden["obstruction"]["class_witness"])


@pytest.mark.parametrize("name", MODELS)
def test_forced_results_do_not_depend_on_the_truncation(name, huge_runs):
    # the truncation 10^9 is run in the capped process of `huge_runs`
    doc = _model_doc(name)
    own = fio.parse_model(doc)[0].truncation
    top = max((g["degree"] for g in doc["fiber"]["generators"]), default=0)
    for runner in (hopf_normalize, ls_normalize):
        pipeline = runner.__name__.split("_")[0]
        results = {HUGE: huge_runs[name, f"{pipeline} --force"][2]}
        for truncation in (top + 1, top + 2, own, 3 * own):
            model, comul = fio.parse_model(_model_doc(name, truncation))
            result = runner(model, comul, force=True)
            results[truncation] = fio.dumps(fio.result_to_document(result, pipeline))
        for truncation, text in results.items():
            assert text == results[own], (name, pipeline, truncation)
