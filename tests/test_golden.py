"""Byte-for-byte guard on the documents the CLI writes.

`tests/golden/` holds, for a fixed set of models, the model document and
the `hopf` and `ls` result documents (certificates included), and
`exit_codes.json` records the exit code of every run.  Each test rebuilds
one case through `run_command` and compares bytes and exit codes.

The cases: fixtures a, b and c, each pipeline with and without `--force`
(the `hopf-linear` and `ls-even` obstruction witnesses); the model whose
normalization passes through all four stages, which never meets an exact
odd excess; the perturbed model whose `ls` run removes the exact part of
an odd excess by a homotopy (`util.exact_odd_excess_model()`, seed 0,
mode exact-homotopy); and ten models of the round-trip family
(`util.rt_tables()`, seeds 0-4, both perturbation modes).
`tests/golden/demos/` holds the standard output of each script in `demos/`.
Every document is compact one-line JSON; an indented copy of one (as
earlier versions wrote them) must run and verify the same.

After an intended change of output, regenerate the documents with
`PYTHONPATH=src python tests/test_golden.py`.  It first deletes every
document, so a case that is gone leaves no orphan behind; CI runs it and
requires `git status --porcelain tests/golden` to stay empty.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fibrewise import Comultiplication
from fibrewise import io as fio
from fibrewise.cli import run_command

import util
from test_io_cli import fixture_a_doc, fixture_b_doc, fixture_c_doc

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))
RT_MODES = {"cog": "change-of-generators", "both": "both"}


def _fixture_cases():
    for name, build in (("fixture_a", fixture_a_doc), ("fixture_b", fixture_b_doc),
                        ("fixture_c", fixture_c_doc)):
        yield name, build, None, (False, True)
    yield "full_ladder", lambda: fio.model_to_document(*util.full_ladder_model()), None, (False,)
    odd = util.exact_odd_excess_model()
    yield ("exact_odd_excess",
           lambda: fio.model_to_document(odd, Comultiplication.standard(odd.table)),
           (0, "exact-homotopy"), (False,))
    for seed in range(5):
        for short, mode in RT_MODES.items():
            base = util.rt_tables()[seed % 3]
            yield (f"rt{seed % 3}_seed{seed}_{short}",
                   lambda base=base: fio.model_to_document(
                       base, Comultiplication.standard(base.table)),
                   (seed, mode), (False,))


CASES = {name: (build, perturbation, forces)
         for name, build, perturbation, forces in _fixture_cases()}


def _run_case(name, tmp: Path) -> tuple[dict[str, str], dict[str, int]]:
    """Every document of one case, by file name, and every exit code."""
    build, perturbation, forces = CASES[name]
    texts: dict[str, str] = {}
    codes: dict[str, int] = {}
    model_path = tmp / f"{name}.model.json"
    model_path.write_text(fio.dumps(build()), encoding="utf-8")
    if perturbation is not None:
        seed, mode = perturbation
        source = tmp / f"{name}.source.json"
        model_path.rename(source)
        codes[model_path.name] = run_command(
            ["perturb", str(source), "--seed", str(seed), "--mode", mode,
             "-o", str(model_path)])
    texts[model_path.name] = model_path.read_text(encoding="utf-8")
    for pipeline in ("hopf", "ls"):
        for force in forces:
            out = tmp / f"{name}.{pipeline}{'-force' if force else ''}.json"
            argv = [pipeline, str(model_path), "-o", str(out)]
            codes[out.name] = run_command(argv + (["--force"] if force else []))
            texts[out.name] = out.read_text(encoding="utf-8")
    return texts, codes


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_documents(name, tmp_path):
    texts, codes = _run_case(name, tmp_path)
    expected_codes = json.loads(EXIT_CODES.read_text(encoding="utf-8"))
    for file_name, text in texts.items():
        assert text == (GOLDEN / file_name).read_text(encoding="utf-8"), file_name
    for file_name, code in codes.items():
        assert code == expected_codes[file_name], file_name


def test_golden_documents_are_compact():
    # one writer: compact JSON on one line, then one newline, and writing a
    # parsed document again gives the same text (exit_codes.json is this
    # module's own record, not a fibrewise document)
    for path in sorted(set(GOLDEN.glob("*.json")) - {EXIT_CODES}):
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and "\n" not in text[:-1], path.name
        assert fio.dumps(json.loads(text)) == text, path.name


@pytest.mark.parametrize("name", sorted(CASES))
def test_indented_documents_still_read(name, tmp_path, capsys):
    # documents written with indent=2, as earlier versions did, run and
    # verify as the compact ones do
    _, _, forces = CASES[name]
    expected_codes = json.loads(EXIT_CODES.read_text(encoding="utf-8"))

    def indented(file_name):
        doc = json.loads((GOLDEN / file_name).read_text(encoding="utf-8"))
        path = tmp_path / f"indented.{file_name}"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        return str(path), doc

    model_path, _ = indented(f"{name}.model.json")
    for pipeline in ("hopf", "ls"):
        for force in forces:
            file_name = f"{name}.{pipeline}{'-force' if force else ''}.json"
            out = tmp_path / file_name
            argv = [pipeline, model_path, "-o", str(out)] + (["--force"] if force else [])
            assert run_command(argv) == expected_codes[file_name], file_name
            assert out.read_bytes() == (GOLDEN / file_name).read_bytes(), file_name
            result_path, result = indented(file_name)
            if "certificate" in result:
                capsys.readouterr()
                assert run_command(["verify", model_path, result_path]) == 0, file_name
                assert capsys.readouterr().out.startswith("certificate verified: ")


def _run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, str(demo)], cwd=REPO, env=env,
                          capture_output=True, check=False)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_output(demo):
    run = _run_demo(demo)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (GOLDEN / "demos" / f"{demo.stem}.txt").read_bytes()


def regenerate() -> None:
    import tempfile

    (GOLDEN / "demos").mkdir(parents=True, exist_ok=True)
    for stale in [*GOLDEN.glob("*.json"), *(GOLDEN / "demos").glob("*.txt")]:
        stale.unlink()
    all_codes: dict[str, int] = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(CASES):
            texts, codes = _run_case(name, Path(scratch))
            for file_name, text in texts.items():
                (GOLDEN / file_name).write_text(text, encoding="utf-8")
            all_codes.update(codes)
    EXIT_CODES.write_text(json.dumps(all_codes, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
    for demo in DEMOS:
        run = _run_demo(demo)
        run.check_returncode()
        (GOLDEN / "demos" / f"{demo.stem}.txt").write_bytes(run.stdout)


if __name__ == "__main__":
    regenerate()
