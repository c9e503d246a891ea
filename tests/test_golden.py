"""Byte-for-byte guard on the documents the CLI writes.

`tests/golden/` holds, for a fixed set of models, the model document and
the `hopf` and `ls` result documents (certificates included), and
`exit_codes.json` records the exit code of every run.  Each test rebuilds
one case through `run_command` and compares bytes and exit codes.

The cases: fixtures a, b and c, each pipeline with and without `--force`
(the `hopf-linear` and `ls-even` obstruction witnesses); the model whose
normalization passes through all four stages; and ten models of the
round-trip family (`util.rt_tables()`, seeds 0-4, both perturbation modes).

After an intended change of output, regenerate the documents with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import json
from pathlib import Path

import pytest

from fibrewise import Comultiplication
from fibrewise import io as fio
from fibrewise.cli import run_command

import util
from test_io_cli import fixture_a_doc, fixture_b_doc, fixture_c_doc

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
RT_MODES = {"cog": "change-of-generators", "both": "both"}


def _fixture_cases():
    for name, build in (("fixture_a", fixture_a_doc), ("fixture_b", fixture_b_doc),
                        ("fixture_c", fixture_c_doc)):
        yield name, build, None, (False, True)
    yield "full_ladder", lambda: fio.model_to_document(*util.full_ladder_model()), None, (False,)
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


def regenerate() -> None:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    all_codes: dict[str, int] = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in sorted(CASES):
            texts, codes = _run_case(name, Path(scratch))
            for file_name, text in texts.items():
                (GOLDEN / file_name).write_text(text, encoding="utf-8")
            all_codes.update(codes)
    EXIT_CODES.write_text(json.dumps(all_codes, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


if __name__ == "__main__":
    regenerate()
