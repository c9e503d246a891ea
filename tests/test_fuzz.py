"""Seeded fuzzing of model and certificate documents through the command line.

Each case is one single-node mutation of a golden document: a deletion, a
type swap, a bool, or (outside degree nodes) an extreme int.
A mutated model run through `check`, `hopf` and `ls` must exit 0, 2, 3 or
4; a mutated certificate run through `verify` must exit 0 or 4.  No case
may raise, print a traceback or report an internal error.  A truncation
of 10^9 costs what the document's own does, since the pipelines scan the
base only up to the degrees a coefficient can take.  Degree nodes get type
swaps only: without a basis-size limit an oversized generator degree runs
for minutes instead of exiting 4.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from fibrewise.cli import run_command

GOLDEN = Path(__file__).parent / "golden"
MODELS = ("fixture_a", "fixture_b", "fixture_c", "rt0_seed3_cog", "rt1_seed1_cog",
          "rt2_seed2_both")
CERTIFICATES = ("fixture_c.hopf-force", "rt0_seed3_cog.ls", "rt1_seed1_cog.hopf",
                "rt1_seed4_both.ls", "rt2_seed2_cog.ls")
TYPE_SWAPS = (None, True, False, 1.5, "", "x", "1/0", "9" * 5000, [], {}, [[]])
EXTREME_INTS = (0, -1, 10**9, -(10**9))


def _paths(node, path=()):
    """Every node below the root, as its key path."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(rng, doc):
    """A deep copy of `doc` with one node deleted or replaced, and a label."""
    doc = copy.deepcopy(doc)
    path = rng.choice(list(_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    pool = ["delete", *TYPE_SWAPS, *(() if key == "degree" else EXTREME_INTS)]
    choice = rng.choice(pool)
    if choice == "delete":
        del parent[key]
    else:
        parent[key] = choice
    return doc, f"{'.'.join(map(str, path))} <- {choice!r}"


def _run(argv, allowed, label, capsys):
    try:
        code = run_command(argv)
    except Exception as exc:  # a crash is a failure of the contract
        pytest.fail(f"{label}: {argv[0]} raised {exc!r}")
    out, err = capsys.readouterr()
    assert code in allowed, f"{label}: {argv[0]} exited {code}: {err}"
    for text in (out, err):
        assert "Traceback" not in text and "INTERNAL ERROR" not in text, label


def test_mutated_model_documents_exit_cleanly(tmp_path, capsys):
    rng = random.Random(20261018)
    docs = {name: json.loads((GOLDEN / f"{name}.model.json").read_text())
            for name in MODELS}
    path = tmp_path / "model.json"
    for _ in range(150):
        name = rng.choice(MODELS)
        doc, label = _mutate(rng, docs[name])
        path.write_text(json.dumps(doc))
        for command in ("check", "hopf", "ls"):
            _run([command, str(path)], {0, 2, 3, 4}, f"{name}: {label}", capsys)


def test_mutated_certificates_exit_cleanly(tmp_path, capsys):
    rng = random.Random(20261019)
    docs = {name: json.loads((GOLDEN / f"{name}.json").read_text())
            for name in CERTIFICATES}
    cert = tmp_path / "cert.json"
    for _ in range(150):
        name = rng.choice(CERTIFICATES)
        doc, label = _mutate(rng, docs[name])
        cert.write_text(json.dumps(doc))
        model = GOLDEN / f"{name.split('.')[0]}.model.json"
        _run(["verify", str(model), str(cert)], {0, 4}, f"{name}: {label}", capsys)
