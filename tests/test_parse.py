"""Document parsing: the canonical fast path and the any-order fallback.

`io.polynomial_from_doc` keeps a term written in canonical factor order as
its own monomial and sends every other term through `normalize_monomial`.
Both must give the same polynomials, so a document whose terms and factors
are shuffled (each coefficient carrying the Koszul sign of its shuffle)
parses to the same model or certificate, and re-serializes to the same
bytes, as the canonical document the writer emitted.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from fibrewise import Comultiplication, Polynomial
from fibrewise import io as fio
from fibrewise.cli import run_command

import util
from test_io_cli import fixture_b_doc

GOLDEN = Path(__file__).parent / "golden"


def _golden_documents():
    """(file name, kind, document) of every golden model and certificate."""
    for path in sorted(GOLDEN.glob("*.json")):
        if path.name == "exit_codes.json":
            continue
        doc = json.loads(path.read_text(encoding="utf-8"))
        if path.name.endswith(".model.json"):
            yield path.name, "model", doc
        elif "certificate" in doc:
            yield path.name, "certificate", doc["certificate"]


def _reserialize(kind, doc):
    if kind == "model":
        return fio.dumps(fio.model_to_document(*fio.parse_model(doc)))
    return fio.dumps(fio.certificate_to_document(fio.certificate_from_document(doc)))


def _degrees(kind, doc):
    """Generator degree by name (names are unique across base and fiber)."""
    spaces = doc if kind == "model" else doc["model"]
    degrees = {"t": 0, "dt": 1}
    for part in ("base", "fiber"):
        degrees.update((g["name"], g["degree"]) for g in spaces[part]["generators"])
    return degrees


def _is_polynomial(node):
    return isinstance(node, list) and bool(node) and all(
        isinstance(term, dict) and "coeff" in term for term in node)


def _shuffled(node, degrees, rng):
    """A copy of `node` with every polynomial's terms and each term's factors
    in a random order, each coefficient times the sign of reordering its odd
    factors, so every polynomial is unchanged."""
    if _is_polynomial(node):
        terms = []
        for term in node:
            factors = list(term["factors"])
            order = list(range(len(factors)))
            rng.shuffle(order)
            odd = [i for i in order if degrees[factors[i][1]] % 2]
            inversions = sum(a > b for k, a in enumerate(odd) for b in odd[k + 1:])
            coeff = Fraction(term["coeff"]) * (-1) ** inversions
            terms.append({"coeff": str(coeff), "factors": [factors[i] for i in order]})
        rng.shuffle(terms)
        return terms
    if isinstance(node, dict):
        return {key: _shuffled(value, degrees, rng) for key, value in node.items()}
    if isinstance(node, list):
        return [_shuffled(item, degrees, rng) for item in node]
    return node


def _count_normalizations(monkeypatch):
    calls = []
    real = fio.normalize_monomial
    monkeypatch.setattr(fio, "normalize_monomial",
                        lambda factors: calls.append(1) or real(factors))
    return calls


def test_shuffled_golden_documents_parse_to_the_same_polynomials_and_bytes():
    documents = list(_golden_documents())
    kinds = [kind for _, kind, _ in documents]
    assert kinds.count("model") == 15 and kinds.count("certificate") >= 20
    for name, kind, doc in documents:
        canonical = _reserialize(kind, doc)
        # each file draws from its own stream, so a change to one golden
        # leaves every other file's shuffle as it was
        rng = random.Random(name)
        for _ in range(10):  # a few two-term polynomials can all keep their order
            shuffled = _shuffled(doc, _degrees(kind, doc), rng)
            if shuffled != doc:
                break
        assert shuffled != doc, name
        assert _reserialize(kind, shuffled) == canonical, name
        # the shuffled polynomials are read against the first parse's table,
        # since polynomials compare only within one table
        if kind == "model":
            model, comul = fio.parse_model(doc)
            for section, parsed in ((shuffled["base"].get("differential"), model.d_base),
                                    (shuffled.get("differential"), model.d_fiber),
                                    (shuffled.get("comultiplication"), comul.images)):
                for gen_name, poly_doc in (section or {}).items():
                    assert fio.polynomial_from_doc(model.table, poly_doc, gen_name) == \
                        parsed[gen_name], (name, gen_name)
        else:
            a = fio.certificate_from_document(doc)
            b = fio.certificate_from_document(shuffled, a.table)
            assert b.table is a.table, name
            assert (a.target_d, a.target_c, a.phi, a.eta, a.steps) == (
                b.target_d, b.target_c, b.phi, b.eta, b.steps), name


def test_canonical_golden_documents_never_normalize(monkeypatch):
    documents = list(_golden_documents())
    calls = _count_normalizations(monkeypatch)
    for _, kind, doc in documents:
        _reserialize(kind, doc)
    assert calls == []
    # the spy sees the fallback: a shuffled document does normalize
    _, kind, doc = documents[0]
    _reserialize(kind, _shuffled(doc, _degrees(kind, doc), random.Random(1)))
    assert calls


def _count_standard(monkeypatch):
    calls = []
    real = Comultiplication.standard
    monkeypatch.setattr(Comultiplication, "standard",
                        classmethod(lambda cls, table: calls.append(table) or real(table)))
    return calls


def test_golden_models_build_standard_images_only_for_generators_left_out(monkeypatch):
    calls = _count_standard(monkeypatch)
    left_out = []
    for name, kind, doc in _golden_documents():
        if kind == "model":
            before = len(calls)
            model, comul = fio.parse_model(doc)
            assert sorted(comul.images) == sorted(gen.name for gen in model.table.fiber)
            if len(calls) > before:
                left_out.append(name)
    # the fixture documents name only their non-standard images; the
    # round-trip models, like every model the pipelines write, name all
    assert left_out == [f"fixture_{c}.model.json" for c in "abc"]


def test_a_fiber_generator_left_out_gets_the_standard_image(monkeypatch):
    calls = _count_standard(monkeypatch)
    model, comul = fio.parse_model(fixture_b_doc())  # names C(yb) only
    table = model.table
    assert calls == [table]
    assert comul.images["xb"] == table.poly("xb") + table.poly("xb", copy=1)
    assert comul.images["yb"] == (table.poly("yb") + table.poly("yb", copy=1)
                                  + table.poly("xb") * table.poly("xb", copy=1))
    # a document naming no image parses to the standard comultiplication
    doc = fixture_b_doc()
    del doc["comultiplication"]
    model, comul = fio.parse_model(doc)
    assert len(calls) == 2 and comul.is_standard()


def _term(coeff, *factors):
    return {"coeff": coeff, "factors": [list(f) for f in factors]}


def test_parse_merges_and_drops_like_the_algebra():
    table = util.rt_tables()[1].table  # base x2, y5; fiber u3, v3, z3, w9
    x, y, u, v = (table.poly(name) for name in "xyuv")
    cases = [
        # a repeated odd factor vanishes, in canonical order or not
        ([_term("2", ("w0", "u", 1), ("w0", "u", 1))], Polynomial.zero()),
        ([_term("2", ("base", "y", 1), ("w0", "u", 1), ("base", "y", 1))],
         Polynomial.zero()),
        # a repeated even factor adds its exponents
        ([_term("3", ("base", "x", 1), ("base", "x", 2), ("w0", "u", 1))],
         (x ** 3 * u).scale(3)),
        # an odd exponent of 2 vanishes; the term beside it stays
        ([_term("5", ("w0", "v", 2)), _term("1", ("w0", "v", 1))], v),
        # a zero coefficient is dropped, in either sign
        ([_term("0", ("base", "x", 1)), _term("-0", ("w0", "u", 1))], Polynomial.zero()),
        # cancelling terms are dropped, also through a reordering sign
        ([_term("1", ("w0", "u", 1), ("w0", "v", 1)), _term("1", ("w0", "v", 1), ("w0", "u", 1)),
          _term("1/2", ("base", "y", 1))], y.scale(Fraction(1, 2))),
        ([_term("2", ("base", "x", 1)), _term("-2", ("base", "x", 1))], Polynomial.zero()),
        # a term with no factors is the constant
        ([_term("-1/3")], Polynomial.constant(Fraction(-1, 3))),
    ]
    for doc, expected in cases:
        got = fio.polynomial_from_doc(table, doc, "p")
        util.assert_same_terms(got, expected)


def test_integral_quotients_parse_to_ints():
    for text, value in (("4/2", 2), ("-6/3", -2), ("2/1", 2), ("0/5", 0), ("+3", 3),
                        ("-0", 0)):
        got = fio.parse_rational(text, "coeff")
        assert got == value and type(got) is int, text
    for text, value in (("2/4", Fraction(1, 2)), ("-6/4", Fraction(-3, 2))):
        got = fio.parse_rational(text, "coeff")
        assert got == value and type(got) is Fraction, text
    table = util.rt_tables()[1].table
    x, y = table.poly("x"), table.poly("y")
    got = fio.polynomial_from_doc(table, [
        _term("4/2", ("base", "x", 1)), _term("0/5", ("w0", "u", 1)),
        _term("-6/3", ("base", "y", 1)), _term("2/1", ("base", "y", 1))], "p")
    util.assert_same_terms(got, x.scale(2))
    assert type(got.terms[((table.generator("base", "x"), 1),)]) is int


def _as_quotients(node):
    """`node` with each integer coefficient n written as the quotient
    "2n/2", so "2" becomes "4/2"; returns how many were rewritten."""
    count = 0
    if isinstance(node, dict):
        coeff = node.get("coeff")
        if isinstance(coeff, str) and "/" not in coeff:
            node["coeff"] = f"{2 * int(coeff)}/2"
            count += 1
        for value in node.values():
            count += _as_quotients(value)
    elif isinstance(node, list):
        for value in node:
            count += _as_quotients(value)
    return count


def test_golden_models_written_with_quotients_give_the_same_results(tmp_path):
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    rewritten, runs = {}, 0
    for path in sorted(GOLDEN.glob("*.model.json")):
        name = path.name.removesuffix(".model.json")
        doc = json.loads(path.read_text(encoding="utf-8"))
        rewritten[name] = _as_quotients(doc)
        model_path = tmp_path / path.name
        model_path.write_text(fio.dumps(doc), encoding="utf-8")
        for result in sorted(GOLDEN.glob(f"{name}.*.json")):
            pipeline, _, force = result.name.split(".")[1].partition("-")
            if pipeline not in ("hopf", "ls"):
                continue
            out = tmp_path / result.name
            argv = [pipeline, str(model_path), "-o", str(out)] + (["--force"] if force else [])
            assert run_command(argv) == expected_codes[result.name], result.name
            assert out.read_bytes() == result.read_bytes(), result.name
            runs += 1
    assert runs == 36  # every golden hopf and ls result, forced ones included
    # "2" was written "4/2" (or "-2" as "-4/2") in these two
    assert rewritten["exact_odd_excess"] and rewritten["fixture_b"]
    assert sum(rewritten.values()) > 100
