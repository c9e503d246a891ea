"""JSON document formats for models, certificates and run results.

Rationals travel as strings ("3", "-1/2") so no float ever appears; each
reads as an int when it is integral ("4/2" is 2, written back as "2").
Serialization is canonical: terms are emitted in the monomial order, keys
in a fixed order, compact on one line (`dumps`), so identical inputs
produce identical bytes.  Reading accepts any whitespace, and terms and
factors in any order.  A term whose factors come in canonical order
(strictly increasing `sort_key`, every odd exponent 1), as the writer
emits them, is kept as its own monomial with sign +1; any other term falls
back to `normalize_monomial`, which sorts it, merges repeated even factors
and drops a repeated odd one.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Mapping

from .algebra import (
    AlgebraError,
    Coefficient,
    GeneratorTable,
    Monomial,
    Polynomial,
    _add_terms,
    coefficient,
    normalize_monomial,
)
from .certify import (
    CertificateStep,
    ChangeOfGenerators,
    EquivalenceCertificate,
)
from .model import (
    Comultiplication,
    RelativeModel,
    # unused here, kept bound: perfbench/layertrace.py wraps them
    validate_comultiplication,
    validate_relative_model,
)

MODEL_FORMAT = "fibrewise-model/1"
CERTIFICATE_FORMAT = "fibrewise-certificate/3"
RESULT_FORMAT = "fibrewise-result/1"
# the keys `model_to_document` writes, the only ones a model may have: at the
# top level, and under `base` and `fiber`
MODEL_KEYS = ("format", "truncation_degree", "base", "fiber", "differential",
              "comultiplication")
MODEL_NODE_KEYS = {"base": ("generators", "differential"), "fiber": ("generators",)}

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")  # ASCII digits, whole string


class ParseError(ValueError):
    """A malformed document; `location` points at the offending field."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location
        self.message = message


def parse_rational(text: Any, location: str) -> Coefficient:
    """The coefficient written as "n" or "p/q": an int, or a Fraction in
    lowest terms only when q does not divide p (`algebra.coefficient`)."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ParseError(location, f"malformed rational {text!r}")
    # the match leaves only ASCII digits to int(), which is faster than
    # Fraction(str) parsing the string again
    numerator, _, denominator = text.partition("/")
    try:
        if not denominator:
            return int(numerator)
        return coefficient(Fraction(int(numerator), int(denominator)))
    except ZeroDivisionError:
        raise ParseError(location, f"malformed rational {text!r} (zero denominator)")
    except ValueError:  # a numerator or denominator past int's digit limit
        raise ParseError(location, f"rational of {len(text)} characters has too many digits")


def _is_positive_int(value: Any) -> bool:
    """A JSON integer >= 1; `true` and `false` are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _object(doc: Mapping, key: str, location: str) -> Mapping:
    """The object `doc[key]`, or {} when the key is absent or null."""
    node = doc.get(key)
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ParseError(location, "expected an object")
    return node


def _require_format(doc: Mapping, expected: str) -> None:
    """Refuse a document that names a `format` other than `expected`; one
    with no `format` (written by hand) is read as it stands."""
    if doc.get("format") not in (None, expected):
        raise ParseError("format", f"expected {expected!r}, got {doc['format']!r}")


def _list(doc: Mapping, key: str, location: str) -> list:
    """The list `doc[key]`, or [] when the key is absent."""
    node = doc.get(key, [])
    if not isinstance(node, list):
        raise ParseError(location, "expected a list")
    return node


def polynomial_to_doc(p: Polynomial) -> list[dict]:
    doc = []
    for mono, coeff in p.sorted_terms():
        doc.append(
            {
                "coeff": str(coeff),
                "factors": [[gen.space, gen.name, exp] for gen, exp in mono],
            }
        )
    return doc


def polynomial_from_doc(table: GeneratorTable, doc: Any, location: str) -> Polynomial:
    """The polynomial of a list of terms, summed in one term dict in the
    order the terms come; see the module docstring for the canonical fast
    path.  Each error is located at its term, coefficient or factor."""
    if not isinstance(doc, list):
        raise ParseError(location, "polynomial must be a list of terms")
    pairs: list[tuple[Monomial, Coefficient]] = []
    for i, term in enumerate(doc):
        try:  # errors inside a term are located relative to it
            if not isinstance(term, dict) or "coeff" not in term:
                raise ParseError("", "term must be an object with 'coeff' and 'factors'")
            coeff = parse_rational(term["coeff"], ".coeff")
            factor_docs = _list(term, "factors", ".factors")
            factors = []
            canonical, last = True, (-1, -1)  # (-1, -1) precedes every sort_key
            for j, factor in enumerate(factor_docs):
                if not (isinstance(factor, (list, tuple)) and len(factor) == 3):
                    raise ParseError(f".factors[{j}]", "factor must be [space, name, exponent]")
                space, name, exp = factor
                if not (isinstance(space, str) and isinstance(name, str)):
                    raise ParseError(f".factors[{j}]", "space and name must be strings")
                if not _is_positive_int(exp):
                    raise ParseError(f".factors[{j}]",
                                     f"exponent must be a positive integer, got {exp!r}")
                try:
                    gen = table.generator(space, name)
                except AlgebraError as exc:
                    raise ParseError(f".factors[{j}]", str(exc))
                key = gen.sort_key
                if key <= last or (exp > 1 and gen.is_odd):
                    canonical = False
                last = key
                factors.append((gen, exp))
        except ParseError as exc:
            raise ParseError(f"{location}[{i}]{exc.location}", exc.message) from None
        if not coeff:
            continue
        if canonical:
            pairs.append((tuple(factors), coeff))
            continue
        mono, sign = normalize_monomial(factors)
        if sign:
            pairs.append((mono, coeff if sign > 0 else -coeff))
    terms: dict[Monomial, Coefficient] = {}
    _add_terms(terms, pairs)
    return Polynomial._of(terms)


def _images_to_doc(images: Mapping[str, Polynomial]) -> dict:
    return {name: polynomial_to_doc(images[name]) for name in sorted(images)}


def _images_from_doc(table, space: str, doc: Any, location: str) -> dict[str, Polynomial]:
    """Polynomials keyed by the names of generators of `space`."""
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ParseError(location, "expected an object mapping names to polynomials")
    out = {}
    for name, poly_doc in doc.items():
        try:
            table.generator(space, name)
        except AlgebraError as exc:
            raise ParseError(f"{location}.{name}", str(exc))
        out[name] = polynomial_from_doc(table, poly_doc, f"{location}.{name}")
    return out


def _generator_spec(doc: Any, location: str) -> list[tuple[str, int]]:
    if not isinstance(doc, list):
        raise ParseError(location, "expected a list of generators")
    spec = []
    for i, item in enumerate(doc):
        where = f"{location}[{i}]"
        if not isinstance(item, dict) or "name" not in item or "degree" not in item:
            raise ParseError(where, "generator must have 'name' and 'degree'")
        name, degree = item["name"], item["degree"]
        if not isinstance(name, str) or not name:
            raise ParseError(where, f"bad generator name {name!r}")
        if not _is_positive_int(degree):
            raise ParseError(where, "generator degree must be a positive integer")
        spec.append((name, degree))
    return spec


def _generators_to_doc(gens) -> list[dict]:
    return [{"name": g.name, "degree": g.degree} for g in gens]


def _table_from_doc(doc: Mapping, prefix: str, table_location: str, table=None):
    """The generator table of the `base` and `fiber` generator lists that
    model and certificate documents share, with locations under `prefix`;
    a given `table` is kept if it has the same (name, degree) lists."""
    base_doc = _object(doc, "base", prefix + "base")
    fiber_doc = _object(doc, "fiber", prefix + "fiber")
    base_spec = _generator_spec(base_doc.get("generators", []), prefix + "base.generators")
    fiber_spec = _generator_spec(fiber_doc.get("generators", []), prefix + "fiber.generators")
    if table is None or ([(g.name, g.degree) for g in table.base],
                         [(g.name, g.degree) for g in table.fiber]) != (base_spec, fiber_spec):
        try:
            table = GeneratorTable(base_spec, fiber_spec)
        except AlgebraError as exc:
            raise ParseError(table_location, str(exc))
    return table


def parse_model(doc: Any) -> tuple[RelativeModel, Comultiplication]:
    """Build a model and comultiplication; `model.validate_input` checks them.
    A document without `truncation_degree` gets `RelativeModel`'s default."""
    if not isinstance(doc, dict):
        raise ParseError("$", "model document must be an object")
    _require_format(doc, MODEL_FORMAT)
    for key in doc:
        if key not in MODEL_KEYS:
            raise ParseError(key, "unknown key in a model document")
    for node, keys in MODEL_NODE_KEYS.items():
        for key in _object(doc, node, node):
            if key not in keys:
                raise ParseError(f"{node}.{key}", "unknown key in a model document")
    table = _table_from_doc(doc, "", "generators")
    d_base = _images_from_doc(table, "base", _object(doc, "base", "base").get("differential"),
                              "base.differential")
    truncation = doc.get("truncation_degree")
    if truncation is not None and not _is_positive_int(truncation):
        raise ParseError("truncation_degree", "must be a positive integer")
    d_fiber = _images_from_doc(table, "w0", doc.get("differential"), "differential")
    model = RelativeModel(table, d_base, d_fiber, truncation)
    images = _images_from_doc(table, "w0", doc.get("comultiplication"), "comultiplication")
    if len(images) < len(table.fiber):  # a generator left out gets w + w'
        images = {**Comultiplication.standard(table).images, **images}
    return model, Comultiplication(table, images)


def model_to_document(model: RelativeModel, comul: Comultiplication) -> dict:
    return {
        "format": MODEL_FORMAT,
        "truncation_degree": model.truncation,
        "base": {"generators": _generators_to_doc(model.table.base),
                 "differential": _images_to_doc(model.d_base)},
        "fiber": {"generators": _generators_to_doc(model.table.fiber)},
        **_state_to_doc(model.d_fiber, comul.images),
    }


# -- certificates ------------------------------------------------------------------


def certificate_to_document(cert: EquivalenceCertificate) -> dict:
    table = cert.table
    return {
        "format": CERTIFICATE_FORMAT,
        "model": {"base": {"generators": _generators_to_doc(table.base)},
                  "fiber": {"generators": _generators_to_doc(table.fiber)}},
        "target": _state_to_doc(cert.target_d, cert.target_c),
        "phi": _images_to_doc({gen.name: cert.phi.images[gen.id]
                               for gen in table.fiber if gen.id in cert.phi.images}),
        "eta": _images_to_doc(cert.eta),
        "steps": [{"stage": step.stage, "note": step.note} for step in cert.steps],
    }


def _state_to_doc(d: Mapping[str, Polynomial], c: Mapping[str, Polynomial]) -> dict:
    """A differential and comultiplication, as images by generator name."""
    return {"differential": _images_to_doc(d), "comultiplication": _images_to_doc(c)}


def _state_from_doc(table, doc: Mapping, key: str, location: str):
    """The (differential, comultiplication) images of a target."""
    state = _object(doc, key, location)
    return (
        _images_from_doc(table, "w0", state.get("differential"), location + ".differential"),
        _images_from_doc(table, "w0", state.get("comultiplication"),
                         location + ".comultiplication"),
    )


def certificate_from_document(doc: Any, table: GeneratorTable | None = None
                              ) -> EquivalenceCertificate:
    """A certificate, or the one a result wraps, of no other `format`: a
    certificate of an earlier format is refused at its `format`.  It is
    read against `table` when its base and fiber generators are that table's,
    so that its polynomials compare with the model's; else against its own.
    Keys it does not read are ignored, such as a `truncation_degree`, a
    `source`, a base differential under `model`, or a trail entry's keys
    other than `stage` and `note`."""
    if not isinstance(doc, dict):
        raise ParseError("$", "certificate document must be an object")
    if doc.get("format") == RESULT_FORMAT or "certificate" in doc:  # a result wrapper
        _require_format(doc, RESULT_FORMAT)
        if doc.get("certificate") is None:
            raise ParseError("certificate", "the result holds no certificate "
                                            f"(outcome {doc.get('outcome')!r})")
        if not isinstance(doc["certificate"], dict):
            raise ParseError("certificate", "certificate document must be an object")
        try:  # errors inside the wrapped certificate are located under it
            return _read_certificate(doc["certificate"], table)
        except ParseError as exc:
            raise ParseError(f"certificate.{exc.location}", exc.message) from None
    return _read_certificate(doc, table)


def _read_certificate(doc: Mapping, table: GeneratorTable | None) -> EquivalenceCertificate:
    _require_format(doc, CERTIFICATE_FORMAT)
    table = _table_from_doc(_object(doc, "model", "model"), "model.", "model", table)
    target_d, target_c = _state_from_doc(table, doc, "target", "target")
    phi = _images_from_doc(table, "w0", doc.get("phi"), "phi")
    eta = _images_from_doc(table, "w0", doc.get("eta"), "eta")
    steps = []
    for i, entry in enumerate(_list(doc, "steps", "steps")):
        where = f"steps[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(where, "step must be an object")
        for key in ("note", "stage"):
            if not isinstance(entry.get(key, ""), str):
                raise ParseError(f"{where}.{key}", "expected a string")
        steps.append(CertificateStep(entry.get("stage", ""), entry.get("note", "")))
    return EquivalenceCertificate(
        table=table,
        phi=ChangeOfGenerators({table.generator("w0", name).id: image
                                for name, image in phi.items()}),
        target_c=target_c, target_d=target_d, eta=eta, steps=steps)


# -- results -----------------------------------------------------------------------


def hypothesis_report_to_doc(report) -> dict:
    return {
        "satisfied": report.satisfied,
        "odd_cohomology": [
            {"degree": degree, "classes": [polynomial_to_doc(c) for c in classes]}
            for degree, classes in report.odd_cohomology_violations
        ],
        "even_fiber_generators": [g.name for g in report.even_fiber_generators],
    }


def obstruction_to_doc(obstruction) -> dict:
    return {
        "stage": obstruction.stage,
        "generator": obstruction.generator.name,
        "word_length": obstruction.word_length,
        "class_witness": polynomial_to_doc(obstruction.class_witness),
        "detail": obstruction.detail,
    }


def result_to_document(result, pipeline: str) -> dict:
    doc = {
        "format": RESULT_FORMAT,
        "pipeline": pipeline,
        "outcome": result.outcome,
        "hypothesis_report": hypothesis_report_to_doc(result.report),
    }
    if result.certificate is not None:
        doc["certificate"] = certificate_to_document(result.certificate)
    if result.obstruction is not None:
        doc["obstruction"] = obstruction_to_doc(result.obstruction)
    return doc


def dumps(doc: Any) -> str:
    """The one writer: compact JSON on one line, then a newline.  Without an
    indent CPython keeps its C encoder; readers accept any whitespace."""
    return json.dumps(doc, separators=(",", ":")) + "\n"
