"""JSON document formats for models, certificates and run results.

Rationals travel as strings ("3", "-1/2") so no float ever appears.
Serialization is canonical: terms are emitted in the monomial order, keys
in a fixed order, so identical inputs produce identical bytes.  Reading is
tolerant of unordered terms.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from typing import Any, Mapping

from .algebra import (
    AlgebraError,
    GeneratorTable,
    Polynomial,
    monomial_key,
)
from .certify import (
    CertificateStep,
    ChangeOfGenerators,
    DGHomotopy,
    EquivalenceCertificate,
)
from .model import (
    Comultiplication,
    RelativeModel,
    default_truncation,
    validate_comultiplication,
    validate_relative_model,
)

TRUNCATION_ENV = "FIBREWISE_TRUNCATION"
MODEL_FORMAT = "fibrewise-model/1"
CERTIFICATE_FORMAT = "fibrewise-certificate/1"
RESULT_FORMAT = "fibrewise-result/1"

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class ParseError(ValueError):
    """A malformed document; `location` points at the offending field."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


def parse_rational(text: Any, location: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ParseError(location, f"malformed rational {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(location, f"malformed rational {text!r} (zero denominator)")


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


def _list(doc: Mapping, key: str, location: str) -> list:
    """The list `doc[key]`, or [] when the key is absent."""
    node = doc.get(key, [])
    if not isinstance(node, list):
        raise ParseError(location, "expected a list")
    return node


def polynomial_to_doc(p: Polynomial) -> list[dict]:
    doc = []
    for mono, coeff in sorted(p.terms.items(), key=lambda kv: monomial_key(kv[0])):
        doc.append(
            {
                "coeff": str(coeff),
                "factors": [[gen.space, gen.name, exp] for gen, exp in mono],
            }
        )
    return doc


def polynomial_from_doc(table: GeneratorTable, doc: Any, location: str) -> Polynomial:
    if not isinstance(doc, list):
        raise ParseError(location, "polynomial must be a list of terms")
    total = Polynomial.zero()
    for i, term in enumerate(doc):
        where = f"{location}[{i}]"
        if not isinstance(term, dict) or "coeff" not in term:
            raise ParseError(where, "term must be an object with 'coeff' and 'factors'")
        coeff = parse_rational(term["coeff"], where + ".coeff")
        factors = []
        for j, factor in enumerate(_list(term, "factors", where + ".factors")):
            fwhere = f"{where}.factors[{j}]"
            if not (isinstance(factor, (list, tuple)) and len(factor) == 3):
                raise ParseError(fwhere, "factor must be [space, name, exponent]")
            space, name, exp = factor
            if not (isinstance(space, str) and isinstance(name, str)):
                raise ParseError(fwhere, "space and name must be strings")
            if not _is_positive_int(exp):
                raise ParseError(fwhere, f"exponent must be a positive integer, got {exp!r}")
            try:
                gen = table.generator(space, name)
            except AlgebraError as exc:
                raise ParseError(fwhere, str(exc))
            factors.append((gen, exp))
        total = total + Polynomial.term(coeff, factors)
    return total


def _images_to_doc(images: Mapping[str, Polynomial]) -> dict:
    return {name: polynomial_to_doc(images[name]) for name in sorted(images)}


def _images_from_doc(table, doc: Any, location: str) -> dict[str, Polynomial]:
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ParseError(location, "expected an object mapping names to polynomials")
    out = {}
    for name, poly_doc in doc.items():
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


def default_truncation_for(table: GeneratorTable) -> int:
    """The environment override, else `model.default_truncation`."""
    env = os.environ.get(TRUNCATION_ENV)
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ParseError(TRUNCATION_ENV, f"environment override {env!r} is not an integer")
        if value < 1:
            raise ParseError(TRUNCATION_ENV, f"environment override {env!r} is below 1")
        return value
    return default_truncation(table)


def parse_model(
    doc: Any, validate: bool = True, truncation_override: int | None = None
) -> tuple[RelativeModel, Comultiplication]:
    """Build and (by default) validate a model and comultiplication."""
    if not isinstance(doc, dict):
        raise ParseError("$", "model document must be an object")
    base_doc = _object(doc, "base", "base")
    fiber_doc = _object(doc, "fiber", "fiber")
    base_spec = _generator_spec(base_doc.get("generators", []), "base.generators")
    fiber_spec = _generator_spec(fiber_doc.get("generators", []), "fiber.generators")
    try:
        table = GeneratorTable(base_spec, fiber_spec)
    except AlgebraError as exc:
        raise ParseError("generators", str(exc))
    truncation = truncation_override
    if truncation is None:
        truncation = doc.get("truncation_degree")
        if truncation is not None and not _is_positive_int(truncation):
            raise ParseError("truncation_degree", "must be a positive integer")
    if truncation is None:
        truncation = default_truncation_for(table)
    d_base = _images_from_doc(table, base_doc.get("differential"), "base.differential")
    for name in d_base:
        try:
            table.generator("base", name)
        except AlgebraError as exc:
            raise ParseError(f"base.differential.{name}", str(exc))
    d_fiber = _images_from_doc(table, doc.get("differential"), "differential")
    for name in d_fiber:
        try:
            table.generator("w0", name)
        except AlgebraError as exc:
            raise ParseError(f"differential.{name}", str(exc))
    model = RelativeModel(table, d_base, d_fiber, truncation)
    comul_doc = doc.get("comultiplication")
    if comul_doc is None:
        comul = Comultiplication.standard(table)
    else:
        images = _images_from_doc(table, comul_doc, "comultiplication")
        standard = Comultiplication.standard(table)
        for gen in table.fiber:
            images.setdefault(gen.name, standard.images[gen.name])
        comul = Comultiplication(table, images)
    if validate:
        verdict = validate_relative_model(model)
        if not verdict.ok:
            raise ParseError("differential", verdict.failures[0])
        verdict = validate_comultiplication(model, comul)
        if not verdict.ok:
            raise ParseError("comultiplication", verdict.failures[0])
    return model, comul


def model_to_document(model: RelativeModel, comul: Comultiplication) -> dict:
    return {
        "format": MODEL_FORMAT,
        "truncation_degree": model.truncation,
        "base": {
            "generators": [
                {"name": g.name, "degree": g.degree} for g in model.table.base
            ],
            "differential": _images_to_doc(model.d_base),
        },
        "fiber": {
            "generators": [
                {"name": g.name, "degree": g.degree} for g in model.table.fiber
            ],
        },
        "differential": _images_to_doc(model.d_fiber),
        "comultiplication": _images_to_doc(comul.images),
    }


# -- certificates ------------------------------------------------------------------


def certificate_to_document(cert: EquivalenceCertificate) -> dict:
    steps = []
    for step in cert.steps:
        entry: dict[str, Any] = {"kind": step.kind, "stage": step.stage,
                                 "note": step.note}
        if step.kind == "change_of_generators":
            named = {
                cert.table.fiber[i].name: step.change.images[gen.id]
                for i, gen in enumerate(cert.table.fiber)
                if gen.id in step.change.images
            }
            entry["images"] = _images_to_doc(named)
        else:
            named = {
                gen.name: step.homotopy.images[gen.id]
                for gen in cert.table.fiber
                if gen.id in step.homotopy.images
            }
            entry["images"] = _images_to_doc(named)
            entry["start"] = _images_to_doc(step.homotopy.psi0)
            entry["end"] = _images_to_doc(step.homotopy.psi1)
        entry["result"] = {
            "differential": _images_to_doc(step.d_after),
            "comultiplication": _images_to_doc(step.c_after),
        }
        steps.append(entry)
    return {
        "format": CERTIFICATE_FORMAT,
        "truncation_degree": cert.truncation,
        "model": {
            "base": {
                "generators": [{"name": n, "degree": d} for n, d in cert.base_spec],
                "differential": _images_to_doc(cert.d_base),
            },
            "fiber": {
                "generators": [{"name": n, "degree": d} for n, d in cert.fiber_spec],
            },
        },
        "source": {
            "differential": _images_to_doc(cert.source_d),
            "comultiplication": _images_to_doc(cert.source_c),
        },
        "target": {
            "differential": _images_to_doc(cert.target_d),
            "comultiplication": _images_to_doc(cert.target_c),
        },
        "steps": steps,
    }


def certificate_from_document(doc: Any) -> EquivalenceCertificate:
    if not isinstance(doc, dict):
        raise ParseError("$", "certificate document must be an object")
    if "certificate" in doc:  # accept a result wrapper
        doc = doc["certificate"]
        if not isinstance(doc, dict):
            raise ParseError("certificate", "certificate document must be an object")
    model_doc = _object(doc, "model", "model")
    base_doc = _object(model_doc, "base", "model.base")
    base_spec = _generator_spec(base_doc.get("generators", []), "model.base.generators")
    fiber_spec = _generator_spec(
        _object(model_doc, "fiber", "model.fiber").get("generators", []),
        "model.fiber.generators",
    )
    try:
        table = GeneratorTable(base_spec, fiber_spec)
    except AlgebraError as exc:
        raise ParseError("model", str(exc))
    truncation = doc.get("truncation_degree")
    if not _is_positive_int(truncation):
        raise ParseError("truncation_degree", "must be a positive integer")
    d_base = _images_from_doc(table, base_doc.get("differential"), "model.base.differential")
    source = _object(doc, "source", "source")
    target = _object(doc, "target", "target")
    cert = EquivalenceCertificate(
        table=table,
        base_spec=base_spec,
        fiber_spec=fiber_spec,
        d_base=d_base,
        truncation=truncation,
        source_d=_images_from_doc(table, source.get("differential"), "source.differential"),
        source_c=_images_from_doc(table, source.get("comultiplication"), "source.comultiplication"),
        target_d=_images_from_doc(table, target.get("differential"), "target.differential"),
        target_c=_images_from_doc(table, target.get("comultiplication"), "target.comultiplication"),
    )
    for i, entry in enumerate(_list(doc, "steps", "steps")):
        where = f"steps[{i}]"
        if not isinstance(entry, dict):
            raise ParseError(where, "step must be an object")
        kind = entry.get("kind")
        for key in ("note", "stage"):
            if not isinstance(entry.get(key, ""), str):
                raise ParseError(f"{where}.{key}", "expected a string")
        result = _object(entry, "result", where + ".result")
        d_after = _images_from_doc(table, result.get("differential"), where + ".result.differential")
        c_after = _images_from_doc(table, result.get("comultiplication"), where + ".result.comultiplication")
        named = _images_from_doc(table, entry.get("images"), where + ".images")
        images = {}
        for name, image in named.items():
            try:
                images[table.generator("w0", name).id] = image
            except AlgebraError as exc:
                raise ParseError(f"{where}.images.{name}", str(exc))
        if kind == "change_of_generators":
            step = CertificateStep(kind, ChangeOfGenerators(images), None, d_after, c_after,
                                   entry.get("note", ""), entry.get("stage", ""))
        elif kind == "homotopy":
            homotopy = DGHomotopy(
                images,
                _images_from_doc(table, entry.get("start"), where + ".start"),
                _images_from_doc(table, entry.get("end"), where + ".end"),
            )
            step = CertificateStep(kind, None, homotopy, d_after, c_after,
                                   entry.get("note", ""), entry.get("stage", ""))
        else:
            raise ParseError(where + ".kind", f"unknown step kind {kind!r}")
        cert.steps.append(step)
    return cert


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


def result_to_document(result, pipeline: str, truncation: int) -> dict:
    doc = {
        "format": RESULT_FORMAT,
        "pipeline": pipeline,
        "truncation_degree": truncation,
        "outcome": result.outcome,
        "hypothesis_report": hypothesis_report_to_doc(result.report),
    }
    if result.certificate is not None:
        doc["certificate"] = certificate_to_document(result.certificate)
    if result.obstruction is not None:
        doc["obstruction"] = obstruction_to_doc(result.obstruction)
    return doc


def dumps(doc: Any) -> str:
    return json.dumps(doc, indent=2) + "\n"
