"""Command-line surface.

Exit codes: 0 success / normalized, 2 hypothesis violation, 3 obstruction
found, 4 invalid input, 1 internal error or stdout closed before the report
was written.  All outputs are deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
from pathlib import Path

from . import io
from .algebra import AlgebraError
from .certify import emit_triviality_report, verify_equivalence
from .dga import EngineError, cohomology_in_degree
from .model import Comultiplication, validate_input
from .normalize import InvalidModelError, hopf_normalize, ls_normalize
from .perturb import MODES, PerturbationSpec, perturb

OK = 0
INTERNAL_ERROR = 1
HYPOTHESIS_VIOLATION = 2
OBSTRUCTION = 3
INVALID_INPUT = 4


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise io.ParseError(path, "file not found")
    except OSError as exc:
        raise io.ParseError(path, f"cannot read: {exc.strerror}")
    except ValueError as exc:  # bytes that are not UTF-8
        raise io.ParseError(path, f"not valid JSON: {exc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise io.ParseError(path, f"not valid JSON: {exc}")
    except RecursionError:  # arrays or objects nested past the recursion limit
        raise io.ParseError(path, "not valid JSON: nested too deeply") from None
    except ValueError:  # an integer past int's digit limit; parse again to size it
        return json.loads(text, parse_int=lambda digits: _parse_int(path, digits))


def _parse_int(path: str, digits: str) -> int:
    try:
        return int(digits)
    except ValueError:
        raise io.ParseError(
            path, f"integer of {len(digits)} characters has too many digits"
        ) from None


def _require_output_directory(path: str | None) -> None:
    """Refuse an output path whose directory is missing or is not a
    directory before any work, with the message the write would give."""
    if not path:
        return
    try:
        is_directory = stat.S_ISDIR(os.stat(Path(path).parent).st_mode)
    except OSError as exc:
        raise io.ParseError(path, f"cannot write: {exc.strerror}")
    if not is_directory:
        raise io.ParseError(path, f"cannot write: {os.strerror(errno.ENOTDIR)}")


def _write_output(path: str | None, doc) -> None:
    text = io.dumps(doc)
    if path:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise io.ParseError(path, f"cannot write: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _load_valid_model(path: str):
    """The model pair of the document at `path`, if it passes the gate."""
    model, comul = io.parse_model(_load_json(path))
    validate_input(model, comul).or_raise(InvalidModelError)
    return model, comul


def _cmd_check(args) -> int:
    model, comul = io.parse_model(_load_json(args.model))
    verdict = validate_input(model, comul)
    print(f"truncation degree: {model.truncation}")
    if not verdict.ok:
        print("FAIL:", verdict.failures[0])
        return INVALID_INPUT
    print("model and comultiplication are valid (checked on the generators; "
          "Leibniz extends the identities to every degree)")
    return OK


def _cmd_cohomology(args) -> int:
    model, _ = _load_valid_model(args.model)
    slice_ = cohomology_in_degree(model.base_cdga(), args.degree)
    print(f"truncation degree: {model.truncation}")
    print(f"degree {args.degree}: dim Z = {len(slice_.cycles)}, "
          f"dim E = {len(slice_.boundaries)}, dim H = {len(slice_.complement)}")
    for poly in slice_.complement:
        print("class:", repr(poly))
    return OK


def _run_pipeline(args, pipeline) -> int:
    _require_output_directory(args.output)
    doc = _load_json(args.model)
    model, comul = io.parse_model(doc)
    runner = hopf_normalize if pipeline == "hopf" else ls_normalize
    result = runner(model, comul, force=args.force)
    out = io.result_to_document(result, pipeline)
    _write_output(args.output, out)
    print(emit_triviality_report(result, pipeline), file=sys.stderr)
    if result.outcome == "normalized":
        return OK
    if result.outcome == "hypothesis-violation":
        return HYPOTHESIS_VIOLATION
    return OBSTRUCTION


def _cmd_verify(args) -> int:
    model, comul = io.parse_model(_load_json(args.model))
    cert = io.certificate_from_document(_load_json(args.certificate), model.table)
    verdict = verify_equivalence(cert, model, comul)
    if not verdict.ok:
        print("FAIL:", verdict.failures[0])
        if verdict.witness is not None:
            print("witness:", repr(verdict.witness))
        return INVALID_INPUT
    print("certificate verified: phi, the target and eta satisfy both identities "
          "(checked on the generators; Leibniz extends the identities to every degree)")
    standard = Comultiplication.standard(model.table).images
    differs = next((gen.display() for gen in model.table.fiber
                    if cert.target_c.get(gen.name) != standard[gen.name]), None)
    if differs is None:
        print("target C_T is the standard C0(w) = w + w': the model is fibrewise "
              "H-trivial (algebraic criterion met)")
    else:
        print(f"target C_T is not the standard C0: C_T({differs}) != {differs} + {differs}'")
    return OK


def _cmd_perturb(args) -> int:
    _require_output_directory(args.output)
    model, comul = _load_valid_model(args.model)
    spec = PerturbationSpec(
        seed=args.seed, max_word_length=args.max_word_length, mode=args.mode
    )
    new_model, new_comul = perturb(model, comul, spec)
    _write_output(args.output, io.model_to_document(new_model, new_comul))
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibrewise",
        description="Normalization of relative Sullivan models of fibrewise "
                    "H-spaces, with machine-checkable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a model document")
    p.add_argument("model")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("cohomology", help="one cohomology slice of the base")
    p.add_argument("model")
    p.add_argument("-n", "--degree", type=int, required=True)
    p.set_defaults(func=_cmd_cohomology)

    for name, help_text in (
        ("hopf", "remove the differential from the fiber generators"),
        ("ls", "normalize the comultiplication to the standard one"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("model")
        p.add_argument("-o", "--output", default=None,
                       help="write the result document to this path")
        p.add_argument("--force", action="store_true",
                       help="attempt normalization even when the hypothesis "
                            "check fails, reporting the first obstruction")
        p.set_defaults(func=lambda args, _name=name: _run_pipeline(args, _name))

    p = sub.add_parser("verify", help="check a certificate against a model")
    p.add_argument("model")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("perturb", help="seeded perturbation of a standard model")
    p.add_argument("model")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default="both")
    p.add_argument("--max-word-length", type=int, default=3)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_perturb)
    return parser


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return INVALID_INPUT if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except (io.ParseError, AlgebraError) as exc:
        print("ERROR:", exc, file=sys.stderr)
        return INVALID_INPUT
    except EngineError as exc:
        print("INTERNAL ERROR:", exc, file=sys.stderr)
        return INTERNAL_ERROR


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed early (`| head`): no traceback, no flush error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = INTERNAL_ERROR
    sys.exit(code)


if __name__ == "__main__":
    main()
