"""Outside-in layer trace: wraps the public functions of each fibrewise
module from outside the package, records spans in memory and derives the
per-layer metrics of the benchmark.

The modules import each other by name (`from .certify import conjugate`),
so a function is replaced in every namespace the pipelines look it up in,
not only where it is defined.  `Tracer.install()` returns a callable that
restores every original binding.
"""

from __future__ import annotations

import time
from collections import defaultdict

from fibrewise import algebra, certify, cli, dga, io, linalg, model, normalize, propsolver

# (span name, owner namespaces or classes, attribute)
SPANNED = (
    ("linalg.rref", (linalg,), "rref"),
    ("dga.solve_preimage", (dga.FreeCDGA,), "solve_preimage"),
    ("dga.cohomology_slice", (dga.FreeCDGA,), "cohomology_slice"),
    ("algebra.monomial_basis", (algebra.GeneratorTable,), "monomial_basis"),
    ("algebra.apply_images", (algebra, dga, model, certify, propsolver), "apply_images"),
    ("model.check_homotopy_associative", (model, normalize), "check_homotopy_associative"),
    ("model.check_hypotheses", (model, normalize), "check_hypotheses"),
    ("model.validate", (model, normalize, certify, io), "validate_relative_model"),
    ("model.validate", (model, normalize, certify, io), "validate_comultiplication"),
    ("certify.conjugate", (certify, normalize), "conjugate"),
    ("certify.invert", (certify,), "invert"),
    ("certify.verify_equivalence", (certify, cli), "verify_equivalence"),
    ("certify.verify_homotopy", (certify,), "verify_homotopy"),
    ("normalize.hopf_stage_linear", (normalize,), "hopf_stage_linear"),
    ("normalize.hopf_stage_higher", (normalize,), "hopf_stage_higher"),
    ("normalize.ls_even_step", (normalize,), "ls_even_step"),
    ("normalize.ls_odd_step", (normalize,), "ls_odd_step"),
    ("propsolver.solve_basic_form", (propsolver,), "solve_basic_form"),
    ("io.parse_model", (io,), "parse_model"),
    ("io.certificate_from_document", (io,), "certificate_from_document"),
    ("io.dumps", (io,), "dumps"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANNED))
# layers whose time is mostly their children's: report inclusive time too
STAGES = (
    "dga.solve_preimage", "dga.cohomology_slice",
    "model.check_homotopy_associative", "model.check_hypotheses", "model.validate",
    "certify.conjugate", "certify.verify_equivalence",
    "normalize.hopf_stage_linear", "normalize.hopf_stage_higher",
    "normalize.ls_even_step", "normalize.ls_odd_step",
    "propsolver.solve_basic_form", "io.parse_model",
)
COUNTS = (
    "linalg.rref.rows", "linalg.rref.nnz", "linalg.rref.rank",
    "linalg.rref.max_rows", "linalg.rref.max_cols", "linalg.solve.calls",
    "linalg.solve.repeats", "dga.basis_dim.max", "algebra.mul.calls", "io.bytes_out",
)


def _rows_key(rows, ncols):
    return ncols, tuple(tuple(sorted(row.items())) for row in rows)


class Tracer:
    """Spans are (name, start, end, parent index); parent -1 is a root."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self._seen_systems: set = set()

    # -- recording ---------------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return wrapper

    def begin_model(self) -> None:
        """Repeated linear systems are counted within one model only."""
        self._seen_systems.clear()

    def _counted_rref(self, fn):
        counts = self.counts

        def rref(rows, ncols):
            rows = list(rows)
            counts["linalg.rref.rows"] += len(rows)
            counts["linalg.rref.nnz"] += sum(len(row) for row in rows)
            counts["linalg.rref.max_rows"] = max(counts["linalg.rref.max_rows"], len(rows))
            counts["linalg.rref.max_cols"] = max(counts["linalg.rref.max_cols"], ncols)
            pivots, reduced = fn(rows, ncols)
            counts["linalg.rref.rank"] += len(pivots)
            return pivots, reduced

        return rref

    def _counted_solve(self, fn):
        counts, seen = self.counts, self._seen_systems

        def solve(rows, rhs, ncols):
            key = _rows_key(rows, ncols)
            counts["linalg.solve.calls"] += 1
            if key in seen:
                counts["linalg.solve.repeats"] += 1
            seen.add(key)
            return fn(rows, rhs, ncols)

        return solve

    def _counted_basis(self, fn):
        counts = self.counts

        def basis(self_, degree):
            result = fn(self_, degree)
            counts["dga.basis_dim.max"] = max(counts["dga.basis_dim.max"], len(result))
            return result

        return basis

    def _counted_mul(self, fn):
        counts = self.counts

        def __mul__(self_, other):
            counts["algebra.mul.calls"] += 1
            return fn(self_, other)

        return __mul__

    def _counted_dumps(self, fn):
        counts = self.counts

        def dumps(doc):
            text = fn(doc)
            counts["io.bytes_out"] += len(text.encode("utf-8"))
            return text

        return dumps

    def install(self):
        """Wrap every traced binding; returns the function that undoes it."""
        originals = []

        def replace(owner, attr, wrapped):
            originals.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapped)

        # counters sit inside the spans, so a span's time includes its count
        replace(linalg, "solve", self._counted_solve(linalg.solve))
        replace(linalg, "rref", self._counted_rref(linalg.rref))
        replace(dga.FreeCDGA, "basis", self._counted_basis(dga.FreeCDGA.basis))
        replace(algebra.Polynomial, "__mul__", self._counted_mul(algebra.Polynomial.__mul__))
        replace(io, "dumps", self._counted_dumps(io.dumps))
        wrappers = {}
        for name, owners, attr in SPANNED:
            for owner in owners:
                original = owner.__dict__[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.span(name, original)
                replace(owner, attr, wrappers[id(original)])

        def uninstall():
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

        return uninstall

    # -- derived figures ---------------------------------------------------------

    def layer_times(self):
        """Per span name: (self seconds, inclusive seconds, calls).  Inclusive
        time counts only the outermost span of a name on each path."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        calls = defaultdict(int)
        for index, (name, start, end, parent) in enumerate(spans):
            duration = end - start
            self_s[name] += duration - child_time[index]
            calls[name] += 1
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                incl_s[name] += duration
        return self_s, incl_s, calls

    def paths(self):
        """Inclusive seconds and calls per call path ("a > b > c")."""
        spans = self.spans
        path_of: list[str] = []
        totals = defaultdict(lambda: [0.0, 0])
        for name, start, end, parent in spans:
            path = name if parent < 0 else path_of[parent] + " > " + name
            path_of.append(path)
            entry = totals[path]
            entry[0] += end - start
            entry[1] += 1
        return totals
