"""The four comparison maps into the tensor cube and the structure theorem
for solutions of alpha(chi) + beta(chi) = gamma(chi) + delta(chi).

All maps fix the base algebra and act on the two fiber copies by

    alpha: w -> w         w' -> w'
    beta:  w -> w + w'    w' -> w''
    gamma: w -> w         w' -> w' + w''
    delta: w -> w'        w' -> w''

For mixed elements of homogeneous word length r >= 3 the identity above
forces the shape  chi = sum b_I (S_I - w_I - w'_I)  over strictly
increasing index sequences I, where S_I is the product of the binomials
w_i + w'_i.  Every closed-form claim here is double-checked against a
brute-force kernel computation; disagreement raises, it is never a
warning.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import linalg
from .algebra import (
    AlgebraError,
    Generator,
    GeneratorTable,
    Monomial,
    Polynomial,
    apply_images,
    is_mixed_square_monomial,
    monomial_word_length,
    normalize_monomial,
)
from .dga import EngineError

MAP_NAMES = ("alpha", "beta", "gamma", "delta")

KERNEL_CONDITIONS = (
    "beta=gamma",
    "beta=0",
    "beta=delta",
    "alpha+beta=gamma",
    "beta=gamma+delta",
)


class BasicFormError(AlgebraError):
    """solve_basic_form rejected its input.

    kind is "identity" when the four-map identity fails (residual attached)
    or "reconstruction" when the identity holds but no solution of the
    required shape reproduces the input (which signals r < 3 misuse or an
    engine bug).
    """

    def __init__(self, kind: str, message: str, residual: Polynomial):
        super().__init__(message)
        self.kind = kind
        self.residual = residual


def map_images(table: GeneratorTable, which: str) -> dict[int, Polynomial]:
    if which not in MAP_NAMES:
        raise AlgebraError(f"unknown comparison map {which!r}")
    images: dict[int, Polynomial] = {}
    for gen in table.fiber:
        w0 = Polynomial.from_generator(gen)
        w1 = Polynomial.from_generator(table.copy(gen, 1))
        w2 = Polynomial.from_generator(table.copy(gen, 2))
        if which == "alpha":
            continue  # the identity inclusion
        if which == "beta":
            images[gen.id] = w0 + w1
            images[table.copy(gen, 1).id] = w2
        elif which == "gamma":
            images[table.copy(gen, 1).id] = w1 + w2
        elif which == "delta":
            images[gen.id] = w1
            images[table.copy(gen, 1).id] = w2
    return images


def apply_map(table: GeneratorTable, which: str, chi: Polynomial) -> Polynomial:
    """Apply one of the four comparison maps to an element of the tensor
    square, landing in the tensor cube."""
    return apply_images(map_images(table, which), chi)


def identity_residual(table: GeneratorTable, chi: Polynomial) -> Polynomial:
    """alpha(chi) + beta(chi) - gamma(chi) - delta(chi)."""
    return (
        apply_map(table, "alpha", chi)
        + apply_map(table, "beta", chi)
        - apply_map(table, "gamma", chi)
        - apply_map(table, "delta", chi)
    )


def subscript_sequence(table: GeneratorTable, mono: Monomial) -> tuple[int, ...]:
    """Fiber positions of a tensor-square monomial, sorted, with
    multiplicity; a generator and its primed copy share one position."""
    indices: list[int] = []
    for gen, exp in mono:
        if gen.space in ("w0", "w1"):
            indices.extend([table.fiber_index(gen)] * exp)
        elif gen.space != "base":
            raise AlgebraError("monomial is not in the tensor square")
    return tuple(sorted(indices))


class MixedTensor:
    """A nonzero element of the tensor square that is homogeneous of one
    word length r and mixed (every term uses both copies)."""

    def __init__(self, value: Polynomial):
        if not value:
            raise AlgebraError("mixed tensor must be nonzero")
        lengths = {monomial_word_length(m) for m in value.terms}
        if len(lengths) != 1:
            raise AlgebraError(f"mixed word lengths {sorted(lengths)}")
        self.word_length = lengths.pop()
        if not all(is_mixed_square_monomial(mono) for mono in value.terms):
            raise AlgebraError(
                "term outside the tensor square or not mixed between the two copies"
            )
        self.value = value


def binomial_product(table: GeneratorTable, fiber_gens: Sequence[Generator]) -> Polynomial:
    """S_I: the ordered product of (w_i + w'_i) over the given generators."""
    out = Polynomial.one()
    for gen in fiber_gens:
        w0 = table.copy(gen, 0)
        out = out * (
            Polynomial.from_generator(w0)
            + Polynomial.from_generator(table.copy(gen, 1))
        )
    return out


def copy_product(table: GeneratorTable, fiber_gens: Sequence[Generator], copy: int) -> Polynomial:
    out = Polynomial.one()
    for gen in fiber_gens:
        out = out * Polynomial.from_generator(table.copy(gen, copy))
    return out


def basic_form_element(table: GeneratorTable, fiber_gens: Sequence[Generator]) -> Polynomial:
    """S_I - w_I - w'_I for the given strictly increasing generator tuple."""
    return (
        binomial_product(table, fiber_gens)
        - copy_product(table, fiber_gens, 0)
        - copy_product(table, fiber_gens, 1)
    )


def solve_basic_form(
    table: GeneratorTable, chi: Polynomial | MixedTensor
) -> dict[tuple[str, ...], Polynomial]:
    """Write a mixed tensor satisfying the four-map identity in the shape
    sum b_I (S_I - w_I - w'_I), I strictly increasing.

    Returns {I as a tuple of fiber names: coefficient in the base algebra}.
    The reconstruction is re-checked exactly before returning; a repeated
    index in the input forces its coefficient block to zero.
    """
    mixed = chi if isinstance(chi, MixedTensor) else MixedTensor(chi)
    chi_poly = mixed.value
    r = mixed.word_length
    if r < 3:
        raise AlgebraError(f"basic-form solving needs word length >= 3, got {r}")
    residual = identity_residual(table, chi_poly)
    if residual:
        raise BasicFormError(
            "identity",
            "alpha + beta != gamma + delta on this element",
            residual,
        )
    # group terms by the index multiset of their fiber part
    by_sequence: dict[tuple[int, ...], Polynomial] = {}
    for fiber_mono, coeff_poly in chi_poly.group_by_fiber_part().items():
        seq = subscript_sequence(table, fiber_mono)
        mono_poly = Polynomial({fiber_mono: Fraction(1)})
        prev = by_sequence.get(seq, Polynomial.zero())
        by_sequence[seq] = prev + coeff_poly * mono_poly
    coefficients: dict[tuple[str, ...], Polynomial] = {}
    reconstruction = Polynomial.zero()
    for seq in sorted(by_sequence):
        if len(set(seq)) != len(seq):
            continue  # repeated index: forced zero, checked by reconstruction
        gens = [table.fiber[pos] for pos in seq]
        # b_I is the coefficient of the monomial w'_{i1} w_{i2} ... w_{ir}
        factors = [(table.copy(gens[0], 1), 1)] + [(table.copy(g, 0), 1) for g in gens[1:]]
        mono, sign = normalize_monomial(factors)
        if sign == 0:
            raise EngineError("strictly increasing sequence produced a vanishing monomial")
        coeff = by_sequence[seq].group_by_fiber_part().get(mono, Polynomial.zero())
        b = coeff.scale(sign)
        if not b:
            continue
        coefficients[tuple(g.name for g in gens)] = b
        reconstruction = reconstruction + b * basic_form_element(table, gens)
    if reconstruction != chi_poly:
        raise BasicFormError(
            "reconstruction",
            "identity holds but the element is not of the basic form",
            chi_poly - reconstruction,
        )
    return coefficients


# -- brute-force oracles ------------------------------------------------------


_CONDITION_TERMS = {
    "beta=gamma": (("beta", 1), ("gamma", -1)),
    "beta=0": (("beta", 1),),
    "beta=delta": (("beta", 1), ("delta", -1)),
    "alpha+beta=gamma": (("alpha", 1), ("beta", 1), ("gamma", -1)),
    "beta=gamma+delta": (("beta", 1), ("gamma", -1), ("delta", -1)),
    "alpha+beta=gamma+delta": (
        ("alpha", 1),
        ("beta", 1),
        ("gamma", -1),
        ("delta", -1),
    ),
}


def _condition_image(table: GeneratorTable, condition: str, p: Polynomial) -> Polynomial:
    out = Polynomial.zero()
    for which, factor in _CONDITION_TERMS[condition]:
        out = out + apply_map(table, which, p).scale(factor)
    return out


def _kernel_of_condition(
    table: GeneratorTable, condition: str, span: Sequence[Polynomial]
) -> list[Polynomial]:
    """Kernel of a map-condition restricted to the span of given elements,
    by exact elimination in cube coordinates."""
    images = [_condition_image(table, condition, p) for p in span]
    cube_monos: dict[Monomial, int] = {}
    for image in images:
        for mono in image.terms:
            cube_monos.setdefault(mono, len(cube_monos))
    rows: list[linalg.Vector] = [{} for _ in cube_monos]
    for j, image in enumerate(images):
        for mono, coeff in image.terms.items():
            rows[cube_monos[mono]][j] = coeff
    _, kernel = linalg.nullspace(rows, len(span))
    out = []
    for vec in kernel:
        combo = Polynomial.zero()
        for j, val in vec.items():
            combo = combo + span[j].scale(val)
        out.append(combo)
    return out


def _sequence_span(
    table: GeneratorTable, fiber_gens: Sequence[Generator], mixed_only: bool
) -> list[Polynomial]:
    """All tensor-square monomials with the exact index multiset of
    `fiber_gens` (one copy-0/copy-1 assignment per factor)."""
    span = []
    n = len(fiber_gens)
    for mask in range(2**n):
        bits = [(mask >> i) & 1 for i in range(n)]
        if mixed_only and (sum(bits) == 0 or sum(bits) == n):
            continue
        factors = [(table.copy(g, bits[i]), 1) for i, g in enumerate(fiber_gens)]
        mono, sign = normalize_monomial(factors)
        if sign == 0:
            continue
        poly = Polynomial({mono: Fraction(sign)})
        if not any(p == poly for p in span):
            span.append(poly)
    return span


def lemma_kernel(
    table: GeneratorTable,
    condition: str,
    fiber_gens: Sequence[Generator],
) -> list[Polynomial]:
    """Solution space of one linear map-condition on elements supported on a
    strictly increasing index sequence, with scalar coefficients.

    (Arbitrary base coefficients split into independent scalar problems, so
    the scalar kernels determine the general ones.)  The closed form is
    computed first and compared against the brute-force kernel; any
    disagreement is a hard failure.
    """
    if condition not in _CONDITION_TERMS:
        raise AlgebraError(f"unknown kernel condition {condition!r}")
    names = [g.name for g in fiber_gens]
    if len(set(names)) != len(names):
        raise AlgebraError("index sequence must be strictly increasing")
    closed: list[Polynomial]
    if condition == "beta=gamma":
        closed = [binomial_product(table, fiber_gens)]
    elif condition == "beta=0":
        closed = []
    elif condition == "beta=delta":
        closed = [copy_product(table, fiber_gens, 1)]
    elif condition == "alpha+beta=gamma":
        closed = [binomial_product(table, fiber_gens) - copy_product(table, fiber_gens, 0)]
    else:  # beta=gamma+delta
        closed = [binomial_product(table, fiber_gens) - copy_product(table, fiber_gens, 1)]
    span = _sequence_span(table, fiber_gens, mixed_only=False)
    brute = _kernel_of_condition(table, condition, span)
    if not _same_polynomial_span(closed, brute):
        raise EngineError(
            f"closed-form kernel for {condition} on {names} disagrees with brute force"
        )
    return closed


def _polynomial_span_matrix(
    polys: Sequence[Polynomial],
) -> tuple[list[linalg.Vector], int]:
    monos: dict[Monomial, int] = {}
    for p in polys:
        for mono in p.terms:
            monos.setdefault(mono, len(monos))
    rows = []
    for p in polys:
        rows.append({monos[m]: c for m, c in p.terms.items()})
    return rows, len(monos)


def _same_polynomial_span(a: Sequence[Polynomial], b: Sequence[Polynomial]) -> bool:
    rows, ncols = _polynomial_span_matrix(list(a) + list(b))
    ra = linalg.rank(rows[: len(a)], ncols)
    rb = linalg.rank(rows[len(a):], ncols)
    return ra == rb == linalg.rank(rows, ncols)


def polynomial_span_contains(
    span: Sequence[Polynomial], element: Polynomial
) -> bool:
    rows, ncols = _polynomial_span_matrix(list(span) + [element])
    return linalg.rank(rows[:-1], ncols) == linalg.rank(rows, ncols)


BRUTE_FORCE_LIMIT = 4000


def brute_force_solution_space(
    table: GeneratorTable,
    r: int,
    pool: Sequence[Generator],
    limit: int = BRUTE_FORCE_LIMIT,
) -> list[Polynomial]:
    """All mixed word-length-r elements (scalar coefficients over the given
    index pool) satisfying alpha + beta = gamma + delta, by assembling the
    full linear system over the monomial basis and eliminating exactly.

    Independent of solve_basic_form and the lemma kernels: this is the
    oracle they are checked against.
    """
    span: list[Polynomial] = []
    degree_pool = sorted(pool, key=lambda g: g.sort_key)
    # enumerate mixed monomials: per index a copy-0 exponent and a copy-1
    # exponent (0/1 for odd generators)
    def extend(index: int, length: int, factors: list[tuple[Generator, int]]):
        if length == r:
            if is_mixed_square_monomial(factors):
                mono, sign = normalize_monomial(list(factors))
                if sign:
                    span.append(Polynomial({mono: Fraction(sign)}))
            return
        if index == len(degree_pool) or length > r:
            return
        gen = degree_pool[index]
        max0 = 1 if gen.is_odd else r - length
        for e0 in range(0, max0 + 1):
            max1 = 1 if gen.is_odd else r - length - e0
            for e1 in range(0, max1 + 1):
                added = []
                if e0:
                    added.append((table.copy(gen, 0), e0))
                if e1:
                    added.append((table.copy(gen, 1), e1))
                extend(index + 1, length + e0 + e1, factors + added)

    extend(0, 0, [])
    if len(span) > limit:
        raise AlgebraError(
            f"brute-force basis of {len(span)} monomials exceeds the documented "
            f"limit of {limit}"
        )
    return _kernel_of_condition(table, "alpha+beta=gamma+delta", span)
