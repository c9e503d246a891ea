"""The four comparison maps into the tensor cube and the structure theorem
for solutions of alpha(chi) + beta(chi) = gamma(chi) + delta(chi).

All maps fix the base algebra: the inclusion, the extensions of the
standard comultiplication C0(w) = w + w', and the copy shift.

    alpha: w -> w         w' -> w'           (the inclusion)
    beta:  w -> w + w'    w' -> w''          (C0 (x) 1)
    gamma: w -> w         w' -> w' + w''     (1 (x) C0)
    delta: w -> w'        w' -> w''          (the copy shift)

For mixed elements of homogeneous word length r >= 3 the identity above
forces the shape  chi = sum b_I (S_I - w_I - w'_I)  over strictly
increasing index sequences I, where S_I = C0(w_I) is the product of the
binomials w_i + w'_i.  The shape theorem is proved only for r >= 3;
`solve_basic_form` also takes r = 2, where its exact reconstruction check
alone decides, and `verify` checks whatever a pipeline builds on the
result.  Every closed form here is checked exactly, and a failed check
raises, it is never a warning: `solve_basic_form`, the one the pipelines
call, by reconstructing its input from the coefficients it read off;
`lemma_kernel` against a brute-force kernel computation.
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
from .model import Comultiplication

MAP_NAMES = ("alpha", "beta", "gamma", "delta")

class BasicFormError(AlgebraError):
    """solve_basic_form rejected its input.

    kind is "identity" when the four-map identity fails (residual attached)
    or "reconstruction" when the identity holds but no solution of the
    required shape reproduces the input.  At r >= 3 the shape theorem makes
    that an engine bug; at r = 2, where no shape theorem is proved, it can
    be the input (b3 w3 w3' satisfies the identity and is of no basic form).
    """

    def __init__(self, kind: str, message: str, residual: Polynomial):
        super().__init__(message)
        self.kind = kind
        self.residual = residual


def map_images(table: GeneratorTable, which: str) -> dict[int, Polynomial]:
    if which not in MAP_NAMES:
        raise AlgebraError(f"unknown comparison map {which!r}")
    if which == "alpha":
        return {}
    if which == "delta":
        return table.shift_images({0: 1, 1: 2})
    standard = Comultiplication.standard(table)
    if which == "beta":
        return standard.left_extension_images()
    return standard.right_extension_images()


def apply_map(table: GeneratorTable, which: str, chi: Polynomial) -> Polynomial:
    """Apply one of the four comparison maps to an element of the tensor
    square, landing in the tensor cube."""
    return apply_images(map_images(table, which), chi)


def identity_residual(table: GeneratorTable, chi: Polynomial) -> Polynomial:
    """alpha(chi) + beta(chi) - gamma(chi) - delta(chi)."""
    return _condition_image(table, "alpha+beta=gamma+delta", chi)


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


def copy_product(table: GeneratorTable, fiber_gens: Sequence[Generator], copy: int) -> Polynomial:
    out = Polynomial.one()
    for gen in fiber_gens:
        out = out * Polynomial.from_generator(table.copy(gen, copy))
    return out


def binomial_product(table: GeneratorTable, fiber_gens: Sequence[Generator]) -> Polynomial:
    """S_I = C0(w_I): the ordered product of (w_i + w'_i) over the given
    generators."""
    return Comultiplication.standard(table).apply(copy_product(table, fiber_gens, 0))


def basic_form_element(table: GeneratorTable, fiber_gens: Sequence[Generator]) -> Polynomial:
    """S_I - w_I - w'_I for the given strictly increasing generator tuple."""
    return (
        binomial_product(table, fiber_gens)
        - copy_product(table, fiber_gens, 0)
        - copy_product(table, fiber_gens, 1)
    )


def leading_prime_coefficient(
    table: GeneratorTable,
    grouped: dict[Monomial, Polynomial],
    seq_gens: Sequence[Generator],
) -> Polynomial | None:
    """The coefficient of w'_{i1} w_{i2} ... w_{ir} in a polynomial grouped
    by `group_by_fiber_part`, for the first-copy generators `seq_gens` in
    index order, divided by the multiplicity N of the leading index; when
    it repeats, the monomial is w_{i1}^(N-1) w'_{i1} w_{i(N+1)} ... w_{ir}.
    None when that monomial vanishes or does not occur."""
    leading = seq_gens[0]
    repeats = seq_gens.count(leading)
    factors = [(leading, repeats - 1), (table.copy(leading, 1), 1)]
    factors.extend((gen, 1) for gen in seq_gens[repeats:])
    mono, sign = normalize_monomial(factors)
    coeff = grouped.get(mono) if sign else None
    return None if coeff is None else coeff.scale(Fraction(sign, repeats))


def solve_basic_form(
    table: GeneratorTable, chi: Polynomial
) -> dict[tuple[str, ...], Polynomial]:
    """Write a nonzero mixed tensor of one word length r >= 2 satisfying
    the four-map identity in the shape sum b_I (S_I - w_I - w'_I), I
    strictly increasing, with b_I read at w'_{i1} w_{i2} ... w_{ir}.  The
    shape is proved only for r >= 3; at r = 2 the exact reconstruction
    check below decides, and `verify` checks the certificate built on it.

    Returns {I as a tuple of fiber names: coefficient in the base algebra}.
    The reconstruction is re-checked exactly before returning; a repeated
    index in the input forces its coefficient block to zero.  Only when the
    reconstruction fails is the identity evaluated, to tell which failed:
    every element of the basic form satisfies it.
    """
    if not chi:
        raise AlgebraError("mixed tensor must be nonzero")
    lengths = {monomial_word_length(m) for m in chi.terms}
    if len(lengths) != 1:
        raise AlgebraError(f"mixed word lengths {sorted(lengths)}")
    # a mixed term uses both copies, so r >= 2 and a length-1 input ends here
    if not all(is_mixed_square_monomial(mono) for mono in chi.terms):
        raise AlgebraError(
            "term outside the tensor square or not mixed between the two copies"
        )
    grouped = chi.group_by_fiber_part()
    coefficients: dict[tuple[str, ...], Polynomial] = {}
    reconstruction = Polynomial.zero()
    for seq in sorted({subscript_sequence(table, mono) for mono in grouped}):
        if len(set(seq)) != len(seq):
            continue  # repeated index: forced zero, checked by reconstruction
        gens = [table.fiber[pos] for pos in seq]
        b = leading_prime_coefficient(table, grouped, gens)
        if b is None:
            continue
        coefficients[tuple(g.name for g in gens)] = b
        reconstruction = reconstruction + b * basic_form_element(table, gens)
    if reconstruction != chi:
        residual = identity_residual(table, chi)
        if residual:
            raise BasicFormError(
                "identity", "alpha + beta != gamma + delta on this element", residual
            )
        raise BasicFormError(
            "reconstruction",
            "identity holds but the element is not of the basic form",
            chi - reconstruction,
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
    columns = _polynomial_span_matrix(
        [_condition_image(table, condition, p) for p in span]
    )
    out = []
    for vec in linalg.eliminate(columns).kernel:
        combo = Polynomial.zero()
        for j, val in vec.items():
            combo = combo + span[j].scale(val)
        out.append(combo)
    return out


def _sequence_span(
    table: GeneratorTable, fiber_gens: Sequence[Generator]
) -> list[Polynomial]:
    """All tensor-square monomials with the exact index multiset of
    `fiber_gens` (one copy-0/copy-1 assignment per factor)."""
    span = []
    n = len(fiber_gens)
    for mask in range(2**n):
        bits = [(mask >> i) & 1 for i in range(n)]
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
    span = _sequence_span(table, fiber_gens)
    brute = _kernel_of_condition(table, condition, span)
    if not _same_polynomial_span(closed, brute):
        raise EngineError(
            f"closed-form kernel for {condition} on {names} disagrees with brute force"
        )
    return closed


def _polynomial_span_matrix(polys: Sequence[Polynomial]) -> list[linalg.Vector]:
    """The polynomials as columns, in the coordinates of the monomials they
    use, numbered in order of first appearance."""
    monos: dict[Monomial, int] = {}
    for p in polys:
        for mono in p.terms:
            monos.setdefault(mono, len(monos))
    return [{monos[m]: c for m, c in p.terms.items()} for p in polys]


def _same_polynomial_span(a: Sequence[Polynomial], b: Sequence[Polynomial]) -> bool:
    columns = _polynomial_span_matrix(list(a) + list(b))
    ra = len(linalg.eliminate(columns[: len(a)]).pivots)
    rb = len(linalg.eliminate(columns[len(a):]).pivots)
    return ra == rb == len(linalg.eliminate(columns).pivots)


def polynomial_span_contains(
    span: Sequence[Polynomial], element: Polynomial
) -> bool:
    return _same_polynomial_span(span, list(span) + [element])


# the largest monomial basis `brute_force_solution_space` eliminates
BRUTE_FORCE_LIMIT = 4000


def brute_force_solution_space(
    table: GeneratorTable,
    r: int,
    pool: Sequence[Generator],
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
    if len(span) > BRUTE_FORCE_LIMIT:
        raise AlgebraError(
            f"brute-force basis of {len(span)} monomials exceeds the documented "
            f"limit of {BRUTE_FORCE_LIMIT}"
        )
    return _kernel_of_condition(table, "alpha+beta=gamma+delta", span)
