"""Free graded-commutative algebras over the rationals, in exact canonical form.

Monomials are ordered tuples of (generator, exponent) pairs.  The canonical
factor order is by block -- base generators first, then the three tensor
copies of the fiber -- ascending by generator id inside each block.  Koszul
reordering signs are absorbed into the rational coefficient at
normalization time, so stored monomials are always "positive" and two
polynomials are equal iff their term maps are equal (within one
`GeneratorTable`: generators compare by identity).  Odd generators square
to zero.  Coefficients are exact rationals under one rule
(`coefficient`): an int when integral, a fractions.Fraction only when its
denominator is above 1, never a float.  Almost every coefficient is a small
integer (a sign, a Leibniz exponent, a unit pivot), and int arithmetic
keeps it an int; a product or sum that involves a Fraction is reduced back
to an int when it comes out integral.

Every stored monomial is canonical, so a product never re-sorts: it merges
two canonical monomials in `sort_key` order.  A generator in both factors
gives zero when it is odd and adds its exponents when it is even, and the
sign is (-1)^k for k the odd-odd pairs the merge moves past each other (an
odd factor of the right monomial passes every odd factor of the left one
with a larger key).  `normalize_monomial` is still required wherever the
factors arrive unordered: the fallback of document parsing
(`io.polynomial_from_doc`, for a term not written in canonical order), the
coefficient lookup `propsolver.leading_prime_coefficient` and the other
factor lists of `propsolver`.

Each result is built once, in one term dict.  A sum, a difference or a
scaled sum adds into the dict it returns (`_add_terms`, which takes the
scale), never through a negated or scaled copy, and a constructor wraps a
dict that is already clean without cleaning it again.

Substitution and enumeration cost what moves.  `apply_images` returns its
argument itself when no factor of any term has an image; otherwise it
stores a term none of whose factors has an image as it stands, and
multiplies out only the others.  `GeneratorTable.on_copy` places a map on
a tensor copy by renaming factors, since moving every fiber copy up by the
same amount keeps the canonical order and every sign; it refuses a factor
that has no copy to move to.
`GeneratorTable.monomial_basis` can bound the word length (the number of
fiber-copy factors) from both sides, and never builds a monomial outside
the bounds: its output is the full basis's order, restricted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

SPACES = ("base", "w0", "w1", "w2")
_SPACE_RANK = {space: rank for rank, space in enumerate(SPACES)}
W_SPACES = ("w0", "w1", "w2")

ONE = 1

#: An exact coefficient, as `coefficient` returns it.
Coefficient = int | Fraction


class AlgebraError(ValueError):
    """Raised for malformed generators, monomials or polynomial operations."""


def coefficient(value: int | Fraction) -> Coefficient:
    """`value` under the coefficient rule: an int when integral (a bool
    becomes its int), a Fraction only for a denominator above 1.  Anything
    else, a float included, is refused."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise AlgebraError(f"coefficient {value!r} is not an int or a Fraction")


@dataclass(frozen=True, eq=False)
class Generator:
    """A free algebra generator: id, display name, degree, block tag.

    Degrees are positive.  The tags w1/w2 mark the second and third tensor
    copies of a fiber generator; copies share the name and degree of their
    w0 original.  Each is unique to its `GeneratorTable` and compares and
    hashes by identity.
    """

    id: int
    name: str
    degree: int
    space: str

    def __post_init__(self) -> None:
        if self.space not in _SPACE_RANK:
            raise AlgebraError(f"unknown generator space {self.space!r}")
        if self.degree < 1:
            raise AlgebraError(f"generator {self.name!r} must have degree >= 1")
        # plain attributes, read on every step of a product merge
        object.__setattr__(self, "is_odd", self.degree % 2 == 1)
        object.__setattr__(self, "sort_key", (_SPACE_RANK[self.space], self.id))

    def display(self) -> str:
        if self.space == "w1":
            return self.name + "'"
        if self.space == "w2":
            return self.name + "''"
        return self.name


#: A canonical monomial: ordered ((generator, exponent), ...).  () is 1.
Monomial = tuple[tuple[Generator, int], ...]


def normalize_monomial(
    raw: Iterable[tuple[Generator, int]],
) -> tuple[Monomial | None, int]:
    """Canonicalize an unordered factor list.

    Returns (monomial, sign) where the sign is (-1)^k for k the number of
    odd-odd transpositions needed to sort the factors, or (None, 0) when an
    odd generator repeats (odd squares vanish).
    """
    merged: dict[Generator, int] = {}
    odd_keys: list[tuple[int, int]] = []
    for gen, exp in raw:
        if exp < 0:
            raise AlgebraError(f"negative exponent on {gen.name!r}")
        if exp == 0:
            continue
        if gen.is_odd:
            if exp > 1 or gen in merged:
                return None, 0
            odd_keys.append(gen.sort_key)
        merged[gen] = merged.get(gen, 0) + exp
    inversions = 0
    for i in range(len(odd_keys)):
        for j in range(i + 1, len(odd_keys)):
            if odd_keys[i] > odd_keys[j]:
                inversions += 1
    mono = tuple(sorted(merged.items(), key=lambda item: item[0].sort_key))
    return mono, (-1 if inversions % 2 else 1)


def _merge_monomials(a: Monomial, b: Monomial) -> tuple[Monomial | None, int]:
    """The product of two canonical monomials, as (monomial, sign) or
    (None, 0) when an odd generator repeats; see the module docstring."""
    if not a:
        return b, 1
    if not b or a[-1][0].sort_key < b[0][0].sort_key:
        return a + b, 1
    odd_left = 0  # odd factors of `a` not yet placed
    for gen, _ in a:
        if gen.is_odd:
            odd_left += 1
    out: list[tuple[Generator, int]] = []
    swaps = i = j = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        gen_a, exp_a = factor_a = a[i]
        gen_b, exp_b = factor_b = b[j]
        key_a, key_b = gen_a.sort_key, gen_b.sort_key
        if key_a < key_b:
            out.append(factor_a)
            i += 1
            if gen_a.is_odd:
                odd_left -= 1
        elif key_b < key_a:
            out.append(factor_b)
            j += 1
            if gen_b.is_odd:
                swaps += odd_left
        elif gen_a.is_odd:
            return None, 0
        else:
            out.append((gen_a, exp_a + exp_b))
            i += 1
            j += 1
    if i < len_a:
        out.extend(a[i:])
    elif j < len_b:
        out.extend(b[j:])
    return tuple(out), (-1 if swaps & 1 else 1)


def monomial_degree(mono: Monomial) -> int:
    return sum(exp * gen.degree for gen, exp in mono)


def monomial_word_length(mono: Monomial) -> int:
    """Number of fiber-copy factors (with multiplicity)."""
    return sum(exp for gen, exp in mono if gen.space in W_SPACES)


def is_mixed_square_monomial(mono: Iterable[tuple[Generator, int]]) -> bool:
    """In the tensor square over the base (factors from the base and the
    first two fiber copies only) and using both fiber copies."""
    spaces = {gen.space for gen, _ in mono}
    return {"w0", "w1"} <= spaces <= {"base", "w0", "w1"}


def monomial_key(mono: Monomial) -> tuple:
    """Total deterministic order on monomials (degree, then factor tuple)."""
    return (
        monomial_degree(mono),
        tuple((gen.sort_key, exp) for gen, exp in mono),
    )


def monomial_display(mono: Monomial) -> str:
    if not mono:
        return "1"
    parts = []
    for gen, exp in mono:
        parts.append(gen.display() if exp == 1 else f"{gen.display()}^{exp}")
    return "*".join(parts)


def split_monomial(mono: Monomial) -> tuple[Monomial, Monomial]:
    """Split into (base factors, everything else); their ordered product
    is the original monomial with sign +1 because base factors come first."""
    base = tuple((g, e) for g, e in mono if g.space == "base")
    rest = tuple((g, e) for g, e in mono if g.space != "base")
    return base, rest


class Polynomial:
    """Exact linear combination of canonical monomials.

    Instances are immutable in practice: no method mutates terms after
    construction, so values may be shared and compared freely.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int | Fraction] | None = None):
        cleaned: dict[Monomial, Coefficient] = {}
        if terms:
            for mono, coeff in terms.items():
                if type(coeff) is not int:
                    coeff = coefficient(coeff)
                if coeff:
                    cleaned[mono] = coeff
        self.terms = cleaned

    @classmethod
    def _of(cls, terms: dict[Monomial, Coefficient]) -> Polynomial:
        """Wrap an already clean term dict (coefficients under the rule of
        `coefficient`, no zeros)."""
        result = cls.__new__(cls)
        result.terms = terms
        return result

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> Polynomial:
        return cls._of({})

    @classmethod
    def one(cls) -> Polynomial:
        return cls._of({(): ONE})

    @classmethod
    def constant(cls, value) -> Polynomial:
        return cls({(): value})

    @classmethod
    def from_generator(cls, gen: Generator) -> Polynomial:
        return cls._of({((gen, 1),): ONE})

    @classmethod
    def sum(cls, polys: Iterable[Polynomial]) -> Polynomial:
        """The sum of many polynomials, accumulated in one term dict."""
        terms: dict[Monomial, Coefficient] = {}
        for poly in polys:
            _add_terms(terms, poly.terms.items())
        return cls._of(terms)

    # -- ring structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Polynomial.constant(other).terms
        return NotImplemented

    def __hash__(self):
        raise TypeError("Polynomial is not hashable")

    def __add__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms = dict(self.terms)
        _add_terms(terms, other.terms.items())
        return Polynomial._of(terms)

    def __neg__(self) -> Polynomial:
        return Polynomial._of({mono: -coeff for mono, coeff in self.terms.items()})

    def __sub__(self, other: Polynomial) -> Polynomial:
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms = dict(self.terms)
        _add_terms(terms, other.terms.items(), -1)
        return Polynomial._of(terms)

    def __mul__(self, other) -> Polynomial:
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        terms: dict[Monomial, Coefficient] = {}
        _add_terms(terms, _products(self.terms, other.terms))
        return Polynomial._of(terms)

    def __rmul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> Polynomial:
        if exponent < 0:
            raise AlgebraError("negative polynomial powers are not defined")
        if exponent == 0:
            return Polynomial.one()
        result, square = None, self  # repeated squaring: one product per bit
        while True:
            if exponent & 1:
                result = square if result is None else result * square
            exponent >>= 1
            if not exponent:
                return result
            square = square * square

    def scale(self, value) -> Polynomial:
        if type(value) is not int:
            value = coefficient(value)
        if value == 1:
            return self
        if not value:
            return Polynomial.zero()
        terms: dict[Monomial, Coefficient] = {}
        _add_terms(terms, self.terms.items(), value)
        return Polynomial._of(terms)

    # -- inspection --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Coefficient]]:
        return sorted(self.terms.items(), key=lambda item: monomial_key(item[0]))

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms; None for 0; raises if mixed."""
        degrees = {monomial_degree(mono) for mono in self.terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise AlgebraError(f"polynomial is not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop()

    def is_homogeneous_of_degree(self, degree: int) -> bool:
        for mono in self.terms:
            if monomial_degree(mono) != degree:
                return False
        return True

    def word_length_parts(self) -> dict[int, Polynomial]:
        """Split by total fiber word length (number of w-copy factors)."""
        parts: dict[int, dict[Monomial, Coefficient]] = {}
        for mono, coeff in self.terms.items():
            parts.setdefault(monomial_word_length(mono), {})[mono] = coeff
        return {length: Polynomial._of(terms) for length, terms in sorted(parts.items())}

    def group_by_fiber_part(self) -> dict[Monomial, Polynomial]:
        """Group terms by their non-base factor sub-monomial.

        Returns {fiber monomial: base coefficient polynomial}; the original
        polynomial is the sum of coefficient * fiber-monomial products (no
        signs arise since base factors precede the rest in canonical order).
        """
        grouped: dict[Monomial, dict[Monomial, Coefficient]] = {}
        for mono, coeff in self.terms.items():
            base, rest = split_monomial(mono)
            grouped.setdefault(rest, {})[base] = coeff
        return {rest: Polynomial._of(terms) for rest, terms in grouped.items()}

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for mono, coeff in self.sorted_terms():
            body = monomial_display(mono)
            if coeff == 1 and mono:
                text = body
            elif coeff == -1 and mono:
                text = "-" + body
            elif not mono:
                text = str(coeff)
            else:
                text = f"{coeff}*{body}"
            chunks.append(text)
        out = chunks[0]
        for chunk in chunks[1:]:
            out += " - " + chunk[1:] if chunk.startswith("-") else " + " + chunk
        return out


def apply_images(images: Mapping[int, Polynomial], p: Polynomial) -> Polynomial:
    """Extend a generator-image map to an algebra map and apply it.

    Generators absent from `images` map to themselves.  Images must be
    degree-homogeneous for the result to be graded; this is not re-checked
    here.  When no factor of any term has an image, the result is `p`
    itself.  Otherwise a term none of whose factors has an image is stored
    as it stands, in its place in the term order: the product of its own
    factors would give it back with sign +1.  Each power image**exp of a
    moving term is computed once per call, and the terms are summed in one
    dict.
    """
    powers: dict[tuple[Generator, int], Polynomial] = {}
    terms: dict[Monomial, Coefficient] | None = None
    for index, (mono, coeff) in enumerate(p.terms.items()):
        for gen, _ in mono:
            if gen.id in images:
                break
        else:
            if terms is None:
                continue
            if mono in terms:  # an earlier term moved onto it
                _add_terms(terms, ((mono, coeff),))
            else:
                terms[mono] = coeff
            continue
        if terms is None:
            # the terms before the first that moves are fixed and distinct
            terms = dict(islice(p.terms.items(), index))
        term = None
        for factor in mono:
            power = powers.get(factor)
            if power is None:
                gen, exp = factor
                image = images.get(gen.id)
                if image is None:
                    power = Polynomial._of({(factor,): ONE})
                else:
                    power = image if exp == 1 else image**exp
                powers[factor] = power
            term = power if term is None else term * power
        _add_terms(terms, term.terms.items(), coeff)
    return p if terms is None else Polynomial._of(terms)


def _products(
    left: dict[Monomial, Coefficient], right: dict[Monomial, Coefficient]
) -> Iterator[tuple[Monomial, Coefficient]]:
    """The nonzero products of each left term with each right term."""
    for mono_a, coeff_a in left.items():
        for mono_b, coeff_b in right.items():
            mono, sign = _merge_monomials(mono_a, mono_b)
            if sign:
                coeff = coeff_a * coeff_b
                if type(coeff) is not int:
                    coeff = coefficient(coeff)
                yield mono, (coeff if sign > 0 else -coeff)


def _add_terms(
    terms: dict[Monomial, Coefficient], items: Iterable[tuple[Monomial, Coefficient]],
    scale: Coefficient = 1,
) -> None:
    """Add `scale` times each (monomial, nonzero coefficient) pair into
    `terms` in place, for a nonzero `scale`, dropping a monomial whose
    coefficient cancels to zero; a sum stays under the coefficient rule."""
    get = terms.get
    for mono, coeff in items:
        if scale != 1:  # spares a Fraction coefficient a product with 1
            coeff *= scale
        old = get(mono)
        if old is not None:
            coeff += old
            if not coeff:
                del terms[mono]
                continue
        terms[mono] = coeff if type(coeff) is int else coefficient(coeff)


class GeneratorTable:
    """Registry of all generators of one relative model.

    Holds the base generators, the fiber generators in their given ordered
    (K-S) basis and the w1/w2 tensor copies of every fiber generator.  The
    names t and dt stay reserved: certificates of format /1 named the
    homotopy parameter so.  All tensor factors of the model share this single
    table; the tensor structure is carried entirely by the space tags.
    """

    def __init__(
        self,
        base: Sequence[tuple[str, int]],
        fiber: Sequence[tuple[str, int]],
    ):
        seen: set[str] = set()
        for name, _ in list(base) + list(fiber):
            if name in seen:
                raise AlgebraError(f"duplicate generator name {name!r}")
            if name in ("t", "dt"):
                raise AlgebraError("generator names 't' and 'dt' are reserved")
            seen.add(name)
        next_id = 0

        def make(spec, space):
            nonlocal next_id
            gens = []
            for name, degree in spec:
                gens.append(Generator(next_id, name, degree, space))
                next_id += 1
            return tuple(gens)

        self.base = make(base, "base")
        self.fiber = make(fiber, "w0")
        self._copies = {1: make(fiber, "w1"), 2: make(fiber, "w2")}
        self.all_generators = self.base + self.fiber + self._copies[1] + self._copies[2]
        self._by_space_name = {(g.space, g.name): g for g in self.all_generators}
        self._fiber_pos = {g.id: i for i, g in enumerate(self.fiber)}
        for k in (1, 2):
            self._fiber_pos.update({g.id: i for i, g in enumerate(self._copies[k])})
        # per copy 1, 2: each generator that can move up by the copy, sent
        # to where it moves (base generators stay)
        fixed = {g: g for g in self.base}
        self._moved_up = {
            1: {**fixed, **dict(zip(self.fiber + self._copies[1],
                                    self._copies[1] + self._copies[2]))},
            2: {**fixed, **dict(zip(self.fiber, self._copies[2]))},
        }
        self._basis_cache: dict[tuple, tuple[Monomial, ...]] = {}
        # generator ids -> {(suffix start, degree, least, most word length):
        # monomials in monomial_key order}
        self._suffix_cache: dict[tuple[int, ...], dict[tuple, list]] = {}

    # -- lookups -----------------------------------------------------------

    def generator(self, space: str, name: str) -> Generator:
        try:
            return self._by_space_name[(space, name)]
        except KeyError:
            raise AlgebraError(f"unknown generator {name!r} in space {space!r}") from None

    def fiber_index(self, gen: Generator) -> int:
        return self._fiber_pos[gen.id]

    def copy(self, gen: Generator, copy: int) -> Generator:
        """The copy-`copy` version (0, 1 or 2) of a fiber generator."""
        if gen.space not in W_SPACES:
            raise AlgebraError(f"{gen.name!r} is not a fiber generator")
        if copy == 0:
            return self.fiber[self._fiber_pos[gen.id]]
        return self._copies[copy][self._fiber_pos[gen.id]]

    def poly(self, name: str, copy: int = 0) -> Polynomial:
        """Polynomial for a named generator; `copy` selects the tensor copy
        of a fiber generator (base names require copy 0)."""
        if ("base", name) in self._by_space_name:
            if copy != 0:
                raise AlgebraError(f"base generator {name!r} has no tensor copies")
            return Polynomial.from_generator(self._by_space_name[("base", name)])
        space = W_SPACES[copy]
        return Polynomial.from_generator(self.generator(space, name))

    def shift_images(self, shift: Mapping[int, int]) -> dict[int, Polynomial]:
        """Generator images that move fiber copies, e.g. {0: 1, 1: 2}."""
        images: dict[int, Polynomial] = {}
        for src, dst in shift.items():
            source = self.fiber if src == 0 else self._copies[src]
            for gen in source:
                images[gen.id] = Polynomial.from_generator(self.copy(gen, dst))
        return images

    def on_copy(self, images: Mapping[int, Polynomial], copy: int) -> dict[int, Polynomial]:
        """A map given on first-copy fiber generators (keyed by id), placed
        on tensor copy `copy`: each copy-`copy` generator goes to its image
        with every fiber copy tag moved up by `copy`.

        Moving every fiber copy up by the same amount keeps the canonical
        factor order, so an image is renamed factor by factor with its
        coefficients and signs as they are.  An image with a factor that
        cannot move up (a w1 or w2 factor placed on copy 2, a w2 factor on
        copy 1) is refused."""
        if copy == 0:
            return dict(images)
        rename = self._moved_up[copy]
        placed: dict[int, Polynomial] = {}
        for gid, image in images.items():
            try:
                moved = Polynomial._of({
                    tuple((rename[gen], exp) for gen, exp in mono): coeff
                    for mono, coeff in image.terms.items()
                })
            except KeyError as missing:
                raise AlgebraError(
                    f"a {missing.args[0].space} factor cannot be placed on copy {copy}"
                ) from None
            placed[self._copies[copy][self._fiber_pos[gid]].id] = moved
        return placed

    # -- degreewise bases ----------------------------------------------------

    def monomial_basis(
        self, degree: int, gens: Sequence[Generator],
        max_word_length: int | None = None, min_word_length: int = 0,
    ) -> tuple[Monomial, ...]:
        """The degree-`degree` monomials over `gens` whose word length (their
        number of fiber-copy factors, `monomial_word_length`) lies between
        `min_word_length` and `max_word_length` (no upper bound for None),
        in `monomial_key` order: the full basis's order, restricted.

        The monomials over each suffix of the ordered generators are
        enumerated once per generator set, degree and word-length budget,
        already in that order, and shared by every degree; no degree is
        sorted and no monomial outside the bounds is built."""
        ordered = tuple(sorted(gens, key=lambda g: g.sort_key))
        ids = tuple(g.id for g in ordered)
        key = (degree, ids, min_word_length, max_word_length)
        cached = self._basis_cache.get(key)
        if cached is not None:
            return cached
        suffixes = self._suffix_cache.setdefault(ids, {})
        basis = tuple(_suffix_monomials(
            ordered, 0, degree, min_word_length, max_word_length, suffixes))
        self._basis_cache[key] = basis
        return basis


def _suffix_monomials(
    gens: tuple[Generator, ...], index: int, degree: int,
    least: int, most: int | None, memo: dict[tuple, list[Monomial]],
) -> list[Monomial]:
    """The degree-`degree` monomials over gens[index:] with at least `least`
    and at most `most` fiber-copy factors (no upper bound for None), in
    `monomial_key` order, memoized by (index, degree, least, most).  Their
    first factors decide the order: the monomials with gens[index], by
    ascending exponent, come before those without it, whose first generator
    sorts later.  A fiber-copy factor g^e spends e of both bounds.

    The lists over gens[i:] for i from `index` on are filled back from the
    first one memoized, each from the next, so only a factor taken
    recurses: the depth is the number of factors, not of generators."""
    if degree == 0:
        return [] if least else [()]
    if degree < 0 or index == len(gens):
        return []
    start = index
    while start < len(gens) and (start, degree, least, most) not in memo:
        start += 1
    found = memo.get((start, degree, least, most), [])
    for position in range(start - 1, index - 1, -1):
        gen = gens[position]
        with_gen = []
        max_exp = 1 if gen.is_odd else degree // gen.degree
        length = 1 if gen.space in W_SPACES else 0
        if length and most is not None:
            max_exp = min(max_exp, most)
        for exp in range(1, max_exp + 1):
            head = ((gen, exp),)
            with_gen.extend(head + rest for rest in _suffix_monomials(
                gens, position + 1, degree - exp * gen.degree, max(least - exp * length, 0),
                None if most is None else most - exp * length, memo))
        with_gen.extend(found)
        found = memo[(position, degree, least, most)] = with_gen
    return found
