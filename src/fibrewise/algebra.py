"""Free graded-commutative algebras over the rationals, in exact canonical form.

Monomials are ordered tuples of (generator, exponent) pairs.  The canonical
factor order is by block -- base generators first, then the three tensor
copies of the fiber, then the interval generators t, dt -- ascending by
generator id inside each block.  Koszul reordering signs are absorbed into
the rational coefficient at normalization time, so stored monomials are
always "positive" and two polynomials are equal iff their term maps are
equal.  Odd generators square to zero; coefficients are fractions.Fraction
(never floats: several normalization steps divide by word counts and need
exactness).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

SPACES = ("base", "w0", "w1", "w2", "interval")
_SPACE_RANK = {space: rank for rank, space in enumerate(SPACES)}
W_SPACES = ("w0", "w1", "w2")

ONE = Fraction(1)


class AlgebraError(ValueError):
    """Raised for malformed generators, monomials or polynomial operations."""


@dataclass(frozen=True)
class Generator:
    """A free algebra generator: unique id, display name, degree, block tag.

    Degrees are positive except for the interval generator t of degree 0.
    The tags w1/w2 mark the second and third tensor copies of a fiber
    generator; copies share the name and degree of their w0 original.
    """

    id: int
    name: str
    degree: int
    space: str

    def __post_init__(self) -> None:
        if self.space not in _SPACE_RANK:
            raise AlgebraError(f"unknown generator space {self.space!r}")
        if self.degree < 0:
            raise AlgebraError(f"generator {self.name!r} has negative degree")
        if self.degree == 0 and self.space != "interval":
            raise AlgebraError(f"generator {self.name!r} must have degree >= 1")

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1

    @property
    def sort_key(self) -> tuple[int, int]:
        return (_SPACE_RANK[self.space], self.id)

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

    def __init__(self, terms: Mapping[Monomial, Fraction] | None = None):
        cleaned: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    cleaned[mono] = coeff
        self.terms = cleaned

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> Polynomial:
        return cls()

    @classmethod
    def one(cls) -> Polynomial:
        return cls({(): ONE})

    @classmethod
    def constant(cls, value) -> Polynomial:
        return cls({(): Fraction(value)})

    @classmethod
    def from_generator(cls, gen: Generator) -> Polynomial:
        return cls({((gen, 1),): ONE})

    @classmethod
    def term(cls, coeff, factors: Iterable[tuple[Generator, int]]) -> Polynomial:
        mono, sign = normalize_monomial(factors)
        if sign == 0:
            return cls.zero()
        return cls({mono: Fraction(coeff) * sign})

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
        for mono, coeff in other.terms.items():
            total = terms.get(mono, 0) + coeff
            if total:
                terms[mono] = total
            else:
                terms.pop(mono, None)
        result = Polynomial.__new__(Polynomial)
        result.terms = terms
        return result

    def __neg__(self) -> Polynomial:
        result = Polynomial.__new__(Polynomial)
        result.terms = {mono: -coeff for mono, coeff in self.terms.items()}
        return result

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms: dict[Monomial, Fraction] = {}
        for mono_a, coeff_a in self.terms.items():
            for mono_b, coeff_b in other.terms.items():
                mono, sign = normalize_monomial(mono_a + mono_b)
                if sign == 0:
                    continue
                coeff = coeff_a * coeff_b * sign
                total = terms.get(mono, 0) + coeff
                if total:
                    terms[mono] = total
                else:
                    terms.pop(mono, None)
        result = Polynomial.__new__(Polynomial)
        result.terms = terms
        return result

    def __rmul__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> Polynomial:
        if exponent < 0:
            raise AlgebraError("negative polynomial powers are not defined")
        result = Polynomial.one()
        for _ in range(exponent):
            result = result * self
        return result

    def scale(self, value) -> Polynomial:
        value = Fraction(value)
        if not value:
            return Polynomial.zero()
        result = Polynomial.__new__(Polynomial)
        result.terms = {mono: coeff * value for mono, coeff in self.terms.items()}
        return result

    # -- inspection --------------------------------------------------------

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
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
        return all(monomial_degree(mono) == degree for mono in self.terms)

    def homogeneous_part(self, degree: int) -> Polynomial:
        return Polynomial(
            {m: c for m, c in self.terms.items() if monomial_degree(m) == degree}
        )

    def word_length_parts(self) -> dict[int, Polynomial]:
        """Split by total fiber word length (number of w-copy factors)."""
        parts: dict[int, dict[Monomial, Fraction]] = {}
        for mono, coeff in self.terms.items():
            parts.setdefault(monomial_word_length(mono), {})[mono] = coeff
        return {length: Polynomial(terms) for length, terms in sorted(parts.items())}

    def group_by_fiber_part(self) -> dict[Monomial, Polynomial]:
        """Group terms by their non-base factor sub-monomial.

        Returns {fiber monomial: base coefficient polynomial}; the original
        polynomial is the sum of coefficient * fiber-monomial products (no
        signs arise since base factors precede the rest in canonical order).
        """
        grouped: dict[Monomial, dict[Monomial, Fraction]] = {}
        for mono, coeff in self.terms.items():
            base, rest = split_monomial(mono)
            grouped.setdefault(rest, {})[base] = coeff
        return {rest: Polynomial(terms) for rest, terms in grouped.items()}

    def spaces(self) -> set[str]:
        return {gen.space for mono in self.terms for gen, _ in mono}

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
    here.
    """
    out = Polynomial.zero()
    for mono, coeff in p.terms.items():
        term = Polynomial.constant(coeff)
        for gen, exp in mono:
            image = images.get(gen.id)
            if image is None:
                term = term * Polynomial({((gen, exp),): ONE})
            else:
                term = term * image**exp
        out = out + term
    return out


class GeneratorTable:
    """Registry of all generators of one relative model.

    Holds the base generators, the fiber generators in their given ordered
    (K-S) basis, the w1/w2 tensor copies of every fiber generator, and the
    interval pair t, dt.  All tensor factors of the model share this single
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
        self.t = Generator(next_id, "t", 0, "interval")
        self.dt = Generator(next_id + 1, "dt", 1, "interval")
        self.all_generators = (
            self.base + self.fiber + self._copies[1] + self._copies[2] + (self.t, self.dt)
        )
        self._by_space_name = {(g.space, g.name): g for g in self.all_generators}
        self._fiber_pos = {g.id: i for i, g in enumerate(self.fiber)}
        for k in (1, 2):
            self._fiber_pos.update({g.id: i for i, g in enumerate(self._copies[k])})
        self._basis_cache: dict[tuple, tuple[Monomial, ...]] = {}

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

    # -- degreewise bases ----------------------------------------------------

    def monomial_basis(
        self,
        degree: int,
        gens: Sequence[Generator],
        min_counts: Mapping[str, int] | None = None,
    ) -> tuple[Monomial, ...]:
        """Deterministic basis of all degree-`degree` monomials over `gens`.

        `min_counts` demands a minimum number of factors from given spaces
        (e.g. {"w0": 1, "w1": 1} for the mixed part of a tensor square).
        """
        ordered = tuple(sorted(gens, key=lambda g: g.sort_key))
        constraints = tuple(sorted((min_counts or {}).items()))
        key = (degree, tuple(g.id for g in ordered), constraints)
        cached = self._basis_cache.get(key)
        if cached is not None:
            return cached
        for gen in ordered:
            if gen.degree == 0:
                raise AlgebraError(
                    "cannot enumerate a basis over the degree-0 generator 't'"
                )
        results: list[Monomial] = []
        factors: list[tuple[Generator, int]] = []

        def extend(index: int, remaining: int) -> None:
            if remaining == 0 and index <= len(ordered):
                counts: dict[str, int] = {}
                for g, e in factors:
                    counts[g.space] = counts.get(g.space, 0) + e
                if all(counts.get(space, 0) >= need for space, need in constraints):
                    results.append(tuple(factors))
            if index == len(ordered) or remaining <= 0:
                return
            gen = ordered[index]
            max_exp = 1 if gen.is_odd else remaining // gen.degree
            for exp in range(max_exp, 0, -1):
                if exp * gen.degree <= remaining:
                    factors.append((gen, exp))
                    extend(index + 1, remaining - exp * gen.degree)
                    factors.pop()
            extend(index + 1, remaining)

        if degree == 0:
            if not constraints or all(n <= 0 for _, n in constraints):
                results.append(())
        elif degree > 0:
            extend(0, degree)
        basis = tuple(sorted(results, key=monomial_key))
        self._basis_cache[key] = basis
        return basis

    def spaces_gens(self, spaces: Iterable[str]) -> tuple[Generator, ...]:
        wanted = set(spaces)
        return tuple(g for g in self.all_generators if g.space in wanted)
