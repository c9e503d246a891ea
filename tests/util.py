"""Shared model builders and independent oracles for the test suite."""

from __future__ import annotations

from fractions import Fraction

from fibrewise import linalg
from fibrewise import (
    ChangeOfGenerators,
    Comultiplication,
    GeneratorTable,
    Polynomial,
    RelativeModel,
)


def fixture_a():
    """Lambda(b3) -> Lambda(b3) (x) Lambda(w3, w5), D(w5) = b3 w3, C = C0."""
    table = GeneratorTable(base=[("b3", 3)], fiber=[("w3", 3), ("w5", 5)])
    model = RelativeModel(table, d_fiber={"w5": table.poly("b3") * table.poly("w3")})
    return model, Comultiplication.standard(table)


def fixture_b():
    """The free loop space of the 2-sphere: base Lambda(x2, y3; dy = x^2),
    fiber (xb1, yb2), D(yb) = -2 x xb, C(yb) = yb + yb' + xb xb'."""
    table = GeneratorTable(base=[("x", 2), ("y", 3)], fiber=[("xb", 1), ("yb", 2)])
    x = table.poly("x")
    model = RelativeModel(
        table, d_base={"y": x * x}, d_fiber={"yb": (-2) * x * table.poly("xb")}
    )
    images = dict(Comultiplication.standard(table).images)
    images["yb"] = (
        table.poly("yb") + table.poly("yb", copy=1)
        + table.poly("xb") * table.poly("xb", copy=1)
    )
    return model, Comultiplication(table, images)


def fixture_c():
    """Lambda(b3) (x) Lambda(w3, w9), D = 0, C(w9) = w9 + w9' + b3 w3 w3'."""
    table = GeneratorTable(base=[("b3", 3)], fiber=[("w3", 3), ("w9", 9)])
    images = dict(Comultiplication.standard(table).images)
    images["w9"] = (
        table.poly("w9") + table.poly("w9", copy=1)
        + table.poly("b3") * table.poly("w3") * table.poly("w3", copy=1)
    )
    return RelativeModel(table), Comultiplication(table, images)


def s2_base_model(fiber=(), truncation=None):
    """Base Lambda(x2, y3; dy = x^2) with an optional fiber."""
    table = GeneratorTable(base=[("x", 2), ("y", 3)], fiber=list(fiber))
    x = table.poly("x")
    return RelativeModel(table, d_base={"y": x * x}, truncation=truncation)

def contractible_base_model(fiber=(), truncation=None):
    """Base Lambda(p2, q3; dp = q), cohomology Q; odd exact elements exist."""
    table = GeneratorTable(base=[("p", 2), ("q", 3)], fiber=list(fiber))
    return RelativeModel(
        table, d_base={"p": table.poly("q")}, truncation=truncation
    )


def wide_base_model():
    """The wide base of the `basescan` benchmark workload, even cohomology
    only: Lambda(x2, y3, p2, q3, r2, s3, a4, b7) with dy = x^2, dp = q,
    dr = s, db = a^2, truncation 18."""
    base = [("x", 2), ("y", 3), ("p", 2), ("q", 3), ("r", 2), ("s", 3),
            ("a", 4), ("b", 7)]
    table = GeneratorTable(base=base, fiber=[])
    poly = table.poly
    return RelativeModel(
        table,
        d_base={"y": poly("x") ** 2, "p": poly("q"), "r": poly("s"),
                "b": poly("a") ** 2},
        truncation=18,
    )


def rt_tables():
    """The round-trip model family: three bases, fiber (u3, v3, z3, w9)."""
    fiber = [("u", 3), ("v", 3), ("z", 3), ("w", 9)]
    configs = []
    t1 = GeneratorTable(base=[("x", 2)], fiber=fiber)
    configs.append(RelativeModel(t1, truncation=14))
    t2 = GeneratorTable(base=[("x", 2), ("y", 5)], fiber=fiber)
    configs.append(
        RelativeModel(t2, d_base={"y": t2.poly("x") ** 3}, truncation=14)
    )
    t3 = GeneratorTable(base=[("x", 4), ("y", 6)], fiber=fiber)
    configs.append(RelativeModel(t3, truncation=14))
    return configs


def full_ladder_model():
    """A perturbed model whose `ls` normalization needs the linear stage,
    the higher stage, an even homotopy and an odd absorption, in that
    order: base Lambda(p2, q3; dp = q), fiber (u3, v3, z3, s5, w11)."""
    from fibrewise import conjugate

    table = GeneratorTable(base=[("p", 2), ("q", 3)],
                           fiber=[("u", 3), ("v", 3), ("z", 3), ("s", 5), ("w", 11)])
    p, q = table.poly("p"), table.poly("q")
    u, v, z, s, w = (table.poly(n) for n in "uvzsw")
    model = RelativeModel(table, d_base={"p": q}, truncation=24)
    phi = ChangeOfGenerators({
        table.generator("w0", "s").id: s + p * u,
        table.generator("w0", "w").id: w + p * u * v * z + s * u * v + q * u * s,
    })
    return conjugate(model, Comultiplication.standard(table), phi)


def seeded_unipotent(model, rng, max_terms=2):
    """A random unipotent change of generators respecting the basis order."""
    table = model.table
    images = {}
    for position, gen in enumerate(table.fiber):
        candidates = list(
            table.monomial_basis(gen.degree, model.fiber_prefix_gens(position), {"w0": 1})
        )
        if not candidates:
            continue
        count = rng.randint(0, min(max_terms, len(candidates)))
        tail = Polynomial.zero()
        for mono in rng.sample(candidates, count):
            tail = tail + Polynomial(
                {mono: Fraction(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 1, 2]))}
            )
        if tail:
            images[gen.id] = Polynomial.from_generator(gen) + tail
    return ChangeOfGenerators(images)


# -- independent oracles -------------------------------------------------------


def bubble_sort_sign(factors):
    """Koszul sign by literal bubble sort with adjacent transpositions;
    independent of the library's inversion count."""
    word = []
    for gen, exp in factors:
        word.extend([gen] * exp)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if a.sort_key > b.sort_key:
                word[i], word[i + 1] = b, a
                if a.is_odd and b.is_odd:
                    sign = -sign
                changed = True
    for i in range(len(word) - 1):
        if word[i] == word[i + 1] and word[i].is_odd:
            return None, 0
    return word, sign


def dense_rank(rows, ncols):
    """Rank by dense fraction Gaussian elimination (oracle for linalg)."""
    matrix = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(matrix)):
            if matrix[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = Fraction(1) / matrix[rank][col]
        matrix[rank] = [v * inv for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def enumerate_basis_oracle(gens, degree):
    """All degree-`degree` exponent vectors by brute enumeration (oracle for
    the library's recursive basis builder)."""
    gens = sorted(gens, key=lambda g: g.sort_key)
    out = []

    def rec(i, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        if i == len(gens) or remaining < 0:
            return
        gen = gens[i]
        limit = 1 if gen.is_odd else remaining // gen.degree
        for exp in range(0, limit + 1):
            if exp * gen.degree <= remaining:
                rec(i + 1, remaining - exp * gen.degree,
                    acc + ([(gen, exp)] if exp else []))

    rec(0, degree, [])
    return sorted(set(out), key=lambda m: [(g.sort_key, e) for g, e in m])


def random_homogeneous(rng, table, gens, degree, max_terms=3):
    basis = table.monomial_basis(degree, gens)
    if not basis:
        return Polynomial.zero()
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = rng.choice(basis)
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(
            rng.randint(-4, 4), rng.choice([1, 2, 3])
        )
    return Polynomial(terms)


def leibniz_by_factors(cdga, mono):
    """d of a monomial as the per-factor Leibniz sum: for each factor g^e,
    (+-) prefix * e g^(e-1) * dg * suffix, the sign counting the odd factors
    before it (oracle for the recursive FreeCDGA._d_monomial)."""
    total = Polynomial.zero()
    sign = 1
    for i, (gen, exp) in enumerate(mono):
        dg = cdga.diff.get(gen.id)
        if dg:
            prefix = Polynomial({mono[:i]: Fraction(sign)})
            middle = Polynomial({((gen, exp - 1),) if exp > 1 else (): Fraction(exp)})
            suffix = Polynomial({mono[i + 1:]: Fraction(1)})
            total = total + prefix * middle * dg * suffix
        if gen.is_odd:
            sign = -sign
    return total


def columns_matrix(vectors, nrows):
    """Equation rows of the matrix whose columns are `vectors`."""
    rows = [{} for _ in range(nrows)]
    for j, vec in enumerate(vectors):
        for i, val in vec.items():
            rows[i][j] = val
    return rows


def decompose_by_solve(slice_, cycle):
    """(boundary part, complement part) of a cycle by one exact solve
    against the boundary and complement bases (oracle for decompose)."""
    index = slice_._index
    parts = slice_.boundaries + slice_.complement
    columns = [{index[m]: c for m, c in p.terms.items()} for p in parts]
    rhs = {index[m]: c for m, c in cycle.terms.items()}
    solution = linalg.solve(columns_matrix(columns, len(index)), rhs, len(columns))
    assert solution is not None
    exact, rest = Polynomial.zero(), Polynomial.zero()
    for j, val in solution.items():
        if j < len(slice_.boundaries):
            exact = exact + parts[j].scale(val)
        else:
            rest = rest + parts[j].scale(val)
    return exact, rest
