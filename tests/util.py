"""Shared model builders and independent oracles for the test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction

from fibrewise import linalg, propsolver
from fibrewise import (
    ChangeOfGenerators,
    Comultiplication,
    EngineError,
    EquivalenceCertificate,
    FreeCDGA,
    GeneratorTable,
    Polynomial,
    RelativeModel,
    normalize_monomial,
)
from fibrewise.algebra import (
    apply_images,
    coefficient,
    is_mixed_square_monomial,
    monomial_key,
    monomial_word_length,
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


def wide_base_model(fiber=()):
    """The wide base of the `basescan` benchmark workload, even cohomology
    only: Lambda(x2, y3, p2, q3, r2, s3, a4, b7) with dy = x^2, dp = q,
    dr = s, db = a^2, truncation 18, with an optional fiber (the workload's
    is u3, v5, z7, w9)."""
    base = [("x", 2), ("y", 3), ("p", 2), ("q", 3), ("r", 2), ("s", 3),
            ("a", 4), ("b", 7)]
    table = GeneratorTable(base=base, fiber=list(fiber))
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


def odd_cohomology_bases():
    """Four bases with odd cohomology, so outside the hypotheses, each with
    fiber (u3, v3, z5, w9), D = 0 and truncation 10: Lambda(b3);
    Lambda(b3, c5); Lambda(x2, y3, b3; dy = x^2); Lambda(b1, x2).
    {label: model}."""
    specs = {
        "b3": ([("b", 3)], {}),
        "b3c5": ([("b", 3), ("c", 5)], {}),
        "s2b3": ([("x", 2), ("y", 3), ("b", 3)], {"y": ("x", 2)}),
        "b1x2": ([("b", 1), ("x", 2)], {}),
    }
    models = {}
    for label, (base, d_base) in specs.items():
        table = GeneratorTable(base=base, fiber=[("u", 3), ("v", 3), ("z", 5), ("w", 9)])
        models[label] = RelativeModel(
            table, d_base={y: table.poly(x) ** n for y, (x, n) in d_base.items()},
            truncation=10)
    return models


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


def ladder_model(n):
    """The ladder L(n): base Lambda(x2, y5, p2, q3; dy = x^3, dp = q), fiber
    a1..an of degree 3, then v5, then w of degree 2n + 3, truncated at
    2n + 8."""
    fiber = [(f"a{i}", 3) for i in range(1, n + 1)] + [("v", 5), ("w", 2 * n + 3)]
    table = GeneratorTable(base=[("x", 2), ("y", 5), ("p", 2), ("q", 3)], fiber=fiber)
    return RelativeModel(
        table, d_base={"y": table.poly("x") ** 3, "p": table.poly("q")},
        truncation=2 * n + 8)


def perturbed_ladder(n):
    """L(n) with the exact additions of seed 3 at word length up to 4: D = 0
    and, from L(6) on, associativity defects that are exact but not zero."""
    from fibrewise import PerturbationSpec, perturb

    model = ladder_model(n)
    spec = PerturbationSpec(3, max_word_length=4, mode="exact-homotopy")
    return perturb(model, Comultiplication.standard(model.table), spec)


def nonassociative_model():
    """Lambda(b3) (x) Lambda(u3, v3, w9), D = 0, C(w) = w + w' + u v u':
    the defect u v' u'' + u' v u'' is not exact, over a base with odd
    cohomology."""
    table = GeneratorTable(base=[("b3", 3)], fiber=[("u", 3), ("v", 3), ("w", 9)])
    images = dict(Comultiplication.standard(table).images)
    images["w"] = images["w"] + table.poly("u") * table.poly("v") * table.poly("u", copy=1)
    return RelativeModel(table), Comultiplication(table, images)


def exact_defect_model():
    """Base Lambda(x2, y5; dy = x^3), fiber (u3, v3, z3, w15), C(w) = w + w'
    + x^3 u v z': homotopy associative, with a defect that is exact but not
    zero."""
    table = GeneratorTable(base=[("x", 2), ("y", 5)],
                           fiber=[("u", 3), ("v", 3), ("z", 3), ("w", 15)])
    x = table.poly("x")
    model = RelativeModel(table, d_base={"y": x ** 3}, truncation=32)
    images = dict(Comultiplication.standard(table).images)
    images["w"] = images["w"] + x ** 3 * table.poly("u") * table.poly("v") * table.poly("z", copy=1)
    return model, Comultiplication(table, images)


def exact_odd_excess_model():
    """Base Lambda(x2, y3; dy = x^2), fiber (u3, v3, z3, w13), D = 0, C = C0,
    truncated at 16.  Perturbed by seed 0 in mode exact-homotopy, its `ls`
    run is one homotopy removing the exact part of a length-3 excess."""
    return s2_base_model(fiber=[("u", 3), ("v", 3), ("z", 3), ("w", 13)], truncation=16)


def seeded_unipotent(model, rng, max_terms=2):
    """A random unipotent change of generators respecting the basis order."""
    table = model.table
    images = {}
    for position, gen in enumerate(table.fiber):
        candidates = [
            mono for mono in table.monomial_basis(gen.degree, model.fiber_prefix_gens(position))
            if any(g.space == "w0" for g, _ in mono)
        ]
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


def transpose(columns, nrows):
    """Equation rows of the matrix whose columns are `columns`."""
    rows = [{} for _ in range(nrows)]
    for j, column in enumerate(columns):
        for i, val in column.items():
            rows[i][j] = val
    return rows


def rref_by_rows(rows, ncols):
    """(pivot columns ascending, reduced nonzero rows) by row pivoting: for
    each column left to right, the first remaining row nonzero there is
    scaled to 1 and cleared from every other row (oracle for `linalg.rref`;
    coefficients under the rule of `algebra.coefficient`)."""
    work = [dict(r) for r in rows if r]
    pivots, reduced = [], []
    for col in range(ncols):
        pivot_row = next((i for i, row in enumerate(work) if row.get(col)), None)
        if pivot_row is None:
            continue
        row = work.pop(pivot_row)
        row = linalg.vec_scale(row, coefficient(Fraction(1) / row[col]))
        for other in work + reduced:
            val = other.get(col)
            if val:
                linalg.add_into(other, row, -val)
        work = [r for r in work if r]
        pivots.append(col)
        reduced.append(row)
    return pivots, reduced


def solve_by_rows(rows, rhs, ncols):
    """One solution of `rows . x = rhs` with the free variables zero, or
    None, read off the row-pivoted form of the augmented rows (oracle for
    `linalg.solve` and `Elimination.preimage`)."""
    augmented = []
    for i, row in enumerate(rows):
        aug = dict(row)
        if rhs.get(i):
            aug[ncols] = rhs[i]
        augmented.append(aug)
    pivots, reduced = rref_by_rows(augmented, ncols + 1)
    if ncols in pivots:
        return None
    return {pivot: row[ncols] for pivot, row in zip(pivots, reduced) if row.get(ncols)}


def kernel_by_rref(columns, nrows):
    """(free columns, kernel basis) of the matrix with these columns, read
    off the reduced row echelon form of its rows: vector j is 1 at free
    column j, 0 at the other free columns, and lists its free column first,
    then its pivots ascending (oracle for `linalg.eliminate`)."""
    pivots, reduced = rref_by_rows(transpose(columns, nrows), len(columns))
    pivot_set, free, kernel = set(pivots), [], []
    for col in range(len(columns)):
        if col in pivot_set:
            continue
        vec = {col: Fraction(1)}
        for pivot, row in zip(pivots, reduced):
            if row.get(col):
                vec[pivot] = -row[col]
        free.append(col)
        kernel.append(vec)
    return free, kernel


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


def basis_by_recursion(gens, degree):
    """The monomial basis by one depth-first recursion per degree, each
    degree sorted by `monomial_key` (oracle for the memoized suffix
    enumeration of GeneratorTable.monomial_basis)."""
    ordered = tuple(sorted(gens, key=lambda g: g.sort_key))
    results, factors = [], []

    def extend(index, remaining):
        if remaining == 0 and index <= len(ordered):
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
        results.append(())
    elif degree > 0:
        extend(0, degree)
    return tuple(sorted(results, key=monomial_key))


def bounded_bases_by_products(gens, top, max_word_length):
    """{degree: monomials} for each degree from 0 to `top`: the monomials
    over `gens` with at most `max_word_length` fiber-copy factors, built as
    products, each word of at most that many fiber-copy generators (a
    multiset, no odd generator twice) after each monomial of the remaining
    degree over the other generators (`basis_by_recursion`), then sorted by
    `monomial_key` (oracle for the bounded enumeration where the full basis
    is too large to build and filter)."""
    ordered = sorted(gens, key=lambda g: g.sort_key)
    fiber = [g for g in ordered if g.space in ("w0", "w1", "w2")]
    rest = [g for g in ordered if g.space not in ("w0", "w1", "w2")]
    rest_bases = [basis_by_recursion(rest, degree) for degree in range(top + 1)]
    found = {degree: [] for degree in range(top + 1)}
    for size in range(max_word_length + 1):
        for word in itertools.combinations_with_replacement(fiber, size):
            factors = tuple((g, word.count(g)) for g in dict.fromkeys(word))
            if any(g.is_odd and e > 1 for g, e in factors):
                continue
            low = sum(g.degree for g in word)
            for degree in range(low, top + 1):
                found[degree].extend(b + factors for b in rest_bases[degree - low])
    return {degree: tuple(sorted(monos, key=monomial_key)) for degree, monos in found.items()}


def exact_candidates_by_filter(model, degree, max_word_length):
    """The exact-addition candidates of `perturb` as they were first built:
    the whole degree-`degree` basis of the tensor square, each mixed
    monomial of word length at most `max_word_length` differentiated in the
    square, the nonzero images kept in basis order (oracle for
    perturb._exact_candidates and the images perturb._exact_image forms)."""
    square = model.tensor_cdga(2)
    candidates = []
    for mono in model.table.monomial_basis(degree, square.gens):
        if (not is_mixed_square_monomial(mono)
                or monomial_word_length(mono) > max_word_length):
            continue
        image = square.d(Polynomial({mono: 1}))
        if image:
            candidates.append(image)
    return candidates


def scan_by_slices(model):
    """The odd-degree hypothesis scan with a cohomology slice built in every
    odd degree below the truncation, on a fresh base algebra: [(degree,
    classes)] for each degree with classes (oracle for check_hypotheses,
    which builds a slice only where the rank count finds classes)."""
    base = FreeCDGA(model.table, model.table.base,
                    model.base_cdga().diff, model.truncation)
    found = []
    for degree in range(1, model.truncation, 2):
        complement = base.cohomology_slice(degree).complement
        if complement:
            found.append((degree, complement))
    return found


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
    return Polynomial(fraction_d(cdga, {mono: Fraction(1)}))


def product_by_normalize(p, q):
    """The product with each pair of monomials concatenated and sorted again
    by `normalize_monomial` (oracle for the merge in Polynomial.__mul__)."""
    return Polynomial(fraction_product(fraction_terms(p), fraction_terms(q)))


def apply_images_by_products(images, p):
    """A generator-image map applied term by term: the coefficient times
    each factor's image power, every product and power by the concatenate
    and sort of `product_by_normalize`, the terms summed one at a time
    (oracle for algebra.apply_images)."""
    return Polynomial(fraction_apply_images(
        {gid: fraction_terms(image) for gid, image in images.items()}, fraction_terms(p)))


def on_copy_by_substitution(table, images, copy):
    """A map on first-copy fiber generators placed on tensor copy `copy` by
    substituting the copy shift into each image (oracle for
    GeneratorTable.on_copy, which renames factors)."""
    if copy == 0:
        return dict(images)
    shift = table.shift_images({src: src + copy for src in range(3 - copy)})
    fiber = {gen.id: gen for gen in table.fiber}
    return {table.copy(fiber[gid], copy).id: apply_images(shift, image)
            for gid, image in images.items()}


def state(model, comul):
    """The fiber differential and comultiplication images of a model pair,
    for comparing two pairs."""
    return dict(model.d_fiber), dict(comul.images)


def identity_certificate(model, comul):
    """The certificate of a model pair that is its own target: Phi the
    identity, eta zero and no trail."""
    return EquivalenceCertificate(
        table=model.table, d_base=dict(model.d_base), source_d=dict(model.d_fiber),
        source_c=dict(comul.images), phi=ChangeOfGenerators({}),
        target_c=dict(comul.images), target_d=dict(model.d_fiber))


def spy_eliminations(monkeypatch):
    """The column lists handed to `linalg.eliminate`, in call order."""
    calls = []
    real = linalg.eliminate
    monkeypatch.setattr(linalg, "eliminate",
                        lambda columns: calls.append(columns) or real(columns))
    return calls


def d_matrix_degrees(cdga, calls):
    """For each recorded elimination, the degrees k whose matrix of d_k (the
    list `cdga._d_columns(k)` itself) it was handed: [] for any other, such
    as a cohomology slice's reduction of its boundaries."""
    return [[k for k, record in sorted(cdga._degrees.items()) if record.columns is columns]
            for columns in calls]


def assert_same_terms(got, expected):
    """Equal polynomials whose term dicts also list their monomials in the
    same order, so that nothing iterating the terms can tell them apart."""
    assert got == expected
    assert list(got.terms) == list(expected.terms)


def decompose_by_solve(slice_, cycle):
    """(boundary part, complement part) of a cycle by one exact solve
    against the boundary and complement bases (oracle for decompose)."""
    index = slice_._record.index
    parts = slice_.boundaries + slice_.complement
    columns = [{index[m]: c for m, c in p.terms.items()} for p in parts]
    rhs = {index[m]: c for m, c in cycle.terms.items()}
    solution = solve_by_rows(transpose(columns, len(index)), rhs, len(columns))
    assert solution is not None
    exact, rest = Polynomial.zero(), Polynomial.zero()
    for j, val in solution.items():
        if j < len(slice_.boundaries):
            exact = exact + parts[j].scale(val)
        else:
            rest = rest + parts[j].scale(val)
    return exact, rest


# the single-map conditions of the structure theorem's lemmas, each a
# signed sum of the comparison maps of `propsolver`
CONDITION_TERMS = {
    "beta=gamma": (("beta", 1), ("gamma", -1)),
    "beta=0": (("beta", 1),),
    "beta=delta": (("beta", 1), ("delta", -1)),
    "alpha+beta=gamma": (("alpha", 1), ("beta", 1), ("gamma", -1)),
    "beta=gamma+delta": (("beta", 1), ("gamma", -1), ("delta", -1)),
}


def sequence_span(table, fiber_gens):
    """All tensor-square monomials with the exact index multiset of
    `fiber_gens` (one copy-0/copy-1 assignment per factor)."""
    span = []
    n = len(fiber_gens)
    for mask in range(2**n):
        factors = [(table.copy(g, (mask >> i) & 1), 1) for i, g in enumerate(fiber_gens)]
        mono, sign = normalize_monomial(factors)
        if sign == 0:
            continue
        poly = Polynomial({mono: Fraction(sign)})
        if not any(p == poly for p in span):
            span.append(poly)
    return span


def lemma_kernel(table, condition, fiber_gens):
    """The closed-form solution space of one map-condition on elements
    supported on a strictly increasing index sequence, with scalar
    coefficients, checked against the brute-force kernel on
    `sequence_span`: a disagreement raises."""
    binomial = propsolver.binomial_product(table, fiber_gens)
    closed = {
        "beta=gamma": [binomial],
        "beta=0": [],
        "beta=delta": [propsolver.copy_product(table, fiber_gens, 1)],
        "alpha+beta=gamma": [binomial - propsolver.copy_product(table, fiber_gens, 0)],
        "beta=gamma+delta": [binomial - propsolver.copy_product(table, fiber_gens, 1)],
    }[condition]
    span = sequence_span(table, fiber_gens)
    images = [Polynomial.sum(propsolver.apply_map(table, which, p).scale(factor)
                             for which, factor in CONDITION_TERMS[condition])
              for p in span]
    brute = propsolver._polynomial_kernel(images, span)
    if not propsolver._same_polynomial_span(closed, brute):
        raise EngineError(
            f"closed-form kernel for {condition} on {[g.name for g in fiber_gens]} "
            "disagrees with brute force"
        )
    return closed


# -- the all-Fraction oracle of the coefficient rule -------------------------------
#
# The engine keeps a coefficient an int when it is integral and a Fraction
# only for a denominator above 1.  These oracles compute on term dicts whose
# every coefficient is a Fraction, with no int fast path, so an engine
# result must equal them as a term dict and as a serialized document.


def is_rule_coefficient(value):
    """An int (not a bool) or a Fraction with a denominator above 1."""
    if type(value) is int:
        return True
    return type(value) is Fraction and value.denominator > 1


def fraction_terms(p):
    """The term dict of `p`, every coefficient made a Fraction."""
    return {mono: Fraction(coeff) for mono, coeff in p.terms.items()}


def _fraction_add_term(out, mono, coeff):
    total = out.get(mono, Fraction(0)) + coeff
    if total:
        out[mono] = total
    else:
        out.pop(mono, None)


def fraction_sum(left, right):
    out = dict(left)
    for mono, coeff in right.items():
        _fraction_add_term(out, mono, coeff)
    return out


def fraction_scale(terms, value):
    value = Fraction(value)
    if not value:
        return {}
    return {mono: coeff * value for mono, coeff in terms.items()}


def fraction_product(left, right):
    """Each pair of monomials concatenated and sorted by `normalize_monomial`."""
    out = {}
    for mono_a, coeff_a in left.items():
        for mono_b, coeff_b in right.items():
            mono, sign = normalize_monomial(mono_a + mono_b)
            if sign:
                _fraction_add_term(out, mono, coeff_a * coeff_b * Fraction(sign))
    return out


def fraction_power(terms, exponent):
    """`exponent` products, one factor at a time."""
    out = {(): Fraction(1)}
    for _ in range(exponent):
        out = fraction_product(out, terms)
    return out


def fraction_apply_images(images, terms):
    """A generator-image map (term dicts keyed by generator id) applied to
    each term, the factors' image powers multiplied one at a time."""
    out = {}
    for mono, coeff in terms.items():
        term = {(): coeff}
        for gen, exp in mono:
            image = images.get(gen.id, {((gen, 1),): Fraction(1)})
            term = fraction_product(term, fraction_power(image, exp))
        out = fraction_sum(out, term)
    return out


def fraction_d(cdga, terms):
    """d as the per-factor Leibniz sum: for each factor g^e of a term,
    (+-) prefix * e g^(e-1) * dg * suffix, the sign counting the odd factors
    before it."""
    out = {}
    for mono, coeff in terms.items():
        sign = 1
        for i, (gen, exp) in enumerate(mono):
            dg = cdga.diff.get(gen.id)
            if dg:
                middle = {((gen, exp - 1),) if exp > 1 else (): Fraction(exp)}
                part = fraction_product({mono[:i]: Fraction(sign) * coeff}, middle)
                part = fraction_product(part, fraction_terms(dg))
                out = fraction_sum(out, fraction_product(part, {mono[i + 1:]: Fraction(1)}))
            if gen.is_odd:
                sign = -sign
    return out


def fraction_column_solve(columns, nrows, target):
    """(kernel basis, preimage of `target` with the free variables zero, or
    None) of the matrix with these columns, by dense Fraction reduction of
    the augmented rows: the convention of `linalg.eliminate` (kernel vector
    j is 1 at free column j and 0 at the other free columns)."""
    ncols = len(columns)
    rows = [[Fraction(0)] * (ncols + 1) for _ in range(nrows)]
    for j, column in enumerate(columns):
        for i, val in column.items():
            rows[i][j] = Fraction(val)
    for i, val in target.items():
        rows[i][ncols] = Fraction(val)
    pivots, rank = [], 0
    for col in range(ncols + 1):
        found = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if found is None:
            continue
        rows[rank], rows[found] = rows[found], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [val / lead for val in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    kernel = []
    for free in (col for col in range(ncols) if col not in pivots):
        vec = {free: Fraction(1)}
        for r, pivot in enumerate(pivots):
            if rows[r][free]:
                vec[pivot] = -rows[r][free]
        kernel.append(vec)
    if ncols in pivots:
        return kernel, None
    return kernel, {pivot: rows[r][ncols] for r, pivot in enumerate(pivots) if rows[r][ncols]}
