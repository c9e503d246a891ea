"""The exact product and substitution kernel against re-normalizing oracles.

`Polynomial.__mul__` merges canonical monomials and `apply_images` reuses
each image power; `tests/util.py` keeps the products that concatenate and
sort again (`product_by_normalize`, `apply_images_by_products`).  Results
must agree term by term and in the order of their term dicts.
"""

import copy
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from fibrewise import (
    AlgebraError,
    Comultiplication,
    FreeCDGA,
    Generator,
    GeneratorTable,
    PerturbationSpec,
    Polynomial,
    RelativeModel,
    normalize_monomial,
    perturb,
)
from fibrewise import io as fio
from fibrewise.algebra import _suffix_monomials, apply_images, monomial_degree
from fibrewise.certify import ChangeOfGenerators, EquivalenceCertificate

import util


def _pairs_within(monos, limit):
    for a in monos:
        for b in monos:
            if monomial_degree(a) + monomial_degree(b) <= limit:
                yield a, b


def _assert_products(pairs):
    count = 0
    for a, b in pairs:
        p, q = Polynomial({a: Fraction(1)}), Polynomial({b: Fraction(-2, 3)})
        util.assert_same_terms(p * q, util.product_by_normalize(p, q))
        count += 1
    return count


def test_merge_product_matches_oracle_on_the_tensor_cube():
    model = util.rt_tables()[1]
    cube = model.tensor_cdga(3)
    # every pair of basis monomials whose product lies within the
    # truncation: 20,121 of the 1009^2 pairs, with every shape of merge
    monos = [m for d in range(model.truncation + 1) for m in cube.basis(d)]
    count = _assert_products(_pairs_within(monos, model.truncation))
    assert count == 20121
    # the pairs include odd repeats (zero) and sums of even exponents
    x = model.table.generator("base", "x")
    u1 = model.table.generator("w1", "u")
    assert Polynomial({((u1, 1),): Fraction(1)}) ** 2 == Polynomial.zero()
    square = Polynomial({((x, 2),): Fraction(1)}) * Polynomial({((x, 3),): Fraction(1)})
    assert square == Polynomial({((x, 5),): Fraction(1)})


def test_merge_product_matches_oracle_with_t_and_dt():
    # the monomials of the tensor square, where the verifier forms
    # C_T + d eta, up to eta's top degree 10 on the ladder's table (which
    # has odd and even base generators), and their products up to degree 16
    model, _ = util.full_ladder_model()
    square = model.tensor_cdga(2)
    monos = [mono for degree in range(11) for mono in square.basis(degree)]
    assert _assert_products(_pairs_within(monos, 16)) > 10000


def test_sums_of_polynomials_match_the_oracle():
    rng = random.Random(11)
    model = util.rt_tables()[1]
    cube = model.tensor_cdga(3)
    for _ in range(60):
        da, db = rng.randint(0, 7), rng.randint(0, 7)
        p = util.random_homogeneous(rng, model.table, cube.gens, da, max_terms=4)
        q = util.random_homogeneous(rng, model.table, cube.gens, db, max_terms=4)
        util.assert_same_terms(p * q, util.product_by_normalize(p, q))
        util.assert_same_terms(q * p, util.product_by_normalize(q, p))


def _random_map(rng, table, gens):
    """Images for a random subset of `gens`, each a random element of the
    generator's degree over all of `gens` (so odd images land out of the
    factor order); generators left out map to themselves."""
    images = {}
    for gen in gens:
        if gen.degree and rng.random() < 0.6:
            image = util.random_homogeneous(rng, table, gens, gen.degree, max_terms=3)
            if image:
                images[gen.id] = image
    return images


def test_apply_images_matches_oracle_on_random_maps():
    rng = random.Random(5)
    model = util.rt_tables()[1]
    table = model.table
    gens = model.tensor_cdga(3).gens
    x = table.generator("base", "x")
    # one generator at several exponents in one polynomial: each power has
    # its own entry in the per-call cache
    powers = Polynomial({((x, e),): Fraction(e) for e in (1, 2, 3, 4)})
    swap = table.shift_images({0: 1, 1: 0})
    for trial in range(40):
        images = _random_map(rng, table, gens)
        if trial % 4 == 0:
            images.update(swap)
        for degree in (3, 6, 9, 12):
            p = util.random_homogeneous(rng, table, gens, degree, max_terms=4)
            util.assert_same_terms(
                apply_images(images, p), util.apply_images_by_products(images, p)
            )
        util.assert_same_terms(
            apply_images(images, powers), util.apply_images_by_products(images, powers)
        )


def test_apply_images_handles_constants_and_the_empty_map():
    model = util.rt_tables()[0]
    table = model.table
    u, v = table.poly("u"), table.poly("v")
    p = Polynomial.constant(Fraction(3, 2)) + u * v
    assert apply_images({}, p) == p
    # u -> v, v -> u reverses the odd factors: u v -> v u = -u v
    images = {table.generator("w0", "u").id: v, table.generator("w0", "v").id: u}
    assert apply_images(images, p) == Polynomial.constant(Fraction(3, 2)) - u * v


def test_apply_images_passes_the_fixed_terms_through():
    # maps that move none, some or all of the generators of a polynomial,
    # to zero, to a constant, to themselves or to a random element of their
    # degree: the terms none of whose factors move come through as they
    # stand, in their place among the substituted ones
    rng = random.Random(17)
    model = util.rt_tables()[1]
    table = model.table
    gens = model.tensor_cdga(3).gens
    for trial in range(80):
        p = Polynomial.sum(util.random_homogeneous(rng, table, gens, degree, max_terms=5)
                           for degree in (0, 3, 6, 9, 12))
        present = list(dict.fromkeys(gen for mono in p.terms for gen, _ in mono))
        moved = rng.sample(present, (0, 1, len(present) // 2, len(present))[trial % 4])
        images = {}
        for gen in moved:
            kind = rng.randrange(4)
            if kind == 0:
                images[gen.id] = Polynomial.zero()
            elif kind == 1:
                images[gen.id] = Polynomial.constant(Fraction(rng.choice([-2, 1, 3]), 2))
            elif kind == 2:
                images[gen.id] = Polynomial.from_generator(gen)
            else:
                images[gen.id] = util.random_homogeneous(rng, table, gens, gen.degree)
        got = apply_images(images, p)
        util.assert_same_terms(got, util.apply_images_by_products(images, p))
        if not moved:
            util.assert_same_terms(got, p)


def test_apply_images_returns_its_argument_when_nothing_moves():
    # zero, a constant, and a polynomial none of whose factors has an image
    # come back as the very same object; one moving term makes a new one
    model = util.rt_tables()[1]
    table = model.table
    x, y = table.poly("x"), table.poly("y")
    u, v, w = table.poly("u"), table.poly("v"), table.poly("w")
    images = {table.generator("w0", "w").id: w + x * u * table.poly("v", copy=1),
              table.generator("w1", "z").id: Polynomial.zero()}
    fixed = [Polynomial.zero(), Polynomial.constant(Fraction(3, 2)),
             x * u * v - Fraction(1, 2) * y * table.poly("u", copy=1) + 2 * x]
    for p in fixed:
        assert apply_images(images, p) is p
        assert apply_images({}, p) is p
    moving = fixed[2] + x * w
    got = apply_images(images, moving)
    assert got is not moving
    util.assert_same_terms(got, util.apply_images_by_products(images, moving))


def test_on_copy_renames_as_the_substitution_did():
    # the maps the engine places on copies (the differential, a change of
    # generators, the comultiplication) and random maps over the base and
    # the fiber copies that can move to the copy the map is placed on:
    # renaming gives the substituted images term for term, in order
    rng = random.Random(29)
    model = util.rt_tables()[1]
    table = model.table
    movable = {1: model.tensor_cdga(2).gens, 2: model.tensor_cdga(1).gens}
    perturbed, comul = perturb(model, Comultiplication.standard(table),
                               PerturbationSpec(seed=1, mode="both"))
    assert perturbed.table is table and not comul.is_standard()
    on_total = [util.seeded_unipotent(model, rng).images,
                {table.generator("w0", "w").id: table.poly("x") ** 3 * table.poly("u")}]
    on_total.append({gen.id: table.poly("x") * table.poly(gen.name) for gen in table.fiber})
    maps = {1: on_total + [comul.as_images()], 2: list(on_total)}
    for copy, gens in movable.items():
        for _ in range(30):
            maps[copy].append({gen.id: util.random_homogeneous(rng, table, gens, gen.degree,
                                                               max_terms=4)
                               for gen in table.fiber})
    for copy, images_list in maps.items():
        for images in images_list:
            got = table.on_copy(images, copy)
            expected = util.on_copy_by_substitution(table, images, copy)
            assert list(got) == list(expected)
            for gid in got:
                util.assert_same_terms(got[gid], expected[gid])


def test_on_copy_refuses_a_factor_that_cannot_move_up():
    # a w1 factor has no copy to move to on copy 2, nor a w2 factor on copy 1
    table = util.rt_tables()[0].table
    w = table.generator("w0", "w").id
    u, v = table.poly("u"), table.poly("v")
    for image, copy in ((u * table.poly("v", copy=1) + table.poly("x") * v, 2),
                        (table.poly("u", copy=2) * v, 1)):
        with pytest.raises(AlgebraError, match=f"cannot be placed on copy {copy}"):
            table.on_copy({w: image}, copy)


def _term(coeff, *factors):
    return {"coeff": coeff, "factors": [list(f) for f in factors]}


def test_polynomial_from_doc_matches_summed_terms():
    model = util.rt_tables()[1]
    table = model.table
    docs = [
        # duplicated terms
        [_term("1", ("w0", "u", 1), ("w0", "v", 1))] * 3,
        # terms that cancel, first to zero and then back
        [_term("2", ("base", "x", 1), ("w0", "w", 1)),
         _term("-2", ("w0", "w", 1), ("base", "x", 1)),
         _term("1/3", ("w1", "u", 1)),
         _term("5", ("base", "x", 1), ("w0", "w", 1))],
        # unsorted factors, odd reorderings with sign, an odd square
        [_term("1", ("w1", "z", 1), ("w0", "u", 1), ("base", "x", 2)),
         _term("1", ("w0", "u", 1), ("w1", "z", 1), ("base", "x", 2)),
         _term("7", ("w0", "v", 1), ("w0", "v", 1)),
         _term("-1/2", ("w0", "v", 1), ("w0", "u", 1), ("base", "y", 1)),
         _term("3", ("base", "x", 1), ("base", "x", 2))],
        [],
    ]
    for doc in docs:
        expected = Polynomial.zero()
        for term in doc:
            factors = [(table.generator(space, name), exp) for space, name, exp in term["factors"]]
            mono, sign = normalize_monomial(factors)
            if sign:
                expected = expected + Polynomial({mono: Fraction(term["coeff"]) * sign})
        util.assert_same_terms(fio.polynomial_from_doc(table, doc, "p"), expected)


def test_two_parses_of_a_document_give_distinct_generators():
    doc = fio.model_to_document(*util.fixture_b())
    (m1, c1), (m2, c2) = fio.parse_model(doc), fio.parse_model(doc)
    assert m1.table is not m2.table
    for g1, g2 in zip(m1.table.all_generators, m2.table.all_generators, strict=True):
        assert g1 is not g2 and g1 != g2
        assert (g1.id, g1.name, g1.degree, g1.space) == (g2.id, g2.name, g2.degree, g2.space)
    # polynomials compare only within the table that owns their generators
    assert m1.d_fiber["yb"] != m2.d_fiber["yb"] and c1.images["yb"] != c2.images["yb"]
    assert fio.model_to_document(m1, c1) == doc == fio.model_to_document(m2, c2)


def test_a_certificate_is_read_against_a_table_with_its_generators():
    model, comul = fio.parse_model(fio.model_to_document(*util.fixture_b()))
    doc = fio.certificate_to_document(util.identity_certificate(model, comul))
    cert = fio.certificate_from_document(doc, model.table)
    assert cert.table is model.table
    assert (cert.target_d, cert.target_c) == (model.d_fiber, comul.images)
    assert fio.certificate_from_document(doc).table is not model.table
    # another degree, another fiber order or another base: a table of its own
    for edit in (
        lambda spaces: spaces["fiber"]["generators"][1].update(degree=4),
        lambda spaces: spaces["fiber"]["generators"].reverse(),
        lambda spaces: spaces["base"]["generators"].append({"name": "z", "degree": 4}),
    ):
        other = copy.deepcopy(doc)
        edit(other["model"])
        assert fio.certificate_from_document(other, model.table).table is not model.table


def test_generators_compare_and_hash_by_identity():
    u = Generator(0, "u", 3, "w0")
    twin = Generator(0, "u", 3, "w0")
    assert u == u and u != twin and len({u, twin}) == 2
    assert hash(u) == object.__hash__(u)
    assert "__eq__" not in vars(Generator) and "__hash__" not in vars(Generator)


def test_suffix_enumeration_fills_the_memo_of_the_recursion():
    # the loop over skipped generators returns what the recursion into
    # every suffix returned, in order, and leaves the same memo keys
    # behind; degrees and bounds asked in a shuffled order
    rng = random.Random(5)
    models = [util.ladder_model(5), util.exact_odd_excess_model(), *util.rt_tables()]
    for model in models:
        for copies in range(3):
            gens = tuple(sorted(model.tensor_cdga(copies).gens, key=lambda g: g.sort_key))
            asks = [(degree, least, most) for degree in range(model.truncation + 1)
                    for least in (0, 1, 2) for most in (1, 3, None)]
            rng.shuffle(asks)
            memo, oracle_memo = {}, {}
            for degree, least, most in asks:
                got = _suffix_monomials(gens, 0, degree, least, most, memo)
                expected = util.suffix_monomials_by_recursion(
                    gens, 0, degree, least, most, oracle_memo)
                assert got == expected, (copies, degree, least, most)
            assert memo.keys() == oracle_memo.keys()


def test_d_monomial_caches_every_suffix_once():
    # with the suffix mono[2:] cached, d of the monomial adds mono and
    # mono[1:]: every nonempty suffix is a key, as the recursion left them
    model = util.ladder_model(5)
    cdga = model.tensor_cdga(2)
    for mono in cdga.table.monomial_basis(9, cdga.gens):
        if len(mono) < 3:
            continue
        fresh = FreeCDGA(cdga.table, cdga.gens, cdga.diff, cdga.truncation)
        fresh._d_monomial(mono[2:])
        assert set(fresh._d_mono_cache) == {mono[k:] for k in range(2, len(mono))}
        assert fresh._d_monomial(mono) == util.leibniz_by_factors(fresh, mono)
        assert set(fresh._d_mono_cache) == {mono[k:] for k in range(len(mono))}


def _long_product_certificate(count):
    """The standard model over `count` base generators x_i of degree 2 with
    fiber (u3, w), |w| = 2 count + 3, and the certificate Phi(w) = w +
    x_0 ... x_{count-1} u with target C0: one monomial of count + 1 factors."""
    table = GeneratorTable(base=[(f"x{i}", 2) for i in range(count)],
                           fiber=[("u", 3), ("w", 2 * count + 3)])
    model = RelativeModel(table, truncation=2 * count + 4)
    comul = Comultiplication.standard(table)
    product = Polynomial.one()
    for i in range(count):
        product = product * table.poly(f"x{i}")
    phi = ChangeOfGenerators(
        {table.generator("w0", "w").id: table.poly("w") + product * table.poly("u")})
    return model, comul, EquivalenceCertificate(table=table, phi=phi,
                                                target_c=dict(comul.images))


@pytest.mark.parametrize("command", ["hopf", "ls", "verify"])
def test_wide_bases_and_long_monomials_run_at_the_default_recursion_limit(tmp_path, command):
    # a fresh interpreter keeps the default limit of 1000 frames: the suffix
    # enumeration over 1,100 base generators (hopf, ls) and d of a monomial
    # of 1,201 factors (verify) once recursed once per generator and per
    # factor and died with RecursionError
    if command == "verify":
        model, comul, cert = _long_product_certificate(1200)
        extra = [str(tmp_path / "cert.json")]
        (tmp_path / "cert.json").write_text(fio.dumps(fio.certificate_to_document(cert)),
                                            encoding="utf-8")
    else:
        table = GeneratorTable(base=[(f"x{i}", 2) for i in range(1100)], fiber=[("u", 3)])
        model, comul = RelativeModel(table, truncation=6), Comultiplication.standard(table)
        extra = ["-o", str(tmp_path / "out.json")]
    path = tmp_path / "model.json"
    path.write_text(fio.dumps(fio.model_to_document(model, comul)), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "fibrewise", command, str(path), *extra],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    if command == "verify":
        assert (proc.stdout.startswith("certificate verified: "), proc.stderr) == (True, "")
    else:  # the run's summary
        assert proc.stderr.splitlines()[1] == "outcome: normalized"
