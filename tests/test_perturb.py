"""`perturb` builds only what it draws from: bounded candidates, live exact
additions, and the same bytes as the filter-everything construction."""

import hashlib
import importlib
import random

import pytest

from fibrewise import Comultiplication, PerturbationSpec, Polynomial, perturb
from fibrewise import io as fio

import util

# the module, not the function of the same name that the package exports
perturb_module = importlib.import_module("fibrewise.perturb")


def _exact_models():
    return {
        "contractible": util.contractible_base_model(
            fiber=[("u", 3), ("v", 3), ("w", 9)], truncation=20),
        **{f"rt{i}": model for i, model in enumerate(util.rt_tables())},
        "s2": util.exact_odd_excess_model(),
        "ladder5": util.ladder_model(5),
    }


@pytest.mark.parametrize("name", ["contractible", "rt0", "rt1", "rt2", "s2", "ladder5"])
def test_exact_candidates_equal_the_filtered_square_basis(name):
    # the live candidates b m, in order, and their differentials in the
    # square term for term, against the whole square basis filtered and
    # differentiated; then for seeds 0-39 the drawn eta and d(eta) against
    # the same random calls made on the oracle's pairs
    model = _exact_models()[name]
    d = model.tensor_cdga(2).d
    for length in (1, 2, 3, 4):
        expected = {gen.name: util.exact_candidates_by_filter(model, gen.degree - 1, length)
                    for gen in model.table.fiber}
        for gen in model.table.fiber:
            got = perturb_module._exact_candidates(model, gen.degree - 1, length)
            assert got == [mono for mono, _ in expected[gen.name]], (gen.name, length)
            for mono, (_, oracle) in zip(got, expected[gen.name]):
                util.assert_same_terms(d(Polynomial({mono: 1})), oracle)
        for seed in range(40):
            rng, oracle_rng = random.Random(seed), random.Random(seed)
            etas = perturb_module._exact_additions(model, rng, length)
            oracle = {}
            for gen in model.table.fiber:
                pairs = expected[gen.name]
                if not pairs:
                    continue
                drawn = oracle_rng.sample(pairs, oracle_rng.randint(1, min(2, len(pairs))))
                oracle[gen.name] = [(mono, image, oracle_rng.choice(perturb_module._COEFFICIENTS))
                                    for mono, image in drawn]
            assert list(etas) == list(oracle)
            for key, eta in etas.items():
                util.assert_same_terms(
                    eta, Polynomial({mono: coeff for mono, _, coeff in oracle[key]}))
                util.assert_same_terms(
                    d(eta), sum((image.scale(coeff) for _, image, coeff in oracle[key]),
                                 Polynomial.zero()))
            assert rng.getstate() == oracle_rng.getstate()


def test_the_candidates_are_not_vacuous():
    # the comparison above has live candidates to compare: over the
    # contractible base p u v' has d = q u v', and L(5)'s w13 has 96 from
    # word length 2 on
    models = _exact_models()
    assert perturb_module._exact_candidates(models["contractible"], 8, 2)
    ladder = models["ladder5"]
    counts = [len(perturb_module._exact_candidates(ladder, 12, length))
              for length in (1, 2, 3, 4)]
    assert counts == [0, 96, 96, 96]


# sha256 of the model document `perturb` writes for L(n), seed 3, computed
# by the construction that enumerated every monomial and then filtered; the
# L(12) exact-homotopy pin at word length 4 by the bounded enumeration that
# differentiated the base part of every mixed candidate
PERTURBED_LADDER_SHA256 = {
    (12, "change-of-generators", 6):
        "90931fb12316bf4c0ded3ff4924cd8a2c56dbc6c46f2bb09218fd7862218884f",
    (12, "exact-homotopy", 3):
        "ae35b74da5f15ea70ec7772088802e26ce8e1c96838cbcf2d5b5f311fb11a10e",
    (12, "exact-homotopy", 4):
        "9c52c985e5f144f115a4b80fb4c758b7db7931feae656a29ccfe1469a25750b8",
    (12, "both", 3):
        "beaa12886b9b93ba76228e0dd6f51fd0b4c6737f69ca0701840008a8d65afe78",
    (14, "change-of-generators", 6):
        "eb2a686e62183286d1147ce6aa60570b2eb00522ab9f7cf296e374ad321ff055",
    (14, "exact-homotopy", 3):
        "2142d0e3d874ada495201d3b1575b532b84e9aac1dc32f68d9ed354811293e3d",
    (14, "both", 3):
        "faf89a178407e9c69374ab5f80236a054e613e6de2601eb3de19e9e7bbbfbf81",
}


@pytest.mark.parametrize("n, mode, length", sorted(PERTURBED_LADDER_SHA256))
def test_perturbed_ladder_keeps_its_bytes(n, mode, length):
    model = util.ladder_model(n)
    spec = PerturbationSpec(3, max_word_length=length, mode=mode)
    perturbed = perturb(model, Comultiplication.standard(model.table), spec)
    text = fio.dumps(fio.model_to_document(*perturbed))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == PERTURBED_LADDER_SHA256[(n, mode, length)]
