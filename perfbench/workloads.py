"""Model families of the three benchmark workloads, built from a seed.

Every builder returns standard models (D(W) = 0, C = C0) that `perturb`
then disguises; the pipelines must recover the standard pair exactly.
"""

from __future__ import annotations

import random

from fibrewise import Comultiplication, GeneratorTable, RelativeModel


def ladder_model(n: int = 6) -> RelativeModel:
    """The probe ladder L(n): base Lambda(x2, y5, p2, q3; dy = x^3, dp = q),
    fiber a1..an of degree 3, then v5, then w of degree 2n+3."""
    fiber = [(f"a{i}", 3) for i in range(1, n + 1)] + [("v", 5), ("w", 2 * n + 3)]
    table = GeneratorTable(base=[("x", 2), ("y", 5), ("p", 2), ("q", 3)], fiber=fiber)
    return RelativeModel(
        table,
        d_base={"y": table.poly("x") ** 3, "p": table.poly("q")},
        truncation=2 * n + 8,
    )


def basescan_model() -> RelativeModel:
    """A wide base with even cohomology only: Lambda(x2, y3, p2, q3, r2, s3,
    a4, b7) with dy = x^2, dp = q, dr = s, db = a^2; fiber u3, v5, z7, w9."""
    base = [("x", 2), ("y", 3), ("p", 2), ("q", 3), ("r", 2), ("s", 3),
            ("a", 4), ("b", 7)]
    table = GeneratorTable(base=base, fiber=[("u", 3), ("v", 5), ("z", 7), ("w", 9)])
    poly = table.poly
    return RelativeModel(
        table,
        d_base={"y": poly("x") ** 2, "p": poly("q"), "r": poly("s"),
                "b": poly("a") ** 2},
        truncation=18,
    )


def roundtrip_models() -> list[RelativeModel]:
    """The acceptance round-trip family: three bases, fiber (u3, v3, z3, w9)."""
    fiber = [("u", 3), ("v", 3), ("z", 3), ("w", 9)]
    t1 = GeneratorTable(base=[("x", 2)], fiber=fiber)
    t2 = GeneratorTable(base=[("x", 2), ("y", 5)], fiber=fiber)
    t3 = GeneratorTable(base=[("x", 4), ("y", 6)], fiber=fiber)
    return [
        RelativeModel(t1, truncation=14),
        RelativeModel(t2, d_base={"y": t2.poly("x") ** 3}, truncation=14),
        RelativeModel(t3, truncation=14),
    ]


def fixture_a():
    """Lambda(b3) -> Lambda(b3) (x) Lambda(w3, w5), D(w5) = b3 w3: the Hopf
    counterexample; forced `hopf` exits 3 with class b3."""
    table = GeneratorTable(base=[("b3", 3)], fiber=[("w3", 3), ("w5", 5)])
    model = RelativeModel(table, d_fiber={"w5": table.poly("b3") * table.poly("w3")})
    return model, Comultiplication.standard(table)


def fixture_b():
    """The free loop space of the 2-sphere; forced `hopf` exits 3 with
    class -2x."""
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
    """C(w9) = w9 + w9' + b3 w3 w3': the Leray-Samelson counterexample;
    forced `ls` exits 3 at ls-even with class b3 w3 w3'."""
    table = GeneratorTable(base=[("b3", 3)], fiber=[("w3", 3), ("w9", 9)])
    images = dict(Comultiplication.standard(table).images)
    images["w9"] = (
        table.poly("w9") + table.poly("w9", copy=1)
        + table.poly("b3") * table.poly("w3") * table.poly("w3", copy=1)
    )
    return RelativeModel(table), Comultiplication(table, images)


def derived_seeds(seed: int, count: int) -> list[int]:
    """`count` distinct perturbation seeds drawn from the benchmark seed."""
    rng = random.Random(seed)
    return rng.sample(range(1_000_000), count)
