"""Perturb a standard model, normalize it back, and check the certificate.

The perturbation conjugates the standard pair (D = 0, C0) by a seeded
unipotent change of generators, so the result is equivalent to standard by
construction.  The normalization must recover that, and the emitted
certificate (one change of generators Phi, the target and eta) must pass
the independent verifier from scratch.  The certificate holds no copy of
the model it proves: it is verified against the perturbed pair, and its
serialized copy is read against that pair's generator table.
"""

import json

from fibrewise import (
    Comultiplication,
    GeneratorTable,
    PerturbationSpec,
    RelativeModel,
    ls_normalize,
    perturb,
    verify_equivalence,
)
from fibrewise import io as fio

table = GeneratorTable(
    base=[("x", 2)], fiber=[("u", 3), ("v", 3), ("z", 3), ("w", 9)]
)
model = RelativeModel(table, truncation=14)
comul = Comultiplication.standard(table)

spec = PerturbationSpec(seed=1, mode="change-of-generators")
perturbed, twisted = perturb(model, comul, spec)
print("perturbed C(w):")
print("  ", repr(twisted.images["w"]))

result = ls_normalize(perturbed, twisted)
print("\nnormalization outcome:", result.outcome)
for step in result.certificate.steps:
    print(f"  [{step.stage}] -- {step.note}")

verdict = verify_equivalence(result.certificate, perturbed, twisted)
print("\nindependent verification:", "PASS" if verdict.ok else verdict.failures)

doc = fio.certificate_to_document(result.certificate)
text = fio.dumps(doc)
print(f"\nserialized certificate: {len(text)} bytes; verifying the parsed copy:")
parsed = fio.certificate_from_document(json.loads(text), perturbed.table)
print("  ", "PASS" if verify_equivalence(parsed, perturbed, twisted).ok else "FAIL")
