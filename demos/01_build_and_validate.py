"""Build a relative model in code, validate it, and inspect base cohomology.

The model here is the total space of a fibration over a space whose base
algebra is Lambda(x2, y5) with d(y) = x^3 (so H*(B) = Q[x]/(x^4)), with
three odd fiber generators.
"""

from fibrewise import (
    Comultiplication,
    GeneratorTable,
    RelativeModel,
    check_hypotheses,
    cohomology_in_degree,
    validate_comultiplication,
    validate_relative_model,
)

table = GeneratorTable(
    base=[("x", 2), ("y", 5)],
    fiber=[("u", 3), ("v", 3), ("w", 9)],
)
x, y = table.poly("x"), table.poly("y")

model = RelativeModel(table, d_base={"y": x**3}, truncation=14)
comul = Comultiplication.standard(table)

for what, verdict in (
    ("the relative model", validate_relative_model(model)),
    ("the standard comultiplication", validate_comultiplication(model, comul)),
):
    print(f"validating {what}: ok = {verdict.ok}")
    if not verdict.ok:
        print("  first failure:", verdict.failures[0])

print("\nbase cohomology, degree by degree (dim Z / dim E / dim H):")
base = model.base_cdga()
for degree in range(0, 12):
    s = cohomology_in_degree(base, degree)
    classes = ", ".join(repr(c) for c in s.complement) or "-"
    print(f"  H^{degree}: {len(s.cycles)} / {len(s.boundaries)} / "
          f"{len(s.complement)}   {classes}")

report = check_hypotheses(model)
print("\nnormalization hypotheses satisfied:", report.satisfied)
