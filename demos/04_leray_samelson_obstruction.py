"""An associative comultiplication that cannot be standardized.

Base Lambda(b3), fiber (w3, w9), zero differential, and
C(w9) = w9 + w9' + b3 w3 w3'.  The comultiplication is strictly
coassociative, but its mixed excess term carries the coefficient b3, a
cycle of the base that is not a boundary.  So no homotopy removes it, and
a change of generators absorbs only the shape b (S_I - w_I - w'_I) with I
strictly increasing; w3 repeats, so the normalization stops there and
emits the obstruction class b3 w3 w3'.
"""

from fibrewise import (
    Comultiplication,
    GeneratorTable,
    RelativeModel,
    associativity_defect,
    emit_triviality_report,
    ls_normalize,
)

table = GeneratorTable(base=[("b3", 3)], fiber=[("w3", 3), ("w9", 9)])
model = RelativeModel(table)
images = dict(Comultiplication.standard(table).images)
images["w9"] = (
    table.poly("w9") + table.poly("w9", copy=1)
    + table.poly("b3") * table.poly("w3") * table.poly("w3", copy=1)
)
comul = Comultiplication(table, images)

for gen in table.fiber:
    print(f"associativity defect of {gen.display()}:",
          repr(associativity_defect(model, comul, gen)))

result = ls_normalize(model, comul, force=True)
print("\noutcome:", result.outcome)
ob = result.obstruction
print(f"stage {ob.stage}, generator {ob.generator.display()}, "
      f"word length {ob.word_length}")
print("obstruction class:", repr(ob.class_witness))

print("\n" + emit_triviality_report(result, "ls"))
