"""The dyadic Hilbert symbol as a computable object.

With 2 inert, solvability of a x^2 + b y^2 = z^2 in the completion at 2
reduces to a finite check mod 8 with a primitivity condition.  The symbol
descends to unit classes mod 4 taken up to squares, where it becomes a
nondegenerate symmetric bilinear form over GF(2) -- small enough at n = 3
to print in full.
"""

from importlib import resources

from spinsweep import checks, residue
from spinsweep.numfield import load_spec

cfg = (resources.files("spinsweep.data") / "simplest-cubic-7.cfg").read_text()
spec = load_spec(cfg)
ring = residue.build_family(spec)

print("(-1, -1)_2 =", residue.hilbert2(ring, ring.neg_one(), ring.neg_one()), " (always -1 here)")
print("(1, b)_2 = +1 for every unit b: ", all(
    residue.hilbert2(ring, ring.one(), b) == 1
    for b in ring.elements(8) if ring.is_unit(b)
))

print()
print("Full 8 x 8 symbol table on square classes (rows/cols in binary order):")
# a class is an int, bit j its coordinate j; rows go in the order of their printed bits
classes = sorted(range(8), key=lambda u: residue.class_bits(u, 3))
reps = [checks.class_rep(ring, u) for u in range(8)]
for u in classes:
    row = [residue.hilbert2(ring, reps[u], reps[v]) for v in classes]
    print("  ", residue.class_bits(u, 3), " ".join(f"{v:+d}" for v in row))

print()
print("Same table from the circulant bilinear form (must match):", all(
    residue.hilbert2(ring, reps[u], reps[v]) == ring.pairing.pairing(u, v)
    for u in classes for v in classes
))
