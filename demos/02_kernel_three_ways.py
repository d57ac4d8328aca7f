"""Three independent computations of the Hilbert-kernel counts.

The star map sends a unit class mod 4 to +1 when its dyadic Hilbert
pairing against every nontrivial Galois conjugate is trivial.  Its kernel
sizes, split by norm sign, are computed here by three routes that share
no code path:

  1. the closed-form product over the cyclotomic cosets of 2 mod n (density module),
  2. brute force: evaluate the mod-8 solvability oracle on all 2^n classes,
     with norm signs from exact field norms (`checks.oracle_star_table`),
  3. linear algebra: the pairing as a circulant GF(2) form, counting bit
     vectors with prescribed cyclic autocorrelation.

Only route 2 uses the oracle.  The form of route 3 is the trace Gram
matrix of the normal basis, c_k = Tr(y tau^k(y)) mod 2, read off the
minimal polynomial; the sweep's own star table (`residue.star_table`)
comes from the same form, with norm_sign(u) = (-1)^(c_0 |u|).
"""

from importlib import resources

from spinsweep import checks, f2poly, residue
from spinsweep.density import s_pair
from spinsweep.numfield import load_spec

for name in ("simplest-cubic-7", "cyclic-cubic-9"):
    cfg = (resources.files("spinsweep.data") / f"{name}.cfg").read_text()
    spec = load_spec(cfg)
    ring = residue.build_family(spec)
    star = checks.oracle_star_table(ring)
    pairing = ring.pairing

    print(f"== {spec.name}: f has constant-first coefficients {spec.f}")
    print(f"   normal basis generator of O/2: y = {ring.coeffs(ring.y)}")
    print(f"   orbit under the Galois generator: {tuple(map(ring.coeffs, ring.y_orbit))}")
    print(f"   pairing circulant c = {pairing.c}, h(x) = {f2poly.poly_str(pairing.h)}")
    print(f"   closed form        : {s_pair(spec.n)}")
    print(f"   star-table count   : {(star.ker_plus, star.ker_minus)}")
    print(f"   autocorrelation    : {residue.kernel_counts_via_B(pairing)}")
    print(f"   star(1) = {star.star[0]}, star(-1) = {star.star[(1 << spec.n) - 1]}")
    print()
