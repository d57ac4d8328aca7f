"""Exhaustive property suites for the residue layer at small degree.

Each suite returns CheckResult rows; everything is enumerated outright
(all units, all class pairs, all representative changes), which is the
point: at n = 3 the whole space is small enough to close the books.
The CLI `selfcheck` command runs every suite; the test suite asserts on
the same rows.  Within the package only these suites call the mod-8
oracle `hilbert2`, as the independent reference for the trace form that
the residue layer builds its tables from.
"""

from __future__ import annotations

from typing import NamedTuple

from . import residue
from .density import s_pair
from .intpoly import norm_mod
from .f2poly import F2Poly
from .residue import Elem, ResidueRing, StarTable, m4_class_of, rot

# largest degree the suites are run at: at n = 5 the well-definedness loop of
# `hilbert_suite` alone is 32 * 32 * (32 + 496) = 540 672 oracle calls.  On a
# 2-vCPU sandbox its first 6 of 32 classes take 8.8 s (0.087 ms a call), so
# the loop takes about 47 s, while the ring's product memo grows by 2555
# tuples of 528 products, about 52 MB, over those 6 classes: at that rate
# some 13 600 tuples and 270 MB in all.  The memo holds |squares| ints per
# key, so memory keeps the cap
MAX_SUITE_DEGREE = 3

# largest degree `oracle_star_table` is run at: the oracle squares each of the
# 8^n elements of O/8 once per ring, so `verify-kernel` takes about 0.3 s at
# n = 5 on a 2-vCPU sandbox, but 8^7 = 2 097 152 ring products at n = 7, and
# at n = 9 8^9 of some 1.4 us each, over three minutes, with every distinct
# square kept in one set
MAX_ORACLE_DEGREE = 5


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _result(name, ok, detail=""):
    return CheckResult(name, bool(ok), detail if not ok else "")


def class_rep(ring: ResidueRing, u: F2Poly) -> Elem:
    """Distinguished mod-8 representative: the product of the factors 1 + 2 tau^i(y) over the set bits i of u."""
    out = ring.one()
    for i, v in enumerate(ring.y_orbit):
        if u >> i & 1:
            out = ring.mul(out, 1 + 2 * v)
    return out


def oracle_star_table(ring: ResidueRing) -> StarTable:
    """Star table by brute force: the oracle on every class against its conjugates.

    The norm sign is the field norm of the class representative mod 4, a
    determinant that mod 4 needs only f mod 4, so `ring.f` (f mod 8)
    serves, and neither column reads the trace form.
    """
    n = ring.n
    star, norm_sign = [], []
    for u in range(1 << n):
        rep = class_rep(ring, u)
        val = 1
        for k in range(1, n):
            if residue.hilbert2(ring, rep, ring.apply_tau(rep, k)) == -1:
                val = -1
                break
        star.append(val)
        nrm = norm_mod(ring.coeffs(rep), ring.f) % 4
        assert nrm in (1, 3), "norm of a unit lift must be odd"
        norm_sign.append(1 if nrm == 1 else -1)
    return StarTable(tuple(star), tuple(norm_sign))


def m4_suite(ring: ResidueRing) -> list[CheckResult]:
    """Structure of the square-class group mod 4: size, kernel, fixed classes."""
    n, mask4 = ring.n, ring.mask4
    units = [u for u in ring.elements(4) if ring.is_unit(u)]
    classes = {}
    for u in units:
        classes.setdefault(m4_class_of(ring, u), []).append(u)
    out = [
        _result("m4/unit-count", len(units) == (1 << (2 * n)) - (1 << n),
                f"{len(units)} units mod 4"),
        _result("m4/surjective", len(classes) == 1 << n, f"{len(classes)} classes"),
    ]
    squares = {ring.mul(u, u) & mask4 for u in units}
    kernel = set(classes.get(0, []))
    out.append(_result("m4/kernel-is-squares", kernel == squares,
                       f"kernel {len(kernel)} vs squares {len(squares)}"))
    fixed = {c for c in classes if rot(c, 1, n) == c}
    out.append(_result("m4/galois-fixed", fixed == {0, (1 << n) - 1}, f"fixed classes {sorted(fixed)}"))
    # the class map intertwines the Galois action with coordinate rotation
    equivariant = all(
        m4_class_of(ring, ring.apply_tau(u, 1) & mask4) == rot(m4_class_of(ring, u), 1, n)
        for u in units
    )
    out.append(_result("m4/equivariant", equivariant))
    return out


def hilbert_suite(ring: ResidueRing) -> list[CheckResult]:
    """Exhaustive symbol properties over all class pairs at small n, against the ring's pairing."""
    n = ring.n
    classes = range(1 << n)
    reps = [class_rep(ring, u) for u in classes]
    table = {
        (u, v): residue.hilbert2(ring, reps[u], reps[v]) for u in classes for v in classes
    }

    unit_squares = [s for s in ring.squares if ring.is_unit(s)]
    shifts = [1 + 4 * t for t in ring.elements(2)]  # 1 + 4B, B over O/2

    ok_well = True
    for u in classes:
        variants = [ring.mul(reps[u], s) for s in shifts]  # representative + 4B
        variants += [ring.mul(reps[u], s) for s in unit_squares]  # times unit squares
        for v in classes:
            if any(residue.hilbert2(ring, w, reps[v]) != table[u, v] for w in variants):
                ok_well = False
    out = [_result("hilbert/well-defined", ok_well)]

    products = [[ring.mul(reps[u], reps[v]) for v in classes] for u in classes]
    ok_bilin = all(
        residue.hilbert2(ring, products[u][v], reps[w])
        == table[u, w] * table[v, w]
        for u in classes for v in classes for w in classes
    )
    out.append(_result("hilbert/bilinear", ok_bilin))

    out.append(_result("hilbert/symmetric",
                       all(table[u, v] == table[v, u] for u in classes for v in classes)))

    out.append(_result("hilbert/non-degenerate",
                       all(any(table[u, v] == -1 for v in classes)
                           for u in classes if u)))

    conjugates = [ring.apply_tau(rep, 1) for rep in reps]
    ok_equi = all(
        residue.hilbert2(ring, conjugates[u], conjugates[v]) == table[u, v]
        for u in classes for v in classes
    )
    out.append(_result("hilbert/galois-equivariant", ok_equi))

    neg = ring.neg_one()
    out.append(_result("hilbert/self-pairing-is-minus-one",
                       all(table[u, u] == residue.hilbert2(ring, reps[u], neg) for u in classes)))

    out.append(_result("hilbert/bilinear-form-identity",
                       all(table[u, v] == ring.pairing.pairing(u, v)
                           for u in classes for v in classes)))
    return out


def kernel_routes(star: StarTable | None, pairing: residue.CirculantA):
    """The (ker_plus, ker_minus) counts three ways: closed form, star table, autocorrelation.

    The star-table count is None when `star` is (the oracle was not run).
    """
    brute = None if star is None else (star.ker_plus, star.ker_minus)
    return s_pair(len(pairing.c)), brute, residue.kernel_counts_via_B(pairing)


def kernel_suite(ring: ResidueRing, star: StarTable) -> list[CheckResult]:
    """Three independent kernel counts plus the anchor values.

    `star` is route 2, the oracle's table (`oracle_star_table`); the
    ring's `pairing` is the trace form, whose autocorrelation count is
    route 3.
    """
    n = ring.n
    pairing = ring.pairing
    ones = (1 << n) - 1  # the class of -1
    closed, brute, convol = kernel_routes(star, pairing)
    out = [
        _result("kernel/three-way-agreement", closed == brute == convol,
                f"closed {closed}, star-table {brute}, autocorrelation {convol}"),
        _result("kernel/star-of-one", star.star[0] == 1),
        _result("kernel/star-of-minus-one", star.star[ones] == -1),
        _result("kernel/minus-one-pairing",
                residue.hilbert2(ring, ring.neg_one(), ring.neg_one()) == -1),
    ]
    # c_0 reflects the norm sign of the basis element's class
    alpha = class_rep(ring, 1)  # 1 + 2y
    alpha_class = m4_class_of(ring, alpha & ring.mask4)
    out.append(_result("kernel/c0-vs-norm-sign",
                       (pairing.c[0] == 0) == (star.norm_sign[alpha_class] == 1)))
    # pairing of the all-ones class with itself vs star(-1): (-1,-1) = -1
    out.append(_result("kernel/all-ones-parity", pairing.pairing(ones, ones) == -1))
    # h is palindromic and the identity matrix case is sanity-covered by h = 1
    hbits = [(pairing.h >> i) & 1 for i in range(n)]
    out.append(_result("kernel/h-palindromic",
                       all(hbits[i] == hbits[(n - i) % n] for i in range(n))))
    return out


def run_all(spec) -> list[CheckResult]:
    ring = residue.build_family(spec)
    star = oracle_star_table(ring)
    rows = []
    rows += m4_suite(ring)
    rows += hilbert_suite(ring)
    rows += kernel_suite(ring, star)
    return rows
