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

from dataclasses import dataclass
from itertools import product

from . import residue
from .density import s_pair
from .intpoly import norm_mod
from .residue import RingFamily, StarTable, class_rep, hilbert2, m4_class_of, rot


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _result(name, ok, detail=""):
    return CheckResult(name, bool(ok), detail if not ok else "")


def oracle_star_table(family: RingFamily) -> StarTable:
    """Star table by brute force: the oracle on every class against its conjugates.

    The norm sign is the exact field norm of the class representative mod 4,
    so neither column reads the trace form.
    """
    r3 = family.level(3)
    n = family.n
    star: dict = {}
    norm_sign: dict = {}
    for bits in product((0, 1), repeat=n):
        rep = class_rep(family, bits)
        val = 1
        for k in range(1, n):
            if hilbert2(r3, rep, r3.apply_tau(rep, k)) == -1:
                val = -1
                break
        star[bits] = val
        nrm = norm_mod([c % 4 for c in rep], family.spec.f) % 4
        assert nrm in (1, 3), "norm of a unit lift must be odd"
        norm_sign[bits] = 1 if nrm == 1 else -1
    return StarTable(star, norm_sign)


def m4_suite(family: RingFamily) -> list[CheckResult]:
    """Structure of the square-class group mod 4: size, kernel, fixed classes."""
    r2 = family.level(2)
    n = family.n
    units = [u for u in product(range(4), repeat=n) if r2.is_unit(u)]
    classes = {}
    for u in units:
        classes.setdefault(m4_class_of(family, u), []).append(u)
    out = [
        _result("m4/unit-count", len(units) == (1 << (2 * n)) - (1 << n),
                f"{len(units)} units mod 4"),
        _result("m4/surjective", len(classes) == 1 << n, f"{len(classes)} classes"),
    ]
    squares = {r2.mul(u, u) for u in units}
    kernel = set(classes.get(tuple([0] * n), []))
    out.append(_result("m4/kernel-is-squares", kernel == squares,
                       f"kernel {len(kernel)} vs squares {len(squares)}"))
    fixed = {c for c in classes if rot(c, 1) == c}
    expected = {tuple([0] * n), tuple([1] * n)}
    out.append(_result("m4/galois-fixed", fixed == expected, f"fixed classes {sorted(fixed)}"))
    # the class map intertwines the Galois action with coordinate rotation
    equivariant = all(
        m4_class_of(family, r2.apply_tau(u, 1)) == rot(m4_class_of(family, u), 1)
        for u in units
    )
    out.append(_result("m4/equivariant", equivariant))
    return out


def hilbert_suite(family: RingFamily, pairing: residue.CirculantA) -> list[CheckResult]:
    """Exhaustive symbol properties over all class pairs at small n."""
    r3 = family.level(3)
    n = family.n
    all_bits = list(product((0, 1), repeat=n))
    reps = {c: class_rep(family, c) for c in all_bits}
    table = {
        (u, v): hilbert2(r3, reps[u], reps[v]) for u in all_bits for v in all_bits
    }

    bk = r3._bulk()
    unit_squares = [r3.elem_of(int(i)) for i in bk.sq_unit]
    shifts = [tuple((1 if j == 0 else 0) + 4 * t[j] for j in range(n))
              for t in product((0, 1), repeat=n)]

    ok_well = True
    for u in all_bits:
        variants = [r3.mul(reps[u], s) for s in shifts]  # representative + 4B
        variants += [r3.mul(reps[u], s) for s in unit_squares]  # times unit squares
        for v in all_bits:
            if any(hilbert2(r3, w, reps[v]) != table[u, v] for w in variants):
                ok_well = False
    out = [_result("hilbert/well-defined", ok_well)]

    ok_bilin = all(
        hilbert2(r3, r3.mul(reps[u], reps[v]), reps[w])
        == table[u, w] * table[v, w]
        for u in all_bits for v in all_bits for w in all_bits
    )
    out.append(_result("hilbert/bilinear", ok_bilin))

    out.append(_result("hilbert/symmetric",
                       all(table[u, v] == table[v, u] for u in all_bits for v in all_bits)))

    zero = tuple([0] * n)
    out.append(_result("hilbert/non-degenerate",
                       all(any(table[u, v] == -1 for v in all_bits)
                           for u in all_bits if u != zero)))

    ok_equi = all(
        hilbert2(r3, r3.apply_tau(reps[u], 1), r3.apply_tau(reps[v], 1)) == table[u, v]
        for u in all_bits for v in all_bits
    )
    out.append(_result("hilbert/galois-equivariant", ok_equi))

    neg = r3.neg_one()
    out.append(_result("hilbert/self-pairing-is-minus-one",
                       all(table[u, u] == hilbert2(r3, reps[u], neg) for u in all_bits)))

    out.append(_result("hilbert/bilinear-form-identity",
                       all(table[u, v] == pairing.pairing(u, v)
                           for u in all_bits for v in all_bits)))
    return out


def kernel_routes(n: int, star: StarTable, pairing: residue.CirculantA):
    """The (ker_plus, ker_minus) counts three ways: closed form, star table, autocorrelation."""
    return s_pair(n), (star.ker_plus, star.ker_minus), residue.kernel_counts_via_B(pairing)


def kernel_suite(family: RingFamily, star: StarTable,
                 pairing: residue.CirculantA) -> list[CheckResult]:
    """Three independent kernel counts plus the anchor values.

    `star` is route 2, the oracle's table (`oracle_star_table`); `pairing`
    is the trace form, whose autocorrelation count is route 3.
    """
    n = family.n
    r3 = family.level(3)
    closed, brute, convol = kernel_routes(n, star, pairing)
    out = [
        _result("kernel/three-way-agreement", closed == brute == convol,
                f"closed {closed}, star-table {brute}, autocorrelation {convol}"),
        _result("kernel/star-of-one", star.star[tuple([0] * n)] == 1),
        _result("kernel/star-of-minus-one", star.star[tuple([1] * n)] == -1),
        _result("kernel/minus-one-pairing",
                hilbert2(r3, r3.neg_one(), r3.neg_one()) == -1),
    ]
    # c_0 reflects the norm sign of the basis element's class
    alpha_class = m4_class_of(family, tuple(c % 4 for c in family.basis_lifts[0]))
    out.append(_result("kernel/c0-vs-norm-sign",
                       (pairing.c[0] == 0) == (star.norm_sign[alpha_class] == 1)))
    # pairing of the all-ones class with itself vs star(-1): (-1,-1) = -1
    ones = tuple([1] * n)
    out.append(_result("kernel/all-ones-parity", pairing.pairing(ones, ones) == -1))
    # h is palindromic and the identity matrix case is sanity-covered by h = 1
    h = residue.h_poly(pairing)
    hbits = [(h >> i) & 1 for i in range(n)]
    out.append(_result("kernel/h-palindromic",
                       all(hbits[i] == hbits[(n - i) % n] for i in range(n))))
    return out


def run_all(spec) -> list[CheckResult]:
    family = residue.build_family(spec)
    star = oracle_star_table(family)
    pairing = residue.build_matrix_A(family)
    rows = []
    rows += m4_suite(family)
    rows += hilbert_suite(family, pairing)
    rows += kernel_suite(family, star, pairing)
    return rows
