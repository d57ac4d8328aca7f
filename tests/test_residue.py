import copy
import random
from itertools import product
from types import SimpleNamespace
from unittest import mock

import pytest

from spinsweep import checks, f2poly, residue
from spinsweep.checks import class_rep
from spinsweep.density import s_pair
from spinsweep.intpoly import compose_mod
from spinsweep.numfield import load_spec
from spinsweep.residue import (
    CirculantA,
    ResidueRing,
    b_map,
    build_matrix_A,
    find_normal_basis,
    hilbert2,
    kernel_counts_via_B,
    m4_class_of,
    rot,
    star_table,
)
from spinsweep.sweep import build_tables
from conftest import mul_mod, pow_mod, real_cyclotomic
from test_f2poly import gcd
from test_intpoly import _pow_right_to_left
from test_numfield import REAL_CYCLOTOMIC19

ZERO = 0b000
ONES = 0b111

# Q(zeta_11)^+, given only what the residue layer reads: theta = zeta + zeta^-1
ZETA11_PLUS = SimpleNamespace(n=5, f=(1, 3, -3, -4, 1, 1), sigma=(-2, 0, 1))


@pytest.fixture(scope="module")
def family11():
    return residue.build_family(ZETA11_PLUS)


# -- ring construction -------------------------------------------------------


def test_ring_reductions_mod_2(spec7, spec9):
    r7 = ResidueRing(spec7.f, spec7.sigma)
    assert tuple(c % 2 for c in r7.f) == (1, 0, 1, 1)  # x^3 + x^2 + 1
    r9 = ResidueRing(spec9.f, spec9.sigma)
    assert tuple(c % 2 for c in r9.f) == (1, 1, 0, 1)  # x^3 + x + 1


def test_build_family_builds_one_ring(monkeypatch, spec7, spec9):
    # O/4 and O/2 are masks of the one O/8 a family is: no other ring is built
    built, init = [], ResidueRing.__init__
    monkeypatch.setattr(ResidueRing, "__init__", lambda ring, f, sigma: built.append(ring) or init(ring, f, sigma))
    for spec in (spec7, spec9, ZETA11_PLUS):
        built.clear()
        ring = residue.build_family(spec)
        assert built == [ring] and ring.mod == 8
        assert (ring.mask4, ring.low) == (ring.pack((3,) * ring.n), ring.pack((1,) * ring.n))


def test_sigma_has_order_three_on_all_elements(spec7):
    r3 = ResidueRing(spec7.f, spec7.sigma)
    for a in r3.elements(8):
        assert r3.apply_tau(r3.apply_tau(r3.apply_tau(a))) == a


def test_tau_is_multiplicative(spec7):
    r3 = ResidueRing(spec7.f, spec7.sigma)
    elems = [r3.pack(a) for a in ((1, 2, 3), (5, 0, 7), (2, 2, 1), (1, 1, 1))]
    for a in elems:
        for b in elems:
            assert r3.apply_tau(r3.mul(a, b)) == r3.mul(r3.apply_tau(a), r3.apply_tau(b))


@pytest.mark.parametrize("field", ["spec7", "spec9"])
def test_ring_pow_is_repeated_mul_on_O_mod_8(request, field):
    # ResidueRing.pow (square-and-multiply) against repeated products, for
    # every element of O/8 including the non-units
    spec = request.getfixturevalue(field)
    r3 = ResidueRing(spec.f, spec.sigma)
    for a in r3.elements(8):
        acc = r3.one()
        for e in range(10):
            assert r3.pow(a, e) == acc
            acc = r3.mul(acc, a)


# -- packed arithmetic --------------------------------------------------------


def _mul_ref(ring, a, b, m=8):
    """a b in O/m by intpoly's product of coefficient tuples (reference only)."""
    return ring.pack(mul_mod(ring.coeffs(a), ring.coeffs(b), ring.f, m))


def _pow_ref(ring, a, e, m=8):
    """a^e in O/m by square-and-multiply on intpoly's product of coefficient tuples (reference only)."""
    return ring.pack(_pow_right_to_left(ring.coeffs(a), e, ring.f, m))


def _tau_ref(ring, sigma, a, k=1, m=8):
    """tau^k(a) in O/m by k compositions a -> a(s(theta)) of coefficient tuples (reference only)."""
    coeffs = ring.coeffs(a)
    for _ in range(k):
        coeffs = [c % m for c in compose_mod(coeffs, sigma, ring.f)]
    return ring.pack(coeffs)


CYCLOTOMIC = {p: real_cyclotomic(p) for p in (11, 19, 23)}  # n = 5, 9, 11, 2 inert in each


def test_real_cyclotomic_fields_are_the_shipped_configs():
    assert CYCLOTOMIC[11].f == ZETA11_PLUS.f
    assert CYCLOTOMIC[19].f == tuple(load_spec(REAL_CYCLOTOMIC19).f)
    assert CYCLOTOMIC[23].f[-1] == 1 and len(CYCLOTOMIC[23].f) == 12


def test_pack_and_coeffs_are_inverse(spec7):
    ring = ResidueRing(spec7.f, spec7.sigma)
    for m in (2, 4, 8):
        elems = list(ring.elements(m))
        assert elems == [ring.pack(a) for a in product(range(m), repeat=3)]
        assert [ring.coeffs(a) for a in elems] == list(product(range(m), repeat=3))
    assert ring.pack((9, -1, 16)) == ring.pack((1, 7, 0))


@pytest.mark.parametrize("field", ["spec7", "spec9"])
def test_packed_arithmetic_on_every_pair_of_O_mod_4(request, field):
    # the O/8 product, powers and conjugates of every pair of elements of O/4
    # and of O/2, each masked, against intpoly's tuples reduced mod 4 and mod 2
    spec = request.getfixturevalue(field)
    ring = ResidueRing(spec.f, spec.sigma)
    for m, mask in ((4, ring.mask4), (2, ring.low)):
        elems = list(ring.elements(m))
        assert len(elems) == m**3 and all(a & mask == a for a in elems)
        for a in elems:
            for b in elems:
                assert ring.mul(a, b) & mask == _mul_ref(ring, a, b, m)
            for e in (0, 1, 2, 3, 7, 64):
                want = ring.pack(pow_mod(ring.coeffs(a), e, ring.f, m))
                assert ring.pow(a, e) & mask == want == _pow_ref(ring, a, e, m)
            assert ring.apply_tau(a) & mask == _tau_ref(ring, spec.sigma, a, m=m)
            assert ring.is_unit(a) == any(c % 2 for c in ring.coeffs(a))


@pytest.mark.parametrize("field", ["spec7", "spec9"])
def test_packed_arithmetic_at_the_lane_bound_on_O_mod_8(request, field):
    # 7 in every lane: each lane-wise product is 49, and the middle lane of the
    # int product sums n = 3 of them, 147 < 2^8
    spec = request.getfixturevalue(field)
    r3 = ResidueRing(spec.f, spec.sigma)
    sevens = r3.pack((7, 7, 7))
    assert sevens == r3.mask and r3.lane == 8
    elems = list(r3.elements(8))
    for a in elems:
        assert r3.mul(a, sevens) == _mul_ref(r3, a, sevens)
        assert r3.apply_tau(a) == _tau_ref(r3, spec.sigma, a)
    rng = random.Random(8)
    for _ in range(2000):
        a, b = rng.choice(elems), rng.choice(elems)
        assert r3.mul(a, b) == _mul_ref(r3, a, b)
        e = rng.randrange(130)
        assert r3.pow(a, e) == _pow_ref(r3, a, e)


@pytest.mark.parametrize("p", sorted(CYCLOTOMIC))
def test_packed_arithmetic_at_higher_degree(p):
    # seeded elements at n = 5, 9, 11 in O/2, O/4 (masks) and O/8, led by the all-(m - 1) element
    spec = CYCLOTOMIC[p]
    n = spec.n
    rng = random.Random(p)
    ring = ResidueRing(spec.f, spec.sigma)
    assert ring.lane == (n * 49).bit_length()
    for m, mask in ((2, ring.low), (4, ring.mask4), (8, ring.mask)):
        top = ring.pack((m - 1,) * n)
        assert top == mask
        elems = [top] + [ring.pack([rng.randrange(m) for _ in range(n)]) for _ in range(80)]
        for a in elems:
            b = rng.choice(elems)
            assert ring.mul(a, top) & mask == _mul_ref(ring, a, top, m)
            assert ring.mul(a, b) & mask == _mul_ref(ring, a, b, m)
        for a in elems[:10]:
            e = rng.randrange(1 << n)
            assert ring.pow(a, e) & mask == _pow_ref(ring, a, e, m)
            assert ring.apply_tau(a) & mask == _tau_ref(ring, spec.sigma, a, m=m)
        a = elems[1]
        for k in range(n):
            assert ring.apply_tau(a, k) & mask == _tau_ref(ring, spec.sigma, a, k, m)


@pytest.mark.parametrize("p", sorted(CYCLOTOMIC))
def test_tau_has_order_n_at_every_level(p):
    # tau^n = id one step at a time in O/2, O/4 and O/8, and with 2 inert the
    # orbit of theta has n elements even mod 2
    spec = CYCLOTOMIC[p]
    ring = ResidueRing(spec.f, spec.sigma)
    theta = ring.pack((0, 1))
    for mask in (ring.low, ring.mask4, ring.mask):
        orbit = [theta]
        for _ in range(spec.n):
            orbit.append(ring.apply_tau(orbit[-1]) & mask)
        assert orbit[-1] == theta and len(set(orbit)) == spec.n
        for a in (mask, ring.pack(range(spec.n)) & mask):
            image = a
            for _ in range(spec.n):
                image = ring.apply_tau(image) & mask
            assert image == a


# -- normal basis -------------------------------------------------------------


def _gf2_rank(ring, elems):
    """Rank over GF(2) of elements of O/2, by elimination on bitmasks of their coefficients (reference only)."""
    basis = []  # distinct leading bits, largest first
    for a in elems:
        v = f2poly.from_coeffs(ring.coeffs(a))
        for b in basis:
            v = min(v, v ^ b)  # clears b's leading bit, touches no higher one
        if v:
            basis = sorted(basis + [v], reverse=True)
    return len(basis)


def _orbit(ring, y):
    return [ring.apply_tau(y, k) & ring.low for k in range(ring.n)]


def _gram(ring, y):
    """c_k = Tr(y tau^k(y)) mod 2 as a GF(2) polynomial."""
    return residue._traces(ring, y, _orbit(ring, y))


def test_normal_basis_conjugates_independent(family7, family9, family11):
    for fam in (family7, family9, family11):
        assert _gf2_rank(fam, fam.y_orbit) == fam.n
        assert all(v & fam.low == v for v in fam.y_orbit)  # the orbit lies in O/2


@pytest.mark.parametrize(
    "fam_name, y",
    [("family7", (0, 0, 1)), ("family9", (1, 0, 1)), ("family11", (0, 0, 0, 0, 1))],
)
def test_unit_gram_is_full_rank_orbit(request, fam_name, y):
    # the gcd test find_normal_basis uses, against the rank of the orbit itself
    ring = request.getfixturevalue(fam_name)
    n = ring.n
    full_rank = []
    for cand in ring.elements(2):
        if cand:
            full = _gf2_rank(ring, _orbit(ring, cand)) == n
            assert (gcd(_gram(ring, cand), (1 << n) | 1) == 1) == full, cand
            if full:
                full_rank.append(cand)
    found, orbit, c = find_normal_basis(ring)
    assert found == full_rank[0] == ring.pack(y) == ring.y
    assert list(orbit) == _orbit(ring, found) and f2poly.from_coeffs(c) == _gram(ring, found)


def test_normal_basis_not_one(family7, family9):
    for fam in (family7, family9):
        assert fam.coeffs(fam.y) != (1, 0, 0)


def test_normal_basis_orbit_sums_to_one(family7, family9):
    for fam in (family7, family9):
        total = tuple(sum(col) % 2 for col in zip(*map(fam.coeffs, fam.y_orbit)))
        assert total == (1, 0, 0)


def test_normal_basis_is_lex_smallest(spec7, spec9):
    for spec in (spec7, spec9):
        ring = ResidueRing(spec.f, spec.sigma)
        y = ring.coeffs(find_normal_basis(ring)[0])
        for cand in product((0, 1), repeat=3):
            if cand >= y:
                break
            if any(cand):
                assert _gf2_rank(ring, _orbit(ring, ring.pack(cand))) < 3, f"{cand} is a smaller normal-basis generator"


# -- m4 classes ---------------------------------------------------------------


def test_m4_identity_and_minus_one(family7):
    assert m4_class_of(family7, family7.one()) == ZERO
    assert m4_class_of(family7, family7.neg_one() & family7.mask4) == ONES


def test_m4_kills_squares_exhaustively(family7):
    ring = family7
    for u in ring.elements(4):
        if ring.is_unit(u):
            assert m4_class_of(ring, ring.mul(u, u) & ring.mask4) == ZERO


def test_m4_structure_exhaustive(family7):
    ring = family7
    units = [u for u in ring.elements(4) if ring.is_unit(u)]
    assert len(units) == 56
    classes = {}
    for u in units:
        classes.setdefault(m4_class_of(ring, u), []).append(u)
    assert len(classes) == 8  # surjective onto (Z/2)^3
    squares = {ring.mul(u, u) & ring.mask4 for u in units}
    assert len(squares) == 7
    assert set(classes[ZERO]) == squares  # kernel is exactly the squares
    fixed = {c for c in classes if rot(c, 1, 3) == c}
    assert fixed == {ZERO, ONES}


def test_m4_is_homomorphism(family7):
    ring = family7
    units = [u for u in ring.elements(4) if ring.is_unit(u)][:20]
    for a in units:
        for b in units:
            ca = m4_class_of(ring, a)
            cb = m4_class_of(ring, b)
            cab = m4_class_of(ring, ring.mul(a, b) & ring.mask4)
            assert cab == ca ^ cb


def test_m4_rejects_non_units(family7):
    for non_unit in (0, family7.pack((2, 0, 2))):
        with pytest.raises(ValueError, match="expects a unit"):
            m4_class_of(family7, non_unit)
    # a unit of O/8 that is not reduced mod 4, and a negative int, are not elements of O/4
    for stray in (family7.pack((5, 0, 0)), -1):
        with pytest.raises(ValueError, match="packed element mod 4"):
            m4_class_of(family7, stray)


def test_m4_dictionary_roundtrip(family7, family9, family11):
    # representatives built as products of basis factors land back on their bits,
    # and stay there under multiplication by every square
    for ring in (family7, family9, family11):
        mask4 = ring.mask4
        squares = {ring.mul(u, u) & mask4 for u in ring.elements(4) if ring.is_unit(u)}
        for bits in range(1 << ring.n):
            rep = class_rep(ring, bits) & mask4
            assert m4_class_of(ring, rep) == bits
            for s in squares:
                assert m4_class_of(ring, ring.mul(rep, s) & mask4) == bits


def _families11_off_self_dual(family11):
    """Q(zeta_11)^+ presented on every normal basis of O/2 that is not self-dual (c != 1)."""
    fams = []
    for cand in family11.elements(2):
        c = _gram(family11, cand)
        if c != 1 and gcd(c, 0b100001) == 1:
            basis = (cand, tuple(_orbit(family11, cand)), tuple(c >> k & 1 for k in range(5)))
            with mock.patch.object(residue, "find_normal_basis", lambda ring: basis):
                fams.append(residue.build_family(ZETA11_PLUS))
    return fams


def _classes_of_reps(fam):
    reps = [class_rep(fam, bits) for bits in range(1 << fam.n)]
    return [m4_class_of(fam, rep & fam.mask4) for rep in reps]


def test_m4_classes_off_self_dual_basis(family11):
    # every shipped y is self-dual (h = 1), where b = h * t and b = t agree;
    # these presentations tell the two apart
    fams = _families11_off_self_dual(family11)
    assert len(fams) == 10
    assert {fam.pairing.c for fam in fams} == {(1, 1, 0, 0, 1), (1, 0, 1, 1, 0)}
    every_class = list(range(1 << 5))
    for fam in fams:
        c, h = f2poly.from_coeffs(fam.pairing.c), fam.pairing.h
        assert f2poly.cyclic_mul(c, h, 5) == 1 != h
        assert _classes_of_reps(fam) == every_class
        self_dual = copy.copy(fam)
        self_dual.pairing = SimpleNamespace(h=1)
        assert _classes_of_reps(self_dual) != every_class


# -- hilbert symbol -----------------------------------------------------------


def test_minus_one_minus_one(family7, family9):
    for ring in (family7, family9):
        assert hilbert2(ring, ring.neg_one(), ring.neg_one()) == -1


def test_one_pairs_trivially(family7):
    ring = family7
    for b in ring.elements(8):
        if ring.is_unit(b):
            assert hilbert2(ring, ring.one(), b) == 1


def test_a_with_minus_a(family7):
    ring = family7
    units = [a for a in ring.elements(8) if ring.is_unit(a)]
    for a in units[::7]:  # sampled; x = y = 1, z = 0 solves a x^2 - a y^2 = z^2
        neg = ring.pack([-c for c in ring.coeffs(a)])
        assert hilbert2(ring, a, neg) == 1


def test_invariance_under_4b_shift(family7):
    ring = family7
    a = (3, 2, 5)
    b = ring.pack((1, 6, 1))
    base = hilbert2(ring, ring.pack(a), b)
    for t in product((0, 1), repeat=3):
        shifted = ring.pack([x + 4 * y for x, y in zip(a, t)])
        assert hilbert2(ring, shifted, b) == base


def test_oracle_on_sampled_unit_pairs(family7, pairing7, family9, pairing9):
    # arbitrary units, not class representatives: the symbol is the form on their classes
    rng = random.Random(13)
    for ring, pairing in ((family7, pairing7), (family9, pairing9)):
        units = [a for a in ring.elements(8) if ring.is_unit(a)]
        cls = {a: m4_class_of(ring, a & ring.mask4) for a in units}
        for _ in range(2000):
            a, b = rng.choice(units), rng.choice(units)
            assert hilbert2(ring, a, b) == pairing.pairing(cls[a], cls[b])


def test_oracle_memo_is_per_ring(spec7, spec9, family7, family9):
    # the same packed ints are different elements of O/8 on c7 and on c9; a memo
    # of products keyed on the int alone would hand one ring the other's
    elems = [class_rep(family7, bits) for bits in range(1 << 3)]

    def form_table(fam):  # the symbol read off the pairing, no oracle involved
        cls = [m4_class_of(fam, a & fam.mask4) for a in elems]
        return [[fam.pairing.pairing(u, v) for v in cls] for u in cls]

    def table(ring):
        return [[hilbert2(ring, a, b) for b in elems] for a in elems]

    want7, want9 = form_table(family7), form_table(family9)
    assert want7 != want9
    r7, r9 = ResidueRing(spec7.f, spec7.sigma), ResidueRing(spec9.f, spec9.sigma)
    got7, got9 = [], []
    for a in elems:
        got7.append([])
        got9.append([])
        for b in elems:
            got9[-1].append(hilbert2(r9, a, b))
            got7[-1].append(hilbert2(r7, a, b))
    assert got7 == want7 == table(ResidueRing(spec7.f, spec7.sigma))
    assert got9 == want9 == table(ResidueRing(spec9.f, spec9.sigma))
    assert r7.square_multiples and r9.square_multiples  # each ring keeps its own products


def _memo_products(ring, units):
    """The oracle's memo entry for each unit v, filled by one call with v as the scanned factor."""
    for v in units:
        hilbert2(ring, ring.one(), v)  # scan(1, v) runs first and memoizes v
    return {v: ring.square_multiples[v] for v in units}


@pytest.mark.parametrize("field", ["spec7", "spec9"])
def test_memo_entries_are_ring_products(request, field):
    # each memo entry is v*t for every square t, for every unit v, against intpoly's product
    spec = request.getfixturevalue(field)
    ring = ResidueRing(spec.f, spec.sigma)
    assert ring.lane == 8  # bits(3 * 7^2 = 147)
    units = [v for v in ring.elements(8) if ring.is_unit(v)]
    for v, got in _memo_products(ring, units).items():
        assert got == tuple(_mul_ref(ring, v, t) for t in ring.squares)


def test_memo_entries_are_ring_products_at_n5(family11):
    ring = family11
    assert ring.lane == 8  # bits(5 * 7^2 = 245)
    rng = random.Random(11)
    units = set()
    while len(units) < 40:
        v = ring.pack([rng.randrange(8) for _ in range(5)])
        if ring.is_unit(v):
            units.add(v)
    for v, got in _memo_products(ring, sorted(units)).items():
        assert got == tuple(_mul_ref(ring, v, t) for t in ring.squares)


@pytest.mark.parametrize("field", ["spec7", "spec9"])
def test_oracle_matches_its_definition(request, field):
    # +1 iff a*s1 + b*s2 is a square for some squares s1, s2 with one of s1, s2 and
    # a*s1 + b*s2 a unit, read off the definition: no division by a unit square
    spec = request.getfixturevalue(field)
    ring = residue.build_family(spec)
    squares = ring.squares
    reps = [class_rep(ring, bits) for bits in range(1 << 3)]

    def by_definition(a, b):
        b_s = {s2: ring.mul(b, s2) for s2 in squares}
        for s1 in squares:
            x = ring.mul(a, s1)
            for s2, y in b_s.items():
                z = ring.pack([i + j for i, j in zip(ring.coeffs(x), ring.coeffs(y))])
                if z in squares and (ring.is_unit(s1) or ring.is_unit(s2) or ring.is_unit(z)):
                    return 1
        return -1

    for a in reps:
        for b in reps:
            assert hilbert2(ring, a, b) == by_definition(a, b), (a, b)


def test_suites_make_every_oracle_call(monkeypatch, spec7, spec9):
    # every symbol the suites check is evaluated: per cubic, 2952 oracle calls in
    # hilbert_suite and 2965 in run_all (with the oracle star table and
    # kernel_suite), 5930 for the two cubics together
    calls = []
    direct = residue.hilbert2
    monkeypatch.setattr(residue, "hilbert2", lambda ring, a, b: calls.append((a, b)) or direct(ring, a, b))
    total = 0
    for spec in (spec7, spec9):
        calls.clear()
        assert all(row.ok for row in checks.hilbert_suite(residue.build_family(spec)))
        assert len(calls) == 2952
        calls.clear()
        rows = checks.run_all(spec)
        assert len(rows) == 19 and all(row.ok for row in rows)
        assert len(calls) == 2965
        total += len(calls)
    assert total == 5930


def test_hilbert_rejects_bad_inputs(family7):
    with pytest.raises(ValueError):
        hilbert2(family7, 0, family7.one())
    with pytest.raises(ValueError):
        hilbert2(family7, family7.one(), family7.pack((2, 4, 6)))


# -- star table ---------------------------------------------------------------


def test_star_anchors(star7, star9):
    for st in (star7, star9):
        assert st.star[ZERO] == 1
        assert st.star[ONES] == -1
        assert st.norm_sign[ONES] == -1


def test_kernel_counts_both_fields(star7, star9):
    assert (star7.ker_plus, star7.ker_minus) == (1, 3)
    assert (star9.ker_plus, star9.ker_minus) == (1, 3)


def test_norm_sign_splits_in_half(star7):
    assert star7.norm_sign.count(1) == 4


def test_star_table_matches_oracle(star7, oracle_star7, star9, oracle_star9):
    assert star7 == oracle_star7
    assert star9 == oracle_star9


def test_star_table_matches_oracle_at_n5(family11):
    form = star_table(family11)
    oracle = checks.oracle_star_table(family11)
    assert len(form.star) == 32
    assert form.star == oracle.star
    assert form.norm_sign == oracle.norm_sign
    assert (form.ker_plus, form.ker_minus) == (oracle.ker_plus, oracle.ker_minus) == (1, 5)


def test_star_table_matches_oracle_per_class(star7, oracle_star7, star9, oracle_star9):
    for form, oracle in ((star7, oracle_star7), (star9, oracle_star9)):
        assert len(form.star) == len(form.norm_sign) == len(oracle.star) == len(oracle.norm_sign) == 8
        for u in range(8):
            assert (form.star[u], form.norm_sign[u]) == (oracle.star[u], oracle.norm_sign[u]), u


def test_tables_never_call_the_oracle(monkeypatch, spec7, spec9, family11):
    def refuse(*args):
        raise AssertionError("hilbert2 called outside the reference checks")

    monkeypatch.setattr(residue, "hilbert2", refuse)
    for spec in (spec7, spec9):
        tables = build_tables(spec)
        assert (tables.star.ker_plus, tables.star.ker_minus) == (1, 3)
    assert build_matrix_A(family11).c == (1, 0, 0, 0, 0)
    assert star_table(family11).ker_minus == 5


# -- pairing matrix -----------------------------------------------------------


def test_pairing_matrix_matches_brute_force(family7, pairing7):
    for u in range(1 << 3):
        for v in range(1 << 3):
            direct = hilbert2(family7, class_rep(family7, u), class_rep(family7, v))
            assert direct == pairing7.pairing(u, v)


def test_pairing_matrix_matches_oracle_at_n5(family11):
    lifts = [class_rep(family11, 1 << i) for i in range(5)]  # 1 + 2 tau^i(y)
    oracle_c = tuple(0 if hilbert2(family11, lifts[0], b) == 1 else 1 for b in lifts)
    assert build_matrix_A(family11).c == oracle_c == (1, 0, 0, 0, 0)


def test_pairing_c0_vs_norm_sign(family7, oracle_star7, pairing7):
    alpha_class = m4_class_of(family7, class_rep(family7, 0b001) & family7.mask4)
    assert (pairing7.c[0] == 0) == (oracle_star7.norm_sign[alpha_class] == 1)


def test_pairing_all_ones_parity(pairing7, star7):
    # the self-pairing of the class of -1 is star-negative: (-1,-1) = -1
    assert pairing7.pairing(ONES, ONES) == -1 == star7.star[ONES]


def test_matrix_a_is_the_family_pairing(family7, family9, family11):
    for fam in (family7, family9, family11):
        assert build_matrix_A(fam) is fam.pairing


def test_selfcheck_reads_each_ring_trace_once(monkeypatch, spec7):
    # the power sums of f are read once per ring, not once per trace taken
    calls = []
    direct = residue.newton_power_sums
    monkeypatch.setattr(residue, "newton_power_sums", lambda f, count: calls.append(f) or direct(f, count))
    rows = checks.run_all(spec7)
    assert len(rows) == 19 and all(row.ok for row in rows)
    assert len(calls) == 1  # the run builds one ring


def test_circulant_rejects_asymmetric():
    with pytest.raises(AssertionError):
        CirculantA((0, 1, 0))  # c_1 != c_2


def test_star_table_checks_at_construction(star7):
    # a copy compares equal by value; a value changed on one class of a
    # 3-class orbit is rejected when the table is built
    assert residue.StarTable(tuple(star7.star), tuple(star7.norm_sign)) == star7
    for u in (0b001, 0b011):
        star = tuple(-s if v == u else s for v, s in enumerate(star7.star))
        with pytest.raises(AssertionError, match="Galois orbits"):
            residue.StarTable(star, star7.norm_sign)
        sign = tuple(-s if v == u else s for v, s in enumerate(star7.norm_sign))
        with pytest.raises(AssertionError, match="in half"):
            residue.StarTable(star7.star, sign)


def _apply(c, v):
    """A v, with A_ij = c[(i - j) mod n], as the direct sum over j."""
    n = len(c)
    return tuple(sum(c[(i - j) % n] * v[j] for j in range(n)) % 2 for i in range(n))


def _unit_vectors(n):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def _bits(u, n):
    """The class u as its coordinate tuple, bit j at index j."""
    return tuple(u >> j & 1 for j in range(n))


def _tuple_rot(bits, k):
    """A coordinate tuple after k steps of the Galois generator: coordinate j moves to j + k."""
    n = len(bits)
    return tuple(bits[(j - k) % n] for j in range(n))


def _off_identity_units(n):
    """Symmetric c with c_0 = 1, other than the identity, whose circulant is invertible (brute force)."""
    out = []
    for half in product((0, 1), repeat=(n - 1) // 2):
        c = (1,) + half + half[::-1]
        if any(half) and len({_apply(c, v) for v in product((0, 1), repeat=n)}) == 1 << n:
            out.append(c)
    return out


OFF_IDENTITY = [c for n in (5, 7, 9) for c in _off_identity_units(n)]


def test_circulant_rejects_singular():
    with pytest.raises(AssertionError):
        CirculantA((0, 0, 0))
    assert len(OFF_IDENTITY) == 14
    for n in (5, 7, 9):
        for half in product((0, 1), repeat=(n - 1) // 2):
            c = (1,) + half + half[::-1]
            if any(half) and c not in OFF_IDENTITY:
                with pytest.raises(AssertionError):
                    CirculantA(c)


@pytest.mark.parametrize("c", OFF_IDENTITY, ids=lambda c: "".join(map(str, c)))
def test_circulant_layer_off_identity(c):
    # every shipped field has c = (1, 0, ..., 0), so run the layer on a stand-in family
    n = len(c)
    a = CirculantA(c)
    classes = range(1 << n)
    vs = classes if n == 5 else [1 << i for i in range(n)] + random.Random(n).sample(classes, 24)
    for v in vs:
        av = _apply(c, _bits(v, n))
        for u in classes:
            assert a.pairing(u, v) == (-1) ** (sum(x * y for x, y in zip(_bits(u, n), av)) % 2)
    assert _apply(c, _bits(a.h, n)) == _unit_vectors(n)[0]
    star = star_table(SimpleNamespace(n=n, pairing=a)).star
    for u in classes:
        au = _apply(c, _bits(u, n))  # A is symmetric, so u^T A w = (A u) . w
        trivial = all(sum(x * y for x, y in zip(au, _tuple_rot(_bits(u, n), k))) % 2 == 0 for k in range(1, n))
        assert star[u] == (1 if trivial else -1)


# -- autocorrelation map ------------------------------------------------------


def test_b_map_examples():
    assert b_map(0b000, 3) == 0
    assert b_map(0b001, 3) == 1
    ones_img = b_map(0b111, 3)
    assert ones_img == f2poly.from_coeffs([1, 1, 1])
    for wide in (0b1000, -1):
        with pytest.raises(ValueError):
            b_map(wide, 3)


def test_b_map_against_direct_convolution():
    # oracle: coefficient of x^d is sum_i u_i u_{i+d} mod 2
    for n in (3, 5):
        for mask in range(1 << n):
            u = tuple((mask >> i) & 1 for i in range(n))
            expected = 0
            for d in range(n):
                bit = sum(u[i] & u[(i + d) % n] for i in range(n)) & 1
                expected |= bit << d
            assert b_map(mask, n) == expected


def _images(n):
    """b_map of every u < 2^n, the definition."""
    return [b_map(u, n) for u in range(1 << n)]


def _direct_counts(images, h):
    """(count of b(u) = 0, count of b(u) = h) over the images b(u) of every u."""
    return images.count(0), images.count(h)


def _symmetric_units(n):
    """Every symmetric c != 1 whose circulant is invertible, so h = c^-1 != 1 (none at n = 3)."""
    out = []
    for c0, half in product((0, 1), product((0, 1), repeat=(n - 1) // 2)):
        c = (c0,) + half + half[::-1]
        if c != (1,) + (0,) * (n - 1) and gcd(f2poly.from_coeffs(c), (1 << n) | 1) == 1:
            out.append(CirculantA(c))
    return out


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13])
def test_gray_scan_matches_direct_scan(n, monkeypatch):
    # narrow blocks put most bits of u in the Gray walk over H; the shipped width is one block here
    images, units = _images(n), _symmetric_units(n)
    assert (n == 3) == (not units)
    assert residue.SCAN_BLOCK_BITS >= n
    for width in (1, 2, 3, 5, residue.SCAN_BLOCK_BITS):
        monkeypatch.setattr(residue, "SCAN_BLOCK_BITS", width)
        for a in [CirculantA((1,) + (0,) * (n - 1))] + units:
            assert kernel_counts_via_B(a) == _direct_counts(images, a.h), (width, a.c)


def test_scan_matches_direct_scan_above_one_block():
    # at n = 15 the shipped width leaves high bits, so the walk over H runs
    n = 15
    assert residue.SCAN_BLOCK_BITS < n
    images, units = _images(n), _symmetric_units(n)
    assert len(units) == 44
    for a in [CirculantA((1,) + (0,) * (n - 1))] + units:
        assert kernel_counts_via_B(a) == _direct_counts(images, a.h), a.c


def test_plane_invariant_by_hand_at_n5():
    # u = L + H at n = 5 with m = 2: L = u mod 4.  b(L) for L = 0, 1, x, 1 + x is 0, 1, 1, x + x^4
    n = 5
    assert [b_map(L, n) for L in range(4)] == [0, 1, 1, 0b10010]
    # so the base planes (H = 0; bit L of P_j = coefficient j of b(L)) are P_0 = 0b0110, P_1 = P_4 = 0b1000
    lp = [0b1010, 0b1100, 0, 0, 0]  # bit L of lp[k] is bit k of L; zero above the block
    p = [0b0110, 0b1000, 0, 0, 0b1000]
    # the doubling from L < 2 to L < 4 (l = 1): the new half is P_j + [j = 0] + L_(j+1) + L_(1-j)
    half = [0b10, 0, 0, 0, 0]
    for j in range(n):
        step = lp[(j + 1) % n] ^ lp[(1 - j) % n] ^ (0b11 if j == 0 else 0)
        assert half[j] | ((half[j] ^ step) & 0b11) << 2 == p[j]
    # H = 0 -> x^2 flips bit i = 2: d = 1 + x^-2 H(x) + x^2 H(1/x) = 1, so plane j moves by
    # L_(2+j) + L_(2-j), complemented at j = 0 only
    moves = [lp[(2 + j) % n] ^ lp[(2 - j) % n] ^ (0b1111 if j == 0 else 0) for j in range(n)]
    assert moves == [0b1111, 0b1100, 0b1010, 0b1010, 0b1100]
    p = [x ^ y for x, y in zip(p, moves)]
    assert p == [0b1001, 0b0100, 0b1010, 0b1010, 0b0100]
    # the invariant at H = x^2: b(x^2) = 1, b(1 + x^2) = x^2 + x^3, b(x + x^2) = x + x^4,
    # b(1 + x + x^2) = 1 + x^2 + x^3
    assert [b_map(L | 0b100, n) for L in range(4)] == [0b00001, 0b01100, 0b10010, 0b01101]
    for L in range(4):
        assert sum((p[j] >> L & 1) << j for j in range(n)) == b_map(L | 0b100, n)
    # counts for h = 1: no L has every plane clear, and only L = 0 has P_0 alone
    rest = p[1] | p[2] | p[3] | p[4]
    assert (p[0] | rest) == 0b1111 and p[0] & ~rest == 0b0001


def test_gray_step_by_hand_at_n5():
    # u' = 1 + x + x^2, flip k = 3 (not in u'): u = 1 + x + x^2 + x^3
    n, u_old, k = 5, 0b00111, 3
    u_new = u_old | 1 << k
    # b(u') = (1 + x + x^2)(1 + x^4 + x^3) = 1 + x^2 + x^3 mod 2, x^5 - 1
    assert b_map(u_old, n) == 0b01101
    # x^-3 u'(x) = x^2 + x^3 + x^4 and x^3 u'(1/x) = x + x^2 + x^3
    down, up = 0b11100, 0b01110
    assert b_map(u_old, n) ^ 1 ^ down ^ up == 0b11110 == b_map(u_new, n)
    # the scan applies this rule to H: the shifts of u' and of its reversal u'(1/x) = 1 + x^3 + x^4, each doubled
    rev = 0b11001
    assert (u_old | u_old << n) >> k & 0b11111 == down
    assert (rev | rev << n) >> n - k & 0b11111 == up
    # the same flip undone: the identity holds with k in u as well
    # x^-3 u(x) = x^2 + x^3 + x^4 + 1 and x^3 u(1/x) = x^3 + x^2 + x + 1
    assert b_map(u_new, n) ^ 1 ^ 0b11101 ^ 0b01111 == b_map(u_old, n)


def test_h_poly_identity_matrix():
    assert CirculantA((1, 0, 0)).h == 1


def test_h_poly_palindromic(pairing7, pairing9):
    for a in (pairing7, pairing9):
        h, n = a.h, len(a.c)
        bits = [(h >> i) & 1 for i in range(n)]
        assert all(bits[i] == bits[(n - i) % n] for i in range(n))


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_h_poly_inverts_every_symmetric_unit(n):
    # c * h = 1 as the direct sum A h = e_0, for every symmetric c with a bijective circulant
    units = 0
    for c0, half in product((0, 1), product((0, 1), repeat=(n - 1) // 2)):
        c = (c0,) + half + half[::-1]
        if len({_apply(c, v) for v in product((0, 1), repeat=n)}) == 1 << n:
            h = CirculantA(c).h
            assert _apply(c, _bits(h, n)) == _unit_vectors(n)[0]
            units += 1
    assert units == 1 + sum(len(c) == n for c in OFF_IDENTITY)


def test_h_preimage_count(pairing7):
    h = pairing7.h
    count = sum(
        1
        for mask in range(8)
        if b_map(mask, 3) == h
    )
    assert count == 3


def test_kernel_counts_via_b(pairing7, pairing9):
    assert kernel_counts_via_B(pairing7) == (1, 3)
    assert kernel_counts_via_B(pairing9) == (1, 3)
    assert kernel_counts_via_B(CirculantA((1, 0, 0)))[0] >= 1  # u = 0 always maps to 0


def test_three_way_agreement(oracle_star7, pairing7, oracle_star9, pairing9):
    closed = s_pair(3)
    for st, pa in ((oracle_star7, pairing7), (oracle_star9, pairing9)):
        assert closed == (st.ker_plus, st.ker_minus) == kernel_counts_via_B(pa)


# -- galois compatibility between class map and rotation ----------------------


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_rot_is_the_product_by_x_to_the_k(n):
    # the packed shift against the cyclic product by x^k and against the coordinate rule
    for u in range(1 << n):
        bits = _bits(u, n)
        for k in range(n):
            moved = rot(u, k, n)
            assert moved == f2poly.cyclic_mul(u, 1 << k, n)
            assert _bits(moved, n) == _tuple_rot(bits, k)


def test_class_rotation_matches_tau(family7):
    ring = family7
    for u in ring.elements(4):
        if ring.is_unit(u):
            assert m4_class_of(ring, ring.apply_tau(u) & ring.mask4) == rot(m4_class_of(ring, u), 1, 3)
