import random
from itertools import product
from types import SimpleNamespace

import pytest

from spinsweep import checks, f2poly, residue
from spinsweep.density import s_pair
from spinsweep.residue import (
    CirculantA,
    RingBuildError,
    b_map,
    build_matrix_A,
    build_ring,
    class_rep,
    find_normal_basis,
    h_poly,
    hilbert2,
    kernel_counts_via_B,
    m4_class_of,
    rot,
    star_table,
)
from spinsweep.sweep import build_tables

ZERO = (0, 0, 0)
ONES = (1, 1, 1)

# Q(zeta_11)^+, given only what the residue layer reads: theta = zeta + zeta^-1
ZETA11_PLUS = SimpleNamespace(n=5, f=(1, 3, -3, -4, 1, 1), sigma=(-2, 0, 1))


@pytest.fixture(scope="module")
def family11():
    return residue.build_family(ZETA11_PLUS)


# -- ring construction -------------------------------------------------------


def test_ring_reductions_mod_2(spec7, spec9):
    r7 = build_ring(spec7, 1)
    assert r7.f == (1, 0, 1, 1)  # x^3 + x^2 + 1
    r9 = build_ring(spec9, 1)
    assert r9.f == (1, 1, 0, 1)  # x^3 + x + 1


def test_sigma_has_order_three_on_all_elements(spec7):
    r3 = build_ring(spec7, 3)
    for a in product(range(8), repeat=3):
        assert r3.apply_tau(r3.apply_tau(r3.apply_tau(a))) == a


def test_tau_is_multiplicative(spec7):
    r3 = build_ring(spec7, 3)
    elems = [(1, 2, 3), (5, 0, 7), (2, 2, 1), (1, 1, 1)]
    for a in elems:
        for b in elems:
            assert r3.apply_tau(r3.mul(a, b)) == r3.mul(r3.apply_tau(a), r3.apply_tau(b))


def test_build_ring_rejects_reducible():
    class Bad:
        n = 3
        f = (0, 0, 0, 1)  # x^3, reducible mod 2
        sigma = (0, 1)

    with pytest.raises(RingBuildError):
        build_ring(Bad, 1)


def test_build_ring_rejects_non_automorphism(spec7):
    class Bad:
        n = 3
        f = spec7.f
        sigma = (1, 1)  # x + 1 is not a root of f

    with pytest.raises(RingBuildError):
        build_ring(Bad, 2)


# -- normal basis -------------------------------------------------------------


def _gf2_det3(rows):
    # brute-force 3x3 determinant over GF(2)
    a, b, c = rows
    return (
        a[0] * (b[1] * c[2] ^ b[2] * c[1])
        ^ a[1] * (b[0] * c[2] ^ b[2] * c[0])
        ^ a[2] * (b[0] * c[1] ^ b[1] * c[0])
    ) & 1


def test_normal_basis_conjugates_independent(family7, family9):
    for fam in (family7, family9):
        assert _gf2_det3(fam.y_orbit) == 1


def test_normal_basis_not_one(family7, family9):
    assert family7.y != (1, 0, 0)
    assert family9.y != (1, 0, 0)


def test_normal_basis_orbit_sums_to_one(family7, family9):
    for fam in (family7, family9):
        total = tuple(sum(col) % 2 for col in zip(*fam.y_orbit))
        assert total == (1, 0, 0)


def test_normal_basis_is_lex_smallest(spec7):
    r1 = build_ring(spec7, 1)
    y = find_normal_basis(r1)
    for cand in product((0, 1), repeat=3):
        if not any(cand) or cand >= y:
            break
        orbit = [cand, r1.apply_tau(cand), r1.apply_tau(cand, 2)]
        assert _gf2_det3(orbit) == 0, f"{cand} is a smaller normal-basis generator"


def test_find_normal_basis_requires_level_one(spec7):
    with pytest.raises(ValueError):
        find_normal_basis(build_ring(spec7, 2))


# -- m4 classes ---------------------------------------------------------------


def test_m4_identity_and_minus_one(family7):
    r2 = family7.level(2)
    assert m4_class_of(family7, r2.one()) == ZERO
    assert m4_class_of(family7, r2.neg_one()) == ONES


def test_m4_kills_squares_exhaustively(family7):
    r2 = family7.level(2)
    for u in product(range(4), repeat=3):
        if r2.is_unit(u):
            assert m4_class_of(family7, r2.mul(u, u)) == ZERO


def test_m4_structure_exhaustive(family7):
    r2 = family7.level(2)
    units = [u for u in product(range(4), repeat=3) if r2.is_unit(u)]
    assert len(units) == 56
    classes = {}
    for u in units:
        classes.setdefault(m4_class_of(family7, u), []).append(u)
    assert len(classes) == 8  # surjective onto (Z/2)^3
    squares = {r2.mul(u, u) for u in units}
    assert len(squares) == 7
    assert set(classes[ZERO]) == squares  # kernel is exactly the squares
    fixed = {c for c in classes if rot(c, 1) == c}
    assert fixed == {ZERO, ONES}


def test_m4_is_homomorphism(family7):
    r2 = family7.level(2)
    units = [u for u in product(range(4), repeat=3) if r2.is_unit(u)][:20]
    for a in units:
        for b in units:
            ca = m4_class_of(family7, a)
            cb = m4_class_of(family7, b)
            cab = m4_class_of(family7, r2.mul(a, b))
            assert cab == tuple(x ^ y for x, y in zip(ca, cb))


def test_m4_rejects_non_units(family7):
    with pytest.raises(ValueError):
        m4_class_of(family7, (0, 0, 0))
    with pytest.raises(ValueError):
        m4_class_of(family7, (2, 0, 2))


def test_m4_dictionary_roundtrip(family7, family9):
    # representatives built as products of basis factors land back on their bits,
    # and stay there under multiplication by every square
    for fam in (family7, family9):
        r2 = fam.level(2)
        squares = {r2.mul(u, u) for u in product(range(4), repeat=3) if r2.is_unit(u)}
        for bits in product((0, 1), repeat=3):
            rep = tuple(c % 4 for c in class_rep(fam, bits))
            assert m4_class_of(fam, rep) == bits
            for s in squares:
                assert m4_class_of(fam, r2.mul(rep, s)) == bits


# -- hilbert symbol -----------------------------------------------------------


def test_minus_one_minus_one(family7, family9):
    for fam in (family7, family9):
        r3 = fam.level(3)
        assert hilbert2(r3, r3.neg_one(), r3.neg_one()) == -1


def test_one_pairs_trivially(family7):
    r3 = family7.level(3)
    for b in product(range(8), repeat=3):
        if r3.is_unit(b):
            assert hilbert2(r3, r3.one(), b) == 1


def test_a_with_minus_a(family7):
    r3 = family7.level(3)
    units = [a for a in product(range(8), repeat=3) if r3.is_unit(a)]
    for a in units[::7]:  # sampled; x = y = 1, z = 0 solves a x^2 - a y^2 = z^2
        neg = tuple((-c) % 8 for c in a)
        assert hilbert2(r3, a, neg) == 1


def test_invariance_under_4b_shift(family7):
    r3 = family7.level(3)
    a = (3, 2, 5)
    b = (1, 6, 1)
    base = hilbert2(r3, a, b)
    for t in product((0, 1), repeat=3):
        shifted = tuple((x + 4 * y) % 8 for x, y in zip(a, t))
        assert hilbert2(r3, shifted, b) == base


def test_hilbert_rejects_bad_inputs(family7):
    r3 = family7.level(3)
    r2 = family7.level(2)
    with pytest.raises(ValueError):
        hilbert2(r3, (0, 0, 0), r3.one())
    with pytest.raises(ValueError):
        hilbert2(r2, r2.one(), r2.one())


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
    assert sum(1 for v in star7.norm_sign.values() if v == 1) == 4


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
    r3 = family7.level(3)
    for u in product((0, 1), repeat=3):
        for v in product((0, 1), repeat=3):
            direct = hilbert2(r3, class_rep(family7, u), class_rep(family7, v))
            assert direct == pairing7.pairing(u, v)


def test_pairing_matrix_matches_oracle_at_n5(family11):
    r3 = family11.level(3)
    lifts = family11.basis_lifts
    oracle_c = tuple(0 if hilbert2(r3, lifts[0], b) == 1 else 1 for b in lifts)
    assert build_matrix_A(family11).c == oracle_c == (1, 0, 0, 0, 0)


def test_pairing_c0_vs_norm_sign(family7, oracle_star7, pairing7):
    alpha_class = m4_class_of(family7, tuple(c % 4 for c in family7.basis_lifts[0]))
    assert (pairing7.c[0] == 0) == (oracle_star7.norm_sign[alpha_class] == 1)


def test_pairing_all_ones_parity(pairing7, star7):
    # the self-pairing of the class of -1 is star-negative: (-1,-1) = -1
    assert pairing7.pairing(ONES, ONES) == -1 == star7.star[ONES]


def test_circulant_rejects_asymmetric():
    with pytest.raises(AssertionError):
        CirculantA((0, 1, 0))  # c_1 != c_2


def _apply(c, v):
    """A v, with A_ij = c[(i - j) mod n], as the direct sum over j."""
    n = len(c)
    return tuple(sum(c[(i - j) % n] * v[j] for j in range(n)) % 2 for i in range(n))


def _unit_vectors(n):
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


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
def test_circulant_layer_off_identity(monkeypatch, c):
    # every shipped field has c = (1, 0, ..., 0), so run the layer on a stand-in family
    n = len(c)
    a = CirculantA(c)
    classes = list(product((0, 1), repeat=n))
    vs = classes if n == 5 else _unit_vectors(n) + random.Random(n).sample(classes, 24)
    for v in vs:
        av = _apply(c, v)
        for u in classes:
            assert a.pairing_bit(u, v) == sum(x * y for x, y in zip(u, av)) % 2
    h = h_poly(a)
    assert _apply(c, tuple((h >> j) & 1 for j in range(n))) == _unit_vectors(n)[0]
    monkeypatch.setattr(residue, "build_matrix_A", lambda family: a)
    star = star_table(SimpleNamespace(n=n)).star
    for u in classes:
        au = _apply(c, u)  # A is symmetric, so u^T A w = (A u) . w
        trivial = all(sum(x * y for x, y in zip(au, rot(u, k))) % 2 == 0 for k in range(1, n))
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


def test_h_poly_identity_matrix():
    assert h_poly(CirculantA((1, 0, 0))) == 1


def test_h_poly_palindromic(pairing7, pairing9):
    for a in (pairing7, pairing9):
        h = h_poly(a)
        n = len(a.c)
        bits = [(h >> i) & 1 for i in range(n)]
        assert all(bits[i] == bits[(n - i) % n] for i in range(n))


def test_h_preimage_count(pairing7):
    h = h_poly(pairing7)
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


def test_class_rotation_matches_tau(family7):
    r2 = family7.level(2)
    for u in product(range(4), repeat=3):
        if r2.is_unit(u):
            assert m4_class_of(family7, r2.apply_tau(u)) == rot(m4_class_of(family7, u), 1)
