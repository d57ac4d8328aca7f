import math
import random
from fractions import Fraction
from itertools import product

import pytest

from spinsweep import intpoly
from spinsweep.f2poly import from_coeffs
from spinsweep.intpoly import (
    PackedRing,
    gcd_mod,
    mult_matrix,
    norm_mod,
    poly_rem_monic,
    prime_factors,
)
from conftest import mul_mod, pow_mod, real_cyclotomic
from test_f2poly import gcd

CUBICS = ((-1, -2, 1, 1), (-1, -3, 0, 1))
QUINTIC = (1, 3, -3, -4, 1, 1)


# primes near 10^5 and 10^6, 2^31 - 1 and the 61-bit 2^61 - 1
BIG_PRIMES = (99991, 100003, 999983, 1000003, 2**31 - 1, 2**61 - 1)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 13, *BIG_PRIMES])
def test_pow_mod_is_repeated_mul_mod(m):
    # `PackedRing.pow` (conftest's pow_mod) against the generic product, on
    # the cubics and the quintic (negative coefficients in f), bases with
    # negative coordinates and more coordinates than deg f included; at m = 1
    # every power, e = 0 too, is the zero residue
    for f in CUBICS + (QUINTIC,):
        for a in product(range(m), repeat=3) if m <= 4 else ((3, 0, 1), (12, 5, 7), (0, 1, 0), (-9, 4, -1, 7),
                                                             (m - 1, m - 2, 1, -m, 3, m + 5)):
            acc = mul_mod((1,), (1,), f, m)
            for e in range(71):
                assert pow_mod(a, e, f, m) == acc
                acc = mul_mod(acc, a, f, m)


@pytest.mark.parametrize("m", [0, -1, -5])
def test_pow_mod_rejects_a_modulus_below_one(m):
    with pytest.raises(ValueError, match="m >= 1"):
        pow_mod((0, 1), 3, CUBICS[0], m)
    with pytest.raises(ValueError, match="m >= 1"):
        pow_mod((0, 1), 0, CUBICS[0], m)


def test_mul_mod_reduces_by_f_and_m():
    f = CUBICS[0]
    # x * x^2 = x^3 = 1 + 2x - x^2 mod f; the package reduces by f alone, the
    # tests' reference by m as well
    assert intpoly.mul_mod((0, 1), (0, 0, 1), f) == (1, 2, -1)
    assert intpoly.mul_mod((), (1, 1), f) == (0, 0, 0)
    assert mul_mod((0, 1), (0, 0, 1), f, 4) == (1, 2, 3)
    assert mul_mod((), (1, 1), f, 4) == (0, 0, 0)


def _pow_right_to_left(a, e, f, m):
    """a^e mod (f, m) by the right-to-left binary method: square the base, multiply into r at set bits."""
    n = len(f) - 1
    r = (1,) + (0,) * (n - 1)
    base = tuple(c % m for c in a) + (0,) * (n - len(a))
    while e:
        if e & 1:
            r = mul_mod(r, base, f, m)
        base = mul_mod(base, base, f, m)
        e >>= 1
    return r


def test_pow_mod_at_split_test_exponents():
    # the split test's x^((p-1)/2) and the descent's (x + shift)^((p-1)/2), p near 10^5 and 10^6,
    # and at 2^31 - 1 and 2^61 - 1
    primes = [p for p in range(99_900, 100_200) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    assert len(primes) > 20
    primes += [p for p in range(999_900, 1_000_100) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    primes += [2**31 - 1, 2**61 - 1]
    for f in CUBICS + (QUINTIC,):
        for p in primes:
            for a in ((0, 1), (p - 3, 1), (5, 1)):
                assert pow_mod(a, (p - 1) // 2, f, p) == _pow_right_to_left(a, (p - 1) // 2, f, p)


@pytest.mark.parametrize("m", [3, 9, 2**31 - 1, 2**61 - 1])
@pytest.mark.parametrize("p", [19, 23])
def test_packed_ring_at_the_odd_lane_bound(p, m):
    # n = 9 and 11 (Q(zeta_p)^+), odd m: the all-(m - 1) element makes every
    # low lane of a product as large as a sum of lane-wise products can be
    f = real_cyclotomic(p).f
    n = len(f) - 1
    ring = PackedRing(f, m)
    assert ring.lane == ((2 * n - 1) * (m - 1) ** 2).bit_length()
    top = (m - 1,) * n
    rng = random.Random(p * 1000 + m % 1000)
    elems = [top] + [tuple(rng.randrange(m) for _ in range(n)) for _ in range(30)]
    for a in elems:
        for b in (top, rng.choice(elems)):
            assert ring.coeffs(ring.mul(ring.pack(a), ring.pack(b))) == mul_mod(a, b, f, m)
    for a in elems[:4]:
        assert pow_mod(a, (m - 1) // 2, f, m) == _pow_right_to_left(a, (m - 1) // 2, f, m)


@pytest.mark.parametrize("e", [-1, -2, -(1 << 40)])
def test_pow_mod_rejects_a_negative_exponent(e):
    with pytest.raises(ValueError, match="e >= 0"):
        pow_mod((0, 1), e, CUBICS[0], 7)


def test_mult_matrix_rows_are_products_with_powers_of_x():
    rng = random.Random(3)
    for f in CUBICS + (QUINTIC,):
        n = len(f) - 1
        for _ in range(50):
            a = tuple(rng.randrange(-10**6, 10**6) for _ in range(rng.randrange(1, n + 1)))
            rows = mult_matrix(a, f)
            assert len(rows) == n
            for j, row in enumerate(rows):
                assert tuple(row) == intpoly.mul_mod(a, (0,) * j + (1,), f)


def _norm_by_fractions(a, f):
    """det of the rows intpoly.mul_mod(a, x^j, f), by Gaussian elimination over the rationals."""
    n = len(f) - 1
    rows = [[Fraction(c) for c in intpoly.mul_mod(a, (0,) * j + (1,), f)] for j in range(n)]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, n):
            r = rows[i][k] / rows[k][k]
            rows[i] = [x - r * y for x, y in zip(rows[i], rows[k])]
    return int(det)


# (f, element, norm), pinned from the norms the search has used since the
# Bareiss determinant came in: the cubics' units and the totally positive
# generators of P and P^3 that generator_of_power returns
PINNED_NORMS = [
    (CUBICS[0], (1, 1, 0), -1),
    (CUBICS[0], (0, 1, 1), -1),
    (CUBICS[0], (0, -1, -1), 1),
    (CUBICS[0], (2, 2, 1), 13),
    (CUBICS[0], (2, -2, 9), 2197),
    (CUBICS[0], (121, 2, -13), 912673),
    (CUBICS[0], (3896, 872, 4825), 1002702430729),
    (CUBICS[1], (2, 0, -1), 1),
    (CUBICS[1], (-1, -1, 0), 1),
    (CUBICS[1], (0, -1, 2), 19),
    (CUBICS[1], (20901, 2938, -4719), 1002702430729),
    (CUBICS[1], (147857, 30135, -19846), 999730024299271),
    (QUINTIC, (3, -24, 4, 21, 2), -1),
    (QUINTIC, (5, 7, -1, 0, 2), 23),
    (QUINTIC, (3066, -2367, -7647, 3682, 5174), 999730024299271),
]


def test_norm_mod_pinned_and_against_rational_elimination(spec7, spec9):
    for f, a, norm in PINNED_NORMS:
        assert norm_mod(a, f) == norm == _norm_by_fractions(a, f)
    for spec in (spec7, spec9):
        for signs, u in spec.unit_by_signature.items():
            # the norm of a unit is the product of its signs
            assert norm_mod(u, spec.f) == math.prod(signs) == _norm_by_fractions(u, spec.f)
    rng = random.Random(5)
    for f in CUBICS + (QUINTIC,):
        n = len(f) - 1
        for _ in range(40):
            a = tuple(rng.randrange(-99, 100) for _ in range(n))
            assert norm_mod(a, f) == _norm_by_fractions(a, f)


def test_gcd_mod_matches_the_gf2_gcd():
    # at p = 2, against the bit-packed Euclid of the GF(2) reference: every monic
    # a of degree <= 5 with every b of degree < 6, b = 0 included
    def coeffs(bits):
        return tuple(bits >> i & 1 for i in range(bits.bit_length()))

    for a in range(1, 1 << 6):
        for b in range(1 << 6):
            g = gcd_mod(coeffs(a), coeffs(b), 2)
            assert g[-1] == 1 and from_coeffs(g) == gcd(a, b), (a, b)


def test_gcd_mod_is_reduced_when_b_vanishes_mod_p():
    # b = 0 mod 2 ends Euclid before it starts: the gcd is a, reduced mod 2
    assert gcd_mod((-1, 0, 0, 1), (2, 4), 2) == (1, 0, 0, 1)


@pytest.mark.parametrize("p", [2, 3])
def test_gcd_mod_is_the_greatest_common_monic_divisor(p):
    # every monic a and every b over GF(p), both of degree <= 3 (b = 0
    # included), passed with coefficients lifted out of [0, p): the gcd is a
    # monic tuple reduced mod p that divides both, of the degree of their
    # largest common monic divisor, found by trying every monic d of degree <= 3
    monic = [(*low, 1) for k in range(4) for low in product(range(p), repeat=k)]

    def divisors(g):
        return {d for d in monic if not any(c % p for c in poly_rem_monic(g, d))}

    def lift(g):
        return tuple(c + p * (-1) ** i for i, c in enumerate(g))

    for a in monic:
        of_a = divisors(a)
        for b in product(range(p), repeat=4):
            common = of_a & divisors(b)
            g = gcd_mod((*lift(a[:-1]), 1), lift(b), p)
            assert type(g) is tuple and g[-1] == 1 and all(0 <= c < p for c in g), (a, b, g)
            assert g in common and len(g) == max(map(len, common)), (a, b, g)


def test_prime_factors_against_brute_force():
    for n in range(1, 3001):
        primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q))]
        assert prime_factors(n) == primes, n
