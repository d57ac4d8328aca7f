import random

import pytest

from spinsweep import f2poly
from spinsweep.f2poly import F2Poly, cyclotomic_cosets, from_coeffs

X3_P1 = from_coeffs([1, 0, 0, 1])       # x^3 + 1
X2_X_1 = from_coeffs([1, 1, 1])         # x^2 + x + 1
X_P1 = from_coeffs([1, 1])              # x + 1


# -- the reference factorization of x^n - 1 that `cyclotomic_cosets` is checked against,
# on its own general-modulus GF(2) arithmetic (the package has only the cyclic ring)


def mul(a: F2Poly, b: F2Poly) -> F2Poly:
    """Product of a and b (carry-less)."""
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def divmod_(a: F2Poly, b: F2Poly) -> tuple[F2Poly, F2Poly]:
    """Quotient and remainder of a by b, for nonzero b."""
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    db = b.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= db and a:
        shift = a.bit_length() - 1 - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def rem(a: F2Poly, b: F2Poly) -> F2Poly:
    """Remainder of a modulo b, for nonzero b."""
    return divmod_(a, b)[1]


def gcd(a: F2Poly, b: F2Poly) -> F2Poly:
    """Greatest common divisor of a and b (monic, as every nonzero gcd is over GF(2))."""
    while b:
        a, b = b, rem(a, b)
    return a


def mulmod(a: F2Poly, b: F2Poly, m: F2Poly) -> F2Poly:
    """Product of a and b reduced modulo m."""
    return rem(mul(a, b), m)


def degree(a: F2Poly):
    """Degree of a, or -inf for the zero polynomial (every nonzero degree compares above it)."""
    return a.bit_length() - 1 if a else float("-inf")


def reciprocal(f: F2Poly) -> F2Poly:
    """Reverse the coefficients of f: x^deg(f) * f(1/x).

    Requires a nonzero constant term, which makes the map an involution.
    """
    if f == 0 or not f & 1:
        raise ValueError("reciprocal requires a nonzero constant term")
    return int(bin(f)[2:][::-1], 2)


def factor_xn_minus_1(n: int) -> list[tuple[F2Poly, bool]]:
    """Distinct irreducible factors of x^n - 1 over GF(2), for odd n >= 3.

    Returns (factor, is_self_reciprocal) pairs sorted by (degree, bits).
    Distinct-degree splitting by gcd with x^(2^d) - x, then equal-degree
    splitting with trace maps of deterministically enumerated elements.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    remaining = (1 << n) | 1  # x^n + 1; squarefree since n is odd
    factors: list[int] = []
    h = 2  # x^(2^d) mod remaining
    d = 0
    while degree(remaining) > 0:
        d += 1
        if 2 * d > degree(remaining):
            factors.append(remaining)  # what is left is irreducible
            break
        h = mulmod(h, h, remaining)
        g = gcd(remaining, h ^ 2)
        if g != 1:
            factors.extend(_equal_degree_split(g, d))
            remaining = divmod_(remaining, g)[0]
            h = rem(h, remaining) if degree(remaining) > 0 else 0
    factors.sort(key=lambda f: (f.bit_length(), f))
    return [(f, reciprocal(f) == f) for f in factors]


def _equal_degree_split(g: F2Poly, d: int) -> list[F2Poly]:
    """Split a squarefree product of degree-d irreducibles into its factors."""
    if degree(g) == d:
        return [g]
    seed = 2
    while True:
        # trace map r + r^2 + ... + r^(2^(d-1)) mod g is a zero divisor for
        # roughly half the elements r, which is what gcd detects
        r = rem(seed, g)
        t, y = 0, r
        for _ in range(d):
            t ^= y
            y = mulmod(y, y, g)
        s = gcd(g, t)
        if 0 < degree(s) < degree(g):
            return _equal_degree_split(s, d) + _equal_degree_split(divmod_(g, s)[0], d)
        seed += 1


def trial_division_irreducible(f):
    """Independent oracle: divide by every polynomial of degree 1..deg(f)//2.

    A reducible polynomial always has a factor in that range, so this is a
    complete test; at this scale (factors of degree <= 28) it stays fast.
    """
    d = f.bit_length() - 1
    if d < 1:
        return False
    for g in range(2, 1 << (d // 2 + 1)):
        if rem(f, g) == 0:
            return False
    return True


def test_gcd_example():
    # Euclid by hand over GF(2): x^3+1 = (x+1)(x^2+x+1), x^2+1 = (x+1)^2
    assert gcd(X3_P1, from_coeffs([1, 0, 1])) == X_P1


def test_mul_frobenius():
    assert mul(X_P1, X_P1) == from_coeffs([1, 0, 1])


def test_cyclic_mul_is_mul_mod_xn_minus_1():
    for n in (1, 3, 5):
        xn_1 = (1 << n) | 1
        for a in range(1 << n):
            for b in range(1 << n):
                assert f2poly.cyclic_mul(a, b, n) == rem(mul(a, b), xn_1)
    assert f2poly.cyclic_mul(1 << 30, 1 << 30, 31) == 1 << 29  # x^60 = x^29 mod x^31 - 1
    with pytest.raises(ValueError):
        f2poly.cyclic_mul(0b1000, 1, 3)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_cyclic_inv_exhaustive(n):
    # every a of degree < n: an inverse exactly when a is coprime to x^n + 1
    xn_1 = (1 << n) | 1
    for a in range(1 << n):
        if gcd(a, xn_1) == 1:
            assert f2poly.cyclic_mul(a, f2poly.cyclic_inv(a, n), n) == 1
        else:
            with pytest.raises(ValueError):
                f2poly.cyclic_inv(a, n)
    with pytest.raises(ValueError):
        f2poly.cyclic_inv(1 << n, n)


@pytest.mark.parametrize("n", list(range(3, 32, 2)))
def test_cyclic_inv_is_a_power_at_every_odd_n(n):
    # the inverse is a^(2^k - 2), k = ord_n(2): seeded a against the reference
    # gcd with x^n + 1, past the exhaustive test's n <= 9 to where k is 4, 6,
    # 11 and 5 (n = 15, 21, 23, 31)
    xn_1 = (1 << n) | 1
    rng = random.Random(n)
    units = non_units = 0
    # x^j, 1 + x (gcd x + 1) and 1 + x + ... + x^(n-1) (gcd (x^n + 1)/(x + 1)) among the seeded
    for a in [1 << (n - 1), 0b11, (1 << n) - 1, 0] + [rng.randrange(1 << n) for _ in range(200)]:
        if gcd(a, xn_1) == 1:
            units += 1
            inv = f2poly.cyclic_inv(a, n)
            assert inv >> n == 0 and f2poly.cyclic_mul(a, inv, n) == 1
            assert f2poly.cyclic_mul(inv, a, n) == 1
        else:
            non_units += 1
            with pytest.raises(ValueError, match="not a unit"):
                f2poly.cyclic_inv(a, n)
    assert units > 10 and non_units > 10


@pytest.mark.parametrize("n", [2, 4, 6, 8, 30])
def test_cyclic_inv_rejects_an_even_n(n):
    # 2 has no order mod an even n, so no power a^(2^k - 2) is an inverse
    with pytest.raises(ValueError, match="must be odd"):
        f2poly.cyclic_inv(1, n)
    with pytest.raises(ValueError, match="must be odd"):
        f2poly.cyclic_inv(0b11, n)


def test_divmod_and_rem():
    q, r = divmod_(X3_P1, X2_X_1)
    assert mul(q, X2_X_1) ^ r == X3_P1
    assert degree(r) < degree(X2_X_1)
    with pytest.raises(ZeroDivisionError):
        rem(X3_P1, 0)


def test_degree_sentinel():
    assert degree(0) == float("-inf")
    assert degree(1) == 0
    assert degree(X3_P1) == 3


def test_reciprocal():
    assert reciprocal(X2_X_1) == X2_X_1                       # palindromic
    assert reciprocal(from_coeffs([1, 1, 0, 1])) == from_coeffs([1, 0, 1, 1])
    assert reciprocal(X_P1) == X_P1
    for f in (X2_X_1, 0b1011, 0b1101, X_P1):
        assert reciprocal(reciprocal(f)) == f
    with pytest.raises(ValueError):
        reciprocal(0)
    with pytest.raises(ValueError):
        reciprocal(0b10)  # zero constant term


def test_cyclotomic_cosets_examples():
    assert cyclotomic_cosets(7) == [{1, 2, 4}, {3, 5, 6}]
    assert cyclotomic_cosets(15) == [{1, 2, 4, 8}, {3, 6, 9, 12}, {5, 10}, {7, 11, 13, 14}]
    with pytest.raises(ValueError):
        cyclotomic_cosets(8)


FROZEN_FACTORS = {
    # derived by exhausting low-degree polynomials
    3: [(from_coeffs([1, 1]), True), (from_coeffs([1, 1, 1]), True)],
    5: [(from_coeffs([1, 1]), True), (from_coeffs([1, 1, 1, 1, 1]), True)],
    7: [
        (from_coeffs([1, 1]), True),
        (from_coeffs([1, 1, 0, 1]), False),
        (from_coeffs([1, 0, 1, 1]), False),
    ],
}


@pytest.mark.parametrize("n", [3, 5, 7])
def test_factor_frozen_values(n):
    assert sorted(factor_xn_minus_1(n)) == sorted(FROZEN_FACTORS[n])


@pytest.mark.parametrize("n", list(range(3, 32, 2)))
def test_factorization_properties(n):
    factors = factor_xn_minus_1(n)
    prod = 1
    for f, _ in factors:
        prod = mul(prod, f)
    assert prod == (1 << n) | 1
    polys = [f for f, _ in factors]
    assert len(set(polys)) == len(polys)
    for f in polys:
        assert trial_division_irreducible(f)
    # multiset closed under reciprocal, flags consistent with reciprocal()
    assert sorted(reciprocal(f) for f in polys) == sorted(polys)
    for f, flag in factors:
        assert flag == (reciprocal(f) == f)
    assert sum(degree(f) for f in polys) == n
    # one coset of 2 mod n per factor besides x + 1: size = degree, -C = C iff self-reciprocal
    cosets = [(len(c), frozenset(n - k for k in c) == c) for c in cyclotomic_cosets(n)]
    assert sorted([(1, True)] + cosets) == sorted((degree(f), flag) for f, flag in factors)
