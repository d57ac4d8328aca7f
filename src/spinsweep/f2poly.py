"""Polynomial arithmetic over GF(2), bit-packed into Python ints.

The polynomial c_d x^d + ... + c_1 x + c_0 is stored as the integer with
bit i equal to c_i.  There are no leading zeros by construction, so the
stored form is always normalized; the zero polynomial is the int 0 and its
degree is the sentinel -inf (every nonzero degree compares above it).

Inputs are capped at degree 63: the module serves cyclic fields of degree
n <= 31, where every intermediate product (degree <= 62) stays word-sized.

Beyond ring arithmetic the module knows one structured object: x^n - 1
over GF(2) for odd n, whose irreducible factors come in reciprocal pairs.
`cyclo_profile` predicts the factor counts from multiplicative orders of 2
and `factor_xn_minus_1` produces the factors themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

F2Poly = int  # alias used in signatures; see module docstring

MAX_DEGREE = 63

NEG_INF = float("-inf")


def _check(a: int) -> int:
    if a < 0:
        raise ValueError("negative int is not a GF(2) polynomial")
    if a.bit_length() - 1 > MAX_DEGREE:
        raise ValueError(f"degree {a.bit_length() - 1} exceeds supported maximum {MAX_DEGREE}")
    return a


def degree(a: F2Poly):
    """Degree of a, or -inf for the zero polynomial."""
    return a.bit_length() - 1 if a else NEG_INF


def add(a: F2Poly, b: F2Poly) -> F2Poly:
    """Sum (= difference) of a and b."""
    return _check(a) ^ _check(b)


def mul(a: F2Poly, b: F2Poly) -> F2Poly:
    """Product of a and b."""
    _check(a), _check(b)
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def divmod_(a: F2Poly, b: F2Poly) -> tuple[F2Poly, F2Poly]:
    """Quotient and remainder of a by b, for nonzero b."""
    _check(a), _check(b)
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
    _check(a), _check(b)
    while b:
        a, b = b, rem(a, b)
    return a


def mulmod(a: F2Poly, b: F2Poly, m: F2Poly) -> F2Poly:
    """Product of a and b reduced modulo m."""
    return rem(mul(a, b), m)


def from_coeffs(coeffs) -> F2Poly:
    """Build a polynomial from a coefficient sequence, index i = coefficient of x^i."""
    a = 0
    for i, c in enumerate(coeffs):
        if c & 1:
            a |= 1 << i
    return _check(a)


def poly_str(a: F2Poly) -> str:
    """Human-readable form, highest power first; '0' for the zero polynomial."""
    if a == 0:
        return "0"
    terms = []
    for i in range(a.bit_length() - 1, -1, -1):
        if (a >> i) & 1:
            terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
    return " + ".join(terms)


def reciprocal(f: F2Poly) -> F2Poly:
    """Reverse the coefficients of f: x^deg(f) * f(1/x).

    Requires a nonzero constant term, which makes the map an involution.
    """
    _check(f)
    if f == 0 or not f & 1:
        raise ValueError("reciprocal requires a nonzero constant term")
    return int(bin(f)[2:][::-1], 2)


def is_irreducible(f: F2Poly) -> bool:
    """Deterministic irreducibility test (Rabin): f of degree >= 1."""
    _check(f)
    d = f.bit_length() - 1
    if d < 1:
        return False
    x = 2
    # x^(2^d) == x mod f, and x^(2^(d/q)) - x coprime to f for prime q | d
    t = x
    for _ in range(d):
        t = mulmod(t, t, f)
    if t != rem(x, f):
        return False
    for q in _prime_factors(d):
        t = x
        for _ in range(d // q):
            t = mulmod(t, t, f)
        if gcd(f, t ^ x) != 1:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def divisors(n: int) -> list[int]:
    """Positive divisors of n, ascending."""
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def euler_phi(k: int) -> int:
    """Euler's totient of k >= 1."""
    phi = k
    for p in _prime_factors(k):
        phi -= phi // p
    return phi


def order_of_two(k: int) -> int:
    """Multiplicative order of 2 modulo k, for odd k >= 1 (order 1 for k = 1)."""
    if k < 1 or k % 2 == 0:
        raise ValueError("k must be odd and positive")
    if k == 1:
        return 1
    d, t = 1, 2 % k
    while t != 1:
        t = (t * 2) % k
        d += 1
    return d


@dataclass(frozen=True)
class CycloProfile:
    """Factor-count profile of x^n - 1 over GF(2) for odd n.

    For each divisor k of n, `table[k] = (d_k, r_k, m_k)` where d_k is the
    order of 2 mod k and the 2*r_k - m_k irreducible factors carrying the
    primitive k-th roots of unity are classified as m_k self-reciprocal
    ones plus r_k - m_k reciprocal pairs, by the parity of d_k: all
    self-reciprocal when d_k is even, all paired when d_k is odd.  The
    divisor k = 1 contributes the factor x + 1, so d_1 = r_1 = m_1 = 1.

    The parity classification is the one the closed-form kernel counts are
    built on.  It is exact precisely when an even d_k implies
    2^(d_k/2) = -1 mod k; the first odd k where that implication fails are
    k = 15 and k = 21, where the two primitive-root factors actually form
    a reciprocal pair (`factor_xn_minus_1` reports the true flags).  The
    total count 2*r_k - m_k = phi(k)/d_k is unaffected.
    """

    n: int
    table: dict[int, tuple[int, int, int]]

    @property
    def total_factors(self) -> int:
        return sum(2 * r - m for (_, r, m) in self.table.values())

    @property
    def self_reciprocal_count(self) -> int:
        return sum(m for (_, _, m) in self.table.values())

    def __post_init__(self):
        total = 0
        for k, (d, r, m) in self.table.items():
            if k == 1:
                if (d, r, m) != (1, 1, 1):
                    raise ValueError("divisor 1 must carry (1, 1, 1)")
            elif (2 * r - m) * d != euler_phi(k):
                raise ValueError(f"inconsistent counts at divisor {k}")
            total += (2 * r - m) * d
        if total != self.n:
            raise ValueError("factor degrees do not sum to n")


def cyclo_profile(n: int) -> CycloProfile:
    """Predicted factor counts of x^n - 1 over GF(2), for odd n >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    table: dict[int, tuple[int, int, int]] = {1: (1, 1, 1)}
    for k in divisors(n):
        if k == 1:
            continue
        d = order_of_two(k)
        phi = euler_phi(k)
        if d % 2 == 1:
            table[k] = (d, phi // (2 * d), 0)
        else:
            table[k] = (d, phi // d, phi // d)
    return CycloProfile(n, table)


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
