"""Polynomial arithmetic over GF(2), bit-packed into Python ints.

The polynomial c_d x^d + ... + c_1 x + c_0 is stored as the integer with
bit i equal to c_i.  There are no leading zeros by construction, so the
stored form is always normalized; the zero polynomial is the int 0.

Inputs are capped at degree 63: the module serves cyclic fields of degree
n <= 31, where every intermediate product (degree <= 62) stays word-sized.

The module serves one ring, GF(2)[x]/(x^n - 1) for odd n, and imports no
other module of the package.  `cyclic_mul` multiplies there, the product
behind every circulant the residue layer uses, and `cyclic_inv` inverts
there; `cyclotomic_cosets` gives the degrees and reciprocal pairing of
the factors of x^n - 1 from the cosets of 2 mod n.  The factors are not
built here: the tests factor x^n - 1 as the independent reference for
the cosets.  The one general polynomial gcd is `intpoly.gcd_mod`.
"""

from __future__ import annotations

F2Poly = int  # alias used in signatures; see module docstring

MAX_DEGREE = 63


def _check(a: int) -> int:
    if a < 0:
        raise ValueError("negative int is not a GF(2) polynomial")
    if a.bit_length() - 1 > MAX_DEGREE:
        raise ValueError(f"degree {a.bit_length() - 1} exceeds supported maximum {MAX_DEGREE}")
    return a


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


def cyclic_mul(a: F2Poly, b: F2Poly, n: int) -> F2Poly:
    """Product of a and b in GF(2)[x]/(x^n - 1), for a and b of degree < n."""
    if a >> n or b >> n:
        raise ValueError("cyclic factors must have degree < n")
    prod = mul(a, b)
    return (prod & ((1 << n) - 1)) ^ (prod >> n)


def cyclic_inv(a: F2Poly, n: int) -> F2Poly:
    """Inverse of a in GF(2)[x]/(x^n - 1), for a of degree < n.

    ValueError unless gcd(a, x^n + 1) = 1.  Extended Euclid against x^n + 1
    with the invariant s * a = r mod x^n + 1 on both rows; the row reaching
    r = 1 has deg s < n.
    """
    if a >> n:
        raise ValueError("cyclic factors must have degree < n")
    r0, r1, s0, s1 = (1 << n) | 1, a, 0, 1
    while r1:
        q, r = divmod_(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, s0 ^ mul(q, s1)
    if r0 != 1:
        raise ValueError("not a unit of GF(2)[x]/(x^n - 1)")
    return s0


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


def cyclotomic_cosets(n: int) -> list[frozenset[int]]:
    """Cosets {k, 2k, 4k, ...} of 2 modulo odd n >= 3 on the nonzero residues, by least element.

    Coset C holds the exponents of the roots zeta^c of one irreducible factor
    of x^n - 1 over GF(2) other than x + 1, of degree |C| and self-reciprocal
    iff -C = C; the other factors come in reciprocal pairs {C, -C}.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")
    cosets, seen = [], set()
    for k in range(1, n):  # doubling from each unseen k visits every residue once
        if k not in seen:
            coset = [k]
            while (c := 2 * coset[-1] % n) != k:
                coset.append(c)
            seen.update(coset)
            cosets.append(frozenset(coset))
    return cosets
