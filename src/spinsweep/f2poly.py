"""The ring GF(2)[x]/(x^n - 1), n odd, its elements bit-packed into Python ints.

The polynomial c_d x^d + ... + c_0 is the integer with bit i equal to c_i,
so the zero polynomial is the int 0; an element of the ring has degree
< n, and no degree cap applies (the package reaches n = 31).  The module
imports no other module of the package.  `cyclic_mul` multiplies in the
ring, the product behind every circulant of the residue layer, and
`cyclic_inv` inverts by a power: for odd n, x^n - 1 is squarefree, so the
ring is a product of fields GF(2^|C|), one per coset C of 2 mod n, each
|C| divides k = ord_n(2), and so a unit u has u^(2^k - 1) = 1 and
u^-1 = u^(2^k - 2).  `cyclotomic_cosets` gives the degrees and reciprocal
pairing of the factors of x^n - 1 from those cosets; the tests factor
x^n - 1, on their own GF(2) product and division, as the reference.  The
one general polynomial gcd is `intpoly.gcd_mod`.
"""

from __future__ import annotations

F2Poly = int  # alias used in signatures; see module docstring


def cyclic_mul(a: F2Poly, b: F2Poly, n: int) -> F2Poly:
    """Product of a and b in GF(2)[x]/(x^n - 1), for a and b of degree < n."""
    if a >> n or b >> n:
        raise ValueError("cyclic factors must have degree < n")
    prod = 0
    while b:
        if b & 1:
            prod ^= a
        a <<= 1
        b >>= 1
    return (prod & ((1 << n) - 1)) ^ (prod >> n)


def cyclic_inv(a: F2Poly, n: int) -> F2Poly:
    """Inverse of a in GF(2)[x]/(x^n - 1), for a of degree < n and odd n.

    a^(2^k - 2) for k = ord_n(2), the product of a^(2^i) for 0 < i < k
    (module docstring).  ValueError for even n, where 2 has no order mod n,
    and unless gcd(a, x^n + 1) = 1: a non-unit a has a * a^(2^k - 2) != 1.
    """
    if a >> n:
        raise ValueError("cyclic factors must have degree < n")
    if n % 2 == 0:
        raise ValueError(f"n must be odd, got {n}: 2 has no order mod an even n")
    inv, square, power_of_2 = 1, a, 2 % n
    while power_of_2 != 1 % n:  # one factor a^(2^i) per step, until 2^i = 1 mod n
        square = cyclic_mul(square, square, n)
        inv = cyclic_mul(inv, square, n)
        power_of_2 = 2 * power_of_2 % n
    if cyclic_mul(a, inv, n) != 1:
        raise ValueError("not a unit of GF(2)[x]/(x^n - 1)")
    return inv


def from_coeffs(coeffs) -> F2Poly:
    """Build a polynomial from a coefficient sequence, index i = coefficient of x^i."""
    a = 0
    for i, c in enumerate(coeffs):
        if c & 1:
            a |= 1 << i
    return a


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
