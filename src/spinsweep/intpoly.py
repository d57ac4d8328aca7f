"""Exact integer polynomial helpers shared by the residue and field modules.

Polynomials are tuples of Python ints, constant term first.  Everything is
exact; the only division performed is the fraction-free one inside the
Bareiss determinant, which gives norms (of multiplication matrices) and
the discriminant of f (of the trace form built from `newton_power_sums`).

`mul_mod` and `pow_mod` multiply in Z[x]/(f, m) for monic f: they reduce
by f and then, when m is given, every coefficient into [0, m).  The split
test, the root descent mod p and the test that f is irreducible mod 2
(`numfield`) use them, and `compose_mod` applies the Galois generator to
field elements there.  The one other product modulo f is that of the
residue rings O/2^k (`residue.ResidueRing.mul`), on elements packed into
one int each; it reads from here only the rows x^(n+k) mod f
(`mult_matrix`), and the tests keep `mul_mod`, `pow_mod` and
`compose_mod` as its independent references.  `gcd_mod` is the
package's one polynomial gcd: Euclid mod p on `poly_rem_monic`, each
remainder made monic before it divides.  `mult_matrix` builds each row
from the one before by a shift and one subtraction of a multiple of f,
with no full product.

Packing invariant of `pow_mod`: a residue mod (f, m) is one int holding its
n = deg f coefficients, each in [0, m), in slots of B = 2 bits(m) +
bits(2n) + 1 bits (Kronecker substitution x -> 2^B).  A product of two
such ints has 2n - 1 slots of at most n (m - 1)^2 each; folding the high
slots back through the packed rows x^(n+k) mod (f, m), each high slot
first taken mod m, adds at most (n - 1)(m - 1)^2 to a low slot.  Every
slot stays below 2n m^2 < 2^B, so no carry crosses a slot, and taking
each low slot mod m restores the invariant.  `mul_mod` stays the generic
product for everything else.

The module also holds the package's one integer factoriser,
`prime_factors`: Rabin's test (`numfield.FieldSpec`) factors the degree
with it, and `numfield.conductor_multiple` the discriminant.
"""

from __future__ import annotations


def poly_mul(a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def poly_rem_monic(a, f) -> tuple[int, ...]:
    """Remainder of a modulo monic f, exact over the integers."""
    assert f[-1] == 1, "modulus must be monic"
    n = len(f) - 1
    a = list(a)
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(n):
                a[i - n + j] -= c * f[j]
    return tuple(a[:n]) + (0,) * max(0, n - len(a))


def gcd_mod(a, b, p) -> tuple[int, ...]:
    """Monic gcd mod p of monic a and any b, as a tuple reduced mod p (a reduced when b = 0 mod p).

    Euclid on `poly_rem_monic`, each remainder made monic.
    """
    a = [c % p for c in a]
    while any(c % p for c in b):
        b = [c % p for c in b]
        while b[-1] == 0:
            b.pop()
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, poly_rem_monic(a, b)
    return tuple(a)


def compose_mod(g, s, f) -> tuple[int, ...]:
    """g(s(x)) reduced modulo monic f (Horner in the quotient ring)."""
    acc: tuple[int, ...] = ()
    for c in reversed(g):
        acc = mul_mod(acc, s, f)
        acc = (acc[0] + c,) + acc[1:]
    return acc


def mul_mod(a, b, f, m: int = 0) -> tuple[int, ...]:
    """Product of a and b modulo monic f (and modulo m when m > 0), padded to degree < deg f."""
    r = poly_rem_monic(poly_mul(a, b), f)
    return tuple([c % m for c in r]) if m else r


def pow_mod(a, e: int, f, m: int) -> tuple[int, ...]:
    """a^e in Z[x]/(f, m), coefficients in [0, m), for monic f, e >= 0 and m >= 1.

    ValueError for e < 0 or m < 1.  Left-to-right binary on Kronecker-packed
    residues (the packing invariant in the module docstring): each square,
    and each product by a at a set bit of e, is one int product, folded
    back to n slots of B = 2 bits(m) + bits(2n) + 1 bits through the packed
    rows x^(n+k) mod (f, m), k < n - 1, built once per call.  Every slot
    stays below 2n m^2 < 2^B, so no carry crosses a slot.
    """
    if e < 0:
        raise ValueError(f"pow_mod needs an exponent e >= 0, got {e}")
    if m < 1:
        raise ValueError(f"pow_mod needs a modulus m >= 1, got {m}")
    if e == 0:
        return tuple(c % m for c in poly_rem_monic((1,), f))
    n = len(f) - 1
    width = 2 * m.bit_length() + (2 * n).bit_length() + 1
    slot = (1 << width) - 1
    low = (1 << n * width) - 1
    offsets = range((n - 1) * width, -1, -width)  # of the low slots, top first

    def pack(coeffs):
        packed = 0
        for c in reversed(coeffs):
            packed = packed << width | c % m
        return packed

    # x^(n+k) mod (f, m), k < n - 1: where the high slots of a product fold to
    rows = [pack(row) for row in mult_matrix((0,) * n + (1,), f)[:-1]]

    def fold(prod):
        r = prod & low
        prod >>= n * width
        for row in rows:
            r += (prod & slot) % m * row
            prod >>= width
        packed = 0
        for offset in offsets:
            packed = packed << width | (r >> offset & slot) % m
        return packed

    base = pack(poly_rem_monic(a, f))
    r = base
    for bit in bin(e)[3:]:
        r = fold(r * r)
        if bit == "1":
            r = fold(base * r)
    return tuple(r >> offset & slot for offset in reversed(offsets))


def mult_matrix(a, f) -> list[list[int]]:
    """Matrix of multiplication by a on the power basis of Z[x]/(f), rows = images.

    Row j holds the coordinates of a * x^j mod f.  Row 0 is a mod f, and
    row j + 1 is row j times x: its coordinates shifted up one degree, less
    top * f for the coefficient top that the shift carries to x^n.
    """
    n = len(f) - 1
    row = list(poly_rem_monic(a, f))
    rows = [row]
    for _ in range(n - 1):
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [c - top * fc for c, fc in zip(row, f)]
        rows.append(row)
    return rows


def det_bareiss(m) -> int:
    """Exact determinant of a square matrix of integer rows (fraction-free Gaussian elimination)."""
    a = [list(row) for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def norm_mod(a, f) -> int:
    """Field norm of a mod monic irreducible f: det of the multiplication matrix."""
    return det_bareiss(mult_matrix(a, f))


def poly_derivative(f) -> tuple[int, ...]:
    return tuple(i * c for i, c in enumerate(f))[1:] or (0,)


def newton_power_sums(f, count: int) -> list[int]:
    """Power sums p_0..p_{count-1} of the roots of monic f (Newton's identities).

    Recurrence: p_k + sum_{i=1}^{min(k-1,n)} a_{n-i} p_{k-i} + [k<=n] k a_{n-k} = 0.
    """
    n = len(f) - 1
    p = [n]
    for k in range(1, count):
        acc = 0
        for i in range(1, min(k - 1, n) + 1):
            acc += f[n - i] * p[k - i]
        if k <= n:
            acc += k * f[n - k]
        p.append(-acc)
    return p


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division (empty for n = 1).

    Each divisor d found is prime, since every smaller prime is already
    divided out; what is left once d * d exceeds it is 1 or a prime.
    """
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
