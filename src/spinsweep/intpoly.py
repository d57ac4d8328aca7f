"""Exact integer polynomial helpers shared by the residue and field modules.

Polynomials are tuples of Python ints, constant term first.  Everything is
exact; the only division performed is the fraction-free one inside the
Bareiss determinant, which gives norms (of multiplication matrices) and
the discriminant of f (of the trace form built from `newton_power_sums`).

All arithmetic in Z[x]/(f, m) for monic f lives here: `mul_mod` and
`pow_mod` reduce by f and then, when m is given, every coefficient into
[0, m).  The split test and root descent mod p (`numfield`) and the
residue rings O/2^k (`residue`) use them, and the root descent's gcd mod p
is Euclid on `poly_rem_monic`, each remainder made monic mod p before it
divides.  Apart from the numpy tables of the mod-8 oracle, no other module
multiplies or divides polynomials modulo f itself.
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
    """a^e in Z[x]/(f, m) by repeated squaring, f monic, e >= 0."""
    r = poly_rem_monic((1,), f)
    a = tuple(c % m for c in poly_rem_monic(a, f))
    while e:
        if e & 1:
            r = mul_mod(r, a, f, m)
        a = mul_mod(a, a, f, m)
        e >>= 1
    return r


def mult_matrix(a, f) -> list[list[int]]:
    """Matrix of multiplication by a on the power basis of Z[x]/(f), rows = images.

    Row j holds the coordinates of a * x^j mod f.
    """
    return [list(mul_mod(a, (0,) * j + (1,), f)) for j in range(len(f) - 1)]


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
