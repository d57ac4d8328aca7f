"""Exact integer polynomial helpers shared by the residue and field modules.

Polynomials are tuples of Python ints, constant term first.  Everything is
exact; the only division performed is the fraction-free one inside the
Bareiss determinant, which gives norms (of multiplication matrices) and
the discriminant of f (of the trace form built from `newton_power_sums`).

`PackedRing` is Z[x]/(f, m) for monic f, each residue one int (its
docstring states the lane invariant), and the package's one packed
product and only powering modulo f: the split test, its certificate and
the root descent mod p run in it, so does the test that f is
irreducible mod 2 (`numfield`), and `residue.ResidueRing` is its
subclass for O/8, which reads O/4 and O/2 off by masks.  `mul_mod` is
the generic product of coefficient tuples modulo f alone, and
`compose_mod` applies the Galois generator to field elements with it.  The tests hold the independent references
for the packed ring: `mul_mod` reduced mod m, square-and-multiply on it,
and `compose_mod`.  `gcd_mod` is the package's one polynomial gcd:
Euclid mod p on `poly_rem_monic`, each remainder made monic before it
divides.  `mult_matrix` builds each row from the one before by a shift
and one subtraction of a multiple of f, with no full product.

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


def mul_mod(a, b, f) -> tuple[int, ...]:
    """Product of a and b modulo monic f, padded to degree < deg f."""
    return poly_rem_monic(poly_mul(a, b), f)


class PackedRing:
    """Z[x]/(f, m) for monic f and m >= 1, each residue packed into one int.

    Coefficient j of a residue, in [0, m), sits in lane j of `lane` bits
    (Kronecker substitution x -> 2^lane; `pack`, `coeffs`).  A product
    (`mul`) is one int product, whose lane k < 2n - 1 is a sum of at most
    n lane-wise products, at most n (m - 1)^2.  Its n - 1 high lanes, each
    reduced mod m, fold back through the packed rows x^(n+k) mod (f, m)
    (`fold_rows`, built once), which adds at most (n - 1)(m - 1)^2 to a
    low lane, and a last reduction of the n low lanes gives the result.
    How a lane is reduced is chosen once, from m.  When m is a power of
    two, by AND with m - 1, and one AND with `mask` (m - 1 in every lane)
    reduces all n low lanes, so they are reduced before the fold as well
    and a lane holds at most (m - 1) + (n - 1)(m - 1)^2 <= n (m - 1)^2.
    Otherwise by taking it mod m, one lane at a time and so only the high
    lanes before the fold, and a low lane holds at most (2n - 1)(m - 1)^2.
    Lane invariant: `lane` is the bit length of that bound, so no lane
    carries into the next.  `pow` is left-to-right square-and-multiply on
    `mul`.
    """

    def __init__(self, f, m: int):
        if m < 1:
            raise ValueError(f"PackedRing needs a modulus m >= 1, got {m}")
        self.n = n = len(f) - 1
        self.mod = m
        self.f = tuple([c % m for c in f])
        self.and_reduces = m & (m - 1) == 0
        terms = n if self.and_reduces else 2 * n - 1  # lane-wise products a lane holds at most
        self.lane = lane = (terms * (m - 1) ** 2).bit_length() or 1
        self.slot = (1 << lane) - 1  # one lane of ones
        self.offsets = range((n - 1) * lane, -1, -lane)  # of the low lanes, top first
        self.mask = self.pack((m - 1,) * n)  # m - 1 in every lane
        # x^(n+k) mod (f, m), k < n - 1: where the high lanes of a product fold to
        self.fold_rows = tuple(map(self.pack, mult_matrix((0,) * n + (1,), f)[:-1]))

    def pack(self, a) -> int:
        """The coefficient sequence a (constant first, at most n terms), each reduced mod m, as one residue."""
        lane, m = self.lane, self.mod
        packed = 0
        for c in reversed(a):
            packed = packed << lane | c % m
        return packed

    def coeffs(self, a: int) -> tuple[int, ...]:
        """The n coefficients of the residue a, constant first, each reduced mod m: `pack` undone."""
        return tuple((a >> offset & self.slot) % self.mod for offset in reversed(self.offsets))

    def one(self) -> int:
        return 1 % self.mod

    def neg_one(self) -> int:
        return self.mod - 1

    def mul(self, a: int, b: int) -> int:
        """a b: one int product, its n - 1 high lanes folded back through `fold_rows` (the lane invariant)."""
        p = a * b
        lane, low_bits = self.lane, self.n * self.lane
        if self.and_reduces:
            mask, top = self.mask, self.mod - 1
            r = p & mask
            p >>= low_bits
            for row in self.fold_rows:
                r += (p & top) * row
                p >>= lane
            return r & mask
        slot, m = self.slot, self.mod
        r = p & (1 << low_bits) - 1
        p >>= low_bits
        for row in self.fold_rows:
            r += (p & slot) % m * row
            p >>= lane
        packed = 0
        for offset in self.offsets:
            packed = packed << lane | (r >> offset & slot) % m
        return packed

    def pow(self, a: int, e: int) -> int:
        """a^e for e >= 0, left-to-right square-and-multiply on `mul`."""
        if e < 0:
            raise ValueError(f"pow needs an exponent e >= 0, got {e}")
        if e == 0:
            return self.one()
        r = a
        for bit in bin(e)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, a)
        return r


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
