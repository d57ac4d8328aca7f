"""Finite arithmetic in O/8, O/4 and O/2 for a cyclic field with 2 inert.

An element is one packed int.  `ResidueRing` is O/8, an
`intpoly.PackedRing` mod 8, whose docstring states the lane invariant,
and O/4 and O/2 are its masks: reduction mod 4 and mod 2 are ring maps.
A field has one ring (`build_family`).  It knows its reduced minimal
polynomial and the image s(theta) of theta under the Galois generator,
both reduced from a validated `numfield.FieldSpec`, and its normal basis
of O/2 with the pairing read off it.  Its one mutable value is its
oracle memo `square_multiples`.

Built on top of the ring:

  * the group of invertible classes mod 4 taken up to squares, a GF(2)
    vector space of dimension n presented in a normal basis y, tau(y), ...
    of O/2 (`m4_class_of`; `checks.class_rep` lifts a class back to O/8).
    A class is an `f2poly.F2Poly`, bit j its coordinate on tau^j(y); the
    generator acts as the product by x (`rot`), tables over the classes are
    tuples indexed by them, and only output prints one (`class_bits`);
  * the dyadic Hilbert symbol on those classes as a circulant GF(2) form
    (`CirculantA`, built once per ring as its `pairing`) and the star
    values and norm signs it gives (`star_table`), by linear algebra
    alone.  For a class 1 + 2x the symbol is (1 + 2x, 1 + 2z)_2 =
    (-1)^Tr(xz), so A is the trace Gram matrix of the normal basis,
    c_k = Tr(y tau^k(y)) mod 2, and since N(1 + 2x) = 1 + 2 Tr(x) mod 4,
    norm_sign(u) = (-1)^(c_0 |u|);
  * kernel counts from a bit-sliced enumeration of all 2^n vectors
    (`b_map`, `kernel_counts_via_B` against `CirculantA.h`).  u = L + H,
    L its low m = min(n, SCAN_BLOCK_BITS) bits and H the rest, so
    b(u) = b(L) + b(H) + X(L, H) with X(L, H) = L(x) H(1/x) + H(x) L(1/x).
    Plane invariant: for the current H, bit L of the 2^m-bit int P_j is
    coefficient j of b(L + H).  So b(u) = t for exactly the L where bit L
    of P_j is t_j for every j, and a few ORs and ANDs over the n planes and
    one popcount count them for all 2^m values of L at once.  Flipping bit k
    of a vector w changes b(w) by 1 + x^-k w(x) + x^k w(1/x): over the low
    bits this builds the planes of b(L) by doubling, and as H walks in
    Gray-code order it moves P_j by the part of X that one high bit adds,
    complemented where it flips coefficient j of b(H);
  * the reference the checks and tests compare against: the symbol as a
    brute-force solvability oracle mod 8 (`hilbert2`), two scans over the
    ring's squares (`ResidueRing.squares`).  It decides solvability of
    a*x^2 + b*y^2 = z^2 with at least one of x, y, z a unit.  Because 2
    is inert the dyadic completion is unramified, so a mod-8 solution with
    a unit coordinate lifts (Hensel) and any solution in the completion
    scales to a primitive integral one; the congruence condition is
    therefore exactly solvability at the place 2.  The ring remembers the
    products v*t (t a square) for every v its oracle has scanned with
    (`ResidueRing.square_multiples`, created on the first call, like
    `squares`): the memo belongs to the ring object, so every
    `build_family` starts with an empty one, the sweep never creates one,
    and nothing else caches them.  By the lane invariant a scan
    tests u + v t for a square with one addition and one `& mask`.

The normal-basis test, the class coordinates, the pairing, the star
values, b and h are one product, `f2poly.cyclic_mul` in GF(2)[x]/(x^n - 1),
of classes, which are polynomials there, and c, the trace Gram sequence of
y.  The orbit of y is a basis iff c is a unit there (the trace form of O/2
is non-degenerate); h = c^-1 = c^(2^k - 2), k the order of 2 mod n
(`f2poly.cyclic_inv`, once, when the `CirculantA` is built); if
u^(2^n-1) = 1 + 2w and t_j = Tr(w tau^j(y)), the class of u is b = h * t.
Further A v = c * v, b(u) = u(x) u(1/x), and the pairing of u with
rot(u, k, n) = x^k u is coefficient k of c * b(u).  So u is star-trivial
iff c * b(u) is 0 or 1, the invariant `density.s_pair` states.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce
from itertools import compress, product
from operator import and_, getitem, or_, xor

from . import f2poly
from .intpoly import PackedRing, gcd_mod, newton_power_sums, poly_rem_monic

Elem = int  # a packed residue: coefficient j in lane j of `ResidueRing.lane` bits


def rot(u: f2poly.F2Poly, k: int, n: int) -> f2poly.F2Poly:
    """The class u after k applications of the Galois generator: u * x^k, a cyclic shift of its n bits."""
    return (u << k % n | u >> n - k % n) & ((1 << n) - 1)


def class_bits(u: f2poly.F2Poly, n: int) -> str:
    """The class u as n characters 0/1, coordinate 0 first: its form in the CSV and the report."""
    return format(u, f"0{n}b")[::-1]


class ResidueRing(PackedRing):
    """O/8 on the power basis of the reduced minimal polynomial, with O/4 and O/2 as its masks.

    A `PackedRing` mod 8: the product, powers and conjugates of O/4 or O/2
    are those of O/8 followed by one AND with `mask4` (3 in every lane) or
    `low` (1 in every lane), and 1 + 2v lifts v from O/2 to O/8.  By the
    lane invariant the generator acts as the packed linear map
    a -> sum_j a_j tau(theta^j) (`apply_tau`), and a is a unit iff one AND
    with `low` is nonzero.  f and sigma come from a validated
    `numfield.FieldSpec`, the one place they are checked.  s stays a root
    of f with tau^n = 1 mod 8, and with 2 inert Gal(K/Q) maps
    isomorphically onto the Galois group of O/2, so tau has order n even
    mod 2.  The constructor fixes the normal-basis presentation: y, its
    orbit tau^k(y) in O/2 and their trace Gram as the `pairing`.
    """

    def __init__(self, f_int, sigma_int):
        super().__init__(f_int, 8)
        self.low = self.pack((1,) * self.n)  # 1 in every lane: the coefficients mod 2
        self.mask4 = self.pack((3,) * self.n)  # 3 in every lane: the coefficients mod 4
        self.sigma = self.pack(poly_rem_monic(tuple(sigma_int), tuple(f_int)))
        # tau(theta^j) = s^j mod (f, 8): the images of the basis under the generator
        self.tau_images = tuple(self.pow(self.sigma, j) for j in range(self.n))
        # Tr(theta^j) mod 2 in lane j, from the power sums of f
        self.trace = self.pack([t % 2 for t in newton_power_sums(self.f, self.n)])
        self.y, self.y_orbit, c = find_normal_basis(self)
        self.pairing = CirculantA(c)  # the trace Gram c_k = Tr(y tau^k(y)) mod 2 and its inverse h

    def elements(self, m: int):
        """Every element of O/m, m = 2, 4 or 8, in the lexicographic order of their coefficient tuples."""
        return map(self.pack, product(range(m), repeat=self.n))

    def is_unit(self, a: Elem) -> bool:
        # O/2 is a field, so a is a unit iff it is nonzero mod 2
        return a & self.low != 0

    def apply_tau(self, a: Elem, k: int = 1) -> Elem:
        """Image of a under the k-th power of the Galois generator: k rounds of a -> sum_j a_j tau(theta^j)."""
        for _ in range(k % self.n):
            r = 0
            for image in self.tau_images:
                r += (a & 7) * image
                a >>= self.lane
            a = r & self.mask
        return a

    @cached_property
    def squares(self) -> frozenset[Elem]:
        """Every square of O/8, from squaring each of its 8^n elements once."""
        return frozenset(self.mul(a, a) for a in self.elements(8))

    @cached_property
    def square_multiples(self) -> dict[Elem, tuple[Elem, ...]]:
        """v -> the products v*t, t in `squares`, for each v this ring's oracle has scanned with."""
        return {}


def _traces(ring: ResidueRing, x: Elem, ys) -> f2poly.F2Poly:
    """Tr(x y_j) mod 2 in bit j, for the j-th y of ys: the parity of the coefficients mod 2 that `trace` selects."""
    return sum(((ring.mul(x, y) & ring.trace).bit_count() & 1) << j for j, y in enumerate(ys))


def find_normal_basis(ring: ResidueRing) -> tuple[Elem, tuple[Elem, ...], tuple[int, ...]]:
    """Smallest y (lexicographic coefficient order) whose Galois orbit is a basis of O/2.

    Returns y, its orbit tau^k(y) (each `& low`, so in O/2) and its trace
    Gram sequence c_k = Tr(y tau^k(y)), each computed once.  O/2 is a field
    because FieldSpec's C4 makes f irreducible mod 2, so its trace form is
    non-degenerate and the orbit is a basis iff c is a unit of
    GF(2)[x]/(x^n - 1): `intpoly.gcd_mod` of x^n - 1 and c mod 2 is 1 (y = 0
    gives c = 0, and the gcd x^n - 1).
    """
    xn_minus_1 = (-1,) + (0,) * (ring.n - 1) + (1,)
    for cand in ring.elements(2):
        orbit = tuple(ring.apply_tau(cand, k) & ring.low for k in range(ring.n))
        gram = _traces(ring, cand, orbit)
        c = tuple(gram >> k & 1 for k in range(ring.n))
        if len(gcd_mod(xn_minus_1, c, 2)) == 1:
            return cand, orbit, c
    raise RuntimeError("internal error: no normal basis generator found")


def build_family(spec) -> ResidueRing:
    """The ring O/8 of a validated field spec, with its normal basis (only its f and sigma are read)."""
    return ResidueRing(spec.f, spec.sigma)


def m4_class_of(ring: ResidueRing, u: Elem) -> f2poly.F2Poly:
    """Class of a unit mod 4 in the square-class group, normal-basis coordinates.

    The (2^n - 1)-th power of u lands in 1 + 2*O/4 (it kills the odd-order
    component), and u^(2^n-1) = 1 + 2w determines the class: bit j of b is
    the coordinate of w on tau^j(y).  The map is a surjective
    homomorphism onto (Z/2)^n whose kernel is exactly the squares.  With
    t_j = Tr(w tau^j(y)) mod 2, t = c * b, so b = h * t.  The power is
    taken in O/8, whose lanes read mod 4 are those of O/4: bit 0 of each
    lane is 1 + 2w mod 2 and bit 1 is w.
    """
    if u != u & ring.mask4:
        raise ValueError("m4_class_of expects a packed element mod 4")
    if not ring.is_unit(u):
        raise ValueError("m4_class_of expects a unit")
    v = ring.pow(u, (1 << ring.n) - 1)
    assert v & ring.low == 1, "power did not land in 1 + 2O"
    t = _traces(ring, v >> 1 & ring.low, ring.y_orbit)  # w = (v - 1) / 2, read mod 2
    return f2poly.cyclic_mul(ring.pairing.h, t, ring.n)


def hilbert2(ring: ResidueRing, a: Elem, b: Elem) -> int:
    """Dyadic Hilbert symbol of two units, by brute force mod 8 (reference only).

    +1 iff a*x^2 + b*y^2 = z^2 has a solution mod 8 with at least one of
    x, y, z a unit; -1 otherwise.  A unit z forces a unit x or y, since x
    and y in the maximal ideal 2O would put z^2 in 4O.  Dividing by x^2
    (x a unit) leaves a + b*t = square with t = (y/x)^2 any square, and
    dividing by y^2 leaves b + a*t = square; so the symbol is +1 iff one of
    the two scans over the ring's squares finds such a t.
    """
    if not (ring.is_unit(a) and ring.is_unit(b)):
        raise ValueError("hilbert symbol requires unit arguments")
    squares, memo, mask = ring.squares, ring.square_multiples, ring.mask

    def scan(u: Elem, v: Elem) -> bool:
        """Is u + v*t a square for some square t?  Lanes add without carry; the mask reduces mod 8."""
        if v not in memo:
            memo[v] = tuple(ring.mul(v, t) for t in squares)
        return any((u + w) & mask in squares for w in memo[v])

    return 1 if scan(a, b) or scan(b, a) else -1


class StarTable(namedtuple("StarTable", "star norm_sign")):
    """Per-class values of the all-conjugates pairing and of the norm sign, each a tuple indexed by the class."""

    __slots__ = ()

    def __new__(cls, star: tuple[int, ...], norm_sign: tuple[int, ...]):
        self = super().__new__(cls, star, norm_sign)
        n = len(star).bit_length() - 1
        if norm_sign.count(1) != 1 << (n - 1):
            raise AssertionError("norm sign must split the classes in half")
        for u in range(1 << n):
            if star[u] != star[rot(u, 1, n)] or norm_sign[u] != norm_sign[rot(u, 1, n)]:
                raise AssertionError("star/norm values must be constant on Galois orbits")
        return self

    @property
    def ker_plus(self) -> int:
        """Classes with star +1 and norm sign +1."""
        return sum(1 for s, g in zip(self.star, self.norm_sign) if s == 1 and g == 1)

    @property
    def ker_minus(self) -> int:
        """Classes with star +1 and norm sign -1."""
        return sum(1 for s, g in zip(self.star, self.norm_sign) if s == 1 and g == -1)


def star_table(ring: ResidueRing) -> StarTable:
    """Star values and norm signs of all 2^n classes: star(u) = +1 iff c * b(u) is 0 or 1."""
    a = ring.pairing
    n = ring.n
    classes = range(1 << n)
    star = tuple(1 if f2poly.cyclic_mul(a.c_poly, b_map(u, n), n) in (0, 1) else -1 for u in classes)
    norm_sign = tuple(-1 if a.c[0] * u.bit_count() % 2 else 1 for u in classes)
    return StarTable(star, norm_sign)


class CirculantA:
    """Symmetric invertible circulant GF(2) matrix of the Hilbert pairing.

    Entry (i, j) is c[(i - j) mod n], so A v is the cyclic product c * v in
    GF(2)[x]/(x^n - 1) and the pairing of classes u, v is (-1)^(u^T A v).
    A is invertible iff c is a unit there; h = c^-1 solves A h = e_0, and
    h(x) = x^n h(1/x) mod x^n - 1 since c is.  c_poly is c packed once.
    """

    __slots__ = ("c", "c_poly", "h")

    def __init__(self, c: tuple[int, ...]):
        n = len(c)
        for i in range(1, n):
            if c[i] != c[n - i]:
                raise AssertionError("pairing matrix must be symmetric (upstream bug)")
        self.c = c
        self.c_poly = f2poly.from_coeffs(c)
        try:
            self.h = f2poly.cyclic_inv(self.c_poly, n)
        except ValueError:
            raise AssertionError("pairing matrix must be invertible (upstream bug)") from None

    def pairing(self, u: f2poly.F2Poly, v: f2poly.F2Poly) -> int:
        """(-1)^(u^T A v) for classes u and v."""
        return -1 if (u & f2poly.cyclic_mul(self.c_poly, v, len(self.c))).bit_count() & 1 else 1


def build_matrix_A(ring: ResidueRing) -> CirculantA:
    """Pairing matrix as the trace Gram matrix of the normal basis: c_k = Tr(y tau^k(y))."""
    return ring.pairing


# Low bits of u per block in `kernel_counts_via_B`: m = min(n, SCAN_BLOCK_BITS), so each
# plane is a 2^m-bit int and the Python loop runs 2^(n - m) times.  At n = 31, widths
# 12, 14, 16 took 6.5, 2.9, 1.8 s (2-vCPU Xeon, Python 3.11), and at n <= 17 all three
# take about 1 ms for the whole ladder.  14 is not the fastest at n = 31, but with it
# the walk over H runs from n = 15 on, where a direct scan of all 2^n images is cheap.
SCAN_BLOCK_BITS = 14


def b_map(u: int, n: int) -> f2poly.F2Poly:
    """Cyclic autocorrelation polynomial of a packed bit vector, in GF(2)[x]/(x^n - 1).

    Bit i of u is coordinate i.  Multiplies F_u(x) by its exponent-negated
    companion and folds mod x^n - 1; the zero vector maps to 0.
    """
    if not 0 <= u < 1 << n:
        raise ValueError("bit vector must have n bits")
    bwd = 0
    for i in range(n):
        if (u >> i) & 1:
            bwd |= 1 << ((n - i) % n)
    return f2poly.cyclic_mul(u, bwd, n)


def kernel_counts_via_B(a: CirculantA) -> tuple[int, int]:
    """Count bit vectors whose autocorrelation is 0 resp. the distinguished h.

    Bit-sliced (the module docstring states the plane invariant): lp[k] has
    bit L set iff L has bit k, for k < m.  The base planes (H = 0) come by
    doubling: setting bit l of every L < 2^l adds [j = 0] + L_(j+l) + L_(l-j)
    to coefficient j of b(L).  Flipping high bit i of H adds
    d = 1 + x^-i H(x) + x^i H(1/x) to b(H) and L_(i+j) + L_(i-j) to
    coefficient j of X(L, H), so plane j moves by that fixed plane or by its
    complement, as d_j is 0 or 1.  Then b(u) = 0 at the bits L where no
    plane is set, and b(u) = h where exactly the planes with h_j = 1 are.
    """
    n, h = len(a.c), a.h
    m = min(n, SCAN_BLOCK_BITS)
    lanes = 1 << m
    ones = (1 << lanes) - 1
    lp, p = [0] * n, [0] * n
    for l in range(m):  # the planes over L < 2^l, doubled to L < 2^(l + 1)
        w = 1 << l
        low = (1 << w) - 1
        for j in range(n):
            p[j] |= (p[j] ^ lp[(j + l) % n] ^ lp[(l - j) % n] ^ (low if j == 0 else 0)) << w
        for k in range(l):
            lp[k] |= lp[k] << w
        lp[l] = low << w
    # moves[i][j][d_j]: what plane j is XORed with when high bit i flips; d_j is a
    # character of format(d, digits)[::-1], d's bits from bit 0 up
    moves = {i: [{"0": x, "1": x ^ ones} for x in (lp[(i + j) % n] ^ lp[(i - j) % n] for j in range(n))]
             for i in range(m, n)}
    on = [h >> j & 1 for j in range(n)]
    off = [1 - s for s in on]
    digits = f"0{n}b"
    full = (1 << n) - 1
    count0 = count_h = 0
    u2 = rev2 = 0  # H and its reversal H(1/x), doubled (bit j and bit j + n)
    for g in range(1 << (n - m)):
        if g:  # step g flips high bit i = m + ctz(g)
            i = m + (g & -g).bit_length() - 1
            d = ((u2 >> i) ^ (rev2 >> n - i)) & full ^ 1
            p[:] = map(xor, p, map(getitem, moves[i], format(d, digits)[::-1]))
            u2 ^= 1 << i | 1 << i + n
            rev2 ^= 1 << n - i | 1 << 2 * n - i
        rest = reduce(or_, compress(p, off), 0)  # set where some plane with h_j = 0 is
        count0 += lanes - reduce(or_, compress(p, on), rest).bit_count()
        count_h += (reduce(and_, compress(p, on)) & ~rest).bit_count()
    return count0, count_h
