"""Finite arithmetic in O/2^k (k = 1, 2, 3) for a cyclic field with 2 inert.

Elements are tuples of ints of length n: power-basis coordinates modulo
2^k.  A ring knows its reduced minimal polynomial and the matrices of the
Galois generator and its powers; all values are immutable and shareable.
Products and powers are `intpoly.mul_mod`/`pow_mod` modulo (f, 2^k); the
only reduction by f written here is the numpy matrix of the mod-8 oracle,
the one user of numpy, which imports it when it first builds its tables.

Built on top of the rings:

  * the group of invertible classes mod 4 taken up to squares, a GF(2)
    vector space of dimension n presented in a normal basis y, tau(y), ...
    of O/2 (`m4_class_of`, `class_rep`);
  * the dyadic Hilbert symbol on those classes as a circulant GF(2) form
    (`build_matrix_A`) and the star values and norm signs it gives
    (`star_table`), by linear algebra alone.  For a class 1 + 2x the
    symbol is (1 + 2x, 1 + 2z)_2 = (-1)^Tr(xz), so A is the trace Gram
    matrix of the normal basis, c_k = Tr(y tau^k(y)) mod 2, and since
    N(1 + 2x) = 1 + 2 Tr(x) mod 4, norm_sign(u) = (-1)^(c_0 |u|);
  * kernel counts from a cyclic-convolution enumeration (`b_map` /
    `h_poly` / `kernel_counts_via_B`);
  * the reference the checks and tests compare against: the symbol as a
    brute-force solvability oracle mod 8 (`hilbert2`), practical for
    n <= 5.  It decides solvability of a*x^2 + b*y^2 = z^2 with at least
    one of x, y, z a unit.  Because 2 is inert the dyadic completion is
    unramified, so a mod-8 solution with a unit coordinate lifts (Hensel)
    and any solution in the completion scales to a primitive integral one;
    the congruence condition is therefore exactly solvability at the place 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from . import f2poly
from .intpoly import compose_mod, mul_mod, newton_power_sums, poly_rem_monic, pow_mod

Elem = tuple[int, ...]
M4Class = tuple[int, ...]


class RingBuildError(ValueError):
    """Spec data does not define a valid residue ring at the requested level."""


def rot(bits: M4Class, k: int) -> M4Class:
    """Coordinates of a class after k applications of the Galois generator."""
    n = len(bits)
    return tuple(bits[(j - k) % n] for j in range(n))


class ResidueRing:
    """O/2^level presented on the power basis of the reduced minimal polynomial."""

    def __init__(self, n: int, level: int, f_int, sigma_int):
        if level not in (1, 2, 3):
            raise RingBuildError("level must be 1, 2 or 3")
        self.n = n
        self.level = level
        self.mod = 1 << level
        m = self.mod
        self.f = tuple(c % m for c in f_int)
        if len(self.f) != n + 1 or f_int[-1] != 1:
            raise RingBuildError("minimal polynomial must be monic of degree n")
        fbar = f2poly.from_coeffs(c % 2 for c in f_int)
        if not f2poly.is_irreducible(fbar):
            raise RingBuildError("minimal polynomial is reducible mod 2 (2 not inert)")
        if any(c % m for c in compose_mod(self.f, tuple(sigma_int), self.f)):
            raise RingBuildError("sigma polynomial is not a root of f modulo 2^level")
        sigma = tuple(c % m for c in poly_rem_monic(tuple(sigma_int), tuple(f_int)))
        self._sigma_mats = self._build_sigma_mats(sigma)
        self._bulk_cache = None

    # -- scalar element arithmetic -------------------------------------

    def one(self) -> Elem:
        return (1,) + (0,) * (self.n - 1)

    def neg_one(self) -> Elem:
        return (self.mod - 1,) + (0,) * (self.n - 1)

    def mul(self, a: Elem, b: Elem) -> Elem:
        return mul_mod(a, b, self.f, self.mod)

    def pow(self, a: Elem, e: int) -> Elem:
        return pow_mod(a, e, self.f, self.mod)

    def is_unit(self, a: Elem) -> bool:
        # O/2 is a field, so a is a unit iff it is nonzero mod 2
        return any(c & 1 for c in a)

    def apply_tau(self, a: Elem, k: int = 1) -> Elem:
        """Image of a under the k-th power of the Galois generator."""
        return self._mat_apply(self._sigma_mats[k % self.n], a)

    def _build_sigma_mats(self, sigma: Elem):
        n = self.n
        # row i of the generator matrix: coordinates of s(theta)^i
        base = [self.pow(sigma, i) for i in range(n)]
        ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        mats = [ident]
        for _ in range(n - 1):
            prev = mats[-1]
            mats.append(tuple(self._mat_apply(base, row) for row in prev))
        if tuple(base) == ident:
            raise RingBuildError("sigma polynomial acts trivially modulo 2^level")
        if any(self._mat_apply(base, mats[-1][i]) != ident[i] for i in range(n)):
            raise RingBuildError("n-fold composition of sigma is not the identity")
        return tuple(mats)

    def _mat_apply(self, rows, a: Elem) -> Elem:
        n, m = self.n, self.mod
        out = [0] * n
        for i, ai in enumerate(a):
            if ai:
                row = rows[i]
                for j in range(n):
                    out[j] += ai * row[j]
        return tuple(c % m for c in out)

    # -- vectorized index arithmetic (used by the mod-8 oracle) ---------

    def _bulk(self):
        if self._bulk_cache is None:
            self._bulk_cache = _BulkTables(self)
        return self._bulk_cache

    def elem_of(self, idx: int) -> Elem:
        out = []
        for _ in range(self.n):
            idx, c = divmod(idx, self.mod)
            out.append(c)
        return tuple(out)


class _BulkTables:
    """numpy tables over all mod^n elements of a ring: squares and unit masks."""

    def __init__(self, ring: ResidueRing):
        import numpy as np  # in _BulkTables only, so the sweep never loads numpy

        n, m = ring.n, ring.mod
        count = m**n
        self.ring = ring
        self.place = m ** np.arange(n, dtype=np.int64)
        idx = np.arange(count, dtype=np.int64)
        coeffs = (idx[:, None] // self.place[None, :]) % m
        # row t: x^(n+t) mod (f, m), which replaces the coefficient of x^(n+t)
        self.red = np.array([pow_mod((0, 1), n + t, ring.f, m) for t in range(n - 1)], dtype=np.int64)
        sq = self._square_all(coeffs)
        unit = (coeffs % 2).any(axis=1)
        self.is_sq_all = np.zeros(count, dtype=bool)
        self.is_sq_all[sq] = True
        self.is_sq_unit = np.zeros(count, dtype=bool)
        self.is_sq_unit[sq[unit]] = True
        self.sq_all = np.unique(sq)
        self.sq_unit = np.unique(sq[unit])

    def _square_all(self, coeffs):
        import numpy as np

        n, m = self.ring.n, self.ring.mod
        prod = np.zeros((coeffs.shape[0], 2 * n - 1), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                prod[:, i + j] += coeffs[:, i] * coeffs[:, j]
        low = prod[:, :n] + prod[:, n:] @ self.red
        return (low % m) @ self.place

    def _decomp(self, idx):
        return (idx[..., None] // self.place) % self.ring.mod

    def scalar_mul(self, a: Elem, idx):
        import numpy as np

        n, m = self.ring.n, self.ring.mod
        coeffs = self._decomp(idx)
        acc = np.zeros(idx.shape + (2 * n - 1,), dtype=np.int64)
        for i, ai in enumerate(a):
            if ai:
                acc[..., i : i + n] += ai * coeffs
        low = acc[..., :n] + acc[..., n:] @ self.red
        return (low % m) @ self.place

    def pair_add(self, idx_a, idx_b):
        m = self.ring.mod
        ca = self._decomp(idx_a)
        cb = self._decomp(idx_b)
        return ((ca[:, None, :] + cb[None, :, :]) % m) @ self.place


def build_ring(spec, level: int) -> ResidueRing:
    """Residue ring O/2^level from a validated field description."""
    return ResidueRing(spec.n, level, spec.f, spec.sigma)


def find_normal_basis(ring: ResidueRing) -> Elem:
    """Smallest y (lexicographic coefficient order) whose Galois orbit is a basis of O/2."""
    if ring.level != 1:
        raise ValueError("normal basis search runs at modulus level 1")
    n = ring.n
    for cand in product((0, 1), repeat=n):
        if not any(cand):
            continue
        orbit = [cand]
        for _ in range(n - 1):
            orbit.append(ring.apply_tau(orbit[-1]))
        try:
            _GF2Solver([_bits_to_int(v) for v in orbit])
        except ValueError:
            continue
        return cand
    raise RuntimeError("internal error: no normal basis generator found")


def _bits_to_int(bits) -> int:
    out = 0
    for j, b in enumerate(bits):
        if b & 1:
            out |= 1 << j
    return out


class _GF2Solver:
    """Solve x . rows = target over GF(2), rows fixed (bitmask vectors)."""

    def __init__(self, rows):
        self.n = len(rows)
        elim = []  # (pivot, row, selector)
        for i, row in enumerate(rows):
            sel = 1 << i
            for pivot, prow, psel in elim:
                if (row >> pivot) & 1:
                    row ^= prow
                    sel ^= psel
            if row == 0:
                raise ValueError("rows are linearly dependent")
            pivot = row.bit_length() - 1
            elim.append((pivot, row, sel))
        self._elim = elim

    def solve(self, target: int):
        sel = 0
        for pivot, row, psel in self._elim:
            if (target >> pivot) & 1:
                target ^= row
                sel ^= psel
        if target:
            raise ValueError("target outside the span")
        return tuple((sel >> i) & 1 for i in range(self.n))


@dataclass
class RingFamily:
    """Rings at levels 1..3 over one field, with a fixed normal-basis presentation."""

    spec: object
    rings: dict[int, ResidueRing]
    y: Elem
    y_orbit: tuple[Elem, ...]
    basis_lifts: tuple[Elem, ...]  # 1 + 2*lift(y^(tau^i)) at level 3
    _solver: _GF2Solver = field(repr=False)

    @property
    def n(self) -> int:
        return self.rings[1].n

    def level(self, k: int) -> ResidueRing:
        return self.rings[k]


def build_family(spec) -> RingFamily:
    rings = {k: build_ring(spec, k) for k in (1, 2, 3)}
    r1 = rings[1]
    y = find_normal_basis(r1)
    orbit = [y]
    for _ in range(r1.n - 1):
        orbit.append(r1.apply_tau(orbit[-1]))
    lifts = []
    for v in orbit:
        lift = [2 * c for c in v]
        lift[0] += 1
        lifts.append(tuple(lift))
    solver = _GF2Solver([_bits_to_int(v) for v in orbit])
    return RingFamily(spec, rings, y, tuple(orbit), tuple(lifts), solver)


def m4_class_of(family: RingFamily, u: Elem) -> M4Class:
    """Class of a unit mod 4 in the square-class group, normal-basis coordinates.

    The (2^n - 1)-th power of u lands in 1 + 2*O/4 (it kills the odd-order
    component), and u^(2^n-1) = 1 + 2w determines the class: the bits are
    the coordinates of w in the normal basis.  The map is a surjective
    homomorphism onto (Z/2)^n whose kernel is exactly the squares.
    """
    r2 = family.level(2)
    if r2.mod != 4 or len(u) != r2.n:
        raise ValueError("m4_class_of expects a length-n element mod 4")
    if not r2.is_unit(u):
        raise ValueError("m4_class_of expects a unit")
    v = r2.pow(u, (1 << r2.n) - 1)
    w_bits = 0
    for j, c in enumerate(v):
        twice = c - (1 if j == 0 else 0)
        assert twice % 2 == 0, "power did not land in 1 + 2O"
        if (twice // 2) & 1:
            w_bits |= 1 << j
    return family._solver.solve(w_bits)


def class_rep(family: RingFamily, bits: M4Class) -> Elem:
    """Distinguished mod-8 representative: product of basis factors picked by bits."""
    r3 = family.level(3)
    out = r3.one()
    for b, lift in zip(bits, family.basis_lifts):
        if b:
            out = r3.mul(out, lift)
    return out


def hilbert2(ring: ResidueRing, a: Elem, b: Elem) -> int:
    """Dyadic Hilbert symbol of two units, by brute force mod 8 (reference only).

    +1 iff a*x^2 + b*y^2 = z^2 has a solution mod 8 with at least one of
    x, y, z a unit; -1 otherwise.  Organized as membership tests between
    shifted square sets, so each call is a few dense numpy passes.
    """
    if ring.level != 3:
        raise ValueError("hilbert symbol is evaluated mod 8 (level 3)")
    if not (ring.is_unit(a) and ring.is_unit(b)):
        raise ValueError("hilbert symbol requires unit arguments")
    bk = ring._bulk()
    a_unit = bk.scalar_mul(a, bk.sq_unit)
    a_all = bk.scalar_mul(a, bk.sq_all)
    b_unit = bk.scalar_mul(b, bk.sq_unit)
    b_all = bk.scalar_mul(b, bk.sq_all)
    if bk.is_sq_all[bk.pair_add(a_unit, b_all)].any():
        return 1
    if bk.is_sq_all[bk.pair_add(a_all, b_unit)].any():
        return 1
    if bk.is_sq_unit[bk.pair_add(a_all, b_all)].any():
        return 1
    return -1


@dataclass(frozen=True)
class StarTable:
    """Per-class values of the all-conjugates pairing and of the norm sign."""

    star: dict[M4Class, int]
    norm_sign: dict[M4Class, int]

    def __post_init__(self):
        n = len(next(iter(self.star)))
        plus = sum(1 for v in self.norm_sign.values() if v == 1)
        if plus != 1 << (n - 1):
            raise AssertionError("norm sign must split the classes in half")
        for c in self.star:
            if self.star[c] != self.star[rot(c, 1)] or self.norm_sign[c] != self.norm_sign[rot(c, 1)]:
                raise AssertionError("star/norm values must be constant on Galois orbits")

    @property
    def ker_plus(self) -> int:
        """Classes with star +1 and norm sign +1."""
        return sum(1 for c, s in self.star.items() if s == 1 and self.norm_sign[c] == 1)

    @property
    def ker_minus(self) -> int:
        """Classes with star +1 and norm sign -1."""
        return sum(1 for c, s in self.star.items() if s == 1 and self.norm_sign[c] == -1)


def star_table(family: RingFamily) -> StarTable:
    """Star values and norm signs of all 2^n classes, from the trace form."""
    a = build_matrix_A(family)
    n = family.n
    star: dict[M4Class, int] = {}
    norm_sign: dict[M4Class, int] = {}
    for bits in product((0, 1), repeat=n):
        trivial = not any(a.pairing_bit(bits, rot(bits, k)) for k in range(1, n))
        star[bits] = 1 if trivial else -1
        norm_sign[bits] = -1 if a.c[0] * sum(bits) % 2 else 1
    return StarTable(star, norm_sign)


@dataclass(frozen=True)
class CirculantA:
    """Symmetric invertible circulant GF(2) matrix of the Hilbert pairing.

    Entry (i, j) is c[(i - j) mod n]; the pairing of classes u, v is
    (-1)^(u^T A v).
    """

    c: tuple[int, ...]

    def __post_init__(self):
        n = len(self.c)
        for i in range(1, n):
            if self.c[i] != self.c[n - i]:
                raise AssertionError("pairing matrix must be symmetric (upstream bug)")
        try:
            _GF2Solver([_bits_to_int(row) for row in self.rows()])
        except ValueError:
            raise AssertionError("pairing matrix must be invertible (upstream bug)") from None

    def rows(self):
        n = len(self.c)
        return [tuple(self.c[(i - j) % n] for j in range(n)) for i in range(n)]

    def pairing_bit(self, u, v) -> int:
        n = len(self.c)
        acc = 0
        for i, ui in enumerate(u):
            if ui:
                for j, vj in enumerate(v):
                    if vj:
                        acc ^= self.c[(i - j) % n]
        return acc

    def pairing(self, u, v) -> int:
        return -1 if self.pairing_bit(u, v) else 1


def build_matrix_A(family: RingFamily) -> CirculantA:
    """Pairing matrix as the trace Gram matrix of the normal basis: c_k = Tr(y tau^k(y))."""
    r1 = family.level(1)
    trace = newton_power_sums(r1.f, r1.n)  # Tr(theta^j), exact mod 2
    c = tuple(
        sum(x * t for x, t in zip(r1.mul(family.y, yk), trace)) % 2 for yk in family.y_orbit
    )
    return CirculantA(c)


def b_map(u, n: int) -> f2poly.F2Poly:
    """Cyclic autocorrelation polynomial of a bit vector, in GF(2)[x]/(x^n - 1).

    Multiplies F_u(x) by its exponent-negated companion and folds mod
    x^n - 1; the zero vector maps to 0.
    """
    if len(u) != n:
        raise ValueError("bit vector length must equal n")
    fwd = _bits_to_int(u)
    bwd = 0
    for i, b in enumerate(u):
        if b & 1:
            bwd |= 1 << ((n - i) % n)
    prod = f2poly.mul(fwd, bwd)
    return (prod & ((1 << n) - 1)) ^ (prod >> n)


def h_poly(a: CirculantA) -> f2poly.F2Poly:
    """Solve A h = e_0 over GF(2); the result satisfies h(x) = x^n h(1/x) mod x^n - 1."""
    solver = _GF2Solver([_bits_to_int(row) for row in a.rows()])
    # solver solves x . rows = target; A is symmetric so rows = columns
    bits = solver.solve(1)
    return _bits_to_int(bits)


def kernel_counts_via_B(a: CirculantA) -> tuple[int, int]:
    """Count bit vectors whose autocorrelation is 0 resp. the distinguished h."""
    n = len(a.c)
    h = h_poly(a)
    count0 = count_h = 0
    for mask in range(1 << n):
        u = tuple((mask >> i) & 1 for i in range(n))
        img = b_map(u, n)
        if img == 0:
            count0 += 1
        elif img == h:
            count_h += 1
    return count0, count_h
