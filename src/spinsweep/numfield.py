"""Exact arithmetic in a configured cyclic totally real field.

A field is described by a line-oriented config (see `load_spec`) giving the
degree, monic minimal polynomial f of a generator theta, a polynomial s
with sigma(theta) = s(theta) generating the Galois group, the (odd) class
number, and a system of units realizing all sign patterns together with
-1.  Loading validates everything and rejects violations with a named
condition code.

Algebraic integers are tuples of ints: power-basis coordinates.  All
parity-critical computations (norms, residue symbols, embedding signs)
are exact; floating point appears only as a search-radius heuristic in
the generator search.

Degree-one primes are pairs (p, a) with f(a) = 0 mod p, standing for the
ideal (p, theta - a).  `generator_of_power` produces a totally positive
generator of the h-th power of such an ideal by enumerating short vectors
of the ideal lattice under the trace form and then correcting the sign
pattern with a unit; `legendre_deg1` of that generator at a conjugate
prime from `conjugate_chain` is a spin.  The sweep's `classify_prime` is
the one place that composes these into spins and a mod-4 class.

Integral-LLL invariant: `_lll_reduce` carries the Gram-Schmidt data as
integers (Cohen, GTM 138, Alg. 2.6.7): d[i], the Gram determinant of the
first i rows, and lam[i][j] = d[j+1] mu[i][j].  Both stay integral
through size reduction and swaps, so every division is exact and the
reduction takes the same steps as LLL over the rationals; the search
reads mu and the squared lengths as correctly rounded int quotients.
Dyadic-bracket invariant: a root bracket is the integer triple (lo, hi, e)
for [lo/2^e, hi/2^e], and `_eval_interval` returns 2^(e deg) times the
rational interval-Horner bounds, so sign queries and bisection (the sign
of f at a midpoint, as a one-point interval) read exact signs from
integers alone.
First-hit rule: `_enumerate_short` yields candidates lazily in a fixed
depth-first order, one per +- pair, and the search stops at the first of
norm p^h.

Ideal-power invariant: for p not dividing disc_f, P^h meets Z[theta] in
exactly the kernel of Z[theta] -> Z/p^h, theta -> a_h, where a_h is the
Hensel lift of a (`_lift_root`).  So the lattice of P^h has the basis
p^h, theta^j (theta - a_h) (j < n - 1), and g lies in P^h iff
g(a_h) = 0 mod p^h; the search's membership self-check is that one
evaluation.  Every product and remainder modulo a monic polynomial, mod p
or exact, is `intpoly`'s; the root descent's gcd mod p is Euclid on
`poly_rem_monic`, with each remainder made monic.

Sigma-orbit invariant: the config guarantees f(s(x)) = 0 mod f and that
sigma has order n, so for p not dividing disc_f the map b -> s(b) mod p
permutes the roots of f mod p without fixed points of any power below n.
A split p therefore has roots a, s(a), ..., s^(n-1)(a), all distinct, and
`split_completely` finds one root and reads the rest off its orbit.  The
same holds over R: the field is Galois of odd degree, so its Galois group
has no complex conjugation and the field is totally real, with real
roots r, s(r), ..., s^(n-1)(r) for any one root r.  `Embeddings` isolates
one root and carries its bracket along that orbit.  The discriminant of
f is the determinant of the trace form Tr(theta^(i+j)) that the field
keeps for the generator search.
Conjugation convention: sigma(P) = (p, theta - b) with s(b) = a mod p, so
sigma^k(P) has root s^(n-k)(a); only `conjugate_chain` encodes this.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

from .intpoly import (
    compose_mod,
    det_bareiss,
    mul_mod,
    newton_power_sums,
    norm_mod,
    poly_derivative,
    poly_rem_monic,
    pow_mod,
)
from . import f2poly


class FieldConfigError(ValueError):
    """Config rejected; `condition` names the violated requirement."""

    condition = "config"


class EvenDegree(FieldConfigError):
    condition = "C2"


class EvenClassNumber(FieldConfigError):
    condition = "C3"


class C4Violation(FieldConfigError):
    condition = "C4"


class NotAutomorphism(FieldConfigError):
    condition = "C1"


class BadUnit(FieldConfigError):
    condition = "unit"


class RamifiedPrime(Exception):
    """Rational prime divides disc_f; callers must exclude it."""


class GeneratorNotFound(RuntimeError):
    """Short-vector search exhausted its radius without a generator."""


class AmbiguousSign(RuntimeError):
    """Embedding sign undecided at the precision cap."""


class GeneratorSelfCheckFailed(RuntimeError):
    """A generator returned by the search failed its independent verification."""


AlgInt = tuple[int, ...]


class PrimeDeg1(NamedTuple):
    """Degree-one prime ideal (p, theta - a)."""

    p: int
    a: int


_START_BITS = 128
_MAX_BITS = 4096


class Embeddings:
    """Certified isolating brackets for the real roots of f, ascending.

    Built from the sigma-orbit of one root (see the module docstring), so
    f must already satisfy f(s(x)) = 0 mod f.  A bracket is an integer
    triple (lo, hi, e) standing for [lo/2^e, hi/2^e], with f(lo/2^e) and
    f(hi/2^e) of opposite signs.  Immutable: a sign query refines a local
    copy of its bracket by exact bisection, so it either resolves or hits
    the precision cap and raises AmbiguousSign.
    """

    def __init__(self, f, sigma):
        self._f = f
        self._brackets = tuple(_bisect(f, b, _START_BITS) for b in _isolate_along_orbit(f, sigma))

    def signs_of(self, a: AlgInt) -> tuple[int, ...]:
        """Exact sign of a(theta) under each real embedding, ascending root order."""
        if not any(a):
            raise ValueError("sign of zero requested")
        return tuple(self._sign_at(b, a) for b in self._brackets)

    def _sign_at(self, bracket, coeffs) -> int:
        bits = _START_BITS
        while True:
            vlo, vhi = _eval_interval(coeffs, *bracket)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            if bits >= _MAX_BITS:
                raise AmbiguousSign(f"sign undecided at {_MAX_BITS} bits")
            bits *= 2
            bracket = _bisect(self._f, bracket, bits)


def _isolate_along_orbit(f, sigma):
    """Disjoint brackets, ascending, each holding exactly one root of f.

    Bisects one root r, then carries its bracket along r, s(r), ...,
    s^(n-1)(r) by interval arithmetic, doubling the bits until the n
    images are pairwise disjoint.  They then hold n distinct roots, and f
    has only n.  The image of a bracket at exponent e has exponent
    e deg(s); all are shifted to the largest exponent before sorting.
    """
    bound = 1 + max(abs(c) for c in f[:-1])  # Cauchy bound; f monic of odd degree
    seed = (-bound, bound, 0)  # so f(-bound) < 0 < f(bound)
    bits = 1
    while True:
        seed = _bisect(f, seed, bits)
        orbit = [seed]
        for _ in range(len(f) - 2):
            lo, hi, e = orbit[-1]
            orbit.append((*_eval_interval(sigma, lo, hi, e), e * (len(sigma) - 1)))
        top = max(e for _, _, e in orbit)
        brackets = sorted((lo << (top - e), hi << (top - e), top) for lo, hi, e in orbit)
        if all(hi < lo for (_, hi, _), (lo, _, _) in zip(brackets, brackets[1:])):
            return brackets
        if bits >= _MAX_BITS:
            raise FieldConfigError(f"real roots of f not isolated along the sigma-orbit at {_MAX_BITS} bits")
        bits *= 2


def _bisect(f, bracket, bits):
    """Halve a bracket (lo, hi, e) of a root of f until it is at most 2^-bits wide.

    A halving raises e by one and keeps hi - lo, so the loop runs until
    hi - lo <= 2^(e - bits).  f at a point x/2^e has the sign of the
    one-point interval _eval_interval(f, x, x, e).
    """
    lo, hi, e = bracket
    flo, _ = _eval_interval(f, lo, lo, e)
    while (hi - lo) << bits > 1 << e:
        mid = lo + hi
        e += 1
        fmid, _ = _eval_interval(f, mid, mid, e)
        assert fmid != 0, "irreducible f has no rational roots"
        if (flo < 0) == (fmid < 0):
            lo, hi, flo = mid, 2 * hi, fmid
        else:
            lo, hi = 2 * lo, mid
    return lo, hi, e


def _eval_interval(coeffs, lo: int, hi: int, e: int):
    """Interval Horner enclosure of an integer polynomial over [lo/2^e, hi/2^e].

    Runs in integers: after k steps the bounds are 2^(e k) times those of
    the same Horner run over the rationals, so the returned integers are
    2^(e deg) times that run's bounds and have the same signs.
    """
    vlo = vhi = coeffs[-1]
    shift = 0
    for c in reversed(coeffs[:-1]):
        shift += e
        cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(cands) + (c << shift), max(cands) + (c << shift)
    return vlo, vhi


_CONFIG_KEYS = {"name", "n", "f", "sigma", "h", "unit", "disc_f"}


def load_spec(text: str) -> "FieldSpec":
    """Parse and fully validate a field config (line-oriented key = value)."""
    values: dict = {"unit": []}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FieldConfigError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_KEYS:
            raise FieldConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            if key == "name":
                parsed = val.strip('"')
            elif key in ("n", "h", "disc_f"):
                parsed = int(val)
            else:
                parsed = json.loads(val)
                # type(), not isinstance(): JSON true/false parse to bools, which are ints
                if not isinstance(parsed, list) or not all(type(c) is int for c in parsed):
                    raise ValueError
        except ValueError:
            raise FieldConfigError(f"line {lineno}: bad value for {key}") from None
        if key == "unit":
            values["unit"].append(tuple(parsed))
        elif key in values:
            raise FieldConfigError(f"line {lineno}: duplicate key {key!r}")
        else:
            values[key] = parsed
    missing = {"name", "n", "f", "sigma", "h", "disc_f"} - set(values)
    if missing:
        raise FieldConfigError(f"missing keys: {sorted(missing)}")
    return FieldSpec(
        name=values["name"],
        n=values["n"],
        f=tuple(values["f"]),
        sigma=tuple(values["sigma"]),
        h=values["h"],
        units=tuple(values["unit"]),
        disc_f=values["disc_f"],
    )


def load_spec_file(path) -> "FieldSpec":
    with open(path, "r", encoding="utf-8") as fh:
        return load_spec(fh.read())


class FieldSpec:
    """Validated description of a cyclic field; immutable after construction."""

    def __init__(self, name, n, f, sigma, h, units, disc_f):
        self.name = name
        self.n = n
        self.f = tuple(int(c) for c in f)
        self.sigma = tuple(int(c) for c in sigma)
        self.h = h
        self.units = tuple(tuple(int(c) for c in u) for u in units)
        self.disc_f = disc_f
        self._validate()
        self.embeddings = Embeddings(self.f, self.sigma)
        self.unit_by_signature = self._signature_table()

    def _validate(self):
        n = self.n
        if n < 3 or n % 2 == 0:
            raise EvenDegree("degree must be odd and >= 3")
        if len(self.f) != n + 1 or self.f[-1] != 1:
            raise FieldConfigError("f must be monic of degree n")
        # monic and irreducible mod 2 implies irreducible over Q, 2 inert, and
        # (Dedekind) an odd index [O : Z[theta]], so the power basis serves at 2
        fbar = f2poly.from_coeffs(c % 2 for c in self.f)
        if not f2poly.is_irreducible(fbar):
            raise C4Violation("f is reducible mod 2, so 2 is not inert")
        # trace form on the power basis, exact; its determinant is disc(f)
        sums = newton_power_sums(self.f, 2 * n - 1)
        self.trace_gram = tuple(tuple(sums[i + j] for j in range(n)) for i in range(n))
        if det_bareiss(self.trace_gram) != self.disc_f:
            raise FieldConfigError("disc_f does not match the discriminant of f")
        assert self.disc_f % 2 == 1, "2 inert forces an odd discriminant"
        if self.h < 1 or self.h % 2 == 0:
            raise EvenClassNumber("class number must be odd and positive")
        if len(self.sigma) > n + 1:
            raise FieldConfigError("sigma polynomial degree exceeds n")
        # sigma must be a root of f and must generate a group of order n
        if any(compose_mod(self.f, self.sigma, self.f)):
            raise NotAutomorphism("f(s(x)) is not divisible by f")
        identity = (0, 1) + (0,) * (n - 2)
        power = poly_rem_monic(self.sigma, self.f)
        for k in range(1, n):
            if power == identity:
                raise NotAutomorphism(f"sigma has order {k} < n")
            power = compose_mod(power, self.sigma, self.f)
        if power != identity:
            raise NotAutomorphism("sigma does not have order n")
        if len(self.units) != n - 1:
            raise BadUnit(f"expected {n - 1} units, got {len(self.units)}")
        for u in self.units:
            if len(u) > n:
                raise BadUnit("unit coordinates exceed the power basis")
            if norm_mod(u, self.f) not in (1, -1):
                raise BadUnit(f"listed element {u} has norm != +-1")

    def _signature_table(self):
        """Map each of the 2^n sign patterns to a unit realizing it."""
        n = self.n
        table = {}
        for mask in range(1 << (n - 1)):
            u = self.one()
            for i in range(n - 1):
                if (mask >> i) & 1:
                    u = self.mul(u, self.pad(self.units[i]))
            for v in (u, self.neg(u)):
                try:
                    sig = self.embeddings.signs_of(v)
                except AmbiguousSign as exc:
                    raise BadUnit(f"sign pattern of unit {v} undecided: {exc}") from exc
                if sig in table:
                    raise BadUnit("listed units do not realize all sign patterns")
                table[sig] = v
        return table

    # -- element helpers -------------------------------------------------

    def pad(self, a) -> AlgInt:
        return tuple(a) + (0,) * (self.n - len(a))

    def one(self) -> AlgInt:
        return self.pad((1,))

    def neg(self, a: AlgInt) -> AlgInt:
        return tuple(-c for c in a)

    def mul(self, a: AlgInt, b: AlgInt) -> AlgInt:
        return mul_mod(a, b, self.f)

    def norm(self, a: AlgInt) -> int:
        return norm_mod(a, self.f)

    def trace_inner(self, a: AlgInt, b: AlgInt) -> int:
        g = self.trace_gram
        return sum(ai * sum(gi[j] * b[j] for j in range(self.n)) for ai, gi in zip(a, g) if ai)


# -- prime splitting --------------------------------------------------------


def _pgcd(a, b, p):
    """Monic gcd mod p of monic a and any b: Euclid on `poly_rem_monic`, each remainder made monic."""
    while any(c % p for c in b):
        b = [c % p for c in b]
        while b[-1] == 0:
            b.pop()
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, poly_rem_monic(a, b)
    return a


def eval_mod(a, x: int, p: int) -> int:
    """Value of the integer polynomial a at x, mod p (the theta -> a reduction map)."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def _check_unramified(spec: FieldSpec, p: int) -> None:
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd prime")
    if spec.disc_f % p == 0:
        raise RamifiedPrime(p)


def _check_deg1_prime(spec: FieldSpec, P: PrimeDeg1) -> None:
    """Reject P unless it is (p, theta - a) with p unramified and f(a) = 0 mod p."""
    p, a = P
    _check_unramified(spec, p)
    if not 0 <= a < p or eval_mod(spec.f, a, p):
        raise ValueError("P is not a degree-one prime of this field")


def _sigma_orbit(spec: FieldSpec, a: int, p: int) -> list[int]:
    """a, s(a), ..., s^(n-1)(a) mod p for a root a of f mod p, p unramified."""
    orbit = [a]
    for _ in range(spec.n - 1):
        orbit.append(eval_mod(spec.sigma, orbit[-1], p))
    assert len(set(orbit)) == spec.n, "sigma acts freely on the roots of an unramified prime"
    return orbit


def split_completely(spec: FieldSpec, p: int) -> list[int]:
    """Roots of f mod p when p splits completely; empty list otherwise.

    Raises RamifiedPrime when p divides disc_f.
    """
    _check_unramified(spec, p)
    if pow_mod((0, 1), p, spec.f, p) != (0, 1) + (0,) * (spec.n - 2):
        return []
    return sorted(_sigma_orbit(spec, _one_root([c % p for c in spec.f], p), p))


def _one_root(g, p):
    """One root of a monic product of distinct linear factors mod p.

    Deterministic gcd descent: gcd(g, (x + shift)^((p-1)/2) - 1) keeps the
    roots r with r + shift a nonzero square; shifts are tried in order and
    each proper factor found replaces g until g is linear.
    """
    shift = 0
    while len(g) > 2:
        if shift == p:
            raise RuntimeError("internal error: no shift separated the roots")
        h = list(pow_mod((shift, 1), (p - 1) // 2, g, p))
        h[0] = (h[0] - 1) % p
        d = _pgcd(g, h, p)
        if 0 < len(d) - 1 < len(g) - 1:
            g = d
        shift += 1
    return -g[0] % p


def conjugate_chain(spec: FieldSpec, P: PrimeDeg1) -> list[PrimeDeg1]:
    """P, sigma(P), ..., sigma^(n-1)(P): sigma^k(P) = (p, theta - s^(n-k)(a))."""
    _check_deg1_prime(spec, P)
    p, a = P
    orbit = _sigma_orbit(spec, a, p)
    return [PrimeDeg1(p, orbit[-k]) for k in range(spec.n)]


# -- generator search --------------------------------------------------------


def _lift_root(spec: FieldSpec, P: PrimeDeg1, h: int) -> int:
    """The root a_h of f mod p^h with a_h = a mod p (Hensel), by Newton's iteration."""
    p, a = P
    q = p**h
    df = poly_derivative(spec.f)
    while r := eval_mod(spec.f, a, q):
        a = (a - r * pow(eval_mod(df, a, q), -1, q)) % q
    return a


def _ideal_power_basis(n: int, q: int, root: int) -> list[list[int]]:
    """Rows q and theta^j (theta - root), j < n - 1: the lattice {g : g(root) = 0 mod q}.

    They span it because g = (x - root) k(x) + g(root) for every g of degree < n.
    """
    rows = [[0] * j + [-root, 1] + [0] * (n - 2 - j) for j in range(n - 1)]
    return [[q] + [0] * (n - 1)] + rows


def _round_div(num: int, den: int) -> int:
    """round(num / den) for den > 0, ties to even, computed exactly in integers."""
    r, rem = divmod(num, den)
    if 2 * rem > den or (2 * rem == den and r % 2):
        r += 1
    return r


def _lll_reduce(spec: FieldSpec, basis):
    """LLL on the ideal lattice under the exact trace form (delta = 99/100).

    Integral LLL (Cohen, GTM 138, Alg. 2.6.7): d[i] is the Gram determinant
    of the first i rows (d[0] = 1) and lam[i][j] = d[j+1] mu[i][j] for
    j < i; both stay integral, so every division below is exact.  Returns
    (basis, lam, d): the reduced rows and their integral Gram-Schmidt data,
    with mu[i][j] = lam[i][j] / d[j+1] and squared lengths d[i+1] / d[i].
    """
    n = len(basis)
    basis = [list(r) for r in basis]
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = spec.trace_inner(basis[k], basis[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            r = _round_div(lam[k][j], d[j + 1])
            if r:
                basis[k] = [x - r * y for x, y in zip(basis[k], basis[j])]
                for i in range(j):
                    lam[k][i] -= r * lam[j][i]
                lam[k][j] -= r * d[j + 1]
        t = lam[k][k - 1]
        if 100 * (d[k + 1] * d[k - 1] + t * t) >= 99 * d[k] * d[k]:
            k += 1
            continue
        # swap rows k - 1 and k (Cohen's SWAPI); lam[k][k - 1] is unchanged
        basis[k], basis[k - 1] = basis[k - 1], basis[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        b = (d[k + 1] * d[k - 1] + t * t) // d[k]
        for i in range(k + 1, n):
            u = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - t * u) // d[k]
            lam[i][k - 1] = (b * u + t * lam[i][k]) // d[k + 1]
        d[k] = b
        k = max(k - 1, 1)
    return basis, lam, d


def _enumerate_short(lam, d, bound: float):
    """Coordinate vectors with quadratic form value <= bound, one per +- pair.

    lam, d are the integral Gram-Schmidt data of the basis (see
    `_lll_reduce`), read as correctly rounded int quotients.
    A generator: vectors come lazily in depth-first order, each kept only
    if its highest nonzero coordinate is positive, so a caller can stop at
    the first hit without listing the rest.
    """
    n = len(d) - 1
    muf = [[lam[i][j] / d[j + 1] for j in range(i)] for i in range(n)]
    qf = [d[i + 1] / d[i] for i in range(n)]
    coords = [0] * n

    def descend(i, remaining):
        if i < 0:
            for c in reversed(coords):
                if c:
                    if c > 0:
                        yield tuple(coords)
                    break
            return
        if qf[i] <= 0:
            return
        center = -sum(coords[j] * muf[j][i] for j in range(i + 1, n))
        half = math.sqrt(max(remaining, 0.0) / qf[i])
        lo = math.ceil(center - half - 1e-9)
        hi = math.floor(center + half + 1e-9)
        for x in range(lo, hi + 1):
            coords[i] = x
            used = qf[i] * (x - center) ** 2
            if used <= remaining + 1e-9:
                yield from descend(i - 1, remaining - used)
        coords[i] = 0

    return descend(n - 1, bound)


_RADIUS_STAGES = (1.25, 2.0, 4.0)


def generator_of_power(spec: FieldSpec, P: PrimeDeg1, h: int | None = None) -> AlgInt:
    """Totally positive generator of P^h, exact and self-checked.

    Enumerates lattice vectors of P^h under the trace form in growing
    radius stages (up to 4x a Minkowski-style balanced-generator bound),
    takes the first with |norm| = p^h, and multiplies by the unit whose
    sign pattern cancels the candidate's.  Raises RamifiedPrime for p
    dividing disc_f and ValueError when P is not a prime of this field.
    """
    if h is None:
        h = spec.h
    if h < 1 or h % 2 == 0:
        raise ValueError("h must be odd and positive")
    _check_deg1_prime(spec, P)
    n = spec.n
    target = P.p**h
    root = _lift_root(spec, P, h)
    basis, lam, d = _lll_reduce(spec, _ideal_power_basis(n, target, root))
    base_t2 = n * (target * math.sqrt(abs(spec.disc_f))) ** (2.0 / n)
    for mult in _RADIUS_STAGES:
        for coords in _enumerate_short(lam, d, mult * mult * base_t2):
            vec = [0] * n
            for c, row in zip(coords, basis):
                if c:
                    for j in range(n):
                        vec[j] += c * row[j]
            cand = tuple(vec)
            if abs(spec.norm(cand)) != target:
                continue
            signs = spec.embeddings.signs_of(cand)
            if any(s < 0 for s in signs):
                cand = spec.mul(spec.unit_by_signature[signs], cand)
            # independent verification of the search result
            if spec.norm(cand) != target:
                raise GeneratorSelfCheckFailed("norm")
            if any(s < 0 for s in spec.embeddings.signs_of(cand)):
                raise GeneratorSelfCheckFailed("not totally positive")
            if eval_mod(cand, root, target):
                raise GeneratorSelfCheckFailed("left the ideal lattice")
            return cand
    raise GeneratorNotFound(f"no generator of norm {target} within the search radius")


# -- residue symbols ---------------------------------------------------------


def legendre_deg1(spec: FieldSpec, alpha: AlgInt, Q: PrimeDeg1) -> int:
    """Quadratic residue symbol of alpha at a degree-one prime, in {+1, 0, -1}."""
    t = eval_mod(alpha, Q.a, Q.p)
    if t == 0:
        return 0
    e = pow(t, (Q.p - 1) // 2, Q.p)
    if e == 1:
        return 1
    assert e == Q.p - 1, "Euler criterion returned a non-sign"
    return -1
