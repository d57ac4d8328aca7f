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
pattern with a unit; `spin` is the quadratic residue symbol of that
generator at a conjugate prime.

Sigma-orbit invariant: the config guarantees f(s(x)) = 0 mod f and that
sigma has order n, so for p not dividing disc_f the map b -> s(b) mod p
permutes the roots of f mod p without fixed points of any power below n.
A split p therefore has roots a, s(a), ..., s^(n-1)(a), all distinct, and
`split_completely` finds one root and reads the rest off its orbit.
Conjugation convention: sigma(P) = (p, theta - b) with s(b) = a mod p, so
sigma^k(P) has root s^(n-k)(a); only `conjugate_chain` encodes this.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

from .intpoly import (
    compose_mod,
    det_bareiss,
    discriminant,
    mul_mod,
    newton_power_sums,
    norm_mod,
    poly_rem_monic,
)
from . import f2poly
from . import residue


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
    """Certified isolating intervals for the real roots of f, ascending.

    Endpoints are dyadic rationals with f(lo)*f(hi) < 0; refinement is
    exact bisection, so a sign query either resolves or hits the
    precision cap and raises AmbiguousSign.  Logically immutable: sign
    queries may narrow the stored intervals, but only monotonically, so
    concurrent readers at worst repeat work.
    """

    def __init__(self, f):
        self.f = tuple(Fraction(c) for c in f)
        self._ivals = _isolate_real_roots(self.f)
        self._refine_all(_START_BITS)

    def __len__(self):
        return len(self._ivals)

    def intervals(self):
        return list(self._ivals)

    def _refine_all(self, bits: int):
        width = Fraction(1, 1 << bits)
        self._ivals = [self._refine(iv, width) for iv in self._ivals]

    def _refine(self, iv, width):
        lo, hi = iv
        flo = _eval_frac(self.f, lo)
        while hi - lo > width:
            mid = (lo + hi) / 2
            fmid = _eval_frac(self.f, mid)
            assert fmid != 0, "irreducible f has no rational roots"
            if (flo < 0) == (fmid < 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        return lo, hi

    def signs_of(self, a: AlgInt) -> tuple[int, ...]:
        """Exact sign of a(theta) under each real embedding, ascending root order."""
        if not any(a):
            raise ValueError("sign of zero requested")
        coeffs = tuple(Fraction(c) for c in a)
        out = []
        for i in range(len(self._ivals)):
            out.append(self._sign_at(i, coeffs))
        return tuple(out)

    def _sign_at(self, i: int, coeffs) -> int:
        bits = _START_BITS
        while True:
            lo, hi = self._ivals[i]
            vlo, vhi = _eval_interval(coeffs, lo, hi)
            if vlo > 0:
                return 1
            if vhi < 0:
                return -1
            if bits >= _MAX_BITS:
                raise AmbiguousSign(f"sign undecided at {_MAX_BITS} bits")
            bits *= 2
            self._ivals[i] = self._refine(self._ivals[i], Fraction(1, 1 << bits))


def _eval_frac(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _eval_interval(coeffs, lo: Fraction, hi: Fraction):
    vlo = vhi = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(cands) + c, max(cands) + c
    return vlo, vhi


def _poly_divmod_frac(a, b):
    a = list(a)
    db = len(b) - 1
    while len(b) > 1 and b[-1] == 0:
        b = b[:-1]
        db -= 1
    q = [Fraction(0)] * max(0, len(a) - db)
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        c = a[-1] / b[-1]
        shift = len(a) - 1 - db
        q[shift] = c
        for j in range(db + 1):
            a[shift + j] -= c * b[j]
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return q, a


def _sturm_chain(f):
    chain = [list(f), [i * c for i, c in enumerate(f)][1:]]
    while any(chain[-1]):
        _, r = _poly_divmod_frac(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    return chain


def _variations(chain, x: Fraction) -> int:
    signs = []
    for poly in chain:
        v = _eval_frac(poly, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _isolate_real_roots(f):
    chain = _sturm_chain(f)
    bound = 1 + max(abs(c) for c in f[:-1])  # Cauchy bound, f monic
    lo, hi = Fraction(-bound), Fraction(bound)
    out = []
    stack = [(lo, hi, _variations(chain, lo), _variations(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        count = va - vb
        if count == 0:
            continue
        if count == 1:
            # an isolated simple real root always flips the sign across the interval
            assert _eval_frac(f, a) * _eval_frac(f, b) < 0, "isolating interval without a sign change"
            out.append((a, b))
            continue
        mid = (a + b) / 2
        vm = _variations(chain, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    out.sort(key=lambda iv: iv[0])
    return out


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
                if not isinstance(parsed, list) or not all(isinstance(c, int) for c in parsed):
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
        self.embeddings = Embeddings(self.f)
        if len(self.embeddings) != n:
            raise FieldConfigError("f is not totally real")
        # trace form on the power basis, exact
        sums = newton_power_sums(self.f, 2 * n - 1)
        self.trace_gram = tuple(tuple(sums[i + j] for j in range(n)) for i in range(n))
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
        if discriminant(self.f) != self.disc_f:
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


def _pmul(a, b, fp, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pred(out, fp, p)


def _pred(a, fp, p):
    n = len(fp) - 1
    a = list(a)
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(n):
                a[i - n + j] = (a[i - n + j] - c * fp[j]) % p
    out = [c % p for c in a[:n]]
    return out + [0] * (n - len(out))


def _ppow(a, e, fp, p):
    n = len(fp) - 1
    r = [1] + [0] * (n - 1)
    a = _pred(a, fp, p)
    while e:
        if e & 1:
            r = _pmul(r, a, fp, p)
        a = _pmul(a, a, fp, p)
        e >>= 1
    return r


def _pgcd(a, b, p):
    a, b = [c % p for c in a], [c % p for c in b]
    while any(b):
        while a and a[-1] == 0:
            a.pop()
        while b and b[-1] == 0:
            b.pop()
        if len(a) < len(b):
            a, b = b, a
            continue
        inv = pow(b[-1], p - 2, p)
        shift = len(a) - len(b)
        c = a[-1] * inv % p
        for j in range(len(b)):
            a[shift + j] = (a[shift + j] - c * b[j]) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
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
    n = spec.n
    fp = [c % p for c in spec.f]
    xp = _ppow([0, 1], p, fp, p)
    if xp != [0, 1] + [0] * (n - 2):
        return []
    return sorted(_sigma_orbit(spec, _one_root(fp, p), p))


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
        h = _ppow([shift, 1], (p - 1) // 2, g, p)
        h[0] = (h[0] - 1) % p
        d = _pgcd(g, h, p)
        if 0 < len(d) - 1 < len(g) - 1:
            inv = pow(d[-1], p - 2, p)
            g = [c * inv % p for c in d]
        shift += 1
    return (-g[0] * pow(g[1], p - 2, p)) % p


def conjugate_chain(spec: FieldSpec, P: PrimeDeg1) -> list[PrimeDeg1]:
    """P, sigma(P), ..., sigma^(n-1)(P): sigma^k(P) = (p, theta - s^(n-k)(a))."""
    p, a = P
    _check_unramified(spec, p)
    if not 0 <= a < p or eval_mod(spec.f, a, p):
        raise ValueError("P is not a degree-one prime of this field")
    orbit = _sigma_orbit(spec, a, p)
    return [PrimeDeg1(p, orbit[-k]) for k in range(spec.n)]


def conjugate_prime(spec: FieldSpec, P: PrimeDeg1) -> PrimeDeg1:
    """The Galois image of P: the prime (p, theta - b) with s(b) = a mod p."""
    return conjugate_chain(spec, P)[1]


# -- generator search --------------------------------------------------------


def _hnf_rows(rows, n):
    """Row-style Hermite reduction of an integer row span to n independent rows."""
    rows = [list(r) for r in rows if any(r)]
    basis = []
    col = 0
    while col < n and rows:
        live = [r for r in rows if r[col]]
        if not live:
            col += 1
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            for r in live[1:]:
                q = r[col] // pivot[col]
                for j in range(n):
                    r[j] -= q * pivot[j]
            live = [r for r in rows if r[col]]
        pivot = live[0]
        rows = [r for r in rows if r is not pivot and any(r)]
        basis.append(pivot)
        col += 1
    assert len(basis) == n, "ideal lattice is not full rank"
    return basis


def _ideal_power_basis(spec: FieldSpec, P: PrimeDeg1, h: int):
    n = spec.n
    p, a = P
    gens = [[p] + [0] * (n - 1)]
    for j in range(n - 1):
        row = [0] * n
        row[j] = -a
        row[j + 1] = 1
        gens.append(row)
    basis = gens
    for _ in range(h - 1):
        prods = [list(spec.mul(tuple(u), tuple(v))) for u in basis for v in gens]
        basis = _hnf_rows(prods, n)
    return basis


def _gso(gram):
    """Rational Gram-Schmidt data (mu, squared lengths) from an integer Gram matrix."""
    n = len(gram)
    mu = [[Fraction(0)] * n for _ in range(n)]
    q = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            acc = Fraction(gram[i][j])
            for k in range(j):
                acc -= mu[i][k] * mu[j][k] * q[k]
            mu[i][j] = acc / q[j]
        acc = Fraction(gram[i][i])
        for k in range(i):
            acc -= mu[i][k] * mu[i][k] * q[k]
        q[i] = acc
    return mu, q


def _lll_reduce(spec: FieldSpec, basis):
    """LLL on the ideal lattice under the exact trace form (delta = 0.99).

    Returns (basis, mu, q): the reduced rows and their Gram-Schmidt data,
    which the size reductions keep exact and each swap recomputes.
    """
    delta = Fraction(99, 100)
    n = len(basis)
    basis = [list(r) for r in basis]

    def gram():
        return [[spec.trace_inner(tuple(u), tuple(v)) for v in basis] for u in basis]

    mu, q = _gso(gram())
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            r = round(mu[k][j])
            if r:
                basis[k] = [x - r * y for x, y in zip(basis[k], basis[j])]
                for jj in range(j):
                    mu[k][jj] -= r * mu[j][jj]
                mu[k][j] -= r
        if q[k] >= (delta - mu[k][k - 1] ** 2) * q[k - 1]:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            mu, q = _gso(gram())
            k = max(k - 1, 1)
    return basis, mu, q


def _enumerate_short(mu, q, bound: float):
    """Coordinate vectors with quadratic form value <= bound, one per +- pair.

    mu, q are the Gram-Schmidt data of the lattice basis (see `_gso`).
    """
    n = len(q)
    muf = [[float(x) for x in row] for row in mu]
    qf = [float(x) for x in q]
    coords = [0] * n
    out = []

    def descend(i, remaining):
        if i < 0:
            vec = tuple(coords)
            if any(vec):
                out.append(vec)
            return
        if qf[i] <= 0:
            return
        center = -sum(coords[j] * muf[j][i] for j in range(i + 1, n))
        half = math.sqrt(max(remaining, 0.0) / qf[i]) if qf[i] > 0 else 0.0
        lo = math.ceil(center - half - 1e-9)
        hi = math.floor(center + half + 1e-9)
        for x in range(lo, hi + 1):
            coords[i] = x
            used = qf[i] * (x - center) ** 2
            if used <= remaining + 1e-9:
                descend(i - 1, remaining - used)
        coords[i] = 0

    descend(n - 1, bound)
    # keep one representative of each +-v pair: highest nonzero coordinate positive
    seen = []
    for v in out:
        for c in reversed(v):
            if c:
                if c > 0:
                    seen.append(v)
                break
    return seen


_RADIUS_STAGES = (1.25, 2.0, 4.0)


def generator_of_power(spec: FieldSpec, P: PrimeDeg1, h: int | None = None) -> AlgInt:
    """Totally positive generator of P^h, exact and self-checked.

    Enumerates lattice vectors of P^h under the trace form in growing
    radius stages (up to 4x a Minkowski-style balanced-generator bound),
    takes the first with |norm| = p^h, and multiplies by the unit whose
    sign pattern cancels the candidate's.
    """
    if h is None:
        h = spec.h
    if h < 1 or h % 2 == 0:
        raise ValueError("h must be odd and positive")
    n = spec.n
    target = P.p**h
    basis, mu, q = _lll_reduce(spec, _ideal_power_basis(spec, P, h))
    base_t2 = n * (target * math.sqrt(abs(spec.disc_f))) ** (2.0 / n)
    for mult in _RADIUS_STAGES:
        for coords in _enumerate_short(mu, q, mult * mult * base_t2):
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
            if not _in_row_span(basis, cand):
                raise GeneratorSelfCheckFailed("left the ideal lattice")
            return cand
    raise GeneratorNotFound(f"no generator of norm {target} within the search radius")


def _in_row_span(basis, vec) -> bool:
    """Exact test that vec is an integer combination of the basis rows (Cramer)."""
    n = len(basis)
    bt = [[basis[r][c] for r in range(n)] for c in range(n)]
    d = det_bareiss([row[:] for row in bt])
    if d == 0:
        raise RuntimeError("ideal lattice basis is singular")
    for i in range(n):
        m = [row[:] for row in bt]
        for r in range(n):
            m[r][i] = vec[r]
        if det_bareiss(m) % d != 0:
            return False
    return True


# -- residue symbols and spin -------------------------------------------------


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


def spin(spec: FieldSpec, P: PrimeDeg1, k: int) -> int:
    """Residue symbol of a totally positive generator of P^h at the k-th conjugate of P.

    Defined for split primes, where P and its conjugates are coprime and
    the value is +-1.  (For a prime fixed by a conjugation the symbol
    degenerates to 0; such primes do not satisfy this precondition.)
    """
    if not 1 <= k <= spec.n - 1:
        raise ValueError("k must be in 1..n-1")
    alpha = generator_of_power(spec, P, spec.h)
    value = legendre_deg1(spec, alpha, conjugate_chain(spec, P)[k])
    assert value != 0, "conjugate prime divides the generator"
    return value


def r4_of_prime(spec: FieldSpec, family: residue.RingFamily, P: PrimeDeg1) -> residue.M4Class:
    """Square class mod 4 of the totally positive generator of P^h."""
    alpha = generator_of_power(spec, P, spec.h)
    return residue.m4_class_of(family, tuple(c % 4 for c in alpha))
