"""Exact arithmetic in a configured cyclic totally real field.

A field is described by a line-oriented config (see `load_spec`) giving the
monic minimal polynomial f of a generator theta, a polynomial s with
sigma(theta) = s(theta) generating the Galois group, the (odd) class
number, and a system of units realizing all sign patterns together with
-1.  The degree n = len(f) - 1 and the discriminant disc_f are read off f,
not given.  Loading validates everything and rejects violations with a
named condition code.

Algebraic integers are tuples of ints: power-basis coordinates.  All
parity-critical computations (norms, residue symbols, embedding signs)
are exact; floating point appears only as the search-radius heuristic
`base_t2` of the generator search.

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
reduction takes the same steps as LLL over the rationals; the
enumeration reads them as integers, with no float.
The starting Gram matrix is the only inner-product data LLL reads.
`generator_of_power` passes it in, built by `_ideal_power_gram` in closed
form from the power sums s_k = Tr(theta^k) that `FieldSpec` keeps, so no
product of field elements is formed for it.
Power-box invariant: a root bracket is the integer triple (lo, hi, e)
for [lo/2^e, hi/2^e], and `Embeddings` keeps beside it the box of integer
bounds L_j <= 2^e r^j <= U_j, j < n, that `_power_box` builds from the
exact range of x^j over the bracket, rounded outward to the scale 2^e.
For a = sum c_j theta^j, 2^e a(r) lies in the interval dot product
sum c_j [L_j, U_j] (`_eval_box`): one enclosure for root isolation, signs
and norms.  A sign is certified when it excludes 0; otherwise the query
bisects a copy of the bracket to twice the bits and rebuilds its box, up
to `_MAX_BITS`.  Bisection reads the sign of f at x/2^e from the integer
2^(e deg) f(x/2^e) (`_eval_point`), so every sign comes from integers.
Box-norm invariant: a box that excludes 0 at a root r_i gives the sign of
a(r_i) and integers L_i <= 2^(e_i) |a(r_i)| <= U_i, so the product of
the n intervals encloses 2^S |N(a)|, S = sum e_i.  N(a) is a nonzero
integer, so when ceil(prod L_i / 2^S) = floor(prod U_i / 2^S) that
integer is |N(a)|, and N(a) has the sign of the product of the signs.
Otherwise the enclosure holds more than one integer (a very large
element) and the norm is `norm_mod`'s Bareiss determinant.  The boxes sit
at each bracket's own scale 2^e, not a common one, so the product has
about n e bits rather than n (n - 1) e.
`Embeddings.signs_and_norm` is that one pass, over the same per-root loop
as `signs_of`; a sign that needed bisection brings its refined box.  The
same pass certifies each listed unit at load: its norm is +-1 and its
signs are decided.  Signs multiply, so the 2^n patterns of the unit
products and their negatives (`FieldSpec.unit_by_signature`) cost n - 1
passes and no Bareiss determinant.
First-hit rule: `_enumerate_short` yields candidates lazily in a fixed
depth-first order, one per +- pair, and the search stops at the first of
norm +-p^h, read from the box pass.  The walk (`_walk`) is exact: it
reads the integral LLL data, so each level's centre N / d[i+1], the cost
of each x and the budget left are rationals, the range of x comes from
`math.isqrt`, and the float radius enters once, as the Fraction it
equals.  Each level visits its centre first (Schnorr and Euchner): by
increasing |x - centre|, ties to the smaller x, taken by two pointers
that leave the integer nearest the centre, so a level ends at the first
x past the remaining budget.  The set of vectors in a radius stage is
the ellipsoid's; only their order is Schnorr-Euchner.  In that order the
first candidate is e_0, the first row b_0 of the reduced basis, exactly
when d[1] <= bound: x = 0 at centre 0 costs nothing on each level above
0, so level 0 keeps the whole bound, and there x = -1 (not yielded) and
then x = 1 each cost d[1].  So `_enumerate_short` yields e_0 before it
builds the walk.  b_0 was the generator in every search measured (c7
below 10^5, c9 below 5 10^4, Q(zeta11)^+ below 2 10^4), so a search
usually tests e_0, self-checks and returns without building the walk at
all.  `_walk` is a module-level recursive generator that takes its state
as arguments: a search that abandons it leaves no reference cycle for
the collector.

Ideal-power invariant: for p not dividing disc_f, P^h meets Z[theta] in
exactly the kernel of Z[theta] -> Z/p^h, theta -> a_h, where a_h is the
Hensel lift of a (`_lift_root`).  So the lattice of P^h has the basis
p^h, theta^j (theta - a_h) (j < n - 1), and g lies in P^h iff
g(a_h) = 0 mod p^h; the search's membership self-check is that one
evaluation.  Every product, remainder and gcd modulo a monic polynomial,
mod p or exact, is `intpoly`'s: the root descent's gcd mod p is
`intpoly.gcd_mod`, and so is the gcd mod 2 of Rabin's test, which
`FieldSpec` runs on x = theta to prove f irreducible mod 2 (condition
C4), taking every power in one `intpoly.PackedRing` mod (f, 2).

Split test through the half power: `split_completely` computes
half = x^((p-1)/2) once in `intpoly.PackedRing` mod (f, p), and takes
the certificate from the same ring: p splits iff x half^2 = x, which is
the x^p = x certificate that f mod p is a product of distinct linear
factors, and the root descent starts in that ring and reuses half as
its shift-0 power.
Certificate invariant: it fails at every p | disc_f (ramified, or only
dividing the index of Z[theta]): f mod p then has a repeated root and
x^p - x is squarefree, so such p get [] with no separate test.  The
descent (`_one_root`) takes, at each shift s, gcd(g, h - 1) for
h = (x + s)^((p-1)/2) mod (g, p), and gcd(g, h + 1) only when the first
is not linear; the two part the roots by the residue symbol of r + s, and
the descent keeps the smaller proper factor.
After shift 0 the shifts run k (2^61 - 1) mod p rather than 1, 2, 3, ...;
2^61 - 1 is prime, so they still visit every residue once in p steps.
Small shifts are structured: N(theta + s) for s = 0, 1, 2 is 1, -1, 1 on
the conductor-7 cubic and 1, -1, 3 on the conductor-9 one, and below
10^5 the symbols of r + 2 agree at all three roots at every split prime
of both, and those of r + 1 agree exactly when those of r do.  So when
shift 0 fails (about a quarter of split primes), shifts 1 and 2 would
fail too.

`conductor_multiple` gives a multiple M of the conductor from disc_f and
n; the sweep's table of split classes mod M stands on it, and every split
prime is still certified by the direct test (the `sweep` module).

Sigma-orbit invariant: the config guarantees f(s(x)) = 0 mod f and that
sigma has order n, so for p not dividing disc_f the map b -> s(b) mod p
permutes the roots of f mod p without fixed points of any power below n.
A split p therefore has roots a, s(a), ..., s^(n-1)(a), all distinct, and
`split_completely` finds one root and reads the rest off its orbit.  The
same holds over R: the field is Galois of odd degree, so its Galois group
has no complex conjugation and the field is totally real, with real
roots r, s(r), ..., s^(n-1)(r) for any one root r.  `Embeddings` bisects
one root r and encloses each s^k(r) by `_eval_box` of s^k mod f over r's
power box; once disjoint, the n images isolate the roots.  The
discriminant of f is the determinant of the trace form Tr(theta^(i+j)) =
s_(i+j), read from the same power sums the generator search builds its
Gram matrices from.
Conjugation convention: sigma(P) = (p, theta - b) with s(b) = a mod p, so
sigma^k(P) has root s^(n-k)(a); only `conjugate_chain` encodes this.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import NamedTuple

from .intpoly import (
    PackedRing,
    compose_mod,
    det_bareiss,
    gcd_mod,
    mul_mod,
    newton_power_sums,
    norm_mod,
    poly_derivative,
    poly_rem_monic,
    prime_factors,
)


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


class PrimeFailure(RuntimeError):
    """Per-prime work gave no answer; a sweep reports it by class name, with the prime."""


class GeneratorNotFound(PrimeFailure):
    """Short-vector search exhausted its radius without a generator."""


class AmbiguousSign(PrimeFailure):
    """Embedding sign undecided at the precision cap."""


class GeneratorSelfCheckFailed(PrimeFailure):
    """A generator returned by the search failed its independent verification."""


class RootNotSeparated(PrimeFailure):
    """The root descent tried every shift mod p without splitting off a factor of f."""


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
    f(hi/2^e) of opposite signs; beside each one the class keeps its power
    box (`_power_box`).  Immutable: a sign query refines a local copy of its
    bracket by exact bisection and rebuilds that copy's box, so it either
    resolves or hits the precision cap and raises AmbiguousSign.
    """

    def __init__(self, f, sigma_powers):
        self._f = f
        self._n = len(f) - 1
        self._brackets = tuple(_bisect(f, b, _START_BITS) for b in _isolate_along_orbit(f, sigma_powers))
        self._boxes = tuple(_power_box(b, self._n) for b in self._brackets)

    def signs_of(self, a: AlgInt) -> tuple[int, ...]:
        """Exact sign of a(theta) under each real embedding, ascending root order.

        Only tests call it; searches use `signs_and_norm`.  perfbench/tracer.py wraps it by name.
        """
        return tuple([sign for sign, _, _, _ in self._certify(a)])

    def signs_and_norm(self, a: AlgInt) -> tuple[tuple[int, ...], int]:
        """(signs_of(a), N(a)) from one interval pass over the power boxes (the box-norm invariant)."""
        signs = []
        lo = hi = 1
        scale = 0
        for sign, low, high, e in self._certify(a):
            signs.append(sign)
            lo *= low
            hi *= high
            scale += e
        norm = hi >> scale
        if -(-lo >> scale) != norm:  # more than one integer in [lo, hi] / 2^scale
            return tuple(signs), norm_mod(a, self._f)
        return tuple(signs), -norm if signs.count(-1) % 2 else norm

    def _certify(self, a):
        """Per root, ascending: `_sign_at` of a."""
        if len(a) != self._n:
            raise ValueError(f"expected {self._n} power-basis coordinates, got {len(a)}")
        if not any(a):
            raise ValueError("sign of zero requested")
        return [self._sign_at(b, box, a) for b, box in zip(self._brackets, self._boxes)]

    def _sign_at(self, bracket, box, coeffs):
        """(sign of a(r), L, U, e) with L <= 2^e |a(r)| <= U, from the first box of the bracket that excludes 0."""
        bits = _START_BITS
        while True:
            vlo, vhi = _eval_box(coeffs, box)
            if vlo > 0:
                return 1, vlo, vhi, bracket[2]
            if vhi < 0:
                return -1, -vhi, -vlo, bracket[2]
            if bits >= _MAX_BITS:
                raise AmbiguousSign(f"sign undecided at {_MAX_BITS} bits")
            bits *= 2
            bracket = _bisect(self._f, bracket, bits)
            box = _power_box(bracket, self._n)


def _power_box(bracket, n: int):
    """Integer bounds (L_j, U_j) with L_j <= 2^e r^j <= U_j for every r in the bracket, j < n.

    The exact range of x^j over [lo/2^e, hi/2^e] is [a, b] / 2^(ej): x^j
    is monotone for odd j and on a bracket of one sign, and a positive even
    power over a bracket that straddles 0 runs from 0 to the larger
    endpoint power.  The bounds are that range at the bracket's own scale
    2^e, rounded outward: floor(a / 2^(e(j-1))) and ceil(b / 2^(e(j-1))).
    The rounding moves a bound by less than 2^-e, no more than the width
    (hi - lo) / 2^e of the bracket, so the box keeps its precision.
    """
    lo, hi, e = bracket
    box = [(1 << e, 1 << e)]
    for j in range(1, n):
        a, b = lo**j, hi**j
        low = 0 if j % 2 == 0 and lo < 0 < hi else min(a, b)
        shift = e * (j - 1)
        box.append((low >> shift, -(-max(a, b) >> shift)))
    return tuple(box)


def _eval_box(coeffs, box):
    """Bounds on 2^e times sum c_j r^j over a bracket, from its power box: an interval dot product."""
    vlo = vhi = 0
    for c, (low, high) in zip(coeffs, box):
        if c < 0:
            low, high = high, low
        vlo += c * low
        vhi += c * high
    return vlo, vhi


def _isolate_along_orbit(f, sigma_powers):
    """Disjoint brackets, ascending, each holding exactly one root of f.

    Bisects one root r and encloses each s^k(r), k < n, by `_eval_box` of
    sigma_powers[k] = s^k mod f over r's power box, at r's exponent,
    doubling the bits until the n images are pairwise disjoint.  They then
    hold n distinct roots, and f has only n.
    """
    bound = 1 << max(abs(c) for c in f[:-1]).bit_length()  # >= Cauchy's 1 + max |c|; f monic of odd degree
    seed = (-bound, bound, 0)  # so f(-bound) < 0 < f(bound)
    bits = 1
    while True:
        seed = _bisect(f, seed, bits)
        box = _power_box(seed, len(sigma_powers))
        brackets = sorted((*_eval_box(s, box), seed[2]) for s in sigma_powers)
        if all(hi < lo for (_, hi, _), (lo, _, _) in zip(brackets, brackets[1:])):
            return brackets
        if bits >= _MAX_BITS:
            raise FieldConfigError(f"real roots of f not isolated along the sigma-orbit at {_MAX_BITS} bits")
        bits *= 2


def _bisect(f, bracket, bits):
    """Halve a bracket (lo, hi, e) of a root of f until it is at most 2^-bits wide.

    An even hi - lo is halved at the same e, an odd one after doubling it
    and e, until hi - lo <= 2^(e - bits).  f at a point x/2^e has the sign
    of the integer `_eval_point(f, x, e)`.
    """
    lo, hi, e = bracket
    flo = _eval_point(f, lo, e)
    while (hi - lo) << bits > 1 << e:
        if (hi - lo) % 2:
            lo, hi, e = 2 * lo, 2 * hi, e + 1
        mid = (lo + hi) >> 1
        fmid = _eval_point(f, mid, e)
        assert fmid != 0, "irreducible f has no rational roots"
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return lo, hi, e


def _eval_point(coeffs, x: int, e: int) -> int:
    """2^(e deg) f(x/2^e) for an integer polynomial f: Horner in integers, one product per step."""
    v = coeffs[-1]
    shift = 0
    for c in reversed(coeffs[:-1]):
        shift += e
        v = v * x + (c << shift)
    return v


_CONFIG_KEYS = {"name", "f", "sigma", "h", "unit"}


def load_spec(text: str) -> "FieldSpec":
    """Parse and fully validate a field config (line-oriented key = value).

    The keys are `_CONFIG_KEYS`: name, f, sigma and h once each, and one
    `unit` line per unit (none gives an empty list, which validation
    rejects).  The degree and the discriminant are not keys: `FieldSpec`
    derives both from f.
    """
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
            elif key == "h":
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
    missing = _CONFIG_KEYS - set(values)
    if missing:
        raise FieldConfigError(f"missing keys: {sorted(missing)}")
    return FieldSpec(values["name"], values["f"], values["sigma"], values["h"], values["unit"])


def load_spec_file(path) -> "FieldSpec":
    with open(path, "r", encoding="utf-8") as fh:
        return load_spec(fh.read())


class FieldSpec:
    """Validated description of a cyclic field; immutable after construction.

    Built from the five config values alone.  Validation derives the rest
    from f: the degree n = len(f) - 1, the power sums s_k = Tr(theta^k)
    and disc_f, the determinant of the trace form (s_(i+j)).  It is the
    only validator of f and sigma: the residue ring and the sweep take
    both as checked here.
    """

    def __init__(self, name, f, sigma, h, units):
        self.name = name
        self.f = tuple(int(c) for c in f)
        self.n = len(self.f) - 1
        self.sigma = tuple(int(c) for c in sigma)
        self.h = h
        self.units = tuple(tuple(int(c) for c in u) for u in units)
        sigma_powers = self._validate()
        self.embeddings = Embeddings(self.f, sigma_powers)
        self.unit_by_signature = self._signature_table()

    def _validate(self):
        """Check the config; return s^k mod f for k < n (s^0 = x), composed once for the order check."""
        n = self.n
        if n < 3 or n % 2 == 0:
            raise EvenDegree("degree must be odd and >= 3")
        if self.f[-1] != 1:
            raise FieldConfigError("f must be monic")
        # monic and irreducible mod 2 implies irreducible over Q, 2 inert, and
        # (Dedekind) an odd index [O : Z[theta]], so the power basis serves at 2.
        # Rabin's test, x = theta: x^(2^n) = x mod (f, 2), and x^(2^(n/q)) - x
        # is prime to f mod 2 for each prime q | n
        x = (0, 1) + (0,) * (n - 2)
        ring = PackedRing(self.f, 2)
        theta = ring.pack(x)
        if ring.pow(theta, 2**n) != theta or any(
            len(gcd_mod(self.f, [a - b for a, b in zip(ring.coeffs(ring.pow(theta, 2 ** (n // q))), x)], 2)) != 1
            for q in prime_factors(n)
        ):
            raise C4Violation("f is reducible mod 2, so 2 is not inert")
        # power sums s_k = Tr(theta^k), k <= 2n - 2: the trace form on the power
        # basis is (s_(i+j)), its determinant is disc(f), and the generator
        # search builds the Gram of every ideal lattice from them
        self.power_sums = tuple(newton_power_sums(self.f, 2 * n - 1))
        self.disc_f = det_bareiss([self.power_sums[i : i + n] for i in range(n)])
        assert self.disc_f % 2 == 1, "2 inert forces an odd discriminant"
        if self.h < 1 or self.h % 2 == 0:
            raise EvenClassNumber("class number must be odd and positive")
        if len(self.sigma) > n + 1:
            raise FieldConfigError("sigma polynomial degree exceeds n")
        # sigma must be a root of f and must generate a group of order n
        if any(compose_mod(self.f, self.sigma, self.f)):
            raise NotAutomorphism("f(s(x)) is not divisible by f")
        powers = [x, poly_rem_monic(self.sigma, self.f)]
        for k in range(1, n):
            if powers[-1] == x:
                raise NotAutomorphism(f"sigma has order {k} < n")
            powers.append(compose_mod(powers[-1], self.sigma, self.f))
        if powers.pop() != x:
            raise NotAutomorphism("sigma does not have order n")
        if len(self.units) != n - 1:
            raise BadUnit(f"expected {n - 1} units, got {len(self.units)}")
        for u in self.units:
            if len(u) > n:
                raise BadUnit("unit coordinates exceed the power basis")
            if not any(u):
                raise BadUnit(f"listed element {u} is zero")
        return powers

    def _signature_table(self):
        """Map each of the 2^n sign patterns to a unit realizing it: each subset product, then its negative.

        Product i + 2^k (bit k is unit k) is product i times unit k; its pattern is theirs multiplied.
        """
        products = [(self.one(), (1,) * self.n)]
        for u in map(self.pad, self.units):
            try:
                signs, norm = self.embeddings.signs_and_norm(u)
            except AmbiguousSign as exc:
                raise BadUnit(f"sign pattern of unit {u} undecided: {exc}") from exc
            if norm not in (1, -1):
                raise BadUnit(f"listed element {u} has norm != +-1")
            products += [(self.mul(v, u), tuple(a * b for a, b in zip(sig, signs))) for v, sig in products]
        table = {}
        for v, sig in products:
            for w, s in ((v, sig), (self.neg(v), tuple(-c for c in sig))):
                if s in table:
                    raise BadUnit("listed units do not realize all sign patterns")
                table[s] = w
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
        """N(a) by Bareiss: the tests' independent reference for the box norm.

        No package code calls it (searches read the box norm); perfbench/tracer.py wraps it by name.
        """
        return norm_mod(a, self.f)


# -- prime splitting --------------------------------------------------------


def eval_mod(a, x: int, p: int) -> int:
    """Value of the integer polynomial a at x, mod p (the theta -> a reduction map)."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def _check_deg1_prime(spec: FieldSpec, P: PrimeDeg1) -> None:
    """Reject P unless it is (p, theta - a) with p odd and prime to disc_f, and f(a) = 0 mod p."""
    p, a = P
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd prime")
    if spec.disc_f % p == 0:
        raise ValueError(f"P lies above {p}, which divides disc_f")
    if not 0 <= a < p or eval_mod(spec.f, a, p):
        raise ValueError("P is not a degree-one prime of this field")


def conductor_multiple(spec: FieldSpec) -> int:
    """M, a multiple of the conductor: for p prime to M, whether p splits depends on p mod M alone.

    M is the product over the primes q | disc_f of q when q does not divide
    n and of q^(v_q(n) + 1) when it does.  Every ramified prime divides
    disc_f; a tame one has conductor exponent 1, and at q | n a character
    of order dividing n has conductor exponent at most v_q(n) + 1.  K is
    abelian, so by Artin reciprocity p splits completely iff p mod the
    conductor lies in the kernel of its characters.
    """
    modulus = 1
    for q in prime_factors(abs(spec.disc_f)):
        modulus *= q
        k = spec.n
        while k % q == 0:
            k //= q
            modulus *= q
    return modulus


def _sigma_orbit(spec: FieldSpec, a: int, p: int) -> list[int]:
    """a, s(a), ..., s^(n-1)(a) mod p for a root a of f mod p, p prime to disc_f."""
    orbit = [a]
    for _ in range(spec.n - 1):
        orbit.append(eval_mod(spec.sigma, orbit[-1], p))
    assert len(set(orbit)) == spec.n, "sigma acts freely on the roots mod a prime to disc_f"
    return orbit


def split_completely(spec: FieldSpec, p: int) -> list[int]:
    """Roots of f mod p when p splits completely; empty list otherwise.

    One powering: half = x^((p-1)/2) mod (f, p), and p splits iff
    x half^2 = x, which is x^p = x, the exact certificate that f mod p is a
    product of distinct linear factors.  The root descent starts in the
    same ring and reuses half as its shift-0 power.  Every p dividing
    disc_f gets []: f mod p then has a repeated root, and x^p - x has none.
    ValueError unless p is odd.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd prime")
    ring = PackedRing(spec.f, p)
    x = ring.pack((0, 1))
    half = ring.pow(x, (p - 1) // 2)
    if ring.mul(x, ring.mul(half, half)) != x:
        return []
    return sorted(_sigma_orbit(spec, _one_root(ring, half), p))


_SHIFT_STEP = 2**61 - 1  # prime, so k -> k * step mod p permutes Z/p for every p != step


def _one_root(ring: PackedRing, half: int) -> int:
    """One root of g = ring.f, a monic product of distinct linear factors mod p = ring.mod.

    Deterministic gcd descent: with h = (x + s)^((p-1)/2) mod (g, p),
    gcd(g, h - 1) keeps the roots r with r + s a nonzero square and
    gcd(g, h + 1) those with r + s a non-square; the smaller proper factor
    of the two replaces g, until g is linear.  A linear gcd(g, h - 1) is
    already the smallest proper factor, and then gcd(g, h + 1) is not
    taken.  The k-th shift is s = k * _SHIFT_STEP mod p (just k at
    p = _SHIFT_STEP), k < p, so every residue is tried once before
    RootNotSeparated.  Shift 0 comes first, and its power is half, packed
    x^((p-1)/2) in ring, which the split test has already computed.  Each
    power is taken in the packed ring mod (g, p), built once per g.
    """
    g, p = ring.f, ring.mod
    step = _SHIFT_STEP % p or 1
    k = 0
    while len(g) > 2:
        if k == p:
            raise RootNotSeparated(f"no shift mod {p} separated the roots of f")
        h = ring.coeffs(half if k == 0 else ring.pow(ring.pack((k * step % p, 1)), (p - 1) // 2))
        low = gcd_mod(g, (h[0] - 1, *h[1:]), p)
        factors = [low] if len(low) == 2 else [low, gcd_mod(g, (h[0] + 1, *h[1:]), p)]
        proper = [d for d in factors if 0 < len(d) - 1 < len(g) - 1]
        if proper:
            g = min(proper, key=len)
            if len(g) > 2:
                ring = PackedRing(g, p)
        k += 1
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
    while r := eval_mod(spec.f, a, q):
        a = (a - r * pow(eval_mod(poly_derivative(spec.f), a, q), -1, q)) % q
    return a


def _ideal_power_basis(n: int, q: int, root: int) -> list[list[int]]:
    """Rows q and theta^j (theta - root), j < n - 1: the lattice {g : g(root) = 0 mod q}.

    They span it because g = (x - root) k(x) + g(root) for every g of degree < n.
    """
    rows = [[0] * j + [-root, 1] + [0] * (n - 2 - j) for j in range(n - 1)]
    return [[q] + [0] * (n - 1)] + rows


def _ideal_power_gram(spec: FieldSpec, q: int, root: int) -> list[list[int]]:
    """Trace-form Gram matrix of the `_ideal_power_basis` rows, from s_k = Tr(theta^k).

    With b_0 = q and b_(j+1) = theta^j (theta - root), Tr(b_0 b_0) = n q^2,
    Tr(b_0 b_(j+1)) = q (s_(j+1) - root s_j) and Tr(b_(i+1) b_(j+1)) =
    s_(i+j+2) - 2 root s_(i+j+1) + root^2 s_(i+j).
    """
    s, n = spec.power_sums, spec.n
    first = [n * q * q] + [q * (s[j + 1] - root * s[j]) for j in range(n - 1)]
    # t[k] = Tr(theta^k (theta - root)^2), so Tr(b_(i+1) b_(j+1)) = t[i + j]
    t = [s[k + 2] - 2 * root * s[k + 1] + root * root * s[k] for k in range(2 * n - 3)]
    return [first] + [[first[i + 1]] + t[i : i + n - 1] for i in range(n - 1)]


def _lll_reduce(basis, gram):
    """LLL (delta = 99/100) of basis under the trace form, whose Gram matrix on its rows is gram.

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
        lk, gk = lam[k], gram[k]
        for j in range(k + 1):
            lj = lam[j]
            u = gk[j]
            for i in range(j):
                u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
            if j < k:
                lk[j] = u
            else:
                d[k + 1] = u
    k = 1
    while k < n:
        bk, lk = basis[k], lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            # r = round(lam[k][j] / d[j+1]), ties to even, in integers
            r, rem = divmod(lk[j], dj)
            rem += rem
            if rem > dj or (rem == dj and r & 1):
                r += 1
            if r:
                bj = basis[j]
                for i in range(n):
                    bk[i] -= r * bj[i]
                lj = lam[j]
                for i in range(j):
                    lk[i] -= r * lj[i]
                lk[j] -= r * dj
        t = lk[k - 1]
        dk, dk1 = d[k], d[k + 1]
        lovasz = dk1 * d[k - 1] + t * t
        if 100 * lovasz >= 99 * dk * dk:
            k += 1
            continue
        # swap rows k - 1 and k (Cohen's SWAPI); lam[k][k - 1] is unchanged
        basis[k], basis[k - 1] = basis[k - 1], bk
        lp = lam[k - 1]
        for j in range(k - 1):
            lk[j], lp[j] = lp[j], lk[j]
        b = lovasz // dk
        for i in range(k + 1, n):
            li = lam[i]
            u = li[k]
            li[k] = v = (dk1 * li[k - 1] - t * u) // dk
            li[k - 1] = (b * u + t * v) // dk1
        d[k] = b
        if k > 1:
            k -= 1
    return basis, lam, d


def _enumerate_short(lam, d, bound: float):
    """Coordinate vectors with quadratic form value <= bound, one per +- pair, in exact arithmetic.

    lam, d are the integral Gram-Schmidt data of the basis (see
    `_lll_reduce`).  Every d[i] is positive: d[i] is a leading principal
    minor of the trace-form Gram matrix, which is positive definite because
    the field is totally real.  The float bound is read as the Fraction it
    equals.  A generator: vectors come lazily in the depth-first order of
    `_walk`, so a caller can stop at the first hit without listing the
    rest.  The walk starts with e_0 exactly when d[1] <= bound (the
    module's First-hit rule), so e_0 then comes first, and the walk is
    built only if the caller asks for more; its first yield, that same
    e_0, is then dropped.
    """
    assert all(v > 0 for v in d), "the trace form of a totally real field is positive definite"
    n = len(d) - 1
    e0 = (1,) + (0,) * (n - 1) if d[1] <= bound else None  # int <= float compares exactly
    if e0:
        yield e0
    walk = _walk(n - 1, Fraction(bound), [0] * n, lam, d)
    if e0:
        dropped = next(walk)
        assert dropped == e0, "the walk starts with e_0"
    yield from walk


def _walk(i, remaining, coords, lam, d):
    """Level i of the depth-first walk, with coords[i + 1:] fixed and the Fraction `remaining` of the bound left.

    With N = -sum_(j > i) x_j lam[j][i] and D = d[i+1], the level's centre
    is N / D and x costs (x D - N)^2 / (d[i] D), so x is within the budget
    iff |x D - N| <= isqrt(floor(remaining d[i] D)): that gives lo..hi.
    Each vector is kept only if its highest nonzero coordinate is positive.
    Each level visits lo..hi centre first: two pointers leave the integer
    nearest the centre (ties to the smaller x), and each step takes the
    nearer of the two, the one below on a tie.  The cost grows along that
    order, so the first x past the budget, the first outside lo..hi, ends
    the level.  A module-level function taking its state as arguments, so
    an abandoned walk leaves no reference cycle.
    """
    D, scale = d[i + 1], d[i] * d[i + 1]
    N = -sum(coords[j] * lam[j][i] for j in range(i + 1, len(coords)))
    room = remaining.numerator * scale // remaining.denominator
    if room >= 0:
        s = math.isqrt(room)
        lo, hi = -((s - N) // D), (N + s) // D
        x = -((D - 2 * N) // (2 * D))  # ceil(N / D - 1/2), in lo..hi whenever lo <= hi
        down, up = x - 1, x + 1
        while lo <= x <= hi:
            coords[i] = x
            if i:
                t = x * D - N
                yield from _walk(i - 1, remaining - Fraction(t * t, scale), coords, lam, d)
            else:
                for c in reversed(coords):
                    if c:
                        if c > 0:
                            yield tuple(coords)
                        break
            if down >= lo and (up > hi or abs(down * D - N) <= abs(up * D - N)):
                x, down = down, down - 1
            else:
                x, up = up, up + 1
    coords[i] = 0


_RADIUS_STAGES = (1.25, 2.0, 4.0)


def generator_of_power(spec: FieldSpec, P: PrimeDeg1) -> AlgInt:
    """Totally positive generator of P^h, h = spec.h, exact and self-checked.

    Enumerates lattice vectors of P^h under the trace form in growing
    radius stages (up to 4x a Minkowski-style balanced-generator bound),
    takes the first with |norm| = p^h, and multiplies by the unit whose
    sign pattern cancels the candidate's.  Each element tested, the
    returned one included, gets its signs and norm from one box pass
    (`Embeddings.signs_and_norm`).  ValueError when P is not a
    degree-one prime of this field or lies above a p dividing disc_f.
    """
    _check_deg1_prime(spec, P)
    n, h = spec.n, spec.h
    target = P.p**h
    root = _lift_root(spec, P, h)
    lattice = _ideal_power_basis(n, target, root)
    basis, lam, d = _lll_reduce(lattice, _ideal_power_gram(spec, target, root))
    base_t2 = n * (target * math.sqrt(abs(spec.disc_f))) ** (2.0 / n)
    boxes = spec.embeddings
    for mult in _RADIUS_STAGES:
        for coords in _enumerate_short(lam, d, mult * mult * base_t2):
            vec = [0] * n
            for c, row in zip(coords, basis):
                if c:
                    for j in range(n):
                        vec[j] += c * row[j]
            cand = tuple(vec)
            signs, norm = boxes.signs_and_norm(cand)
            if abs(norm) != target:
                continue
            if any(s < 0 for s in signs):
                cand = spec.mul(spec.unit_by_signature[signs], cand)
            # independent verification of the search result, on the returned element itself
            signs, norm = boxes.signs_and_norm(cand)
            if norm != target:
                raise GeneratorSelfCheckFailed("norm")
            if any(s < 0 for s in signs):
                raise GeneratorSelfCheckFailed("not totally positive")
            if eval_mod(cand, root, target):
                raise GeneratorSelfCheckFailed("left the ideal lattice")
            return cand
    raise GeneratorNotFound(f"no generator of norm {target} within the search radius")


# -- residue symbols ---------------------------------------------------------


def legendre_deg1(alpha: AlgInt, Q: PrimeDeg1) -> int:
    """Quadratic residue symbol of alpha at a degree-one prime, in {+1, 0, -1}."""
    t = eval_mod(alpha, Q.a, Q.p)
    if t == 0:
        return 0
    e = pow(t, (Q.p - 1) // 2, Q.p)
    if e == 1:
        return 1
    assert e == Q.p - 1, "Euler criterion returned a non-sign"
    return -1
