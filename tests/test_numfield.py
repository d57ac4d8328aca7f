import copy
import gc
import hashlib
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from spinsweep import f2poly, numfield, residue
from spinsweep.intpoly import (
    compose_mod,
    det_bareiss,
    mul_mod,
    norm_mod,
    poly_mul,
    poly_rem_monic,
    pow_mod,
    prime_factors,
)
from spinsweep.numfield import (
    BadUnit,
    C4Violation,
    EvenClassNumber,
    EvenDegree,
    FieldConfigError,
    NotAutomorphism,
    PrimeDeg1,
    RootNotSeparated,
    conjugate_chain,
    eval_mod,
    generator_of_power,
    legendre_deg1,
    load_spec,
    split_completely,
)
from spinsweep.sweep import build_tables
from test_f2poly import trial_division_irreducible
from test_intpoly import PINNED_NORMS, _norm_by_fractions

GOOD7 = """
name = "simplest-cubic-7"
f = [-1, -2, 1, 1]
sigma = [-2, 0, 1]
h = 1
unit = [0, 1, 0]
unit = [1, 1, 0]
"""


def with_h(spec, h):
    """A copy of spec with class number h: P^h at h = 3 or 5 on a field with h = 1."""
    other = copy.copy(spec)
    other.h = h
    return other


# -- config loading -----------------------------------------------------------


def test_load_accepts_shipped_fields(spec7, spec9):
    assert spec7.n == spec9.n == 3
    assert spec7.disc_f == 49 and spec9.disc_f == 81
    assert len(spec7.unit_by_signature) == 8


def test_load_from_text():
    spec = load_spec(GOOD7)
    assert spec.name == "simplest-cubic-7"
    assert spec.f == (-1, -2, 1, 1)


def test_reject_reducible_mod_2():
    for f in ("[0, -1, 0, 1]", "[0, 0, 0, 1]"):  # x^3 - x, x^3
        with pytest.raises(C4Violation):
            load_spec(GOOD7.replace("[-1, -2, 1, 1]", f))


def _config_with_identity_sigma(f):
    return f'name = "c4"\nf = {list(f)}\nsigma = [0, 1]\nh = 1\nunit = [1]\n'


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_c4_agrees_with_trial_division(n):
    # every monic f with 0/1 coefficients: C4 exactly when trial division finds
    # a factor mod 2; a passing f goes on to sigma = x, which has order 1
    for low in range(1 << n):
        f = [low >> i & 1 for i in range(n)] + [1]
        if trial_division_irreducible(f2poly.from_coeffs(f)):
            with pytest.raises(NotAutomorphism, match="order 1"):
                load_spec(_config_with_identity_sigma(f))
        else:
            with pytest.raises(C4Violation):
                load_spec(_config_with_identity_sigma(f))


@pytest.mark.parametrize("n, factors", [
    (15, (0b100101, 0b101001, 0b101111)),  # three quintics: only q = 3 rejects, gcd f
    (45, (0b1000000011, 0b1000010001, 0b1000010111, 0b1000011011, 0b1000100001)),  # five nonics: only q = 5
    (15, (0b10, 0b11, 0b1011, 0b100101, 0b101001)),  # x (x + 1), a cubic, two quintics: proper gcds
])
def test_c4_gcd_step_rejects_products_of_factors_of_degree_dividing_n(n, factors):
    # distinct irreducibles mod 2 whose degrees divide n: x^(2^n) = x mod (f, 2)
    # holds, so only the gcd of f with some x^(2^(n/q)) - x, q | n prime, rejects f
    bits = 1
    for g in factors:
        assert trial_division_irreducible(g) and n % (g.bit_length() - 1) == 0
        bits = f2poly.mul(bits, g)
    f = [bits >> i & 1 for i in range(n + 1)]
    x = (0, 1) + (0,) * (n - 2)
    assert pow_mod(x, 2**n, f, 2) == x
    with pytest.raises(C4Violation):
        load_spec(_config_with_identity_sigma(f))


def test_reject_even_degree():
    text = """
name = "bad"
f = [-1, 0, 1]
sigma = [0, 1]
h = 1
unit = [0, 1]
"""
    with pytest.raises(EvenDegree):
        load_spec(text)


def test_reject_even_class_number():
    with pytest.raises(EvenClassNumber):
        load_spec(GOOD7.replace("h = 1", "h = 2"))


def test_reject_non_automorphism():
    for old, new in [
        ("f = [-1, -2, 1, 1]", "f = [-1, -3, 0, 1]"),  # x^2 - 2 acts on x^3 - 3x + 1, not on x^3 - 3x - 1
        ("sigma = [-2, 0, 1]", "sigma = [1, 1]"),  # x + 1 is not a root of f
    ]:
        with pytest.raises(NotAutomorphism):
            load_spec(GOOD7.replace(old, new))


def test_reject_identity_sigma():
    with pytest.raises(NotAutomorphism):
        load_spec(GOOD7.replace("sigma = [-2, 0, 1]", "sigma = [0, 1]"))


def test_reject_bad_unit():
    with pytest.raises(BadUnit, match="has norm != \\+-1"):
        load_spec(GOOD7.replace("unit = [0, 1, 0]", "unit = [2, 0, 0]"))
    # zero has no sign, so it is named before the box pass
    with pytest.raises(BadUnit, match="is zero"):
        load_spec(GOOD7.replace("unit = [0, 1, 0]", "unit = [0, 0, 0]"))


def test_reject_signature_deficient_units():
    # theta and -theta^{-1}... using theta twice cannot span the sign patterns
    with pytest.raises(BadUnit):
        load_spec(GOOD7.replace("unit = [1, 1, 0]", "unit = [0, 1, 0]"))


def test_reject_unknown_key():
    with pytest.raises(FieldConfigError):
        load_spec(GOOD7 + "\nextra = 1")


def test_reject_wrong_disc():
    # the discriminant is derived from f, so a config cannot state one
    with pytest.raises(FieldConfigError, match="unknown key 'disc_f'"):
        load_spec(GOOD7 + "disc_f = 47")


def test_reject_missing_key():
    with pytest.raises(FieldConfigError):
        load_spec(GOOD7.replace('name = "simplest-cubic-7"', ""))


def test_reject_duplicate_key():
    with pytest.raises(FieldConfigError):
        load_spec(GOOD7 + "\nh = 1")


# -- embeddings ---------------------------------------------------------------


def _intervals(spec):
    """The stored root brackets (lo, hi, e) as rational intervals [lo/2^e, hi/2^e]."""
    return [(Fraction(lo, 1 << e), Fraction(hi, 1 << e)) for lo, hi, e in spec.embeddings._brackets]


def test_embeddings_isolate_three_roots(spec7):
    ivals = _intervals(spec7)
    assert len(ivals) == 3
    for (lo1, hi1), (lo2, hi2) in zip(ivals, ivals[1:]):
        assert hi1 < lo2  # disjoint and ascending
    # roots of x^3 + x^2 - 2x - 1 are approximately -1.80, -0.445, 1.25
    approx = [float((lo + hi) / 2) for lo, hi in ivals]
    for got, want in zip(approx, (-1.8019, -0.4450, 1.2470)):
        assert abs(got - want) < 1e-3


QUINTIC11 = """
name = "real-quintic-11"
f = [1, 3, -3, -4, 1, 1]
sigma = [-2, 0, 1]
h = 1
unit = [-2, -2, 1, 1, 0]
unit = [-2, -1, 0, 1, 1]
unit = [-2, 0, 1, 0, 0]
unit = [-2, 1, 2, 0, 0]
"""


def shanks_cubic(m):
    """Shanks' simplest cubic x^3 - m x^2 - (m+3) x - 1, sigma(theta) = -1/(1 + theta)."""
    return f"""
name = "shanks-{m}"
f = [-1, {-(m + 3)}, {-m}, 1]
sigma = [-2, {-(m + 1)}, 1]
h = 1  # not checked at load
unit = [0, 1, 0]
unit = [1, 1, 0]
"""


# Q(zeta19)^+: theta = 2cos(2 pi/19), sigma(theta) = theta^2 - 2, n = 9, and
# the cyclotomic units sin(2ak pi/19)/sin(2k pi/19), a = 3, 5, ..., 17
REAL_CYCLOTOMIC19 = """
name = "real-cyclotomic-19"
f = [1, 5, -10, -20, 15, 21, -7, -8, 1, 1]
sigma = [-2, 0, 1]
h = 1
unit = [-1, 0, 1]
unit = [1, 0, -3, 0, 1]
unit = [-1, 0, 6, 0, -5, 0, 1]
unit = [1, 0, -10, 0, 15, 0, -7, 0, 1]
unit = [0, 4, 0, -10, 0, 6, 0, -1]
unit = [0, -3, 0, 4, 0, -1]
unit = [0, 2, 0, -1]
unit = [0, -1]
"""


def translate(spec, t):
    """spec presented by theta - t: f(x + t), s(x + t) - t and each unit u(x + t), the last two mod f(x + t)."""

    def shifted(g):  # g(x + t), by Horner
        out = []
        for c in reversed(g):
            out = [a + t * b for a, b in zip([0, *out], [*out, 0])]
            out[0] += c
        return out

    f = shifted(spec.f)
    sigma = shifted(spec.sigma)
    sigma[0] -= t
    units = [poly_rem_monic(shifted(u), f) for u in spec.units]
    return numfield.FieldSpec(spec.name, f, poly_rem_monic(sigma, f), spec.h, units)


SHANKS_M = [2, 4, 8, 10, 12, 30, 1000]


def assert_isolated(spec):
    """n ascending, disjoint intervals, with a sign change of f across each."""
    ivals = _intervals(spec)
    assert len(ivals) == spec.n
    for (_, hi1), (lo2, _) in zip(ivals, ivals[1:]):
        assert hi1 < lo2
    def f_at(x):
        return sum(c * x**i for i, c in enumerate(spec.f))

    for lo, hi in ivals:
        assert f_at(lo) * f_at(hi) < 0
    return ivals


def test_quintic_roots_isolated_along_the_orbit():
    ivals = assert_isolated(load_spec(QUINTIC11))
    want = sorted(2 * math.cos(2 * math.pi * k / 11) for k in range(1, 6))
    for (lo, hi), root in zip(ivals, want):
        assert abs(float((lo + hi) / 2) - root) < 1e-3


def test_quintic_discriminant_from_trace_form():
    spec = load_spec(QUINTIC11)
    assert spec.n == 5 and spec.disc_f == 11**4


@pytest.mark.parametrize("m", SHANKS_M)
def test_shanks_cubics_isolate_and_check_disc(m):
    # the derived discriminant against the closed form of the Shanks family
    spec = load_spec(shanks_cubic(m))
    assert_isolated(spec)
    assert spec.disc_f == (m * m + 3 * m + 9) ** 2


LOADED_CONFIGS = {"real-quintic-11": QUINTIC11, **{f"shanks-{m}": shanks_cubic(m) for m in SHANKS_M}}


@pytest.mark.parametrize("field", ["spec7", "spec9", "real-quintic-11", "shanks-2", "shanks-4", "shanks-8",
                                   "shanks-10", "shanks-12"])
def test_brackets_carry_no_excess_bits(request, field):
    # every image of the seed root is enclosed at the seed's own exponent from
    # its power box, and the seed bisects from a power-of-two bound down to
    # width 1, so a 2^-128 bracket keeps only a few bits in hi - lo
    spec = load_spec(LOADED_CONFIGS[field]) if field in LOADED_CONFIGS else request.getfixturevalue(field)
    assert_isolated(spec)
    for lo, hi, e in spec.embeddings._brackets:
        assert hi - lo < 1 << 8 and e <= numfield._START_BITS + 8, (lo, hi, e)
        assert (hi - lo) << numfield._START_BITS <= 1 << e


def test_translate_moves_every_root_by_t(spec7, spec9):
    # the roots of f(x + t) are r - t: each bracket of the translate meets its root's bracket moved by t
    for spec in (spec7, spec9):
        for t in (1, -2, 5):
            moved = translate(spec, t)
            assert moved.disc_f == spec.disc_f
            for (lo, hi), (lo_t, hi_t) in zip(_intervals(spec), _intervals(moved)):
                assert max(lo - t, lo_t) <= min(hi - t, hi_t)


@pytest.mark.parametrize("field", ["spec7", "spec9", *LOADED_CONFIGS])
def test_loaded_spec_gives_valid_residue_rings(request, field):
    # the residue rings check only their level: what FieldSpec checked must hold in each
    spec = load_spec(LOADED_CONFIGS[field]) if field in LOADED_CONFIGS else request.getfixturevalue(field)
    assert trial_division_irreducible(f2poly.from_coeffs(c % 2 for c in spec.f))
    theta = (0, 1) + (0,) * (spec.n - 2)
    for k in (1, 2, 3):
        ring = residue.ResidueRing(k, spec.f, spec.sigma)
        assert not any(c % ring.mod for c in compose_mod(ring.f, ring.sigma, ring.f))
        assert ring.apply_tau(theta) != theta
        image = theta
        for _ in range(spec.n):  # one step at a time: apply_tau reads its power mod n
            image = ring.apply_tau(image)
        assert image == theta


def test_signs_of_theta(spec7):
    # theta evaluates to the root itself: signs follow the root signs
    assert spec7.embeddings.signs_of((0, 1, 0)) == (-1, -1, 1)
    assert spec7.embeddings.signs_of((1, 0, 0)) == (1, 1, 1)
    with pytest.raises(ValueError):
        spec7.embeddings.signs_of((0, 0, 0))


# -- splitting ----------------------------------------------------------------


def brute_roots(spec, p):
    return [a for a in range(p) if eval_mod(spec.f, a, p) == 0]


# theta + 3 in the conductor-7 cubic, given only what split_completely reads: f(0) = -13,
# so p = 13 splits with root 0, which no shipped field (f(0) = +-1) can show
SHIFTED7 = SimpleNamespace(n=3, f=(-13, 19, -8, 1), sigma=(10, -6, 1), disc_f=49)


def test_split_13(spec7):
    roots = split_completely(spec7, 13)
    assert roots == brute_roots(spec7, 13) == [7, 8, 10]
    assert split_completely(SHIFTED7, 13) == brute_roots(SHIFTED7, 13) == [0, 10, 11]


def test_split_5_empty(spec7):
    assert split_completely(spec7, 5) == []
    assert brute_roots(spec7, 5) == []


def test_split_7_ramified(spec7):
    # 7 | disc_f and f = (x - 2)^3 mod 7: the certificate x^7 = x fails on the repeated root
    assert split_completely(spec7, 7) == []
    assert brute_roots(spec7, 7) == [2]


@pytest.mark.parametrize("p", [p for p in range(3, 2000, 2)
                               if all(p % q for q in range(3, int(p**0.5) + 1, 2))] + [9973])
def test_split_matches_brute_force(spec7, spec9, p):
    # at p | disc_f (7 for c7, 3 for c9) f mod p has fewer than n distinct roots, so []
    for spec in (spec7, spec9, SHIFTED7):
        roots = split_completely(spec, p)
        brute = brute_roots(spec, p)
        assert roots == (sorted(brute) if len(brute) == spec.n else [])
        for a in roots:
            # the conjugate chain walks the sigma-orbit backwards: s(b_k) = b_{k-1}
            P = PrimeDeg1(p, a)
            chain = conjugate_chain(spec, P)
            assert chain[0] == P and all(Q.p == p for Q in chain)
            for k in range(spec.n):
                assert eval_mod(spec.sigma, chain[k].a, p) == chain[k - 1].a
            assert sorted(Q.a for Q in chain) == roots
            # sigma(sigma^k(P)) is sigma^(k+1)(P): the chain of each conjugate is the rotated chain
            for k in range(spec.n):
                assert conjugate_chain(spec, chain[k]) == chain[k:] + chain[:k]


def test_split_rule_mod_conductor(spec7):
    # the conductor-7 field splits p exactly when p = +-1 mod 7
    for p in (13, 29, 41, 43, 71, 83, 97, 113):
        expect = p % 7 in (1, 6)
        assert bool(split_completely(spec7, p)) == expect


# -- root descent -------------------------------------------------------------


def _poly_from_roots(roots, p):
    g = (1,)
    for r in roots:
        g = tuple(c % p for c in poly_mul(g, (-r, 1)))
    return list(g)


def test_descent_shifts_visit_every_residue_once(monkeypatch, spec7):
    # with a gcd that never splits, the descent runs its whole shift sequence:
    # shift 0 (the shared half power), then one powering per shift, p in all
    shifts = []
    real_pow = numfield.pow_mod

    def recording_pow(a, e, g, p):
        shifts.append(a[0])
        return real_pow(a, e, g, p)

    monkeypatch.setattr(numfield, "pow_mod", recording_pow)
    monkeypatch.setattr(numfield, "gcd_mod", lambda a, b, p: a)
    for p in _primes_below(200):
        g = [c % p for c in spec7.f]
        half = real_pow((0, 1), (p - 1) // 2, g, p)
        shifts.clear()
        with pytest.raises(RootNotSeparated):
            numfield._one_root(g, p, half)
        assert sorted([0] + shifts) == list(range(p)), p


def test_descent_finds_a_root_of_products_of_linear_factors():
    rng = random.Random(11)
    for p in [p for p in _primes_below(200) if p > 11]:
        for n in (3, 5):
            for trial in range(6):
                # every other product has root 0
                roots = [0] * (trial % 2) + rng.sample(range(1, p), n - trial % 2)
                g = _poly_from_roots(roots, p)
                half = pow_mod((0, 1), (p - 1) // 2, g, p)
                assert numfield._one_root(g, p, half) in roots
    # root 0 with the other two roots squares: at shift 0, gcd(g, h - 1) is
    # quadratic and gcd(g, h + 1) trivial, so the descent goes on from a quadratic
    g = _poly_from_roots([0, 1, 4], 13)
    half = pow_mod((0, 1), 6, g, 13)
    assert len(numfield.gcd_mod(g, (half[0] - 1, *half[1:]), 13)) == 3
    assert len(numfield.gcd_mod(g, (half[0] + 1, *half[1:]), 13)) == 1
    assert numfield._one_root(g, 13, half) in (0, 1, 4)


def test_descent_powerings_below_1e5(monkeypatch, spec7, spec9):
    # powerings inside _one_root (the shared half power not counted) over the
    # split primes below 10^5: 1056 on c7 and 1049 on c9, against 3379 and
    # 3355 for the shifts 1, 2, 3, ... with one gcd per shift
    count = [0]
    inside = [False]
    real_pow, real_root = numfield.pow_mod, numfield._one_root

    def counting_pow(*args):
        count[0] += inside[0]
        return real_pow(*args)

    def flagged_root(*args):
        inside[0] = True
        try:
            return real_root(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(numfield, "pow_mod", counting_pow)
    monkeypatch.setattr(numfield, "_one_root", flagged_root)
    for spec in (spec7, spec9):
        count[0] = 0
        split = sum(bool(split_completely(spec, p)) for p in _primes_below(10**5))
        assert split > 3000
        assert count[0] <= 1200, (spec.name, count[0])


@pytest.mark.parametrize("text, modulus", [
    (GOOD7, 7),
    ("spec9", 9),
    (QUINTIC11, 11),
    (shanks_cubic(2), 19),
    (shanks_cubic(4), 37),
], ids=["c7", "c9", "quintic", "shanks-2", "shanks-4"])
def test_split_classes_agree_with_the_direct_split_test(request, text, modulus):
    # the sweep's table H of split classes p mod M is a subgroup of index n,
    # and it decides every odd prime below 2 10^4 exactly as the direct
    # x^p = x test does
    spec = request.getfixturevalue(text) if text == "spec9" else load_spec(text)
    assert numfield.conductor_multiple(spec) == modulus
    tables = build_tables(spec)
    split = tables.split_classes
    units = [r for r in range(modulus) if math.gcd(r, modulus) == 1]
    assert tables.modulus == modulus and split <= set(units)
    assert len(split) * spec.n == len(units)
    assert {a * b % modulus for a in split for b in split} == split
    if text in (GOOD7, "spec9", QUINTIC11):
        # the real subfield of Q(zeta_M): p splits iff p = +-1 mod M
        assert split == {1, modulus - 1}
    x = (0, 1) + (0,) * (spec.n - 2)
    for p in _primes_below(20_000):
        direct = pow_mod((0, 1), p, spec.f, p) == x
        assert bool(tables.split_roots(p)) == direct, p


# -- conjugation --------------------------------------------------------------


def test_conjugate_orbit(spec7):
    P = PrimeDeg1(13, 7)
    chain = conjugate_chain(spec7, P)
    Q, R = chain[1], chain[2]
    assert Q == PrimeDeg1(13, 10)  # s(10) = 98 = 7 mod 13
    assert R == PrimeDeg1(13, 8)
    assert conjugate_chain(spec7, Q)[1] == R
    assert conjugate_chain(spec7, R)[1] == P  # n applications = identity
    assert len({P, Q, R}) == 3  # full orbit, no stabilizer


def test_conjugate_rejects_foreign_prime(spec7):
    with pytest.raises(ValueError, match="not a degree-one prime"):
        conjugate_chain(spec7, PrimeDeg1(13, 1))
    # f(2) = 0 mod 7, but 7 | disc_f
    with pytest.raises(ValueError, match="^P lies above 7, which divides disc_f$"):
        conjugate_chain(spec7, PrimeDeg1(7, 2))


# -- generators ---------------------------------------------------------------


def test_generator_verification_identity(spec7):
    P = PrimeDeg1(13, 7)
    alpha = generator_of_power(spec7, P)
    assert spec7.norm(alpha) == 13
    assert eval_mod(alpha, 7, 13) == 0
    assert all(s > 0 for s in spec7.embeddings.signs_of(alpha))


def test_generator_unit_square_invariance(spec7):
    P = PrimeDeg1(13, 7)
    alpha = generator_of_power(spec7, P)
    u = spec7.pad(spec7.units[0])
    adjusted = spec7.mul(spec7.mul(u, u), alpha)
    # still a totally positive generator of the same ideal
    assert spec7.norm(adjusted) == 13
    assert all(s > 0 for s in spec7.embeddings.signs_of(adjusted))
    assert eval_mod(adjusted, 7, 13) == 0


@pytest.mark.parametrize("p", [13, 29, 41, 43, 71, 83, 97, 967, 10009])
def test_generator_many_primes(spec7, p):
    roots = split_completely(spec7, p)
    if not roots:
        pytest.skip("not split")
    for a in roots:
        alpha = generator_of_power(spec7, PrimeDeg1(p, a))
        assert spec7.norm(alpha) == p
        assert eval_mod(alpha, a, p) == 0


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


@pytest.fixture(scope="module")
def quintic():
    return load_spec(QUINTIC11)


def trace_inner(spec, a, b):
    """Tr(a b) for power-basis coordinates a, b: the sum of a_i b_j Tr(theta^(i+j)).

    The reference for every Gram matrix the search starts from.  Tr(theta^k)
    is the diagonal sum of the matrix of multiplication by theta^k, read
    from `mul_mod` rather than from the power sums the search uses.
    """
    n = spec.n

    def trace(k):
        theta_k = (0,) * k + (1,)
        return sum(mul_mod(theta_k, (0,) * j + (1,), spec.f)[j] for j in range(n))

    return sum(ai * bj * trace(i + j) for i, ai in enumerate(a) if ai for j, bj in enumerate(b) if bj)


# theta + 3 in the conductor-7 cubic as a full config (units theta - 3 and theta - 2): 13 splits with root 0
SHIFTED7_CFG = GOOD7.replace("[-1, -2, 1, 1]", "[-13, 19, -8, 1]").replace(
    "sigma = [-2, 0, 1]", "sigma = [10, -6, 1]").replace(
    "unit = [0, 1, 0]\nunit = [1, 1, 0]", "unit = [-3, 1, 0]\nunit = [-2, 1, 0]")


@pytest.mark.parametrize("h", [1, 3])
def test_power_sum_gram_is_the_trace_gram_of_the_lattice_rows(spec7, spec9, quintic, h):
    shifted = load_spec(SHIFTED7_CFG)
    cases = [(spec7, p) for p in (13, 97, 10009)] + [(spec9, p) for p in (19, 73, 10007)] + \
        [(quintic, p) for p in (23, 89, 10099)] + [(shifted, 13)]
    zero_roots = 0
    for spec, p in cases:
        roots = split_completely(spec, p)
        assert len(roots) == spec.n
        zero_roots += roots[0] == 0
        for a in roots:
            root = numfield._lift_root(spec, PrimeDeg1(p, a), h)
            rows = numfield._ideal_power_basis(spec.n, p**h, root)
            reference = [[trace_inner(spec, u, v) for v in rows] for u in rows]
            assert numfield._ideal_power_gram(spec, p**h, root) == reference
    assert zero_roots == 1


@pytest.mark.parametrize("h", [1, 3])
def test_lll_returns_its_gram_schmidt_data(spec7, spec9, quintic, h):
    # the (mu, q) the search enumerates with must be the Gram-Schmidt data of
    # the reduced basis, recomputed here from scratch under the trace form
    cases = [(spec7, p) for p in (13, 97, 10009, 10037)] + \
        [(spec9, p) for p in (19, 73, 10007, 10061)] + \
        [(quintic, p) for p in (23, 89, 10009, 10099)]
    for spec, p in cases:
        roots = split_completely(spec, p)
        assert len(roots) == spec.n
        for a in roots:
            root = numfield._lift_root(spec, PrimeDeg1(p, a), h)
            lattice = numfield._ideal_power_basis(spec.n, p**h, root)
            gram0 = numfield._ideal_power_gram(spec, p**h, root)
            basis, lam, d = numfield._lll_reduce(lattice, gram0)
            n = spec.n
            mu = [[Fraction(lam[i][j], d[j + 1]) if j < i else Fraction(0) for j in range(n)]
                  for i in range(n)]
            q = [Fraction(d[i + 1], d[i]) for i in range(n)]
            gram = [[trace_inner(spec, u, v) for v in basis] for u in basis]
            assert (mu, q) == _gso(gram)
            # the int quotients the enumeration reads are the rounded rationals
            assert all(lam[i][j] / d[j + 1] == float(mu[i][j]) for i in range(n) for j in range(i))
            assert all(d[i + 1] / d[i] == float(q[i]) for i in range(n))
            # size-reduced, and the Lovasz condition holds at delta = 99/100
            for i in range(1, spec.n):
                assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
                assert q[i] >= (Fraction(99, 100) - mu[i][i - 1] ** 2) * q[i - 1]
            # a unimodular change of basis: the same covolume
            assert abs(det_bareiss([r[:] for r in basis])) == \
                abs(det_bareiss([r[:] for r in lattice]))


def _lll_reference(basis, gram):
    """The integral LLL loop as first written, step for step, rounding by Fraction: the reference for `_lll_reduce`."""
    n = len(basis)
    basis = [list(r) for r in basis]
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = gram[k][j]
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            r = round(Fraction(lam[k][j], d[j + 1]))
            if r:
                basis[k] = [x - r * y for x, y in zip(basis[k], basis[j])]
                for i in range(j):
                    lam[k][i] -= r * lam[j][i]
                lam[k][j] -= r * d[j + 1]
        t = lam[k][k - 1]
        if 100 * (d[k + 1] * d[k - 1] + t * t) >= 99 * d[k] * d[k]:
            k += 1
            continue
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


@pytest.mark.parametrize("h", [1, 3])
def test_lll_takes_the_reference_steps(spec7, spec9, quintic, h):
    # same (basis, lam, d) as the reference loop at every conjugate prime of
    # the first 300 split primes of each field, so every generator is unchanged
    for spec in (spec7, spec9, quintic):
        split = 0
        for p in _primes_below(10**5):
            if split == 300:
                break
            if not (roots := split_completely(spec, p)):
                continue
            split += 1
            for a in roots:
                root = numfield._lift_root(spec, PrimeDeg1(p, a), h)
                lattice = numfield._ideal_power_basis(spec.n, p**h, root)
                gram = numfield._ideal_power_gram(spec, p**h, root)
                assert numfield._lll_reduce(lattice, gram) == _lll_reference(lattice, gram)
        assert split == 300


def _primes_below(limit):
    return [p for p in range(3, limit, 2) if all(p % q for q in range(3, int(p**0.5) + 1, 2))]


def _generator_digest(spec, limit):
    digest = hashlib.sha256()
    for p in _primes_below(limit):
        for a in split_completely(spec, p):
            digest.update(repr((p, a, generator_of_power(spec, PrimeDeg1(p, a)))).encode())
    return digest.hexdigest()


def test_generator_digests_are_pinned(spec7, spec9, quintic):
    # SHA-256 over repr((p, a, generator)) for every split (p, a), in
    # split_completely order; pinned from the Fraction-based search that the
    # integral LLL replaced.  A search that picks other generators (say, a
    # floating-point LLL) must change these pins visibly.
    assert _generator_digest(spec7, 5000) == \
        "169c9088149491a05f1b164e7db9d99ba5353dacc54254bfe023f22f1b3bdd13"
    assert _generator_digest(spec9, 5000) == \
        "d9b3e33b58b68ca6048125bf70026ee922d75e6f3eccd28dbaf747679e22cebc"
    assert _generator_digest(quintic, 2000) == \
        "5792096a5ba1466e55ac6d13927cfc86e9151920a0971e3b810b51233e01bf18"


def _scan_lo_to_hi(gram, bound):
    """The vectors of the ellipsoid x^T G x <= bound, one per +- pair, from a scan of its bounding box.

    Reads the Gram matrix G alone, in exact arithmetic: x_i^2 <= bound
    (G^-1)_ii on the ellipsoid, and (G^-1)_ii is the i-th principal minor
    over det G.  Each coordinate runs from lo up to hi.
    """
    n = len(gram)
    det = det_bareiss(gram)
    bound = Fraction(bound)
    if bound < 0:
        return []
    limit = math.floor(bound)  # x^T G x is an integer
    ranges = []
    for i in range(n):
        minor = det_bareiss([row[:i] + row[i + 1:] for k, row in enumerate(gram) if k != i])
        r = math.isqrt(math.floor(bound * minor / det))
        ranges.append(range(-r, r + 1))
    out = []
    for rest in itertools.product(*reversed(ranges[1:])):
        rest = rest[::-1]
        top = next((c for c in reversed(rest) if c), 0)
        # x^T G x = G_00 x_0^2 + 2 x_0 link + inner for x = (x_0, rest)
        link = sum(g * c for g, c in zip(gram[0][1:], rest))
        inner = sum(rest[i] * gram[i + 1][j + 1] * rest[j] for i in range(n - 1) for j in range(n - 1))
        for x0 in ranges[0]:
            if (top > 0 or not top and x0 > 0) and gram[0][0] * x0 * x0 + 2 * x0 * link + inner <= limit:
                out.append((x0, *rest))
    return out


def _search_data(spec, p, a):
    """LLL data of the lattice of (p, theta - a) and the search's base radius, as generator_of_power has them."""
    lattice = numfield._ideal_power_basis(spec.n, p, a)
    basis, lam, d = numfield._lll_reduce(lattice, numfield._ideal_power_gram(spec, p, a))
    return basis, lam, d, spec.n * (p * math.sqrt(spec.disc_f)) ** (2.0 / spec.n)


def test_centre_first_enumerates_the_same_vectors(spec7, quintic):
    # every radius stage on c7; the quintic's last stage holds ~1.5 10^5 vectors, so its first two
    cases = [(spec7, p) for p in (13, 97, 10009)] + [(quintic, p) for p in (23, 89, 10099)]
    for spec, p in cases:
        stages = numfield._RADIUS_STAGES if spec.n == 3 else numfield._RADIUS_STAGES[:2]
        for a in split_completely(spec, p):
            basis, lam, d, base = _search_data(spec, p, a)
            gram = [[trace_inner(spec, u, v) for v in basis] for u in basis]
            for mult in stages:
                got = list(numfield._enumerate_short(lam, d, mult * mult * base))
                want = _scan_lo_to_hi(gram, mult * mult * base)
                assert len(set(got)) == len(got) and sorted(got) == sorted(want)
                assert got  # the search always has candidates to try


def _sorted_centre_first(lam, d, bound):
    """The enumeration as a sort per level, in Fractions: by (|x - centre|, x), stopping at the first x past the budget."""
    n = len(d) - 1
    mu = [[Fraction(lam[i][j], d[j + 1]) for j in range(i)] for i in range(n)]
    q = [Fraction(d[i + 1], d[i]) for i in range(n)]
    coords = [0] * n
    out = []

    def descend(i, remaining):
        if i < 0:
            top = [c for c in coords if c]
            if top and top[-1] > 0:
                out.append(tuple(coords))
            return
        centre = -sum(coords[j] * mu[j][i] for j in range(i + 1, n))
        # a float range with a margin of one on each side; the exact test ends the level
        half = math.sqrt(max(remaining, 0) / q[i]) + 1
        for x in sorted(range(math.floor(centre - half), math.ceil(centre + half) + 1),
                        key=lambda x: (abs(x - centre), x)):
            used = q[i] * (x - centre) ** 2
            if used > remaining:
                break
            coords[i] = x
            descend(i - 1, remaining - used)
        coords[i] = 0

    descend(n - 1, Fraction(bound))
    return out


def test_two_pointers_enumerate_in_the_sorted_centre_first_order(spec7, quintic):
    # the same vectors in the same order as a sort of each level, so the
    # first hit, and with it every generator, is unchanged
    cases = [(spec7, p) for p in (13, 97, 10009)] + [(quintic, p) for p in (23, 89, 10099)]
    for spec, p in cases:
        stages = numfield._RADIUS_STAGES if spec.n == 3 else numfield._RADIUS_STAGES[:2]
        for a in split_completely(spec, p):
            _, lam, d, base = _search_data(spec, p, a)
            for mult in stages:
                bound = mult * mult * base
                assert list(numfield._enumerate_short(lam, d, bound)) == _sorted_centre_first(lam, d, bound)


def test_two_pointers_break_ties_to_the_smaller_x(monkeypatch):
    # hand-built Gram-Schmidt data with mu = +-1/2 and +-3/2, so that many
    # levels have a half-integer centre and two nearest integers
    ties = [
        ([[0, 0], [1, 0]], [1, 2, 4]),  # mu10 = 1/2
        ([[0, 0], [-3, 0]], [1, 2, 2]),  # mu10 = -3/2
        ([[0, 0, 0], [1, 0, 0], [-1, 3, 0]], [1, 2, 6, 12]),  # mu10 = 1/2, mu20 = -1/2, mu21 = 1/2
        ([[0, 0, 0], [3, 0, 0], [1, -9, 0]], [1, 2, 6, 6]),  # mu10 = 3/2, mu20 = 1/2, mu21 = -3/2
    ]
    # exact edges of the budget: whether the walk starts at e_0 (d[1] <= bound), and its vectors
    below, above = (lambda x: math.nextafter(x, -math.inf)), (lambda x: math.nextafter(x, math.inf))
    q2, q3 = ([[0, 0], [1, 0]], [1, 2, 4]), ([[0, 0], [0, 0]], [1, 3, 1])
    edges = [
        (*q2, 2.0, True, [(1, 0)]),  # bound = d[1], the cost of e_0
        (*q2, above(2.0), True, [(1, 0)]),
        (*q2, below(2.0), False, []),  # one ulp below d[1]: nothing is within the budget
        (*q2, 2.5, True, [(1, 0), (-1, 1), (0, 1)]),  # (-1, 1) and (0, 1) cost 2 + 1/2 exactly
        (*q2, below(2.5), True, [(1, 0)]),
        (*q3, 1 / 3, False, []),  # (0, 1) costs 1/3, just above the rounded float 1/3
        (*q3, above(1 / 3), False, [(0, 1)]),
        (*q2, 0.0, False, []),
        (*q2, -1.0, False, []),
    ]
    cases = [(lam, d, bound, None, None) for lam, d in ties for bound in (0.5, 2.0, 4.5, 9.0, 30.0)] + edges
    for lam, d, bound, starts, want in cases:
        got = list(numfield._enumerate_short(lam, d, bound))
        assert got == _sorted_centre_first(lam, d, bound)
        e0 = (1,) + (0,) * (len(d) - 2)
        if starts is not None:
            assert got == want
            assert (got[:1] == [e0]) == starts
        if starts:
            with monkeypatch.context() as m:  # e_0 comes before the walk is built
                m.setattr(numfield, "_walk", None)
                assert next(numfield._enumerate_short(lam, d, bound)) == e0
    assert all(len(list(numfield._enumerate_short(lam, d, 30.0))) > 10 for lam, d in ties)
    # under x1 = 1 the centre of level 0 is -1/2: it tries -1 before 0, and -2 before 1
    lam, d = [[0, 0], [1, 0]], [1, 2, 4]
    level0 = [c[0] for c in numfield._enumerate_short(lam, d, 30.0) if c[1] == 1]
    assert level0[:4] == [-1, 0, -2, 1]
    # a Gram determinant <= 0 at any level is no trace form of a totally real field
    for lam, d in [
        ([[0, 0], [1, 0]], [1, 2, -2]),  # the top level
        ([[0, 0], [1, 0]], [1, 2, 0]),
        ([[0, 0], [1, 0]], [1, -2, -4]),  # below a live level
        ([[0, 0, 0], [1, 0, 0], [0, 0, 0]], [1, 2, -2, -4]),  # in the middle
    ]:
        with pytest.raises(AssertionError, match="positive definite"):
            next(numfield._enumerate_short(lam, d, 30.0))


@pytest.mark.parametrize("p, a, above, run", [
    (13, 7, (-6, 3), [-3, -4, -2, -5, -1, -6, 0, -7, 1]),  # level-0 centre exactly -3
    (631, 79, (-5, 1), [2, 3, 1, 4, 0, 5, -1, 6]),  # level-0 centre exactly 5/2
])
def test_exact_centres_break_ties_to_the_smaller_x(spec7, p, a, above, run):
    # at these c7 primes a level-0 centre of the last radius stage is an
    # integer or a half-integer; a float centre lands on one side of it and
    # can try the larger of two equidistant x first (-2 before -4, 3 before 2)
    _, lam, d, base = _search_data(spec7, p, a)
    bound = numfield._RADIUS_STAGES[-1] ** 2 * base
    got = list(numfield._enumerate_short(lam, d, bound))
    assert got == _sorted_centre_first(lam, d, bound)
    assert [x[0] for x in got if x[1:] == above] == run


def test_abandoned_walks_leave_no_reference_cycles(spec7, quintic):
    # a search drops the walk at its first hit; with the collector off,
    # walks abandoned after 1, 2 and 3 vectors must leave nothing for it
    cases = ((spec7, 97), (spec7, 10009), (quintic, 89))
    data = [_search_data(spec, p, a) for spec, p in cases for a in split_completely(spec, p)]
    gc.collect()
    gc.disable()
    try:
        for _, lam, d, base in data:
            for taken in (1, 2, 3):
                walk = numfield._enumerate_short(lam, d, base)
                for _ in range(taken):
                    next(walk)
                del walk
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0


def _search_without_b0(spec, P):
    """A search whose b_0 fails, from the sorted centre-first order: (stages, b_0, stages run, generator).

    A first radius stage that just holds b_0 goes before `_RADIUS_STAGES`,
    so the next hit comes from a later stage.
    """
    n, target = spec.n, P.p**spec.h
    root = numfield._lift_root(spec, P, spec.h)
    basis, lam, d = numfield._lll_reduce(
        numfield._ideal_power_basis(n, target, root), numfield._ideal_power_gram(spec, target, root)
    )
    base = n * (target * math.sqrt(spec.disc_f)) ** (2.0 / n)
    stages = (math.sqrt(d[1] / d[0] / base) * 1.000001, *numfield._RADIUS_STAGES)
    e0 = (1,) + (0,) * (n - 1)
    for stage, mult in enumerate(stages, 1):
        for coords in _sorted_centre_first(lam, d, mult * mult * base):
            vec = tuple(sum(c * row[j] for c, row in zip(coords, basis)) for j in range(n))
            if coords != e0 and abs(spec.norm(vec)) == target:
                signs = spec.embeddings.signs_of(vec)
                if -1 in signs:
                    vec = spec.mul(spec.unit_by_signature[signs], vec)
                return stages, tuple(basis[0]), stage, vec
    raise AssertionError("no second generator in the search radius")


@pytest.mark.parametrize(
    "field, primes",
    [("spec7", (13, 97, 10009)), ("spec9", (19, 73, 10007)), ("quintic", (23, 89))],
    ids=["spec7", "spec9", "quintic"],
)
def test_search_without_b0_returns_the_next_centre_first_hit(monkeypatch, request, field, primes):
    # no shipped field reaches past b_0, so make the box pass report a wrong
    # norm for it: the search must go on to the next hit of the order, and
    # must test b_0 once per radius stage (the walk's own e_0 is dropped)
    spec = request.getfixturevalue(field)
    real = numfield.Embeddings.signs_and_norm
    tested = []

    def b0_fails(self, a):
        signs, norm = real(self, a)
        if a == b0:
            tested.append(a)
            norm *= 2
        return signs, norm

    monkeypatch.setattr(numfield.Embeddings, "signs_and_norm", b0_fails)
    runs = []
    for p in primes:
        for a in split_completely(spec, p):
            P = PrimeDeg1(p, a)
            with monkeypatch.context() as m:
                stages, b0, run, want = _search_without_b0(spec, P)
                m.setattr(numfield, "_RADIUS_STAGES", stages)
                tested.clear()
                assert generator_of_power(spec, P) == want
            assert len(tested) == run
            runs.append(run)
    assert min(runs) >= 2  # the hit never came from the stage that holds just b_0


def test_lll_rounds_ties_to_even():
    # hand-built Gram matrices whose size reduction meets mu = k + 1/2: the
    # integral LLL rounds each tie to the even integer, as the reference's
    # round(Fraction) does (2 x 2: mu = 1/2 -> 0, 3/2 -> 2, -5/2 -> -2, ...)
    cases = [[[4, 2 * m], [2 * m, m * m + 5]] for m in (1, 3, -5, 7, -9)]
    cases.append([[4, 2, 6], [2, 9, 5], [6, 5, 40]])  # mu10 = 1/2, mu20 = 3/2
    for gram in cases:
        identity = [[int(i == j) for j in range(len(gram))] for i in range(len(gram))]
        got = numfield._lll_reduce(identity, gram)
        assert got == _lll_reference(identity, gram)
    identity = [[1, 0], [0, 1]]
    assert numfield._lll_reduce(identity, [[4, 2], [2, 6]])[0] == identity  # round(1/2) = 0
    assert numfield._lll_reduce(identity, [[4, 6], [6, 14]])[0][1] == [-2, 1]  # round(3/2) = 2


def _horner_interval(coeffs, lo, hi):
    vlo = vhi = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(cands) + c, max(cands) + c
    return vlo, vhi


def test_eval_point_matches_fraction_horner():
    # the integer is 2^(e deg) times the rational Horner value at x/2^e
    rng = random.Random(20201)
    for _ in range(300):
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(1, 6))]
        e = rng.randint(0, 300)
        x = rng.randint(-(1 << 20), 1 << 20) << rng.randint(0, 12)
        got = numfield._eval_point(coeffs, x, e)
        scale = 1 << (e * (len(coeffs) - 1))
        want = _horner_interval(coeffs, Fraction(x, 1 << e), Fraction(x, 1 << e))
        assert want[0] == want[1] and got == want[0] * scale
        assert type(got) is int


def test_generator_cube_power(spec7):
    # h = 3 exercises the ideal-power path: norm 13^3, contained in P^3
    P = PrimeDeg1(13, 7)
    alpha = generator_of_power(with_h(spec7, 3), P)
    assert spec7.norm(alpha) == 13**3
    assert all(s > 0 for s in spec7.embeddings.signs_of(alpha))
    # the generator of P^3 reduces to 0 under theta -> 7 (it lies in P)
    assert eval_mod(alpha, 7, 13) == 0


def test_generator_rejects_foreign_prime(spec7):
    # 2 and 1 are not roots of f mod 13, and 5 is inert: none is a prime of the field
    for P in (PrimeDeg1(13, 2), PrimeDeg1(13, 1), PrimeDeg1(5, 1)):
        with pytest.raises(ValueError, match="not a degree-one prime"):
            generator_of_power(spec7, P)


def test_generator_rejects_ramified_prime(spec7, spec9):
    # f(2) = 0 mod 7 and f(1) = 0 mod 3, but 7 | disc c7 and 3 | disc c9
    for spec, P in ((spec7, PrimeDeg1(7, 2)), (spec9, PrimeDeg1(3, 1))):
        assert eval_mod(spec.f, P.a, P.p) == 0
        for h in (1, 3):
            with pytest.raises(ValueError, match=f"^P lies above {P.p}, which divides disc_f$"):
                generator_of_power(with_h(spec, h), P)


DISC_PRIME_FIELDS = {
    "real-cyclotomic-19": REAL_CYCLOTOMIC19,
    **{f"shanks-{m}": shanks_cubic(m) for m in (2, 4, 10, 12, 14)},
}


@pytest.mark.parametrize("field", ["spec7", "spec9", "quintic", *DISC_PRIME_FIELDS])
def test_primes_of_disc_f_do_not_split(request, field):
    # f mod q has a repeated root when q | disc_f and x^q - x has none, so the
    # certificate alone gives []; on Shanks m = 12, q = 3 divides only the index
    # of Z[theta].  Each root a of f mod q still names no prime the chain or the
    # search accepts
    spec = load_spec(DISC_PRIME_FIELDS[field]) if field in DISC_PRIME_FIELDS else request.getfixturevalue(field)
    for q in prime_factors(abs(spec.disc_f)):
        assert split_completely(spec, q) == []
        roots = brute_roots(spec, q)
        assert 0 < len(roots) < spec.n
        for a in roots:
            for call in (conjugate_chain, generator_of_power):
                with pytest.raises(ValueError, match=f"^P lies above {q}, which divides disc_f$"):
                    call(spec, PrimeDeg1(q, a))


def test_non_principal_prime_walks_every_stage_and_misses(monkeypatch):
    # Shanks m = 14 (conductor 247, Z[theta] the maximal order) has class
    # number 3; typed in as h = 1, the primes over 17 are not principal, so the
    # search tests every vector of every radius stage, to the end of each
    # walk, and names the miss
    spec = load_spec(shanks_cubic(14))
    assert spec.disc_f == 247**2
    assert split_completely(spec, 17) == [6, 12, 13]
    real = numfield.Embeddings.signs_and_norm
    tested = []

    def count(self, a):
        tested.append(a)
        return real(self, a)

    monkeypatch.setattr(numfield.Embeddings, "signs_and_norm", count)
    for a in (6, 12, 13):
        tested.clear()
        with pytest.raises(numfield.GeneratorNotFound, match="^no generator of norm 17 within the search radius$"):
            generator_of_power(spec, PrimeDeg1(17, a))
        _, lam, d, base = _search_data(spec, 17, a)
        stages = [list(numfield._enumerate_short(lam, d, mult * mult * base)) for mult in numfield._RADIUS_STAGES]
        assert [len(stage) for stage in stages] == [19, 83, 687]
        assert len(tested) == sum(map(len, stages))
    # at h = 3 the cube of each is principal, and the same search finds its generator
    cubed = with_h(spec, 3)
    for a in (6, 12, 13):
        assert spec.norm(generator_of_power(cubed, PrimeDeg1(17, a))) == 17**3


LIFT_PRIMES = (13, 19, 97, 1009, 10009)


def test_lift_root_is_the_hensel_lift(spec7, spec9):
    lifted = 0
    for spec in (spec7, spec9):
        for p in LIFT_PRIMES:
            for a in split_completely(spec, p):
                for h in (1, 3, 5):
                    root = numfield._lift_root(spec, PrimeDeg1(p, a), h)
                    assert 0 <= root < p**h
                    assert eval_mod(spec.f, root, p**h) == 0
                    assert root % p == a
                    lifted += 1
    assert lifted == 3 * 3 * 7  # 4 split primes on c7, 3 on c9, 3 roots each


@pytest.mark.parametrize("h", [3, 5])
def test_power_generator_lies_in_the_kernel(spec7, spec9, h):
    # the generator of P^h has norm p^h and vanishes at the lifted root mod p^h
    for spec, p in ((spec7, 13), (spec7, 29), (spec9, 19), (spec9, 37)):
        for a in split_completely(spec, p):
            P = PrimeDeg1(p, a)
            alpha = generator_of_power(with_h(spec, h), P)
            assert spec.norm(alpha) == p**h
            assert all(s > 0 for s in spec.embeddings.signs_of(alpha))
            assert eval_mod(alpha, numfield._lift_root(spec, P, h), p**h) == 0


# -- residue symbols ----------------------------------------------------------


def test_legendre_one_and_squares(spec7):
    Q = PrimeDeg1(13, 7)
    assert legendre_deg1(spec7, spec7.one(), Q) == 1
    for beta in ((1, 2, 0), (3, 0, 1), (0, 1, 1)):
        sq = spec7.mul(beta, beta)
        if eval_mod(sq, 7, 13) != 0:
            assert legendre_deg1(spec7, sq, Q) == 1


def test_legendre_against_square_set(spec7):
    q, b = 13, 7
    squares = {(x * x) % q for x in range(1, q)}
    for t in range(1, q):
        got = legendre_deg1(spec7, (t, 0, 0), PrimeDeg1(q, b))
        assert got == (1 if t in squares else -1)
    assert legendre_deg1(spec7, (13, 0, 0), PrimeDeg1(q, b)) == 0


def _spins(spec, P):
    """Residue symbols of the totally positive generator of P^h at sigma^k(P), k = 1..n-1."""
    chain = conjugate_chain(spec, P)
    alpha = generator_of_power(spec, P)
    return tuple(legendre_deg1(spec, alpha, Q) for Q in chain[1:])


def _m4_class(spec, family, P):
    """Square class mod 4 of the totally positive generator of P^h."""
    alpha = generator_of_power(spec, P)
    return residue.m4_class_of(family, tuple(c % 4 for c in alpha))


def test_spin_values_and_product_identity(spec7, family7):
    P = PrimeDeg1(13, 7)
    s1, s2 = _spins(spec7, P)
    assert s1 in (1, -1) and s2 in (1, -1)
    # the product must be the dyadic Hilbert symbol of the generator and its conjugate
    alpha = generator_of_power(spec7, P)
    r3 = family7.rings[3]
    a8 = tuple(c % 8 for c in alpha)
    assert s1 * s2 == residue.hilbert2(r3, a8, r3.apply_tau(a8, 1))
    # the symbol at P itself (k = 0 or n) degenerates: the generator lies in P
    assert legendre_deg1(spec7, alpha, P) == 0


def test_spin_orbit_is_permutation(spec7):
    P = PrimeDeg1(13, 7)
    Q = conjugate_chain(spec7, P)[1]
    assert sorted(_spins(spec7, P)) == sorted(_spins(spec7, Q))


# -- r4 map -------------------------------------------------------------------


def test_r4_equivariance_and_norm_sign(spec7, family7, star7):
    for p in (13, 29, 41, 43):
        roots = split_completely(spec7, p)
        P = PrimeDeg1(p, roots[0])
        bits = _m4_class(spec7, family7, P)
        assert star7.norm_sign[bits] == (1 if p % 4 == 1 else -1)
        Q = conjugate_chain(spec7, P)[1]
        assert _m4_class(spec7, family7, Q) == residue.rot(bits, 1)


def test_r4_plus_classes_for_one_mod_four(spec7, family7, star7):
    for p in (13, 29, 41, 97, 113):
        roots = split_completely(spec7, p)
        if not roots or p % 4 != 1:
            continue
        bits = _m4_class(spec7, family7, PrimeDeg1(p, roots[0]))
        assert star7.norm_sign[bits] == 1


# -- symbol flip (reciprocity surrogate) ---------------------------------------


def test_symbol_flip_for_one_mod_4_generators(spec7):
    """For beta = 1 mod 4O totally positive, the symbol is symmetric between primes."""
    split = []
    for p in range(3, 700, 2):
        if all(p % q for q in range(3, int(p**0.5) + 1, 2)):
            roots = split_completely(spec7, p)
            if roots:
                split.append(PrimeDeg1(p, roots[0]))
    # unit squares available for nudging a generator into 1 + 4O
    unit_sq = []
    th = spec7.pad(spec7.units[0])
    tp = spec7.pad(spec7.units[1])
    for i in range(7):
        for j in range(7):
            u = spec7.one()
            for _ in range(i):
                u = spec7.mul(u, th)
            for _ in range(j):
                u = spec7.mul(u, tp)
            unit_sq.append(spec7.mul(u, u))
    flips = 0
    for Q in split:
        beta = generator_of_power(spec7, Q)
        adjusted = None
        for usq in unit_sq:
            cand = spec7.mul(beta, usq)
            if all(c % 4 == (1 if i == 0 else 0) for i, c in enumerate(cand)):
                adjusted = cand
                break
        if adjusted is None:
            continue
        for P in split[:6]:
            if P.p == Q.p:
                continue
            alpha = generator_of_power(spec7, P)
            assert legendre_deg1(spec7, alpha, Q) == legendre_deg1(spec7, adjusted, P)
            flips += 1
    assert flips >= 3, "expected some generators congruent to 1 mod 4O below 700"


# -- precision machinery -------------------------------------------------------


def test_interval_refinement_decides_tiny_values(spec7):
    # theta - (a close dyadic approximation) has a tiny but nonzero sign
    before = spec7.embeddings._brackets
    boxes = spec7.embeddings._boxes
    lo, hi, e = before[2]
    # 2^(e+1) theta - (lo + hi) at the third root: its midpoint, so the
    # stored box cannot decide the sign and the query must refine
    tiny = (-(lo + hi), 1 << (e + 1), 0)
    vlo, vhi = numfield._eval_box(tiny, boxes[2])
    assert vlo < 0 < vhi
    signs = spec7.embeddings.signs_of(tiny)
    assert signs[2] == _fraction_sign(spec7.f, before[2], tiny)
    # refined a copy, not the stored bracket or its box
    assert spec7.embeddings._brackets == before and spec7.embeddings._boxes == boxes


def _fraction_sign(f, bracket, a):
    """Sign of a(r) at the root r of f in the bracket, by Fraction interval Horner and Fraction bisection."""
    lo, hi, e = bracket
    lo, hi = Fraction(lo, 1 << e), Fraction(hi, 1 << e)
    flo = _horner_interval(f, lo, lo)[0]
    while True:
        vlo, vhi = _horner_interval(a, lo, hi)
        if vlo > 0 or vhi < 0:
            return 1 if vlo > 0 else -1
        mid = (lo + hi) / 2
        fmid = _horner_interval(f, mid, mid)[0]
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi = mid


def test_signs_of_matches_the_fraction_sign(spec7, spec9, quintic):
    # seeded elements, from small to far past the 128-bit brackets, plus one
    # vanishing to high order at a root: the box route gives the exact sign
    rng = random.Random(20231)
    for spec in (spec7, spec9, quintic):
        emb = spec.embeddings
        before = (emb._brackets, emb._boxes)
        elements = [tuple(rng.randint(-(1 << k), 1 << k) for _ in range(spec.n))
                    for k in (3, 20, 64, 200) for _ in range(25)]
        lo, hi, e = emb._brackets[0]
        elements.append(spec.pad((-(lo + hi), 1 << (e + 1))))
        for a in elements:
            if any(a):
                want = tuple(_fraction_sign(spec.f, b, a) for b in emb._brackets)
                assert emb.signs_of(a) == want, (spec.name, a)
        assert (emb._brackets, emb._boxes) == before


def _count_bareiss(monkeypatch):
    """Record each element whose norm the box pass hands to `norm_mod`."""
    fallbacks = []

    def bareiss(a, f):
        fallbacks.append(a)
        return norm_mod(a, f)

    monkeypatch.setattr(numfield, "norm_mod", bareiss)
    return fallbacks


def test_signs_and_norm_is_the_signs_and_the_bareiss_norm(monkeypatch, spec7, spec9, quintic):
    # the one box pass against signs_of, Bareiss and rational elimination
    fallbacks = _count_bareiss(monkeypatch)
    specs = {spec.f: spec for spec in (spec7, spec9, quintic)}

    def check(spec, a):
        got = spec.embeddings.signs_and_norm(a)
        assert got == (spec.embeddings.signs_of(a), norm_mod(a, spec.f)), (spec.name, a)
        assert got[1] == _norm_by_fractions(a, spec.f)
        return got

    for f, a, norm in PINNED_NORMS:
        assert check(specs[f], a)[1] == norm
    for spec in specs.values():
        for signs, u in spec.unit_by_signature.items():
            assert check(spec, u) == (signs, math.prod(signs))
    rng = random.Random(20240)
    for spec in specs.values():
        for k in (3, 20):
            for _ in range(25):
                a = tuple(rng.randint(-(1 << k), 1 << k) for _ in range(spec.n))
                if any(a):
                    check(spec, a)
    assert fallbacks == [], "small elements take their norm from the boxes"
    for spec in specs.values():
        for k in (64, 200):
            for _ in range(10):
                check(spec, tuple(rng.randint(-(1 << k), 1 << k) for _ in range(spec.n)))
    # at 2^64 and beyond the enclosure of |N| is wider than one integer, at 128-bit brackets
    assert len(fallbacks) == 3 * 2 * 10
    # the near-root element: the stored box cannot decide its sign at the third root
    emb = spec7.embeddings
    lo, hi, e = emb._brackets[2]
    tiny = (-(lo + hi), 1 << (e + 1), 0)
    vlo, vhi = numfield._eval_box(tiny, emb._boxes[2])
    assert vlo < 0 < vhi
    assert check(spec7, tiny)[0][2] == _fraction_sign(spec7.f, emb._brackets[2], tiny)


def test_generator_search_takes_no_bareiss_norm(monkeypatch, spec7, quintic):
    # every candidate and every self-check reads its norm from the box pass
    fallbacks = _count_bareiss(monkeypatch)
    monkeypatch.setattr(numfield.FieldSpec, "norm", lambda spec, a: pytest.fail("FieldSpec.norm called"))
    for spec, limit in ((spec7, 2000), (quintic, 500)):
        for p in _primes_below(limit):
            for a in split_completely(spec, p):
                generator_of_power(spec, PrimeDeg1(p, a))
    assert fallbacks == []


SIGNATURE_FIELDS = {
    "real-quintic-11": QUINTIC11,
    **{f"shanks-{m}": shanks_cubic(m) for m in (2, 4, 8, 10)},
    "shanks-14-h3": shanks_cubic(14).replace("h = 1", "h = 3"),
    "real-cyclotomic-19": REAL_CYCLOTOMIC19,
}


def _signature_table_by_signs_of(spec):
    """The table from 2^n sign passes: every product of units in mask order, then signs_of of it and its negative."""
    table = {}
    for mask in range(1 << (spec.n - 1)):
        u = spec.one()
        for i, unit in enumerate(spec.units):
            if mask >> i & 1:
                u = spec.mul(u, spec.pad(unit))
        for v in (u, spec.neg(u)):
            sig = spec.embeddings.signs_of(v)
            assert sig not in table
            table[sig] = v
    return table


@pytest.mark.parametrize("field", ["spec7", "spec9", *SIGNATURE_FIELDS])
def test_signature_table_is_the_table_of_every_product(request, field):
    # keys, values and insertion order against a sign pass on each of the 2^n units
    spec = load_spec(SIGNATURE_FIELDS[field]) if field in SIGNATURE_FIELDS else request.getfixturevalue(field)
    want = _signature_table_by_signs_of(spec)
    assert len(want) == 1 << spec.n
    assert list(spec.unit_by_signature.items()) == list(want.items())


def test_load_makes_one_box_pass_per_unit_and_no_bareiss(monkeypatch):
    # signs multiply, so the 2^n patterns cost n - 1 passes and the norms come from the boxes
    fallbacks = _count_bareiss(monkeypatch)
    passes = []
    box_pass = numfield.Embeddings.signs_and_norm

    def counted(self, a):
        passes.append(a)
        return box_pass(self, a)

    monkeypatch.setattr(numfield.Embeddings, "signs_and_norm", counted)
    monkeypatch.setattr(numfield.Embeddings, "signs_of", lambda self, a: pytest.fail("signs_of called"))
    for text in (GOOD7, QUINTIC11, REAL_CYCLOTOMIC19):
        passes.clear()
        spec = load_spec(text)
        assert passes == [spec.pad(u) for u in spec.units]
    assert fallbacks == []


def test_power_box_bounds_each_power_exactly():
    # brackets [lo/2^e, hi/2^e] of both signs and across 0; bounds are the
    # exact range of x^j at the bracket's scale 2^e, rounded outward
    n = 5
    for lo, hi, e in [(-3, 5, 2), (-5, 3, 2), (3, 5, 2), (-5, -3, 2), (-7, 1, 3), (0, 3, 1), (-2, 0, 1),
                      (-1001, -999, 9), (12345, 12346, 13)]:
        box = numfield._power_box((lo, hi, e), n)
        a, b = Fraction(lo, 1 << e), Fraction(hi, 1 << e)
        for j, (low, high) in enumerate(box):
            values = [a**j, b**j] + ([Fraction(0)] if j and a < 0 < b else [])
            assert (low, high) == (math.floor(min(values) * (1 << e)), math.ceil(max(values) * (1 << e)))
    # across 0 the even powers start at 0: 1 + x^2 + x^4 is certified positive
    box = numfield._power_box((-3, 5, 2), n)
    assert box[2][0] == box[4][0] == 0
    assert numfield._eval_box((1, 0, 1, 0, 1), box)[0] > 0
    assert numfield._eval_box((0, 1, 0, 0, 0), box) == (-3, 5)


def test_signs_of_rejects_a_wrong_length(spec7):
    with pytest.raises(ValueError, match="expected 3"):
        spec7.embeddings.signs_of((1, 0))
