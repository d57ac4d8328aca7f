import hashlib
import math
import random
from fractions import Fraction

import pytest

from spinsweep import numfield, residue
from spinsweep.intpoly import det_bareiss
from spinsweep.numfield import (
    BadUnit,
    C4Violation,
    EvenClassNumber,
    EvenDegree,
    FieldConfigError,
    NotAutomorphism,
    PrimeDeg1,
    RamifiedPrime,
    conjugate_chain,
    eval_mod,
    generator_of_power,
    legendre_deg1,
    load_spec,
    split_completely,
)

GOOD7 = """
name = "simplest-cubic-7"
n = 3
f = [-1, -2, 1, 1]
sigma = [-2, 0, 1]
h = 1
unit = [0, 1, 0]
unit = [1, 1, 0]
disc_f = 49
"""


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
    bad = GOOD7.replace("[-1, -2, 1, 1]", "[0, -1, 0, 1]").replace("disc_f = 49", "disc_f = 4")
    with pytest.raises(C4Violation):
        load_spec(bad)  # x^3 - x


def test_reject_even_degree():
    text = """
name = "bad"
n = 2
f = [-1, 0, 1]
sigma = [0, 1]
h = 1
unit = [0, 1]
disc_f = 4
"""
    with pytest.raises(EvenDegree):
        load_spec(text)


def test_reject_even_class_number():
    with pytest.raises(EvenClassNumber):
        load_spec(GOOD7.replace("h = 1", "h = 2"))


def test_reject_non_automorphism():
    # x^2 - 2 generates the action of x^3 - 3x + 1, not of x^3 - 3x - 1
    text = GOOD7.replace("[-1, -2, 1, 1]", "[-1, -3, 0, 1]").replace("disc_f = 49", "disc_f = 81")
    with pytest.raises(NotAutomorphism):
        load_spec(text)


def test_reject_identity_sigma():
    with pytest.raises(NotAutomorphism):
        load_spec(GOOD7.replace("sigma = [-2, 0, 1]", "sigma = [0, 1]"))


def test_reject_bad_unit():
    with pytest.raises(BadUnit):
        load_spec(GOOD7.replace("unit = [0, 1, 0]", "unit = [2, 0, 0]"))


def test_reject_signature_deficient_units():
    # theta and -theta^{-1}... using theta twice cannot span the sign patterns
    with pytest.raises(BadUnit):
        load_spec(GOOD7.replace("unit = [1, 1, 0]", "unit = [0, 1, 0]"))


def test_reject_unknown_key():
    with pytest.raises(FieldConfigError):
        load_spec(GOOD7 + "\nextra = 1")


def test_reject_wrong_disc():
    with pytest.raises(FieldConfigError):
        load_spec(GOOD7.replace("disc_f = 49", "disc_f = 47"))


def test_reject_missing_key():
    with pytest.raises(FieldConfigError):
        load_spec(GOOD7.replace('name = "simplest-cubic-7"', ""))


def test_reject_duplicate_key():
    with pytest.raises(FieldConfigError):
        load_spec(GOOD7 + "\nn = 3")


# -- embeddings ---------------------------------------------------------------


def test_embeddings_isolate_three_roots(spec7):
    ivals = spec7.embeddings.intervals()
    assert len(ivals) == 3
    for (lo1, hi1), (lo2, hi2) in zip(ivals, ivals[1:]):
        assert hi1 < lo2  # disjoint and ascending
    # roots of x^3 + x^2 - 2x - 1 are approximately -1.80, -0.445, 1.25
    approx = [float((lo + hi) / 2) for lo, hi in ivals]
    for got, want in zip(approx, (-1.8019, -0.4450, 1.2470)):
        assert abs(got - want) < 1e-3


QUINTIC11 = """
name = "real-quintic-11"
n = 5
f = [1, 3, -3, -4, 1, 1]
sigma = [-2, 0, 1]
h = 1
unit = [-2, -2, 1, 1, 0]
unit = [-2, -1, 0, 1, 1]
unit = [-2, 0, 1, 0, 0]
unit = [-2, 1, 2, 0, 0]
disc_f = 14641
"""


def shanks_cubic(m, disc_f):
    """Shanks' simplest cubic x^3 - m x^2 - (m+3) x - 1, sigma(theta) = -1/(1 + theta)."""
    return f"""
name = "shanks-{m}"
n = 3
f = [-1, {-(m + 3)}, {-m}, 1]
sigma = [-2, {-(m + 1)}, 1]
h = 1  # not checked at load
unit = [0, 1, 0]
unit = [1, 1, 0]
disc_f = {disc_f}
"""


def assert_isolated(spec):
    """n ascending, disjoint intervals, with a sign change of f across each."""
    ivals = spec.embeddings.intervals()
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
    assert load_spec(QUINTIC11).disc_f == 14641
    with pytest.raises(FieldConfigError, match="disc_f does not match"):
        load_spec(QUINTIC11.replace("disc_f = 14641", "disc_f = 14643"))


@pytest.mark.parametrize("m", [2, 4, 8, 10, 12, 30, 1000])
def test_shanks_cubics_isolate_and_check_disc(m):
    disc_f = (m * m + 3 * m + 9) ** 2
    assert_isolated(load_spec(shanks_cubic(m, disc_f)))
    with pytest.raises(FieldConfigError, match="disc_f does not match"):
        load_spec(shanks_cubic(m, disc_f + 2))


def test_signs_of_theta(spec7):
    # theta evaluates to the root itself: signs follow the root signs
    assert spec7.embeddings.signs_of((0, 1, 0)) == (-1, -1, 1)
    assert spec7.embeddings.signs_of((1, 0, 0)) == (1, 1, 1)
    with pytest.raises(ValueError):
        spec7.embeddings.signs_of((0, 0, 0))


# -- splitting ----------------------------------------------------------------


def brute_roots(spec, p):
    return [a for a in range(p) if eval_mod(spec.f, a, p) == 0]


def test_split_13(spec7):
    roots = split_completely(spec7, 13)
    assert roots == brute_roots(spec7, 13) == [7, 8, 10]


def test_split_5_empty(spec7):
    assert split_completely(spec7, 5) == []
    assert brute_roots(spec7, 5) == []


def test_split_7_ramified(spec7):
    with pytest.raises(RamifiedPrime):
        split_completely(spec7, 7)


@pytest.mark.parametrize("p", [p for p in range(3, 2000, 2)
                               if all(p % q for q in range(3, int(p**0.5) + 1, 2))] + [9973])
def test_split_matches_brute_force(spec7, spec9, p):
    for spec in (spec7, spec9):
        if spec.disc_f % p == 0:
            with pytest.raises(RamifiedPrime):
                split_completely(spec, p)
            continue
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
    with pytest.raises(ValueError):
        conjugate_chain(spec7, PrimeDeg1(13, 1))
    with pytest.raises(RamifiedPrime):
        conjugate_chain(spec7, PrimeDeg1(7, 2))


# -- generators ---------------------------------------------------------------


def test_generator_verification_identity(spec7):
    P = PrimeDeg1(13, 7)
    alpha = generator_of_power(spec7, P, 1)
    assert spec7.norm(alpha) == 13
    assert eval_mod(alpha, 7, 13) == 0
    assert all(s > 0 for s in spec7.embeddings.signs_of(alpha))


def test_generator_unit_square_invariance(spec7):
    P = PrimeDeg1(13, 7)
    alpha = generator_of_power(spec7, P, 1)
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
        alpha = generator_of_power(spec7, PrimeDeg1(p, a), 1)
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
            basis, mu, q = numfield._lll_reduce(spec, lattice)
            gram = [[spec.trace_inner(tuple(u), tuple(v)) for v in basis] for u in basis]
            assert (mu, q) == _gso(gram)
            # size-reduced, and the Lovasz condition holds at delta = 99/100
            for i in range(1, spec.n):
                assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
                assert q[i] >= (Fraction(99, 100) - mu[i][i - 1] ** 2) * q[i - 1]
            # a unimodular change of basis: the same covolume
            assert abs(det_bareiss([r[:] for r in basis])) == \
                abs(det_bareiss([r[:] for r in lattice]))


def _primes_below(limit):
    return [p for p in range(3, limit, 2) if all(p % q for q in range(3, int(p**0.5) + 1, 2))]


def _generator_digest(spec, limit):
    digest = hashlib.sha256()
    for p in _primes_below(limit):
        if spec.disc_f % p:
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


def test_round_div_matches_fraction_round():
    ties = [(2 * k + 1, 2) for k in range(-6, 6)]  # +-1/2, +-3/2, ...
    grid = [(num, den) for den in range(1, 9) for num in range(-40, 41)]
    for num, den in ties + grid + [(-(10**40) - 1, 2 * 10**20), (10**40 + 10**20, 2 * 10**20)]:
        assert numfield._round_div(num, den) == round(Fraction(num, den)), (num, den)


def _horner_interval(coeffs, lo, hi):
    vlo = vhi = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        cands = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(cands) + c, max(cands) + c
    return vlo, vhi


def test_eval_interval_matches_fraction_horner():
    rng = random.Random(20201)
    for _ in range(300):
        coeffs = [rng.randint(-50, 50) for _ in range(rng.randint(1, 6))]
        ends = sorted(Fraction(rng.randint(-(1 << 20), 1 << 20) << rng.randint(0, 12), 1 << rng.randint(1, 300))
                      for _ in range(2))
        got = numfield._eval_interval(coeffs, *ends)
        assert got == _horner_interval(coeffs, *ends)
        assert all(type(v) is Fraction for v in got)
    with pytest.raises(AssertionError, match="dyadic"):
        numfield._eval_interval((1, 1), Fraction(1, 3), Fraction(1, 2))


def test_generator_rejects_even_h(spec7):
    with pytest.raises(ValueError):
        generator_of_power(spec7, PrimeDeg1(13, 7), 2)


def test_generator_cube_power(spec7):
    # h = 3 exercises the ideal-power path: norm 13^3, contained in P^3
    P = PrimeDeg1(13, 7)
    alpha = generator_of_power(spec7, P, 3)
    assert spec7.norm(alpha) == 13**3
    assert all(s > 0 for s in spec7.embeddings.signs_of(alpha))
    # the generator of P^3 reduces to 0 under theta -> 7 (it lies in P)
    assert eval_mod(alpha, 7, 13) == 0


def test_generator_rejects_foreign_prime(spec7):
    # 2 and 1 are not roots of f mod 13, and 5 is inert: none is a prime of the field
    for P in (PrimeDeg1(13, 2), PrimeDeg1(13, 1), PrimeDeg1(5, 1)):
        with pytest.raises(ValueError, match="not a degree-one prime"):
            generator_of_power(spec7, P, 1)


def test_generator_rejects_ramified_prime(spec7, spec9):
    # f(2) = 0 mod 7 and f(1) = 0 mod 3, but 7 | disc c7 and 3 | disc c9
    for spec, P in ((spec7, PrimeDeg1(7, 2)), (spec9, PrimeDeg1(3, 1))):
        assert eval_mod(spec.f, P.a, P.p) == 0
        for h in (1, 3):
            with pytest.raises(RamifiedPrime):
                generator_of_power(spec, P, h)


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
            alpha = generator_of_power(spec, P, h)
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
    alpha = generator_of_power(spec, P, spec.h)
    return tuple(legendre_deg1(spec, alpha, Q) for Q in chain[1:])


def _m4_class(spec, family, P):
    """Square class mod 4 of the totally positive generator of P^h."""
    alpha = generator_of_power(spec, P, spec.h)
    return residue.m4_class_of(family, tuple(c % 4 for c in alpha))


def test_spin_values_and_product_identity(spec7, family7):
    P = PrimeDeg1(13, 7)
    s1, s2 = _spins(spec7, P)
    assert s1 in (1, -1) and s2 in (1, -1)
    # the product must be the dyadic Hilbert symbol of the generator and its conjugate
    alpha = generator_of_power(spec7, P, 1)
    r3 = family7.level(3)
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
            try:
                roots = split_completely(spec7, p)
            except RamifiedPrime:
                continue
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
        beta = generator_of_power(spec7, Q, 1)
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
            alpha = generator_of_power(spec7, P, 1)
            assert legendre_deg1(spec7, alpha, Q) == legendre_deg1(spec7, adjusted, P)
            flips += 1
    assert flips >= 3, "expected some generators congruent to 1 mod 4O below 700"


# -- precision machinery -------------------------------------------------------


def test_interval_refinement_decides_tiny_values(spec7):
    # theta - (a close dyadic approximation) has a tiny but nonzero sign
    lo, hi = spec7.embeddings.intervals()[2]
    mid = (lo + hi) / 2
    num, den = mid.numerator, mid.denominator
    # value (den*theta - num)/den at the third root is within the interval width
    signs = spec7.embeddings.signs_of((-num, den, 0))
    assert signs[2] in (-1, 1)
