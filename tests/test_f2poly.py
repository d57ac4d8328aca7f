import pytest

from spinsweep import f2poly
from spinsweep.f2poly import (
    cyclotomic_cosets,
    degree,
    divmod_,
    factor_xn_minus_1,
    from_coeffs,
    gcd,
    mul,
    reciprocal,
    rem,
)

X3_P1 = from_coeffs([1, 0, 0, 1])       # x^3 + 1
X2_X_1 = from_coeffs([1, 1, 1])         # x^2 + x + 1
X_P1 = from_coeffs([1, 1])              # x + 1


def trial_division_irreducible(f):
    """Independent oracle: divide by every polynomial of degree 1..deg(f)//2.

    A reducible polynomial always has a factor in that range, so this is a
    complete test; at this scale (factors of degree <= 28) it stays fast.
    """
    d = f.bit_length() - 1
    if d < 1:
        return False
    for g in range(2, 1 << (d // 2 + 1)):
        if rem(f, g) == 0:
            return False
    return True


def test_gcd_example():
    # Euclid by hand over GF(2): x^3+1 = (x+1)(x^2+x+1), x^2+1 = (x+1)^2
    assert gcd(X3_P1, from_coeffs([1, 0, 1])) == X_P1


def test_mul_frobenius():
    assert mul(X_P1, X_P1) == from_coeffs([1, 0, 1])


def test_cyclic_mul_is_mul_mod_xn_minus_1():
    for n in (1, 3, 5):
        xn_1 = (1 << n) | 1
        for a in range(1 << n):
            for b in range(1 << n):
                assert f2poly.cyclic_mul(a, b, n) == rem(mul(a, b), xn_1)
    assert f2poly.cyclic_mul(1 << 30, 1 << 30, 31) == 1 << 29  # x^60 = x^29 mod x^31 - 1
    with pytest.raises(ValueError):
        f2poly.cyclic_mul(0b1000, 1, 3)


def test_divmod_and_rem():
    q, r = divmod_(X3_P1, X2_X_1)
    assert mul(q, X2_X_1) ^ r == X3_P1
    assert degree(r) < degree(X2_X_1)
    with pytest.raises(ZeroDivisionError):
        rem(X3_P1, 0)


def test_degree_sentinel():
    assert degree(0) == float("-inf")
    assert degree(1) == 0
    assert degree(X3_P1) == 3


def test_degree_cap():
    with pytest.raises(ValueError):
        f2poly.mul(1 << 70, 1)


def test_reciprocal():
    assert reciprocal(X2_X_1) == X2_X_1                       # palindromic
    assert reciprocal(from_coeffs([1, 1, 0, 1])) == from_coeffs([1, 0, 1, 1])
    assert reciprocal(X_P1) == X_P1
    for f in (X2_X_1, 0b1011, 0b1101, X_P1):
        assert reciprocal(reciprocal(f)) == f
    with pytest.raises(ValueError):
        reciprocal(0)
    with pytest.raises(ValueError):
        reciprocal(0b10)  # zero constant term


def test_cyclotomic_cosets_examples():
    assert cyclotomic_cosets(7) == [{1, 2, 4}, {3, 5, 6}]
    assert cyclotomic_cosets(15) == [{1, 2, 4, 8}, {3, 6, 9, 12}, {5, 10}, {7, 11, 13, 14}]
    with pytest.raises(ValueError):
        cyclotomic_cosets(8)


FROZEN_FACTORS = {
    # derived by exhausting low-degree polynomials
    3: [(from_coeffs([1, 1]), True), (from_coeffs([1, 1, 1]), True)],
    5: [(from_coeffs([1, 1]), True), (from_coeffs([1, 1, 1, 1, 1]), True)],
    7: [
        (from_coeffs([1, 1]), True),
        (from_coeffs([1, 1, 0, 1]), False),
        (from_coeffs([1, 0, 1, 1]), False),
    ],
}


@pytest.mark.parametrize("n", [3, 5, 7])
def test_factor_frozen_values(n):
    assert sorted(factor_xn_minus_1(n)) == sorted(FROZEN_FACTORS[n])


@pytest.mark.parametrize("n", list(range(3, 32, 2)))
def test_factorization_properties(n):
    factors = factor_xn_minus_1(n)
    prod = 1
    for f, _ in factors:
        prod = mul(prod, f)
    assert prod == (1 << n) | 1
    polys = [f for f, _ in factors]
    assert len(set(polys)) == len(polys)
    for f in polys:
        assert trial_division_irreducible(f)
    # multiset closed under reciprocal, flags consistent with reciprocal()
    assert sorted(reciprocal(f) for f in polys) == sorted(polys)
    for f, flag in factors:
        assert flag == (reciprocal(f) == f)
    assert sum(degree(f) for f in polys) == n
    # one coset of 2 mod n per factor besides x + 1: size = degree, -C = C iff self-reciprocal
    cosets = [(len(c), frozenset(n - k for k in c) == c) for c in cyclotomic_cosets(n)]
    assert sorted([(1, True)] + cosets) == sorted((degree(f), flag) for f, flag in factors)
