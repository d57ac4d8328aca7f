from itertools import product

import pytest

from spinsweep.intpoly import mul_mod, pow_mod

CUBICS = ((-1, -2, 1, 1), (-1, -3, 0, 1))


@pytest.mark.parametrize("m", [2, 4, 8, 13])
def test_pow_mod_is_repeated_mul_mod(m):
    for f in CUBICS:
        for a in product(range(m), repeat=3) if m <= 4 else ((3, 0, 1), (12, 5, 7), (0, 1, 0)):
            acc = mul_mod((1,), (1,), f, m)
            for e in range(12):
                assert pow_mod(a, e, f, m) == acc
                acc = mul_mod(acc, a, f, m)


def test_mul_mod_reduces_by_f_and_m():
    f = CUBICS[0]
    # x * x^2 = x^3 = 1 + 2x - x^2 mod f
    assert mul_mod((0, 1), (0, 0, 1), f) == (1, 2, -1)
    assert mul_mod((0, 1), (0, 0, 1), f, 4) == (1, 2, 3)
    assert mul_mod((), (1, 1), f, 4) == (0, 0, 0)
