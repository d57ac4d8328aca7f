from fractions import Fraction

import pytest

from spinsweep.density import (
    N15_ERRATUM_NOTE,
    density_report,
    format_table,
    s_pair,
)
from spinsweep.residue import CirculantA, kernel_counts_via_B

# published values through n = 13; the n = 15 row is the exact coset count,
# which differs from the published row (see the density module)
TABLE_CELLS = {
    3: ("1/8", "3/8", "1/4"),
    5: ("1/64", "5/64", "3/64"),
    7: ("15/512", "7/512", "11/512"),
    9: ("1/4096", "27/4096", "7/2048"),
    11: ("1/32768", "33/32768", "17/32768"),
    13: ("1/262144", "65/262144", "33/262144"),
    15: ("31/2097152", "225/2097152", "1/16384"),
}


@pytest.mark.parametrize(
    "n,expected",
    [(3, (1, 3)), (5, (1, 5)), (7, (15, 7)), (9, (1, 27)), (11, (1, 33)), (13, (1, 65)),
     (15, (31, 225)), (17, (1, 289)), (21, (1905, 1323)), (31, (250047, 29791))],
)
def test_s_pair_values(n, expected):
    assert s_pair(n) == expected
    if n <= 17:
        # field-free route: count b(u) = 0 and b(u) = 1 over all 2^n bit vectors
        assert kernel_counts_via_B(CirculantA((1,) + (0,) * (n - 1))) == expected


def test_s_pair_rejects_even():
    with pytest.raises(ValueError):
        s_pair(6)


def _order_of_two(n):
    d, t = 1, 2 % n
    while t != 1:
        d, t = d + 1, 2 * t % n
    return d


@pytest.mark.parametrize("n", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_prime_case_consistency(n):
    # For prime n every coset of 2 has size d = ord_n(2), and either all of
    # them are self-reciprocal (-1 a power of 2, i.e. d even) or they form
    # e = (n-1)/2d reciprocal pairs, so the count depends on d alone.
    d = _order_of_two(n)
    if d % 2 == 0:
        expected = (1, (2 ** (d // 2) + 1) ** ((n - 1) // d))
    else:
        e = (n - 1) // (2 * d)
        expected = ((2 ** (d + 1) - 1) ** e, (2**d - 1) ** e)
    assert s_pair(n) == expected


def _frac(s):
    num, den = s.split("/")
    return Fraction(int(num), int(den))


@pytest.mark.parametrize("n", sorted(TABLE_CELLS))
def test_density_report_matches_table(n):
    rep = density_report(n)
    plus, minus, total = map(_frac, TABLE_CELLS[n])
    assert rep.dF_plus == plus
    assert rep.dF_minus == minus
    assert rep.dF == total


@pytest.mark.parametrize("n", list(range(3, 32, 2)))
def test_report_internal_identities(n):
    rep = density_report(n)
    half_split = Fraction(1, 1 << ((n - 1) // 2))
    assert rep.dF == (rep.dF_plus + rep.dF_minus) / 2
    assert rep.dF_plus == rep.dR_plus * half_split
    assert rep.dF_minus == rep.dR_minus * half_split
    assert rep.dF_plus == Fraction(rep.s_plus, 1 << (3 * (n - 1) // 2))
    assert rep.dF_minus == Fraction(rep.s_minus, 1 << (3 * (n - 1) // 2))
    assert rep.dR == Fraction(rep.s_plus + rep.s_minus, 1 << n)
    assert 1 <= rep.s_plus and 1 <= rep.s_minus
    assert rep.s_plus + rep.s_minus <= 1 << n


def test_table_rows():
    assert format_table([3]).splitlines()[1] == "3 | 1/8 | 3/8 | 1/4"
    assert format_table([13]).splitlines()[1] == "13 | 1/262144 | 65/262144 | 33/262144"
    assert format_table([]) == "n | d(F+|S+) | d(F-|S-) | d(F|S)"


def test_erratum_note_mentions_both_values():
    assert "1/2097152 | 375/2097152 | 47/262144" in N15_ERRATUM_NOTE  # published row
    assert "(31, 225)" in N15_ERRATUM_NOTE and "reciprocal pair" in N15_ERRATUM_NOTE
