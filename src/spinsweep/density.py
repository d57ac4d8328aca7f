"""Exact spin-density formulas for cyclic fields of odd degree n.

Everything here is closed-form combinatorics in exact rational arithmetic
(`fractions.Fraction`); no floating point enters.  The two integers
s_plus and s_minus count, inside the 2^n residue classes mod 4 taken up to
squares, the classes on which the dyadic Hilbert pairing of an element
against all of its nontrivial Galois conjugates is trivial, split by the
sign of the norm mod 4.  All densities of interest are s_plus, s_minus
divided by the appropriate power of two:

    d(F+|S+) = s_plus  / 2^(3(n-1)/2)      d(R+|S+) = s_plus  / 2^(n-1)
    d(F-|S-) = s_minus / 2^(3(n-1)/2)      d(R-|S-) = s_minus / 2^(n-1)
    d(F|S)   = (s_plus + s_minus) / 2^((3n-1)/2)
    d(R|S)   = (s_plus + s_minus) / 2^n

where S is the set of completely split primes, R the subset satisfying the
symmetric spin relation, F the subset that splits completely in the
associated ramified 2-extension, and +/- restricts to p = +/-1 mod 4.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .f2poly import cyclotomic_cosets


def _check_n(n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and >= 3")


def _half(x: int) -> int:
    q, r = divmod(x, 2)
    assert r == 0, "exponent must be even"
    return q


def s_pair(n: int) -> tuple[int, int]:
    """Kernel sizes (s_plus, s_minus) for odd n >= 3, from the cosets of 2 mod n.

    Invariant: write a class u as u(x) in R = GF(2)[x]/(x^n - 1) and let
    b(u) = u(x) u(1/x).  The pairing is a symmetric unit c of R with
    c_0 = Tr(y) = 1, and <u, tau^k u> is the x^k coefficient of c b(u), so
    in every field with 2 inert u is star-trivial iff b(u) is 0 or h = c^-1.
    As b(u)_0 = |u| mod 2 and h_0 = h(1) = 1 (h is symmetric), the norm
    sign (-1)^(c_0 |u|) puts b(u) = 0 in s_plus and b(u) = h in s_minus.
    By CRT, R is a product of fields GF(2^|C|), one per coset C
    (`f2poly.cyclotomic_cosets`; x + 1 contributes a factor 1), and
    x -> 1/x swaps C and -C.  On C = -C, b is the norm to GF(2^(|C|/2)):
    one zero, 2^(|C|/2) + 1 preimages of each unit.  On a pair {C, -C}, b
    is the product of the two coordinates: 2^(|C|+1) - 1 zeros, 2^|C| - 1
    preimages of each unit.  Hence s_plus = prod over pairs of
    (2^(|C|+1) - 1), s_minus = prod over C = -C of (2^(|C|/2) + 1) times
    prod over pairs of (2^|C| - 1).
    """
    _check_n(n)
    s_plus = s_minus = 1
    for coset in cyclotomic_cosets(n):
        d = len(coset)
        mirror = frozenset(n - c for c in coset)
        if mirror == coset:
            s_minus *= (1 << _half(d)) + 1
        elif min(coset) < min(mirror):  # count each pair once
            s_plus *= (1 << (d + 1)) - 1
            s_minus *= (1 << d) - 1
    return s_plus, s_minus


class DensityReport(namedtuple("DensityReport", "n s_plus s_minus dF_plus dF_minus dF dR_plus dR_minus dR")):
    """Exact densities for one degree n; all fractions fully reduced."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        half_split = Fraction(1, 1 << _half(self.n - 1))
        assert self.dF == (self.dF_plus + self.dF_minus) / 2
        assert self.dF_plus == self.dR_plus * half_split
        assert self.dF_minus == self.dR_minus * half_split
        return self


def density_report(n: int) -> DensityReport:
    """Full set of exact densities for odd n >= 3."""
    _check_n(n)
    sp, sm = s_pair(n)
    e_f = 3 * _half(n - 1)  # 3(n-1)/2
    e_r = n - 1
    return DensityReport(
        n=n,
        s_plus=sp,
        s_minus=sm,
        dF_plus=Fraction(sp, 1 << e_f),
        dF_minus=Fraction(sm, 1 << e_f),
        dF=Fraction(sp + sm, 1 << (e_f + 1)),  # (3n-1)/2 = 3(n-1)/2 + 1
        dR_plus=Fraction(sp, 1 << e_r),
        dR_minus=Fraction(sm, 1 << e_r),
        dR=Fraction(sp + sm, 1 << n),
    )


TABLE_HEADER = "n | d(F+|S+) | d(F-|S-) | d(F|S)"

# The CLI's footnote whenever n = 15 is printed.
N15_ERRATUM_NOTE = (
    "note: at n = 15 this row is the exact count (s_plus, s_minus) = (31, 225); a "
    "published table prints 1/2097152 | 375/2097152 | 47/262144, from a parity rule "
    "that takes the two degree-4 factors of x^15 - 1 for k = 15 to be self-reciprocal, "
    "but they form a reciprocal pair."
)


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def format_table(rows) -> str:
    """Density table, one row per requested n, pipe-separated reduced fractions."""
    lines = [TABLE_HEADER]
    for n in rows:
        rep = density_report(n)
        lines.append(
            f"{rep.n} | {_frac_str(rep.dF_plus)} | {_frac_str(rep.dF_minus)} | {_frac_str(rep.dF)}"
        )
    return "\n".join(lines)
