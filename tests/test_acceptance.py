"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines and timings.  Criterion 6 performs the full X = 10^6 sweep
of the conductor-7 field and is the long pole (a few minutes at most).
"""

import time
from fractions import Fraction
from itertools import product

import pytest

from spinsweep import checks, numfield, residue
from spinsweep.cli import main
from spinsweep.density import density_report, format_table, s_pair
from spinsweep.sweep import SweepConfig, build_tables, run_sweep

X_SWEEP = 1_000_000

TABLE_EXPECT = {
    3: ("1/8", "3/8", "1/4"),
    5: ("1/64", "5/64", "3/64"),
    7: ("15/512", "7/512", "11/512"),
    9: ("1/4096", "27/4096", "7/2048"),
    11: ("1/32768", "33/32768", "17/32768"),
    13: ("1/262144", "65/262144", "33/262144"),
}


def _report(num, desc, ok, elapsed=None):
    stamp = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {desc}{stamp}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def sweep_result(spec7):
    cfg = SweepConfig(spec=spec7, limit=X_SWEEP, chunk_size=100_000)
    t0 = time.time()
    result = run_sweep(cfg, jobs=0)
    return result, time.time() - t0


def test_criterion_1_table_reproduction(capsys):
    t0 = time.time()
    lines = format_table(sorted(TABLE_EXPECT)).splitlines()[1:]
    ok = True
    for line, n in zip(lines, sorted(TABLE_EXPECT)):
        plus, minus, total = TABLE_EXPECT[n]
        ok &= line == f"{n} | {plus} | {minus} | {total}"
    rep15 = density_report(15)
    ok &= (rep15.dF_plus, rep15.dF_minus) == (
        Fraction(31, 2097152),
        Fraction(225, 2097152),
    )
    ok &= rep15.dF == Fraction(1, 16384)
    main(["table", "--n", "15"])
    out = capsys.readouterr().out
    ok &= "15 | 31/2097152 | 225/2097152 | 1/16384" in out
    ok &= "note:" in out and "47/262144" in out  # footnote cites the published row
    elapsed = time.time() - t0
    with capsys.disabled():
        _report(1, "density table matches all published cells for n <= 13 exactly "
                   "(n=15 row from the exact coset count, footnote emitted)", ok and elapsed < 1.0,
                elapsed)


def test_criterion_2_prime_case_consistency(capsys):
    t0 = time.time()
    ok = True
    for n in range(3, 16, 2):
        identity = residue.CirculantA((1,) + (0,) * (n - 1))
        ok &= s_pair(n) == residue.kernel_counts_via_B(identity)
    elapsed = time.time() - t0
    with capsys.disabled():
        _report(2, "s_pair equals the field-free kernel scan over all 2^n bit vectors "
                   "for every odd n <= 15", ok and elapsed < 1.0, elapsed)


def test_criterion_3_three_way_kernel(spec7, spec9, capsys):
    t0 = time.time()
    ok = True
    for spec in (spec7, spec9):
        family = residue.build_family(spec)
        star = checks.oracle_star_table(family)
        pairing = residue.build_matrix_A(family)
        r3 = family.level(3)
        ok &= residue.star_table(family) == star  # the form's table is the oracle's
        ok &= s_pair(3) == (star.ker_plus, star.ker_minus) == (1, 3)
        ok &= residue.kernel_counts_via_B(pairing) == (1, 3)
        ok &= star.star[(0, 0, 0)] == 1
        ok &= star.star[(1, 1, 1)] == -1
        ok &= residue.hilbert2(r3, r3.neg_one(), r3.neg_one()) == -1
    elapsed = time.time() - t0
    with capsys.disabled():
        _report(3, "three-way kernel agreement (1, 3) for both shipped cubic fields",
                ok and elapsed < 5.0, elapsed)


def test_criterion_4_hilbert_property_suite(spec7, spec9, capsys):
    t0 = time.time()
    ok = True
    for spec in (spec7, spec9):
        family = residue.build_family(spec)
        pairing = residue.build_matrix_A(family)
        rows = checks.hilbert_suite(family, pairing)
        ok &= all(r.ok for r in rows)
    elapsed = time.time() - t0
    with capsys.disabled():
        _report(4, "exhaustive 8x8 class-pair Hilbert-symbol properties "
                   "(well-definedness, bilinearity, symmetry, non-degeneracy, "
                   "equivariance, (a,a)=(a,-1), bilinear form)", ok and elapsed < 10.0,
                elapsed)


def test_criterion_5_m4_structure(spec7, spec9, capsys):
    t0 = time.time()
    ok = True
    for spec in (spec7, spec9):
        family = residue.build_family(spec)
        rows = checks.m4_suite(family)
        ok &= all(r.ok for r in rows)
        # spelled out: 56 units mod 4, 8 classes, kernel of 7 squares
        r2 = family.level(2)
        units = [u for u in product(range(4), repeat=3) if r2.is_unit(u)]
        classes = {residue.m4_class_of(family, u) for u in units}
        squares = {r2.mul(u, u) for u in units}
        ok &= len(units) == 56 and len(classes) == 8 and len(squares) == 7
    elapsed = time.time() - t0
    with capsys.disabled():
        _report(5, "square-class group mod 4 has 2^3 classes, kernel exactly the squares, "
                   "Galois-fixed classes exactly {1, -1}", ok and elapsed < 1.0, elapsed)


def test_criterion_6_empirical_sweep(sweep_result, capsys):
    result, elapsed = sweep_result
    t = result.tally
    rows = {name: (emp, theo, delta, passed)
            for name, emp, _, theo, delta, passed in result.report_rows}
    checks_list = [
        ("F/S", 0.02), ("F+/S+", 0.02), ("F-/S-", 0.02),
        ("R+/S+", 0.02), ("R-/S-", 0.02),
        ("F+/R+", 0.03), ("F-/R-", 0.03),
    ]
    ok = True
    for name, tol in checks_list:
        emp, theo, delta, passed = rows[name]
        ok &= passed and delta < tol
    hist_rows = [v for k, v in rows.items() if k.startswith("hist[")]
    ok &= len(hist_rows) == 8 and all(delta < 0.03 for _, _, delta, _ in hist_rows)
    ok &= t.s_plus + t.s_minus > 20_000  # ~26k split primes expected at 10^6
    with capsys.disabled():
        print(f"\n  split primes: {t.s_plus + t.s_minus}; "
              f"F/S = {(t.f_plus + t.f_minus) / (t.s_plus + t.s_minus):.5f}")
        _report(6, f"empirical sweep X = {X_SWEEP} matches all exact densities "
                   "within stated tolerances", ok and elapsed < 300.0, elapsed)


def test_criterion_7_zero_tolerance_consistency(sweep_result, spec7, capsys):
    result, _ = sweep_result
    # recompute the zero-tolerance identities from every record against freshly
    # built tables, rather than trusting that the sweep's own checks ran
    tables = build_tables(spec7)
    n = spec7.n
    ok = len(result.records) == result.tally.s_plus + result.tally.s_minus
    products = 0
    for rec in result.records:
        bits = rec.m4_bits
        for k in range(1, n):
            pairing = tables.pairing.pairing(bits, residue.rot(bits, k))
            ok &= rec.spins[k - 1] * rec.spins[n - k - 1] == pairing
            products += 1
        in_r_spin = all(rec.spins[k - 1] * rec.spins[n - k - 1] == 1 for k in range(1, n))
        ok &= in_r_spin == rec.in_R == (tables.star.star[bits] == 1)
        ok &= tables.star.norm_sign[bits] == (1 if rec.p_mod4 == 1 else -1)
    ok &= products == (n - 1) * len(result.records)
    with capsys.disabled():
        _report(7, f"per-prime spin/Hilbert identity ({products} products), two-route "
                   f"R-membership and norm sign recomputed for all {len(result.records)} "
                   "split primes", ok)


def test_criterion_8_identity_checks_for_larger_n(capsys):
    ok = True
    for n in (5, 7, 9, 11, 13, 15):
        rep = density_report(n)
        half_split = Fraction(1, 1 << ((n - 1) // 2))
        ok &= rep.dF == (rep.dF_plus + rep.dF_minus) / 2
        ok &= rep.dF_plus == rep.dR_plus * half_split
        ok &= rep.dF_minus == rep.dR_minus * half_split
        ok &= rep.dF_plus == Fraction(rep.s_plus, 1 << (3 * (n - 1) // 2))
        ok &= rep.dR == Fraction(rep.s_plus + rep.s_minus, 1 << n)
    with capsys.disabled():
        _report(8, "exact internal identities of the density report hold for "
                   "n in {5, 7, 9, 11, 13, 15} (empirical reproduction out of desk-scale reach)",
                ok)
