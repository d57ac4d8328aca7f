import math

import pytest

from spinsweep import numfield, sweep
from spinsweep.numfield import PrimeDeg1
from spinsweep.sweep import (
    SweepConfig,
    Tally,
    build_tables,
    classify_prime,
    emit_csv,
    odd_primes_in,
    run_sweep,
)


@pytest.fixture(scope="module")
def tables7(spec7):
    return build_tables(spec7)


@pytest.fixture(scope="module")
def result7(spec7):
    return run_sweep(SweepConfig(spec=spec7, limit=6000), jobs=1)


def test_odd_primes_in():
    assert odd_primes_in(3, 30) == [3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert odd_primes_in(0, 3) == []
    chunks = odd_primes_in(3, 97) + odd_primes_in(97, 541) + odd_primes_in(541, 1000)
    assert chunks == odd_primes_in(3, 1000)
    trial = [p for p in range(3, 5000, 2) if all(p % q for q in range(3, math.isqrt(p) + 1, 2))]
    for lo, hi in ((0, 5000), (4, 5), (9, 10), (100, 100), (1000, 999), (2400, 2403), (961, 1024)):
        assert odd_primes_in(lo, hi) == [p for p in trial if lo <= p < hi]
    primes = odd_primes_in(3, 10**6)
    assert len(primes) == 78_497 and primes[-1] == 999_983


def test_config_validation(spec7):
    with pytest.raises(ValueError):
        SweepConfig(spec=spec7, limit=50)


def test_classify_non_split_is_none(tables7):
    assert classify_prime(tables7, 11) is None  # 11 = 4 mod 7
    assert classify_prime(tables7, 5) is None


def test_classify_13_and_29(tables7):
    r13 = classify_prime(tables7, 13)
    assert r13.p == 13 and r13.root_a == 7 and r13.p_mod4 == 1
    assert r13.spins == (-1, 1) and not r13.in_R and not r13.in_F
    r29 = classify_prime(tables7, 29)
    assert r29.p == 29 and r29.p_mod4 == 1
    assert all(s in (1, -1) for s in r29.spins)


def test_classify_respects_split_rule(result7):
    for rec in result7.records:
        assert rec.p % 7 in (1, 6)


def test_spin_not_in_F_when_any_minus(result7):
    for rec in result7.records:
        assert rec.in_F == all(s == 1 for s in rec.spins)
        assert rec.in_F <= rec.in_R


def test_tally_invariants(result7):
    t = result7.tally
    t.validate()
    assert t.f_plus <= t.r_plus <= t.s_plus
    assert t.f_minus <= t.r_minus <= t.s_minus
    assert sum(t.histogram.values()) == t.s_plus + t.s_minus
    assert result7.skipped_ramified == [7]


def test_tally_merge_is_addition(result7):
    recs = result7.records
    half = len(recs) // 2
    t1, t2, t3 = Tally(), Tally(), Tally()
    for r in recs[:half]:
        t1.add_record(r)
    for r in recs[half:]:
        t2.add_record(r)
    for r in recs:
        t3.add_record(r)
    t1.merge(t2)
    assert t1 == t3
    # commutativity
    ta, tb = Tally(), Tally()
    for r in recs[half:]:
        ta.add_record(r)
    for r in recs[:half]:
        tb.add_record(r)
    ta.merge(tb)
    assert ta == t3


def test_determinism_across_chunk_sizes(spec7, result7, in_process_pool):
    # serial is one window; --jobs 2 and 3 cut [3, X] into 8 and 12
    for jobs in (2, 3):
        assert len(sweep._windows(6000, jobs)) == sweep.WINDOWS_PER_WORKER * jobs
        res = run_sweep(SweepConfig(spec=spec7, limit=6000), jobs=jobs)
        assert res.tally == result7.tally
        assert emit_csv(res.records, 3) == emit_csv(result7.records, 3)
    assert in_process_pool == [2, 3]


def test_negative_jobs_rejected_before_tables_or_pool(monkeypatch, spec7, in_process_pool):
    monkeypatch.setattr(sweep, "build_tables", lambda spec: pytest.fail("tables built"))
    with pytest.raises(ValueError, match=r"^jobs must be >= 0 \(0 = auto\), got -3$"):
        run_sweep(SweepConfig(spec=spec7, limit=6000), jobs=-3)
    assert in_process_pool == []


def test_determinism_with_workers(spec7, result7):
    res = run_sweep(SweepConfig(spec=spec7, limit=6000), jobs=2)
    assert res.tally == result7.tally
    assert emit_csv(res.records, 3) == emit_csv(result7.records, 3)


def test_workers_capped_at_chunk_count(spec7, result7, in_process_pool):
    res = run_sweep(SweepConfig(spec=spec7, limit=6000), jobs=2)  # 8 windows
    assert in_process_pool == [2]
    assert emit_csv(res.records, 3) == emit_csv(result7.records, 3)
    run_sweep(SweepConfig(spec=spec7, limit=6000), jobs=1)  # one window, no pool
    assert in_process_pool == [2]
    # 800 windows asked of [3, 100], which holds 98 integers: no window is empty
    bounds = sweep._windows(100, 200)
    assert bounds[0][0] == 3 and bounds[-1][1] == 101 and len(bounds) == 98
    assert all(hi == lo + 1 for lo, hi in bounds)
    run_sweep(SweepConfig(spec=spec7, limit=100), jobs=200)
    assert in_process_pool == [2, 98]


def test_csv_format(result7):
    text = emit_csv(result7.records, 3)
    lines = text.strip().split("\n")
    assert lines[0] == "p,p_mod4,root_a,spin_1,spin_2,in_R,in_F,m4_class_bits"
    assert len(lines) - 1 == result7.tally.s_plus + result7.tally.s_minus
    ps = [int(line.split(",")[0]) for line in lines[1:]]
    assert ps == sorted(ps)
    assert emit_csv([], 3).strip() == lines[0]


def test_csv_row_fields(result7):
    rec = result7.records[0]
    line = emit_csv([rec], 3).strip().split("\n")[1]
    parts = line.split(",")
    assert parts[0] == str(rec.p)
    assert parts[-1] == "".join(map(str, rec.m4_bits))
    assert parts[-2] == str(int(rec.in_F))
    assert parts[-3] == str(int(rec.in_R))


def test_report_rows_structure(result7):
    names = [row[0] for row in result7.report_rows]
    for expected in ("F/S", "F+/S+", "F-/S-", "R+/S+", "R-/S-", "F+/R+", "F-/R-"):
        assert expected in names
    hist_rows = [n for n in names if n.startswith("hist[")]
    assert len(hist_rows) == 8


def test_histogram_sign_sectors(result7, star7):
    # every prime of a bin lies in the sector that the norm sign gives its class,
    # and the bin's row counts against that sector
    for rec in result7.records:
        assert star7.norm_sign[rec.m4_bits] == (1 if rec.p_mod4 == 1 else -1)
    t = result7.tally
    sector = {1: t.s_plus, -1: t.s_minus}
    rows = {row[0]: row for row in result7.report_rows}
    for bits, count in t.histogram.items():
        label = "hist[" + "".join(map(str, bits)) + "]"
        assert rows[label][1] == count / sector[star7.norm_sign[bits]]


def test_format_report_columns(result7):
    text = sweep.format_report(result7)
    assert "quantity" in text and "theoretical" in text and "pass/fail" in text
    assert ("PASS" in text) or ("FAIL" in text)


def test_violation_on_tampered_star_table(spec7):
    # flipping the star value on a whole orbit must trip the two-route
    # R-membership comparison (single-class flips are already rejected by
    # the StarTable constructor itself)
    from spinsweep.residue import rot

    tables = build_tables(spec7)
    rec = classify_prime(tables, 13)
    bits = rec.m4_bits
    tampered = dict(tables.star.star)
    for k in range(3):
        tampered[rot(bits, k)] = -tampered[rot(bits, k)]
    broken = sweep.FieldTables(
        tables.spec,
        tables.family,
        type(tables.star)(tampered, tables.star.norm_sign),
        tables.pairing,
    )
    with pytest.raises(sweep.SpinRelationViolation):
        classify_prime(broken, 13)


def test_violation_on_flipped_norm_sign(spec7):
    # the norm-sign check alone keeps each class in one sign sector: flip the
    # sign of both 3-class orbits (weight 1 to +1, weight 2 to -1); the table
    # still splits in half and is constant on orbits, so StarTable accepts it
    tables = build_tables(spec7)
    flipped = {bits: sign if sum(bits) in (0, 3) else -sign
               for bits, sign in tables.star.norm_sign.items()}
    assert [flipped[b] for b in ((1, 0, 0), (1, 1, 0))] == [1, -1]
    broken = sweep.FieldTables(
        tables.spec,
        tables.family,
        type(tables.star)(tables.star.star, flipped),
        tables.pairing,
    )
    for p in (13, 29, 43):
        with pytest.raises(sweep.SpinRelationViolation, match=f"p={p}: norm sign"):
            classify_prime(broken, p)
