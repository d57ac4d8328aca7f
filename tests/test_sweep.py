import gc
import hashlib
import math
import random
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest

from spinsweep import f2poly, numfield, residue, sweep
from spinsweep.numfield import PrimeDeg1
from spinsweep.sweep import (
    Tally,
    build_tables,
    classify_prime,
    emit_csv,
    odd_primes_in,
    run_sweep,
)
from test_numfield import QUINTIC11, shanks_cubic, translate


@pytest.fixture(scope="module")
def tables7(spec7):
    return build_tables(spec7)


def collect(spec, limit, jobs=1):
    """run_sweep with a sink that keeps every record: (result, records in ascending p)."""
    records = []
    result = run_sweep(spec, limit, jobs=jobs, sink=records.extend)
    return result, records


def streamed_csv(spec, limit, jobs=1):
    """(result, CSV) with the CSV built as the CLI writes it: one emit_csv per window, the header first."""
    parts = []

    def write(records):
        parts.append(emit_csv(records, spec.n, header=not parts))

    return run_sweep(spec, limit, jobs=jobs, sink=write), "".join(parts)


@pytest.fixture(scope="module")
def swept7(spec7):
    return collect(spec7, 6000)


@pytest.fixture(scope="module")
def swept9(spec9):
    return collect(spec9, 6000)


@pytest.fixture(scope="module")
def result7(swept7):
    return swept7[0]


@pytest.fixture(scope="module")
def records7(swept7):
    return swept7[1]


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


def test_config_validation(monkeypatch, spec7, in_process_pool):
    monkeypatch.setattr(sweep, "build_tables", lambda spec: pytest.fail("tables built"))
    with pytest.raises(ValueError, match=r"^limit must be at least 100$"):
        run_sweep(spec7, 50)
    with pytest.raises(ValueError, match=r"^limit must be at least 100$"):
        run_sweep(spec7, 99, jobs=-3)  # the limit is checked first
    assert in_process_pool == []


def test_classify_non_split_is_none(tables7):
    assert classify_prime(tables7, 11) is None  # 11 = 4 mod 7
    assert classify_prime(tables7, 5) is None


def test_classify_13_and_29(tables7):
    r13 = classify_prime(tables7, 13)
    assert r13.p == 13 and r13.root_a == 7 and r13.spins == (-1, 1) and r13.m4_bits == 0b110
    assert emit_csv([r13], 3).splitlines()[1] == "13,1,7,-1,1,0,0,011"  # coordinate 0 first
    r29 = classify_prime(tables7, 29)
    assert r29.p == 29
    assert all(s in (1, -1) for s in r29.spins)


def test_classify_respects_split_rule(records7):
    for rec in records7:
        assert rec.p % 7 in (1, 6)


def test_spin_not_in_F_when_any_minus(records7):
    # the derived CSV columns p_mod4, in_R and in_F against their definitions
    for line in emit_csv(records7, 3).splitlines()[1:]:
        p, p_mod4, _, s1, s2, in_r, in_f, _ = line.split(",")
        s = (int(s1), int(s2))
        assert int(p_mod4) == int(p) % 4
        assert in_f == str(int(all(v == 1 for v in s)))
        assert in_r == str(int(all(s[k - 1] * s[3 - k - 1] == 1 for k in (1, 2))))
        assert in_f <= in_r


def test_R_and_F_predicates():
    # R: spin(k) * spin(n - k) = 1 for every k; F: every spin is +1
    assert sweep.in_R((1, -1, -1, 1)) and not sweep.in_R((1, -1, 1, -1))
    assert not sweep.in_R((1, 1, -1, 1)) and not sweep.in_R((-1, 1, 1, 1))
    assert sweep.in_R((-1, -1)) and not sweep.in_F((-1, -1))
    assert sweep.in_F((1, 1, 1, 1)) and not sweep.in_F((1, 1, -1, 1))


def _row_counts(records, n):
    """(numerator, denominator) of every report row, straight from the records."""
    S, R, F, hist, sector = Counter(), Counter(), Counter(), Counter(), {}
    for rec in records:
        sign = 1 if rec.p % 4 == 1 else -1
        S[sign] += 1
        R[sign] += sweep.in_R(rec.spins)
        F[sign] += sweep.in_F(rec.spins)
        hist[rec.m4_bits] += 1
        assert sector.setdefault(rec.m4_bits, sign) == sign  # one sector per class
    for sign in (1, -1):
        assert F[sign] <= R[sign] <= S[sign]
    counts = {
        "F/S": (F[1] + F[-1], S[1] + S[-1]),
        "F+/S+": (F[1], S[1]), "F-/S-": (F[-1], S[-1]),
        "R+/S+": (R[1], S[1]), "R-/S-": (R[-1], S[-1]),
        "F+/R+": (F[1], R[1]), "F-/R-": (F[-1], R[-1]),
    }
    for bits, count in hist.items():
        counts[f"hist[{residue.class_bits(bits, n)}]"] = (count, S[sector[bits]])
    return counts


@pytest.mark.parametrize("field", ["swept7", "swept9"], ids=["result7", "result9"])
def test_report_rows_from_records(request, field):
    # every row's numerator and denominator, recounted from p mod 4, in_R, in_F and the class
    result, records = request.getfixturevalue(field)
    counts = _row_counts(records, result.spec.n)
    assert [row[0] for row in result.report_rows] == list(counts)[:7] + sorted(
        name for name in counts if name.startswith("hist["))
    for name, emp, stderr, theo, _, _ in result.report_rows:
        num, den = counts[name]
        theta = float(theo)
        assert emp == num / den and stderr == math.sqrt(theta * (1 - theta) / den)
    assert result.tally.total() == len(records)


def test_ramified_primes_do_not_split(spec9):
    # 3 | disc_f divides the modulus, so it is in no split class and classifies as not split
    assert sweep.classify_prime(sweep.build_tables(spec9), 3) is None
    assert "ramified" not in sweep.format_report(run_sweep(spec9, 1000, jobs=1))


def test_report_header_counts_split_primes_only():
    # Shanks m = 12: disc_f = 3^6 7^2, but 3 divides only the index of Z[theta] and
    # the field is Q(zeta_7)^+, unramified at 3; the header names no skipped primes
    spec = numfield.load_spec(shanks_cubic(12).replace("h = 1", "h = 3"))
    header = sweep.format_report(run_sweep(spec, 2000, jobs=1)).splitlines()[1]
    assert header == "split primes: 97  (S+ = 48, S- = 49)"


def _gf2_rank(vectors):
    basis = []  # reduced rows, each with a distinct leading bit
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


@pytest.mark.parametrize("field, shifts", [("spec7", (1, -2)), ("spec9", (1, -2)), ("quintic", (1, -3))])
def test_translated_presentation_sweeps_the_same(request, field, shifts):
    # theta - t generates the same field: the same split primes, spins and
    # S/R/F rows, and where the chosen prime is the same ideal (its root moved
    # by t) the classes differ only by the change of normal basis
    spec = numfield.load_spec(QUINTIC11) if field == "quintic" else request.getfixturevalue(field)
    base, base_records = collect(spec, 10_000)
    n = spec.n
    for t in shifts:
        moved = translate(spec, t)
        if field == "quintic":  # a non-self-dual normal basis: classes go through b = h t with h != 1
            assert residue.build_family(moved).pairing.c != (1,) + (0,) * (n - 1)
        result, records = collect(moved, 10_000)
        assert [r.p for r in records] == [r.p for r in base_records]
        assert [r.spins for r in records] == [r.spins for r in base_records]
        assert result.report_rows[:7] == base.report_rows[:7]
        pairs = [(a.m4_bits, b.m4_bits) for a, b in zip(base_records, records)
                 if (a.root_a - t - b.root_a) % a.p == 0]
        assert len(pairs) > 0.9 * len(base_records)
        # the pairs span the graph of one linear bijection of GF(2)^n exactly when
        # the graph and both of its projections have rank n
        assert _gf2_rank(x | y << n for x, y in pairs) == n
        assert _gf2_rank(x for x, _ in pairs) == _gf2_rank(y for _, y in pairs) == n


def test_split_memo_is_per_sweep(monkeypatch, spec7, in_process_pool):
    # every sweep builds fresh tables with an empty mod-4 memo, and the split
    # test runs at the table's primes, one per class mod 7, then exactly at
    # the split primes, for every --jobs (a traced benchmark compares its
    # counts across passes)
    calls, built = [], []
    direct, build = numfield.split_completely, sweep.build_tables

    def count(spec, p):
        calls.append(p)
        return direct(spec, p)

    def fresh(spec):
        tables = build(spec)
        assert tables.m4 == {}
        built.append(tables)
        return tables

    monkeypatch.setattr(numfield, "split_completely", count)
    monkeypatch.setattr(sweep, "build_tables", fresh)
    per_sweep = []
    for jobs in (1, 1, 2, 2):
        calls.clear()
        _, records = collect(spec7, 6000, jobs)
        per_sweep.append(list(calls))
    assert len(built) == 4  # one per sweep, each found empty; pool windows get copies
    assert in_process_pool == [2, 2]
    # the least prime of each class mod 7 (3, 5, 4, 6, 2, 1), then the split primes
    split = [rec.p for rec in records]
    assert per_sweep == [[3, 5, 11, 13, 23, 29] + split] * 4


def test_pool_windows_fill_copies_of_the_tables(monkeypatch, spec7, records7, in_process_pool):
    # the sweep builds its tables once; under a pool every window works on its
    # own pickled copy, so the sweep's mod-4 memo stays empty
    built, build = [], sweep.build_tables
    monkeypatch.setattr(sweep, "build_tables", lambda spec: built.append(build(spec)) or built[-1])
    _, records = collect(spec7, 6000, 2)
    assert in_process_pool == [2]
    assert len(built) == 1
    assert built[0].m4 == {}
    assert records == records7


def test_serial_windows_start_with_an_empty_m4_memo(monkeypatch, spec7, records7):
    # a serial sweep empties the mod-4 memo at every window, as a pool window's
    # pickled copy starts empty, so the memo holds at most n keys per split
    # prime of one window however large X is
    seen, classify = [], sweep.classify_prime
    monkeypatch.setattr(sweep, "classify_prime", lambda tables, p: seen.append((p, len(tables.m4))) or classify(tables, p))
    monkeypatch.setattr(sweep, "WINDOW_WIDTH", 2**10)
    _, records = collect(spec7, 6000, 1)
    assert records == records7
    bounds = sweep._windows(6000, 1)
    assert len(bounds) == 6
    for lo, hi in bounds:
        sizes = [size for p, size in seen if lo <= p < hi]
        split = sum(lo <= rec.p < hi for rec in records)
        assert sizes[0] == 0 < max(sizes) <= spec7.n * split


def test_build_tables_builds_one_pairing(monkeypatch, spec7):
    # the ring's CirculantA is the only one, and it inverts c once
    built, inverted = [], []
    init, inverse = residue.CirculantA.__init__, f2poly.cyclic_inv
    monkeypatch.setattr(residue.CirculantA, "__init__", lambda a, c: built.append(a) or init(a, c))
    monkeypatch.setattr(f2poly, "cyclic_inv", lambda a, n: inverted.append(a) or inverse(a, n))
    tables = build_tables(spec7)
    assert len(built) == len(inverted) == 1
    assert built[0] is tables.family.pairing is residue.build_matrix_A(tables.family)


def test_sweep_builds_no_oracle_state(spec7):
    # the oracle's squares and its product memo are created on first use, and
    # neither the tables nor a window of classified primes uses them
    tables = build_tables(spec7)
    assert sweep._classify_range(tables, 3, 2000)
    assert not {"squares", "square_multiples"} & set(vars(tables.family))


@pytest.mark.parametrize("field", ["spec7", "spec9"])
def test_m4_memo_is_m4_class_of_on_every_unit_mod_4(request, field):
    tables = build_tables(request.getfixturevalue(field))
    ring = tables.family
    units = [u for u in ring.elements(4) if ring.is_unit(u)]
    assert len(units) == 56
    for u in units:
        coords = ring.coeffs(u)  # a generator's coordinates, as the sweep reads them
        assert tables.m4_class(coords) == residue.m4_class_of(tables.family, u)
        # signed coordinates, as a generator has them, reduce to the same key
        assert tables.m4_class(tuple(c - 4 for c in coords)) == tables.m4_class(coords)
    assert set(tables.m4) == set(units)


def test_m4_memo_keys_on_the_residue_mod_4(spec7):
    tables = build_tables(spec7)
    assert tables.m4 == {}  # fresh tables start with an empty memo
    alpha = numfield.generator_of_power(spec7, PrimeDeg1(97, 25))
    bits = tables.m4_class(alpha)
    assert len(tables.m4) == 1
    for j in range(3):
        shifted = tuple(c + 4 * (i == j) for i, c in enumerate(alpha))
        assert tables.m4_class(shifted) == bits
    assert len(tables.m4) == 1
    classify_prime(tables, 13)
    assert tables.m4
    assert build_tables(spec7).m4 == {}


def test_poisoned_m4_memo_trips_the_conjugate_class_check(spec7):
    # the memo's entry for a conjugate prime's generator is read only by the
    # check that the conjugate's class is the rotated class; a wrong entry
    # there must abort the prime
    for p in (13, 29, 41, 43, 71, 83, 97):
        chain = numfield.conjugate_chain(spec7, PrimeDeg1(p, numfield.split_completely(spec7, p)[0]))
        keys = [tuple(c % 4 for c in numfield.generator_of_power(spec7, P)) for P in chain]
        if keys[1] != keys[0]:
            break
    else:
        pytest.fail("no prime whose conjugate generator has another residue mod 4")
    tables = build_tables(spec7)
    true_bits = tables.m4_class(keys[1])
    key = tables.family.pack(keys[1])
    tables.m4[key] = true_bits ^ 0b111
    with pytest.raises(sweep.SpinRelationViolation, match=f"^p={p}: class of conjugate prime"):
        classify_prime(tables, p)
    tables.m4[key] = true_bits
    assert classify_prime(tables, p).p == p


@pytest.mark.parametrize("field", ["spec7", "spec9", "quintic"])
def test_records_do_not_depend_on_the_totally_positive_generator(request, field):
    # alpha and eta^2 alpha, eta a seeded product of the listed units and -1,
    # are both totally positive generators of P^h: the residue symbols at
    # every sigma^k(P) and the mod-4 class agree (the sweep docstring).  A
    # listed unit that is not totally positive in place of eta^2 changes
    # both parts of some records, so each comparison can fail
    spec = numfield.load_spec(QUINTIC11) if field == "quintic" else request.getfixturevalue(field)
    tables = build_tables(spec)
    units = [spec.pad(u) for u in spec.units] + [spec.neg(spec.one())]
    control = next(u for u in units if -1 in spec.embeddings.signs_and_norm(u)[0])
    rng = random.Random(23)
    primes = symbols_changed = class_changed = 0
    for p in odd_primes_in(3, 20_000):
        roots = tables.split_roots(p)
        if not roots:
            continue
        chain = numfield.conjugate_chain(spec, PrimeDeg1(p, roots[0]))

        def record(beta):
            return [numfield.legendre_deg1(beta, Q) for Q in chain], tables.m4_class(beta)

        alpha = numfield.generator_of_power(spec, chain[0])
        eta = spec.one()
        for _ in range(rng.randrange(1, 4)):
            eta = spec.mul(eta, rng.choice(units))
        symbols, bits = record(alpha)
        assert record(spec.mul(spec.mul(eta, eta), alpha)) == (symbols, bits), p
        other_symbols, other_bits = record(spec.mul(control, alpha))
        symbols_changed += other_symbols != symbols
        class_changed += other_bits != bits
        primes += 1
    assert primes > 400 and symbols_changed and class_changed, (primes, symbols_changed, class_changed)


def _second_hit_generator(spec, P):
    """`numfield.generator_of_power` with one change: the walk's second norm-p^h hit, not its first.

    The same lattice, reduction and radius stages; a vector met again in a
    later stage is not a new hit.  The hit is made totally positive the same
    way, by the listed unit of its sign pattern.
    """
    n, target = spec.n, P.p**spec.h
    root = numfield._lift_root(spec, P, spec.h)
    basis, lam, d = numfield._lll_reduce(numfield._ideal_power_basis(n, target, root),
                                         numfield._ideal_power_gram(spec, target, root))
    base_t2 = n * (target * math.sqrt(abs(spec.disc_f))) ** (2.0 / n)
    hits = []
    for mult in numfield._RADIUS_STAGES:
        for coords in numfield._enumerate_short(lam, d, mult * mult * base_t2):
            cand = tuple(sum(c * row[j] for c, row in zip(coords, basis)) for j in range(n))
            signs, norm = spec.embeddings.signs_and_norm(cand)
            if abs(norm) != target or cand in hits:
                continue
            hits.append(cand)
            if len(hits) == 2:
                if -1 in signs:
                    cand = spec.mul(spec.unit_by_signature[signs], cand)
                return cand
    raise numfield.GeneratorNotFound(f"no second generator of norm {target} within the search radius")


@pytest.mark.parametrize("field", ["spec7", "quintic"])
def test_csv_does_not_depend_on_which_generator_the_search_returns(monkeypatch, request, field):
    # the sweep with the search's second hit, made totally positive, in place
    # of its first writes the same CSV to 3 10^4 byte for byte, although most
    # generators differ (the sweep docstring: two totally positive generators
    # differ by a square unit).  The sweep's own identity checks reject the
    # variant without its sign fix-up
    spec = numfield.load_spec(QUINTIC11) if field == "quintic" else request.getfixturevalue(field)
    first = emit_csv(collect(spec, 30_000)[1], spec.n)
    real = numfield.generator_of_power
    calls = differ = 0

    def second(spec, P):
        nonlocal calls, differ
        alpha = _second_hit_generator(spec, P)
        calls += 1
        differ += alpha != real(spec, P)
        return alpha

    monkeypatch.setattr(numfield, "generator_of_power", second)
    assert emit_csv(collect(spec, 30_000)[1], spec.n) == first
    assert calls == spec.n * (first.count("\n") - 1) and differ > calls // 2, (calls, differ)


def test_tally_halves_add_up(result7, records7):
    # the joint tallies of two halves of the records add up to the whole, in either order
    recs = records7
    half = len(recs) // 2
    first, second = (Tally((r.m4_bits, r.spins) for r in part) for part in (recs[:half], recs[half:]))
    assert first + second == second + first == result7.tally
    assert first and second and first != result7.tally


def test_determinism_across_chunk_sizes(spec7, swept7, in_process_pool):
    # serial is one window; on 4 CPUs --jobs 2 and 3 cut [3, X] into 8 and 12
    for jobs in (2, 3):
        assert len(sweep._windows(6000, jobs)) == sweep.WINDOWS_PER_WORKER * jobs
        res, records = collect(spec7, 6000, jobs)
        assert res.tally == swept7[0].tally
        assert emit_csv(records, 3) == emit_csv(swept7[1], 3)
    assert in_process_pool == [2, 3]


def test_negative_jobs_rejected_before_tables_or_pool(monkeypatch, spec7, in_process_pool):
    monkeypatch.setattr(sweep, "build_tables", lambda spec: pytest.fail("tables built"))
    with pytest.raises(ValueError, match=r"^jobs must be >= 0 \(0 = auto\), got -3$"):
        run_sweep(spec7, 6000, jobs=-3)
    assert in_process_pool == []


def test_determinism_with_workers(spec7, swept7):
    res, records = collect(spec7, 6000, 2)
    assert res.tally == swept7[0].tally
    assert emit_csv(records, 3) == emit_csv(swept7[1], 3)


def test_workers_capped_at_chunk_count(monkeypatch, spec7, records7, in_process_pool):
    _, records = collect(spec7, 6000, 2)  # 8 windows
    assert in_process_pool == [2]
    assert emit_csv(records, 3) == emit_csv(records7, 3)
    run_sweep(spec7, 6000, jobs=1)  # one window, no pool
    assert in_process_pool == [2]
    # 800 windows asked of [3, 100], which holds 98 integers: no window is empty
    bounds = sweep._windows(100, 200)
    assert bounds[0][0] == 3 and bounds[-1][1] == 101 and len(bounds) == 98
    assert all(hi == lo + 1 for lo, hi in bounds)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 256)  # so the window count binds
    run_sweep(spec7, 100, jobs=200)
    assert in_process_pool == [2, 98]


def test_workers_capped_at_cpu_count(monkeypatch, spec7, records7, in_process_pool):
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 2)
    windows = []
    chunk = sweep._classify_range

    def record(tables, lo, hi):
        windows.append((lo, hi))
        return chunk(tables, lo, hi)

    monkeypatch.setattr(sweep, "_classify_range", record)
    _, records = collect(spec7, 6000, 10**9)  # cut to 2 workers before any window is made
    assert in_process_pool == [2]
    assert len(windows) == 2 * sweep.WINDOWS_PER_WORKER == 8
    assert emit_csv(records, 3) == emit_csv(records7, 3)


def test_windows_do_not_grow_with_jobs():
    # the window count is clamped to the integers of [3, limit] before any cut is
    # made, so a huge --jobs costs nothing and gives the same windows
    assert sweep._windows(1000, 10**12) == [(lo, lo + 1) for lo in range(3, 1001)]
    for limit, jobs in ((100, 24), (100, 25), (1000, 3), (6000, 2), (10**5, 7)):
        count = sweep.WINDOWS_PER_WORKER * jobs
        cuts = sorted({3 + i * (limit - 2) // count for i in range(count + 1)})
        assert sweep._windows(limit, jobs) == list(zip(cuts, cuts[1:]))


def test_windows_have_equal_width_of_at_most_window_width():
    # ceil((X - 2) / WINDOW_WIDTH) windows, and at least WINDOWS_PER_WORKER per worker under a pool
    for limit, jobs, count in ((6000, 1, 1), (2**15 + 2, 1, 1), (2**15 + 3, 1, 2), (10**5, 1, 4),
                               (10**6, 1, 31), (10**6, 2, 31), (10**6, 8, 32), (10**7, 1, 306)):
        bounds = sweep._windows(limit, jobs)
        assert len(bounds) == count
        assert bounds[0][0] == 3 and bounds[-1][1] == limit + 1
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        widths = {hi - lo for lo, hi in bounds}
        assert max(widths) <= sweep.WINDOW_WIDTH and max(widths) - min(widths) <= 1


@pytest.mark.parametrize("jobs, windows", [(1, 6), (2, 8)])
def test_sink_gets_each_window_in_order(monkeypatch, spec7, swept7, in_process_pool, jobs, windows):
    monkeypatch.setattr(sweep, "WINDOW_WIDTH", 2**10)
    parts = []
    result = run_sweep(spec7, 6000, jobs=jobs, sink=parts.append)
    assert len(parts) == windows
    assert [rec for part in parts for rec in part] == swept7[1]
    assert result.tally == swept7[0].tally and result.report_rows == swept7[0].report_rows


def _traced_peak(spec, limit, sink):
    """tracemalloc peak of run_sweep(spec, limit, sink=sink), from a collected heap."""
    gc.collect()
    tracemalloc.start()
    try:
        run_sweep(spec, limit, sink=sink)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_serial_sweep_memory_does_not_grow_with_the_window_count(monkeypatch, spec7):
    # a sink that drops each window and runs a full collection, which
    # empties the interpreter's free lists of small tuples (tracemalloc
    # counts their blocks as allocated, and they fill as the sweep goes), so
    # the peak does not depend on when the collector last ran: 16 windows
    # peak within one window's records of 4 windows
    width = 2**9
    monkeypatch.setattr(sweep, "WINDOW_WIDTH", width)
    records = []
    gc.collect()
    tracemalloc.start()
    try:
        run_sweep(spec7, width + 2, sink=records.extend)  # one window, kept
        gc.collect()
        one_window = tracemalloc.get_traced_memory()[0]  # all that outlives the sweep: its records
    finally:
        tracemalloc.stop()
    assert len(records) == 31

    def drop(records):
        gc.collect()

    four, sixteen = (_traced_peak(spec7, count * width + 2, drop) for count in (4, 16))
    assert abs(sixteen - four) < one_window


def test_pool_parent_holds_at_most_two_windows_per_worker(monkeypatch, spec7, in_process_pool):
    # the in-process pool runs a window when it is submitted, so a window is
    # held from its submit until its records reach the sink
    monkeypatch.setattr(sweep, "WINDOW_WIDTH", 2**10)
    done, taken, held = [], [], []

    def window(tables, lo, hi):
        done.append((lo, hi))
        held.append(len(done) - len(taken))
        return []

    monkeypatch.setattr(sweep, "_classify_range", window)
    run_sweep(spec7, 50_000, jobs=3, sink=taken.append)
    assert in_process_pool == [3]
    assert done == sweep._windows(50_000, 3) and len(done) == len(taken) == 49
    assert max(held) == 2 * 3


def test_rows_without_primes_read_no_primes(spec7, star7, result7):
    # a ratio over no primes has no value: the row prints "no primes" and a dash, and fails
    rows = sweep.build_report_rows(spec7, Tally(), star7.norm_sign)
    assert [row[0] for row in rows] == ["F/S", "F+/S+", "F-/S-", "R+/S+", "R-/S-", "F+/R+", "F-/R-"]
    assert all(row[1] is row[2] is row[4] is None and row[5] is False for row in rows)
    text = sweep.format_report(result7._replace(tally=Tally(), report_rows=rows))
    lines = text.splitlines()
    assert lines[4] == "F/S          | no primes          | 1/4          | -         | FAIL"
    assert lines[10] == "F-/R-        | no primes          | 1/2          | -         | FAIL"
    assert lines[-1] == "overall: FAIL" and "nan" not in text


def test_csv_format(result7, records7):
    text = emit_csv(records7, 3)
    lines = text.strip().split("\n")
    assert lines[0] == "p,p_mod4,root_a,spin_1,spin_2,in_R,in_F,m4_class_bits"
    assert len(lines) - 1 == result7.tally.total()
    ps = [int(line.split(",")[0]) for line in lines[1:]]
    assert ps == sorted(ps)
    assert emit_csv([], 3).strip() == lines[0]


def test_csv_row_fields(records7):
    rec = records7[0]
    line = emit_csv([rec], 3).strip().split("\n")[1]
    parts = line.split(",")
    assert parts[0] == str(rec.p)
    assert parts[-1] == residue.class_bits(rec.m4_bits, 3)
    assert parts[1] == str(rec.p % 4)
    assert parts[-2] == str(int(sweep.in_F(rec.spins)))
    assert parts[-3] == str(int(sweep.in_R(rec.spins)))


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_class_labels_read_back_to_the_class(n):
    # the CSV column and the hist[...] label print a class bit 0 first; reading each back gives the class
    classes = range(1 << n)
    records = [sweep.PrimeRecord(p, 0, (1,) * (n - 1), u) for p, u in enumerate(classes)]
    column = [line.rsplit(",", 1)[1] for line in emit_csv(records, n).splitlines()[1:]]
    assert [int(bits[::-1], 2) for bits in column] == list(classes)
    assert all(bits[j] == str(u >> j & 1) for u, bits in zip(classes, column) for j in range(n))
    # class u gets u + 1 primes, all in S+, so each hist row's count names its class
    tally = Tally({(u, (1,) * (n - 1)): u + 1 for u in classes})
    rows = sweep.build_report_rows(SimpleNamespace(n=n), tally, (1,) * (1 << n))
    hist = [(name[len("hist["):-1], emp) for name, emp, *_ in rows if name.startswith("hist[")]
    assert [label for label, _ in hist] == sorted(column)
    for label, emp in hist:
        assert round(emp * tally.total()) - 1 == int(label[::-1], 2)


@pytest.mark.parametrize("field, rows, digest", [
    ("spec9", 3191, "e2a5840ab74a6da524190cc47f4aa8a70352f9d99355475b036384984fd41630"),
    ("quintic", 1914, "ede558fc56421e567de88708ea56d00309afd22e0f7dd430fafbb0fd94e0d4b5"),
], ids=["c9", "quintic"])
def test_csv_to_1e5_is_pinned(request, field, rows, digest):
    # SHA-256 of the per-prime CSV to 10^5 for the two fields the criterion-6
    # pin (c7) does not cover; any change to a root, spin or class moves it
    spec = request.getfixturevalue(field) if field == "spec9" else numfield.load_spec(QUINTIC11)
    result, text = streamed_csv(spec, 10**5)
    assert result.tally.total() == text.count("\n") - 1 == rows
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_report_rows_structure(result7):
    names = [row[0] for row in result7.report_rows]
    for expected in ("F/S", "F+/S+", "F-/S-", "R+/S+", "R-/S-", "F+/R+", "F-/R-"):
        assert expected in names
    hist_rows = [n for n in names if n.startswith("hist[")]
    assert len(hist_rows) == 8


def test_stderr_column_is_the_binomial_standard_error(result7, records7):
    # the "+-" column is sqrt(theta (1 - theta) / den) at the predicted theta; every
    # row is checked against its recounted den in test_report_rows_from_records
    split = len(records7)
    assert {row[0]: row[2] for row in result7.report_rows}["F/S"] == math.sqrt(3 / 16 / split)


def test_histogram_sign_sectors(result7, records7, star7):
    # every prime of a bin lies in the sector that the norm sign gives its class,
    # and the bin's row counts against that sector
    for rec in records7:
        assert star7.norm_sign[rec.m4_bits] == (1 if rec.p % 4 == 1 else -1)
    sector = Counter(star7.norm_sign[rec.m4_bits] for rec in records7)
    rows = {row[0]: row for row in result7.report_rows}
    for bits, count in Counter(rec.m4_bits for rec in records7).items():
        label = f"hist[{residue.class_bits(bits, 3)}]"
        assert rows[label][1] == count / sector[star7.norm_sign[bits]]


def test_format_report_columns(result7):
    text = sweep.format_report(result7)
    assert "quantity" in text and "theoretical" in text and "pass/fail" in text
    assert ("PASS" in text) or ("FAIL" in text)


def test_report_header_bars_line_up_with_the_rows(spec7, star7, result7):
    # every " | " column separator of the header sits at the column of the
    # one in each row, with and without primes ("|delta|" is a title, not a separator)
    empty = result7._replace(tally=Tally(), report_rows=sweep.build_report_rows(spec7, Tally(), star7.norm_sign))

    def separators(line):
        return [i for i in range(len(line)) if line.startswith(" | ", i)]

    for result in (result7, empty):
        lines = sweep.format_report(result).splitlines()
        header, rows = lines[3], lines[4:-2]
        assert header.startswith("quantity") and len(rows) >= 7 and lines[-2] == ""
        assert len(separators(header)) == 4
        assert all(separators(row) == separators(header) for row in rows)


def test_violation_on_tampered_star_table(spec7):
    # flipping the star value on a whole orbit must trip the two-route
    # R-membership comparison (single-class flips are already rejected by
    # the StarTable constructor itself)
    from spinsweep.residue import rot

    tables = build_tables(spec7)
    rec = classify_prime(tables, 13)
    bits = rec.m4_bits
    tampered = list(tables.star.star)
    for k in range(3):
        tampered[rot(bits, k, 3)] = -tampered[rot(bits, k, 3)]
    broken = sweep.FieldTables(tables.spec, tables.family, type(tables.star)(tuple(tampered), tables.star.norm_sign),
                               tables.modulus, tables.split_classes)
    with pytest.raises(sweep.SpinRelationViolation):
        classify_prime(broken, 13)


def test_violation_on_flipped_norm_sign(spec7):
    # the norm-sign check alone keeps each class in one sign sector: flip the
    # sign of both 3-class orbits (weight 1 to +1, weight 2 to -1); the table
    # still splits in half and is constant on orbits, so StarTable accepts it
    tables = build_tables(spec7)
    flipped = tuple(sign if bits.bit_count() in (0, 3) else -sign
                    for bits, sign in enumerate(tables.star.norm_sign))
    assert [flipped[b] for b in (0b001, 0b011)] == [1, -1]
    broken = sweep.FieldTables(tables.spec, tables.family, type(tables.star)(tables.star.star, flipped),
                               tables.modulus, tables.split_classes)
    for p in (13, 29, 43):
        with pytest.raises(sweep.SpinRelationViolation, match=f"p={p}: norm sign"):
            classify_prime(broken, p)
