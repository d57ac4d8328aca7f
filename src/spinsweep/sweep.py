"""Empirical verification sweep: classify split primes and compare densities.

For each odd rational prime p <= X that splits completely in the configured
field, the sweep takes the prime above p with the smallest root, computes a
totally positive generator, all spins, and the mod-4 square class.  Two hard
per-prime identities are enforced with zero tolerance: the product
spin(P,k)*spin(P,n-k) must equal the dyadic Hilbert pairing of the generator
with its k-th conjugate, and R-membership via spin products must agree with
R-membership via the star value of the mod-4 class.  Any violation aborts
the run naming the prime.

The sweep counts split primes once, per joint cell (mod-4 class, spins), in
a `Tally`.  Every report row is a marginal of these cells: the sign sector
S+/S- of a cell is the norm sign of its class (checked to be p mod 4), R
and F are the predicates `in_R` and `in_F` on its spins, and the class
histogram sums the cells over their spins.

The sweep streams.  [3, X] is cut into windows of equal width, at most
WINDOW_WIDTH integers each: at least one window when serial, and at least
WINDOWS_PER_WORKER per worker process otherwise, so the chunking follows
from X and the worker count alone, which is at most the CPU count.  Every
window is `_classify_range` on the sweep's `FieldTables`: in process when
serial, and on a pickled copy of the tables per window in a worker
otherwise, with at most two windows per worker submitted ahead.  Each
window's records go, in window order, into the one `Tally` and then to a
sink the caller supplies, and are dropped; so a serial sweep holds one
window's records at a time, the parent of a pool at most 2 jobs windows,
and memory does not grow with X.  Per-prime results are pure functions of
p, so records, tallies and CSV output are identical for every worker count.

Split-class invariant: K is abelian, so by Artin reciprocity p splits
completely iff p mod M lies in H, a subgroup of index n of (Z/M)^*, for
M = `numfield.conductor_multiple`.  `build_tables` finds H once, by the
direct split test at the least prime of each unit class, and checks that
it is a subgroup of index n; the sweep then runs the split test only at
primes of H, where it must split.  A prime of disc_f divides M, so it is
in no unit class and never split, as the test's own certificate would
also say (`numfield.split_completely`).  So the split test runs at
the same primes for every worker count.  The only state kept between
primes is one exact memo on the tables: the mod-4 class of each generator
residue mod 4 already classified.  It lasts one sweep when serial and one
window under a pool, and only skips work whose answer is already known.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
import math
import os

from . import numfield, residue
from .density import density_report
from .intpoly import prime_factors
from .numfield import PrimeDeg1


class SpinRelationViolation(Exception):
    """A zero-tolerance per-prime identity failed; names the offending prime."""


class WorkerCrashed(RuntimeError):
    """A worker process of a parallel sweep died before returning its chunk."""


@dataclass(frozen=True)
class PrimeRecord:
    """One split prime; its CSV row adds p mod 4, in_R(spins) and in_F(spins)."""

    p: int
    root_a: int
    spins: tuple[int, ...]
    m4_bits: tuple[int, ...]


def in_R(spins: tuple[int, ...]) -> bool:
    """R: spin(k)*spin(n-k) = 1 for every k, i.e. the spins read the same reversed."""
    return spins == spins[::-1]


def in_F(spins: tuple[int, ...]) -> bool:
    """F: every spin is +1."""
    return all(s == 1 for s in spins)


class Tally(Counter):
    """Split primes per joint cell (m4_bits, spins); tallies of disjoint ranges add with +.

    Every count of the report is a marginal of the cells: a cell lies in
    S+ or S- as norm_sign[m4_bits] is +1 or -1 (classify_prime checks that
    this is p mod 4), in R when in_R(spins) and in F when in_F(spins).
    """


@dataclass
class FieldTables:
    """Per-field context shared by all per-prime work, built afresh by every sweep.

    split_classes is H, the classes p mod modulus (a multiple of the
    conductor) of the primes that split completely; `build_tables` has
    checked that it is a subgroup of index n of (Z/modulus)^*.  m4 is an
    exact memo, empty when built: it maps a generator's coordinates mod 4
    to `residue.m4_class_of` of them, which depends on nothing else, and
    has at most |(O/4)^*| = 2^n (2^n - 1) keys.  A serial sweep fills one
    copy, and under a pool every window fills its own pickled copy.
    """

    spec: numfield.FieldSpec
    family: residue.RingFamily
    star: residue.StarTable
    modulus: int
    split_classes: frozenset[int]
    m4: dict[tuple[int, ...], tuple[int, ...]] = field(init=False, default_factory=dict)

    def split_roots(self, p: int) -> list[int]:
        """`numfield.split_completely(spec, p)`, tested only when p mod modulus is a split class."""
        if p % self.modulus not in self.split_classes:
            return []
        roots = numfield.split_completely(self.spec, p)
        if not roots:
            raise SpinRelationViolation(
                f"p={p}: p mod {self.modulus} is a split class but p does not split"
            )
        return roots

    def m4_class(self, alpha) -> tuple[int, ...]:
        """`residue.m4_class_of` of alpha mod 4, computed once per residue mod 4."""
        key = tuple(c % 4 for c in alpha)
        bits = self.m4.get(key)
        if bits is None:
            bits = self.m4[key] = residue.m4_class_of(self.family, key)
        return bits


def _split_classes(spec: numfield.FieldSpec, modulus: int) -> frozenset[int]:
    """H, the unit classes mod modulus whose least prime splits completely.

    Primes are tried in ascending order, skipping those dividing modulus,
    and each unit class is decided by its first prime.  H must be a
    subgroup of index n, or modulus is not a multiple of the conductor.
    """
    units = sum(math.gcd(r, modulus) == 1 for r in range(modulus))
    decided = {}
    lo, hi = 3, 4 * modulus
    while len(decided) < units:
        for p in odd_primes_in(lo, hi):
            if modulus % p and p % modulus not in decided:
                try:
                    decided[p % modulus] = bool(numfield.split_completely(spec, p))
                except numfield.PrimeFailure as exc:
                    raise type(exc)(f"p={p}: {exc}") from exc
        lo, hi = hi, 2 * hi
    split = frozenset(r for r, splits in decided.items() if splits)
    closed = all(a * b % modulus in split for a in split for b in split)
    if len(split) * spec.n != units or not closed:
        raise SpinRelationViolation(
            f"split classes mod {modulus} are not a subgroup of index {spec.n}"
        )
    return split


def build_tables(spec: numfield.FieldSpec) -> FieldTables:
    family = residue.build_family(spec)
    modulus = numfield.conductor_multiple(spec)
    split = _split_classes(spec, modulus)
    return FieldTables(spec, family, residue.star_table(family), modulus, split)


def classify_prime(tables: FieldTables, p: int) -> PrimeRecord | None:
    """Classify one odd prime; None when p does not split completely, as for every p dividing disc_f."""
    spec = tables.spec
    n = spec.n
    roots = tables.split_roots(p)
    if not roots:
        return None
    chain = numfield.conjugate_chain(spec, PrimeDeg1(p, roots[0]))
    alpha = numfield.generator_of_power(spec, chain[0])
    spins = tuple(numfield.legendre_deg1(spec, alpha, chain[k]) for k in range(1, n))
    if 0 in spins:
        raise SpinRelationViolation(f"p={p}: residue symbol degenerated to 0")
    bits = tables.m4_class(alpha)

    for k in range(1, n):
        product = spins[k - 1] * spins[n - k - 1]
        pairing = tables.family.pairing.pairing(bits, residue.rot(bits, k))
        if product != pairing:
            raise SpinRelationViolation(
                f"p={p}: spin({k})*spin({n - k}) = {product} but Hilbert pairing = {pairing}"
            )
    in_r_spin = in_R(spins)
    in_r_star = tables.star.star[bits] == 1
    if in_r_spin != in_r_star:
        raise SpinRelationViolation(
            f"p={p}: R-membership disagrees (spin products {in_r_spin}, star {in_r_star})"
        )
    expected_sign = 1 if p % 4 == 1 else -1
    if tables.star.norm_sign[bits] != expected_sign:
        raise SpinRelationViolation(f"p={p}: norm sign of the mod-4 class is not p mod 4")

    for k in range(1, n):
        alpha_k = numfield.generator_of_power(spec, chain[k])
        bits_k = tables.m4_class(alpha_k)
        if bits_k != residue.rot(bits, k):
            raise SpinRelationViolation(
                f"p={p}: class of conjugate prime is not the rotated class"
            )

    return PrimeRecord(p, chain[0].a, spins, bits)


# -- prime generation ---------------------------------------------------------


def odd_primes_in(lo: int, hi: int) -> list[int]:
    """Odd primes in [lo, hi), by a sieve segmented on the requested window.

    Crossing out the multiples of every odd q <= sqrt(hi), from q^2 on,
    leaves exactly the odd primes: an odd composite's least prime factor is
    such a q.  Composite q add no marks and cost little, so no base sieve.
    """
    lo = max(lo, 3)
    if hi <= lo:
        return []
    seg = bytearray([1]) * (hi - lo)  # seg[i] for lo + i
    for q in range(3, math.isqrt(hi - 1) + 1, 2):
        start = max(q * q, -(-lo // q) * q)
        seg[start - lo :: q] = bytes(len(range(start, hi, q)))
    first = lo | 1
    return list(compress(range(first, hi, 2), seg[first - lo :: 2]))


# -- sweep driver -------------------------------------------------------------


def _classify_range(tables: FieldTables, lo: int, hi: int) -> list[PrimeRecord]:
    """Records of the split primes in the window [lo, hi)."""
    records = []
    for p in odd_primes_in(lo, hi):
        try:
            rec = classify_prime(tables, p)
        except numfield.PrimeFailure as exc:
            raise type(exc)(f"p={p}: {exc}") from exc
        if rec is not None:
            records.append(rec)
    return records


@dataclass
class SweepResult:
    spec: numfield.FieldSpec
    limit: int
    tally: Tally
    norm_sign: dict  # sign sector of each mod-4 class: +1 for S+, -1 for S-
    skipped_ramified: list[int]  # the primes of disc_f up to limit, none of which splits
    report_rows: list  # (quantity, empirical, stderr, theoretical Fraction, delta, passed)

    @property
    def passed(self) -> bool:
        return all(row[5] for row in self.report_rows)


# acceptance tolerances, fixed for reproducibility: 3.4 (F+/R+) to 8 (hist) binomial
# standard errors at the conductor-7 cubic's counts at X = 10^6
DEFAULT_TOLERANCES = {
    "F/S": 0.02,
    "F+/S+": 0.02,
    "F-/S-": 0.02,
    "R+/S+": 0.02,
    "R-/S-": 0.02,
    "F+/R+": 0.03,
    "F-/R-": 0.03,
    "hist": 0.03,
}


# windows per worker process: enough that a slow window does not leave the others idle
WINDOWS_PER_WORKER = 4
# integers per window at most: its records are all a sweep holds at a time
WINDOW_WIDTH = 2**15


def _windows(limit: int, jobs: int) -> list[tuple[int, int]]:
    """[3, limit] as [lo, hi) windows of equal width, at most WINDOW_WIDTH.

    At least one window when serial and WINDOWS_PER_WORKER per worker
    otherwise, but at most one per integer of [3, limit], so none is empty
    and the cuts are distinct.
    """
    span = limit - 2
    least = 1 if jobs == 1 else WINDOWS_PER_WORKER * jobs
    count = min(max(-(-span // WINDOW_WIDTH), least), span)
    cuts = [3 + i * span // count for i in range(count + 1)]
    return list(zip(cuts, cuts[1:]))


def run_sweep(spec: numfield.FieldSpec, limit: int, jobs: int = 1, sink=None) -> SweepResult:
    """Sweep the odd primes up to limit; deterministic records and tally for any jobs >= 0 (0 = auto).

    sink, when given, is called once per window, in window order, with the
    list of that window's `PrimeRecord`s in ascending p; the sweep keeps
    none of them.  At most one worker runs per CPU: a larger jobs is cut to
    the CPU count, and 0 takes the CPU count, at most 8.
    """
    if limit < 100:
        raise ValueError("limit must be at least 100")
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = auto), got {jobs}")
    cpus = os.cpu_count() or 1
    jobs = min(jobs, cpus) if jobs else min(8, cpus)
    bounds = _windows(limit, jobs)
    # the pool starts all its workers at the first submit, so start no idle ones
    jobs = min(jobs, len(bounds))
    tables = build_tables(spec)
    tally = Tally()

    def take(records):
        tally.update((rec.m4_bits, rec.spins) for rec in records)
        if sink is not None:
            sink(records)

    if jobs == 1:
        for lo, hi in bounds:
            take(_classify_range(tables, lo, hi))
    else:
        # imported here, so that a serial sweep never loads multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
        with ProcessPoolExecutor(jobs) as pool:
            try:
                ahead = deque()  # submitted windows, in window order, at most 2 jobs
                for lo, hi in bounds:
                    ahead.append(pool.submit(_classify_range, tables, lo, hi))
                    if len(ahead) == 2 * jobs:
                        take(ahead.popleft().result())
                while ahead:
                    take(ahead.popleft().result())
            except BrokenProcessPool as exc:
                raise WorkerCrashed(str(exc)) from exc
    norm_sign = tables.star.norm_sign
    rows = build_report_rows(spec, tally, norm_sign)
    skipped = [q for q in prime_factors(abs(spec.disc_f)) if q <= limit]  # disc_f is odd (C4)
    return SweepResult(spec, limit, tally, norm_sign, skipped, rows)


def _ratio_row(name, num, den, theoretical, tol):
    if den == 0:  # no primes to take a ratio over: no empirical value, and the row fails
        return (name, None, None, theoretical, None, False)
    emp = num / den
    theta = float(theoretical)
    stderr = math.sqrt(theta * (1 - theta) / den)  # binomial standard error at the predicted value
    delta = abs(emp - theta)
    return (name, emp, stderr, theoretical, delta, delta < tol)


def marginal(tally: Tally, key, rule=lambda spins: True) -> Counter:
    """Split primes per key(m4_bits), over the cells of tally whose spins satisfy rule."""
    counts = Counter()
    for (bits, spins), count in tally.items():
        if rule(spins):
            counts[key(bits)] += count
    return counts


def build_report_rows(spec: numfield.FieldSpec, tally: Tally, norm_sign: dict):
    """Report rows, each a ratio of two marginals of the tally's cells.

    S, R and F count per sign sector norm_sign[bits]; each histogram bin
    counts against the sector of its class.
    """
    tol = DEFAULT_TOLERANCES
    rep = density_report(spec.n)
    sector = norm_sign.__getitem__
    S, R, F = marginal(tally, sector), marginal(tally, sector, in_R), marginal(tally, sector, in_F)
    rows = [
        _ratio_row("F/S", F.total(), S.total(), rep.dF, tol["F/S"]),
        _ratio_row("F+/S+", F[1], S[1], rep.dF_plus, tol["F+/S+"]),
        _ratio_row("F-/S-", F[-1], S[-1], rep.dF_minus, tol["F-/S-"]),
        _ratio_row("R+/S+", R[1], S[1], rep.dR_plus, tol["R+/S+"]),
        _ratio_row("R-/S-", R[-1], S[-1], rep.dR_minus, tol["R-/S-"]),
        # F is a subset of R, so d(F+|R+) = d(F+|S+) / d(R+|S+), and likewise for S-
        _ratio_row("F+/R+", F[1], R[1], rep.dF_plus / rep.dR_plus, tol["F+/R+"]),
        _ratio_row("F-/R-", F[-1], R[-1], rep.dF_minus / rep.dR_minus, tol["F-/R-"]),
    ]
    # mod-4 equidistribution: each class bin against its own sign sector, which
    # classify_prime has checked to be p mod 4 for every prime in the bin
    uniform = Fraction(1, 1 << (spec.n - 1))
    histogram = marginal(tally, lambda bits: bits)
    for bits in sorted(histogram):
        label = "hist[" + "".join(map(str, bits)) + "]"
        rows.append(_ratio_row(label, histogram[bits], S[sector(bits)], uniform, tol["hist"]))
    return rows


def format_report(result: SweepResult) -> str:
    """Aligned text table: quantity | empirical | theoretical | |delta| | pass/fail."""
    S = marginal(result.tally, result.norm_sign.__getitem__)
    lines = [
        f"field = {result.spec.name}   X = {result.limit}",
        f"split primes: {S.total()}  (S+ = {S[1]}, S- = {S[-1]};"
        f" ramified skipped: {len(result.skipped_ramified)})",
        "",
        f"{'quantity':<12} | {'empirical':<18} | {'theoretical':<12} | {'|delta|':<9} | pass/fail",
    ]
    for name, emp, stderr, theo, delta, ok in result.report_rows:
        theo_s = f"{theo.numerator}/{theo.denominator}"
        emp_s, delta_s = ("no primes", "-") if emp is None else (f"{emp:.5f} +- {stderr:.5f}", f"{delta:.5f}")
        lines.append(
            f"{name:<12} | {emp_s:<18} | {theo_s:<12} | {delta_s:<9} | " + ("PASS" if ok else "FAIL")
        )
    lines += ["", f"overall: {'PASS' if result.passed else 'FAIL'}"]
    return "\n".join(lines)


def emit_csv(records, n: int, header: bool = True) -> str:
    """CSV text: the header line unless header is false, then one row per split prime, sorted by p.

    A sweep's CSV is emit_csv of its first window's records followed by
    emit_csv(..., header=False) of each later window's.
    """
    cols = ["p", "p_mod4", "root_a"] + [f"spin_{k}" for k in range(1, n)] + [
        "in_R",
        "in_F",
        "m4_class_bits",
    ]
    lines = [",".join(cols)] if header else []
    for rec in sorted(records, key=lambda r: r.p):
        row = [str(rec.p), str(rec.p % 4), str(rec.root_a)]
        row += [str(s) for s in rec.spins]
        row += [str(int(in_R(rec.spins))), str(int(in_F(rec.spins))), "".join(map(str, rec.m4_bits))]
        lines.append(",".join(row))
    return "".join(line + "\n" for line in lines)
