"""Empirical verification sweep: classify split primes and compare densities.

For each odd rational prime p <= X that splits completely in the configured
field, the sweep takes the prime above p with the smallest root, computes a
totally positive generator, all spins, and the mod-4 square class, and
classifies p into S+/S- (p mod 4), R (symmetric spin relation holds) and
F (all spins +1).  Two hard per-prime identities are enforced with zero
tolerance: the product spin(P,k)*spin(P,n-k) must equal the dyadic Hilbert
pairing of the generator with its k-th conjugate, and R-membership via spin
products must agree with R-membership via the star value of the mod-4
class.  Any violation aborts the run naming the prime.

Work is cut into windows of [3, X] of equal width: one when serial, and
WINDOWS_PER_WORKER per worker process otherwise, so the chunking follows
from the worker count alone.  Per-prime results are pure functions of p and
tallies merge by addition, so tallies and CSV output are identical for
every worker count.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
import math
import os

from . import numfield, residue
from .density import density_report
from .numfield import PrimeDeg1


class SpinRelationViolation(Exception):
    """A zero-tolerance per-prime identity failed; names the offending prime."""


class WorkerCrashed(RuntimeError):
    """A worker process of a parallel sweep died before returning its chunk."""


@dataclass(frozen=True)
class SweepConfig:
    spec: numfield.FieldSpec
    limit: int

    def __post_init__(self):
        if self.limit < 100:
            raise ValueError("limit must be at least 100")


@dataclass(frozen=True)
class PrimeRecord:
    p: int
    p_mod4: int
    root_a: int
    spins: tuple[int, ...]
    in_R: bool
    in_F: bool
    m4_bits: tuple[int, ...]


@dataclass
class Tally:
    """Additive counters for one sweep; merging is componentwise addition."""

    s_plus: int = 0
    s_minus: int = 0
    r_plus: int = 0
    r_minus: int = 0
    f_plus: int = 0
    f_minus: int = 0
    histogram: dict = field(default_factory=dict)

    def add_record(self, rec: PrimeRecord):
        if rec.p_mod4 == 1:
            self.s_plus += 1
            self.r_plus += rec.in_R
            self.f_plus += rec.in_F
        else:
            self.s_minus += 1
            self.r_minus += rec.in_R
            self.f_minus += rec.in_F
        self.histogram[rec.m4_bits] = self.histogram.get(rec.m4_bits, 0) + 1

    def merge(self, other: "Tally"):
        self.s_plus += other.s_plus
        self.s_minus += other.s_minus
        self.r_plus += other.r_plus
        self.r_minus += other.r_minus
        self.f_plus += other.f_plus
        self.f_minus += other.f_minus
        for k, v in other.histogram.items():
            self.histogram[k] = self.histogram.get(k, 0) + v

    def validate(self):
        assert self.f_plus <= self.r_plus <= self.s_plus
        assert self.f_minus <= self.r_minus <= self.s_minus
        assert sum(self.histogram.values()) == self.s_plus + self.s_minus


@dataclass
class FieldTables:
    """Per-field context shared by all per-prime work."""

    spec: numfield.FieldSpec
    family: residue.RingFamily
    star: residue.StarTable
    pairing: residue.CirculantA


def build_tables(spec: numfield.FieldSpec) -> FieldTables:
    family = residue.build_family(spec)
    star = residue.star_table(family)
    pairing = residue.build_matrix_A(family)
    return FieldTables(spec, family, star, pairing)


def classify_prime(tables: FieldTables, p: int) -> PrimeRecord | None:
    """Classify one odd unramified prime; None when p does not split completely."""
    spec = tables.spec
    n = spec.n
    roots = numfield.split_completely(spec, p)
    if not roots:
        return None
    chain = numfield.conjugate_chain(spec, PrimeDeg1(p, roots[0]))
    alpha = numfield.generator_of_power(spec, chain[0], spec.h)
    spins = tuple(numfield.legendre_deg1(spec, alpha, chain[k]) for k in range(1, n))
    if 0 in spins:
        raise SpinRelationViolation(f"p={p}: residue symbol degenerated to 0")
    bits = residue.m4_class_of(tables.family, tuple(c % 4 for c in alpha))

    for k in range(1, n):
        product = spins[k - 1] * spins[n - k - 1]
        pairing = tables.pairing.pairing(bits, residue.rot(bits, k))
        if product != pairing:
            raise SpinRelationViolation(
                f"p={p}: spin({k})*spin({n - k}) = {product} but Hilbert pairing = {pairing}"
            )
    in_r_spin = all(spins[k - 1] * spins[n - k - 1] == 1 for k in range(1, n))
    in_r_star = tables.star.star[bits] == 1
    if in_r_spin != in_r_star:
        raise SpinRelationViolation(
            f"p={p}: R-membership disagrees (spin products {in_r_spin}, star {in_r_star})"
        )
    expected_sign = 1 if p % 4 == 1 else -1
    if tables.star.norm_sign[bits] != expected_sign:
        raise SpinRelationViolation(f"p={p}: norm sign of the mod-4 class is not p mod 4")

    for k in range(1, n):
        alpha_k = numfield.generator_of_power(spec, chain[k], spec.h)
        bits_k = residue.m4_class_of(tables.family, tuple(c % 4 for c in alpha_k))
        if bits_k != residue.rot(bits, k):
            raise SpinRelationViolation(
                f"p={p}: class of conjugate prime is not the rotated class"
            )

    return PrimeRecord(
        p=p,
        p_mod4=p % 4,
        root_a=chain[0].a,
        spins=spins,
        in_R=in_r_spin,
        in_F=all(s == 1 for s in spins),
        m4_bits=bits,
    )


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


# generator-search failures a sweep reports by condition name, with the prime
SEARCH_FAILURES = (
    numfield.GeneratorNotFound,
    numfield.AmbiguousSign,
    numfield.GeneratorSelfCheckFailed,
)


def _classify_range(tables: FieldTables, lo: int, hi: int):
    tally = Tally()
    records = []
    skipped = []
    for p in odd_primes_in(lo, hi):
        try:
            rec = classify_prime(tables, p)
        except numfield.RamifiedPrime:
            skipped.append(p)
            continue
        except SEARCH_FAILURES as exc:
            raise type(exc)(f"p={p}: {exc}") from exc
        if rec is None:
            continue
        tally.add_record(rec)
        records.append(rec)
    return tally, records, skipped


_WORKER_CTX = {}


def _worker_init(spec: numfield.FieldSpec):
    _WORKER_CTX["tables"] = build_tables(spec)


def _worker_chunk(bounds):
    lo, hi = bounds
    return _classify_range(_WORKER_CTX["tables"], lo, hi)


@dataclass
class SweepResult:
    config: SweepConfig
    tally: Tally
    records: list[PrimeRecord]
    skipped_ramified: list[int]
    report_rows: list  # (quantity, empirical, stderr, theoretical Fraction, delta, passed)

    @property
    def passed(self) -> bool:
        return all(row[5] for row in self.report_rows)


# acceptance tolerances, fixed for reproducibility (3-4 standard errors at X = 10^6)
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


def _windows(limit: int, jobs: int) -> list[tuple[int, int]]:
    """[3, limit] as [lo, hi) windows of equal width: one serial, WINDOWS_PER_WORKER per worker."""
    count = 1 if jobs == 1 else WINDOWS_PER_WORKER * jobs
    cuts = sorted({3 + i * (limit - 2) // count for i in range(count + 1)})  # no empty windows
    return list(zip(cuts, cuts[1:]))


def run_sweep(config: SweepConfig, jobs: int = 1) -> SweepResult:
    """Run the sweep; deterministic tallies and records for any jobs."""
    spec = config.spec
    if jobs < 1:
        jobs = min(8, os.cpu_count() or 1)
    bounds = _windows(config.limit, jobs)
    # the pool starts all its workers at the first submit, so start no idle ones
    jobs = min(jobs, len(bounds))
    tables = build_tables(spec)
    tally = Tally()
    records: list[PrimeRecord] = []
    skipped: list[int] = []
    if jobs == 1:
        parts = [_classify_range(tables, lo, hi) for lo, hi in bounds]
    else:
        with ProcessPoolExecutor(jobs, initializer=_worker_init, initargs=(spec,)) as pool:
            try:
                parts = list(pool.map(_worker_chunk, bounds))  # in window order
            except BrokenProcessPool as exc:
                raise WorkerCrashed(str(exc)) from exc
    for part_tally, part_records, part_skipped in parts:
        tally.merge(part_tally)
        records.extend(part_records)
        skipped.extend(part_skipped)
    records.sort(key=lambda r: r.p)
    tally.validate()
    rows = build_report_rows(spec, tally, tables.star.norm_sign)
    return SweepResult(config, tally, records, skipped, rows)


def _ratio_row(name, num, den, theoretical, tol):
    if den == 0:
        return (name, float("nan"), float("nan"), theoretical, float("nan"), False)
    emp = num / den
    stderr = 1 / math.sqrt(den)
    delta = abs(emp - float(theoretical))
    return (name, emp, stderr, theoretical, delta, delta < tol)


def build_report_rows(spec: numfield.FieldSpec, tally: Tally, norm_sign: dict):
    """Report rows; each histogram bin counts against the sign sector norm_sign gives its class."""
    tol = DEFAULT_TOLERANCES
    rep = density_report(spec.n)
    half = Fraction(1, 1 << ((spec.n - 1) // 2))
    s_all = tally.s_plus + tally.s_minus
    f_all = tally.f_plus + tally.f_minus
    rows = [
        _ratio_row("F/S", f_all, s_all, rep.dF, tol["F/S"]),
        _ratio_row("F+/S+", tally.f_plus, tally.s_plus, rep.dF_plus, tol["F+/S+"]),
        _ratio_row("F-/S-", tally.f_minus, tally.s_minus, rep.dF_minus, tol["F-/S-"]),
        _ratio_row("R+/S+", tally.r_plus, tally.s_plus, rep.dR_plus, tol["R+/S+"]),
        _ratio_row("R-/S-", tally.r_minus, tally.s_minus, rep.dR_minus, tol["R-/S-"]),
        _ratio_row("F+/R+", tally.f_plus, tally.r_plus, half, tol["F+/R+"]),
        _ratio_row("F-/R-", tally.f_minus, tally.r_minus, half, tol["F-/R-"]),
    ]
    # mod-4 equidistribution: each class bin against its own sign sector, which
    # classify_prime has checked to be p mod 4 for every prime in the bin
    sector = {1: tally.s_plus, -1: tally.s_minus}
    uniform = Fraction(1, 1 << (spec.n - 1))
    for bits in sorted(tally.histogram):
        label = "hist[" + "".join(map(str, bits)) + "]"
        count, den = tally.histogram[bits], sector[norm_sign[bits]]
        rows.append(_ratio_row(label, count, den, uniform, tol["hist"]))
    return rows


def format_report(result: SweepResult) -> str:
    """Aligned text table: quantity | empirical | theoretical | |delta| | pass/fail."""
    t = result.tally
    head = [
        f"field = {result.config.spec.name}   X = {result.config.limit}",
        f"split primes: {t.s_plus + t.s_minus}  (S+ = {t.s_plus}, S- = {t.s_minus};"
        f" ramified skipped: {len(result.skipped_ramified)})",
        "",
        f"{'quantity':<12} | {'empirical':<19} | {'theoretical':<12} | {'|delta|':<9} | pass/fail",
    ]
    lines = head
    for name, emp, stderr, theo, delta, ok in result.report_rows:
        theo_s = f"{theo.numerator}/{theo.denominator}"
        lines.append(
            f"{name:<12} | {emp:.5f} +- {stderr:.5f} | {theo_s:<12} | {delta:<9.5f} | "
            + ("PASS" if ok else "FAIL")
        )
    lines.append("")
    lines.append(f"overall: {'PASS' if result.passed else 'FAIL'}")
    return "\n".join(lines)


def emit_csv(records, n: int) -> str:
    """CSV text: one row per split prime, sorted by p."""
    cols = ["p", "p_mod4", "root_a"] + [f"spin_{k}" for k in range(1, n)] + [
        "in_R",
        "in_F",
        "m4_class_bits",
    ]
    lines = [",".join(cols)]
    for rec in sorted(records, key=lambda r: r.p):
        row = [str(rec.p), str(rec.p_mod4), str(rec.root_a)]
        row += [str(s) for s in rec.spins]
        row += [str(int(rec.in_R)), str(int(rec.in_F)), "".join(map(str, rec.m4_bits))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
