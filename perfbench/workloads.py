"""Workload table and pinned reference values for the spinsweep benchmark.

Pure data: importing this module does not import spinsweep, so the
orchestrator stays light and the measuring child process pays the whole
import cost itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Sweep:
    """Serial `spinsweep sweep` on one shipped field at an X drawn from [x_lo, x_lo + band)."""

    field: str
    x_lo: int
    band: int
    digest: str  # SHA-256 of the CSV header plus every row with p < x_lo
    shared_rows: int  # rows with p < x_lo
    why: str

    kind = "sweep"

    def x_for_seed(self, seed: int) -> int:
        return self.x_lo + random.Random(seed).randrange(self.band)


@dataclass(frozen=True)
class Exact:
    """Residue tables, property suites, field-free kernel scans and the density table."""

    why: str

    kind = "exact"

    def x_for_seed(self, seed: int) -> None:
        return None


# The sweep band starts where the CLI's statistical density rows pass
# (tolerances are sized for X = 10^6): every X in [100000, 100500) gives exit
# code 0 on the seed program.  A held-out seed moves X within the band, so it
# classifies primes near X that a change was not tuned on.
WORKLOADS = {
    "sweep-c7-serial": Sweep(
        field="simplest-cubic-7",
        x_lo=100_000,
        band=500,
        digest="e8ef362d1819791ff5195fa793cb53946b1cd3ea2c302501cebad932651e1033",
        shared_rows=3189,
        why="plain serial sweep with both identity checks; per-prime cost (generator search) shows undiluted",
    ),
    "exact-kernels": Exact(
        why="no prime sweep: residue tables, property suites and kernel scans; a generator-search change predicts no change",
    ),
}

# Q(zeta_11)^+ as a residue-only spec: build_family reads only n, f and sigma.
N5_SPEC = {"name": "zeta11-plus", "n": 5, "f": (1, 3, -3, -4, 1, 1), "sigma": (-2, 0, 1)}
CUBICS = ("simplest-cubic-7", "cyclic-cubic-9")

# (ker_plus, ker_minus) of the star table and the pairing c-sequence per field.
FIELD_EXPECT = {
    "simplest-cubic-7": ((1, 3), (1, 0, 0)),
    "cyclic-cubic-9": ((1, 3), (1, 0, 0)),
    "zeta11-plus": ((1, 5), (1, 0, 0, 0, 0)),
}

# Field-free counts of b(u) = 0 and b(u) = 1 over all 2^n bit vectors
# (kernel_counts_via_B on the identity pairing).  The ladder stops at 17
# because n = 19 alone takes ~6 s; it includes n = 15, where the closed
# form s_pair disagrees with the scan today.
SCAN_EXPECT = {
    3: (1, 3),
    5: (1, 5),
    7: (15, 7),
    9: (1, 27),
    11: (1, 33),
    13: (1, 65),
    15: (31, 225),
    17: (1, 289),
}

SELFCHECK_ROWS = 19  # rows checks.run_all returns for a cubic field

TABLE_DEGREES = tuple(range(3, 22, 2))
# Published cells (acceptance criterion 1): d(F+|S+), d(F-|S-), d(F|S).
TABLE_EXPECT = {
    3: ("1/8", "3/8", "1/4"),
    5: ("1/64", "5/64", "3/64"),
    7: ("15/512", "7/512", "11/512"),
    9: ("1/4096", "27/4096", "7/2048"),
    11: ("1/32768", "33/32768", "17/32768"),
    13: ("1/262144", "65/262144", "33/262144"),
}

# Checked values per exact-kernels pass: kernels and c per field, every
# selfcheck row, every scan degree, every pinned table cell.
EXACT_VALUES = (
    2 * len(FIELD_EXPECT)
    + SELFCHECK_ROWS * len(CUBICS)
    + len(SCAN_EXPECT)
    + 3 * len(TABLE_EXPECT)
)
