"""Empirical verification sweep in the conductor-7 simplest cubic field.

Every split prime p <= X gets a totally positive generator of its prime
ideal; spins (quadratic residue symbols at conjugate primes) classify p
into S, R, F.  Empirical frequencies are compared against the exact
densities.  Two per-prime identities are enforced with zero tolerance
along the way -- a single violation would abort the run.

X = 50000 keeps this demo quick; the acceptance suite runs X = 10^6, for
which the fixed tolerances are calibrated.  At demo scale the tolerance of
a histogram bin (0.03) is only about two of its standard errors (the "+-"
column, about 0.015 here), so a stray FAIL line there is ordinary sampling
noise, not a broken identity (identity violations do not print FAIL --
they abort the run).
"""

from importlib import resources

from spinsweep.numfield import load_spec
from spinsweep.sweep import emit_csv, format_report, run_sweep

cfg = (resources.files("spinsweep.data") / "simplest-cubic-7.cfg").read_text()
spec = load_spec(cfg)

# the sweep hands each window's records to a sink and keeps none of them;
# this one keeps the CSV header and the first seven rows
first_rows = []


def keep_first_rows(records):
    if len(first_rows) < 8:
        first_rows.extend(emit_csv(records, spec.n, header=not first_rows).splitlines())
        del first_rows[8:]


result = run_sweep(spec, 50_000, jobs=0, sink=keep_first_rows)
print(format_report(result))

print()
print("First rows of the per-prime record stream:")
for line in first_rows:
    print("  " + line)
