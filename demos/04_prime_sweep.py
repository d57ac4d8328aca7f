"""Empirical verification sweep in the conductor-7 simplest cubic field.

Every split prime p <= X gets a totally positive generator of its prime
ideal; spins (quadratic residue symbols at conjugate primes) classify p
into S, R, F.  Empirical frequencies are compared against the exact
densities.  Two per-prime identities are enforced with zero tolerance
along the way -- a single violation would abort the run.

X = 50000 keeps this demo quick; the acceptance suite runs X = 10^6, for
which the fixed tolerances are calibrated.  At demo scale an individual
histogram bin sits within about one standard error of its tolerance, so a
stray FAIL line there is ordinary sampling noise, not a broken identity
(identity violations do not print FAIL -- they abort the run).
"""

from importlib import resources

from spinsweep.numfield import load_spec
from spinsweep.sweep import SweepConfig, emit_csv, format_report, run_sweep

cfg = (resources.files("spinsweep.data") / "simplest-cubic-7.cfg").read_text()
spec = load_spec(cfg)

result = run_sweep(SweepConfig(spec=spec, limit=50_000), jobs=0)
print(format_report(result))

print()
print("First rows of the per-prime record stream:")
for line in emit_csv(result.records, spec.n).splitlines()[:8]:
    print("  " + line)
