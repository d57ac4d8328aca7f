"""Spin densities of prime ideals in cyclic number fields.

Exact closed-form density tables, dyadic Hilbert-symbol kernel counts
cross-validated three independent ways, and empirical prime sweeps in
concrete cyclic cubic fields.
"""

from .density import DensityReport, density_report, format_table, s_pair
from .numfield import FieldSpec, PrimeDeg1, load_spec, load_spec_file
from .sweep import Tally, classify_prime, emit_csv, run_sweep

__all__ = [
    "DensityReport",
    "FieldSpec",
    "PrimeDeg1",
    "Tally",
    "classify_prime",
    "density_report",
    "emit_csv",
    "format_table",
    "load_spec",
    "load_spec_file",
    "run_sweep",
    "s_pair",
]
