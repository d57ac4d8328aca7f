"""Spin densities of prime ideals in cyclic number fields.

Exact closed-form density tables, dyadic Hilbert-symbol kernel counts
cross-validated three independent ways, and empirical prime sweeps in
concrete cyclic cubic fields.
"""
