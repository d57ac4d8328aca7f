"""Spans around spinsweep's public functions, recorded from outside the package.

`Tracer.install()` replaces each target function (and the three target
methods) with a timing wrapper in every spinsweep module that binds it, so
calls through `from .x import f` names are caught too; `uninstall()` puts
the originals back.  Spans stay in memory as [name, start, end, parent,
request, note] and are written out once, after the run.  The request id of
a span under `classify_prime` is the prime being classified.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from time import perf_counter

TARGETS = (
    ("cli", "main"),
    ("sweep", "run_sweep"),
    ("sweep", "classify_prime"),
    ("sweep", "odd_primes_in"),
    ("sweep", "emit_csv"),
    ("numfield", "split_completely"),
    ("numfield", "generator_of_power"),
    ("numfield", "Embeddings.signs_of"),
    ("numfield", "FieldSpec.norm"),
    ("numfield", "legendre_deg1"),
    ("residue", "build_family"),
    ("residue", "star_table"),
    ("residue", "build_matrix_A"),
    ("residue", "hilbert2"),
    ("residue", "m4_class_of"),
    ("residue", "CirculantA.pairing"),
    ("residue", "kernel_counts_via_B"),
    ("checks", "run_all"),
    ("checks", "m4_suite"),
    ("checks", "hilbert_suite"),
    ("checks", "kernel_suite"),
    ("density", "density_report"),
    ("density", "format_table"),
)

# What a span records about its call's result, for spans that need it.
NOTES = {
    "sweep.classify_prime": lambda rec: rec is not None,  # True for a split prime
    "checks.run_all": lambda rows: sum(not r.ok for r in rows),
}

# Per-layer metric -> (end-to-end metric it should move, workloads).  Names and
# units are in BENCHMARK.json; run.py checks that both list the same metrics.
LAYER_TABLE = {
    "numfield.gen_s": ("wall_ref", "sweep; none on exact-kernels"),
    "numfield.gen_self_s": ("wall_ref", "sweep; LLL + enumeration + HNF, without signs and norms"),
    "numfield.gen_calls": ("wall_ref", "sweep"),
    "numfield.gen_p50_ms": ("wall_ref", "sweep"),
    "numfield.gen_p99_ms": ("wall_ref", "sweep"),
    "numfield.signs_s": ("wall_ref", "sweep"),
    "numfield.signs_calls": ("wall_ref", "sweep"),
    "numfield.norm_calls_per_gen": ("wall_ref", "sweep; 2.0 = one candidate + self-check"),
    "numfield.split_s": ("wall_ref", "sweep"),
    "numfield.split_calls": ("wall_ref", "sweep"),
    "numfield.legendre_s": ("wall_ref", "sweep"),
    "residue.m4_s": ("wall_ref", "sweep; under 2 % today, no resolvable change predicted"),
    "residue.pairing_s": ("wall_ref", "sweep; under 2 % today, no resolvable change predicted"),
    "residue.hilbert2_calls": ("wall_ref, setup_s", "exact-kernels; sweep through setup"),
    "residue.hilbert2_s": ("wall_ref, setup_s", "exact-kernels; sweep through setup"),
    "residue.star_table_s": ("wall_ref, setup_s", "exact-kernels; sweep through setup"),
    "residue.matrix_a_s": ("wall_ref, setup_s", "exact-kernels; sweep through setup"),
    "residue.kernel_scan_s": ("wall_ref", "exact-kernels"),
    "checks.m4_suite_s": ("wall_ref", "exact-kernels"),
    "checks.hilbert_suite_s": ("wall_ref", "exact-kernels"),
    "checks.kernel_suite_s": ("wall_ref", "exact-kernels"),
    "checks.rows_failed": ("wall_ref", "exact-kernels; 0 today"),
    "density.report_s": ("wall_ref", "exact-kernels"),
    "density.closed_form_disagreements": ("wall_ref", "exact-kernels; 1 today (n = 15)"),
    "sweep.classify_s": ("wall_ref, peak_rss_mb", "sweep"),
    "sweep.classify_p50_ms": ("wall_ref", "sweep; split primes only"),
    "sweep.classify_p99_ms": ("wall_ref", "sweep; split primes only"),
    "sweep.sieve_s": ("wall_ref", "sweep"),
    "sweep.driver_self_s": ("wall_ref, peak_rss_mb", "sweep"),
    "sweep.primes_tested": ("wall_ref", "sweep"),
    "sweep.split_primes": ("wall_ref", "sweep"),
    "sweep.identity_checks": ("wall_ref", "sweep; 2(n-1) per split prime"),
    "trace.overhead_s": ("none", "traced pass wall minus untraced wall_s at the same machine speed"),
    "trace.spans": ("none", "spans recorded in one traced pass"),
}


def _resolve(modname, path):
    obj = importlib.import_module(f"spinsweep.{modname}")
    owner = None
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, path.rsplit(".", 1)[-1], obj


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (namespace, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)
        is_classify = name == "sweep.classify_prime"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if is_classify:
                request = args[1]
            else:
                request = spans[parent][4] if parent >= 0 else None
            idx = len(spans)
            span = [name, 0.0, 0.0, parent, request, None]
            spans.append(span)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
            if note is not None:
                span[5] = note(result)
            return result

        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "spinsweep" or k.startswith("spinsweep.")]
        for modname, path in TARGETS:
            owner, attr, fn = _resolve(modname, path)
            wrapper = self._wrap(f"{modname}.{path.split('.')[-1]}", fn)
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def write(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,request\n")
            for i, (name, start, end, parent, request, _) in enumerate(self.spans):
                req = "" if request is None else request
                fh.write(f"{i},{name},{start - t0:.7f},{end - t0:.7f},{parent},{req}\n")


def _percentile_ms(durations, q):
    """Nearest-rank percentile in milliseconds; 0.0 when there are no samples."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1000.0 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans):
    """Per-layer times and counts of one traced pass (times in seconds)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    children = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += dur[i]
            children[s[3]].append(i)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def ids(*names):
        return [i for name in names for i in by_name.get(name, [])]

    def outer_time(*names):
        """Time in the named spans, counting a span nested in another of them once."""
        wanted = set(names)
        total = 0.0
        for i in ids(*names):
            p = spans[i][3]
            while p >= 0 and spans[p][0] not in wanted:
                p = spans[p][3]
            if p < 0:
                total += dur[i]
        return total

    gen = ids("numfield.generator_of_power")
    classify = ids("sweep.classify_prime")
    split_classify = [i for i in classify if spans[i][5]]
    gen_set = set(gen)
    norms_in_gen = sum(1 for i in ids("numfield.norm") if spans[i][3] in gen_set)
    identity = 0
    for i in classify:
        kids = [spans[c][0] for c in children[i]]
        identity += kids.count("residue.pairing") + max(kids.count("numfield.generator_of_power") - 1, 0)
    return {
        "numfield.gen_s": outer_time("numfield.generator_of_power"),
        "numfield.gen_self_s": sum((dur[i] - child_time[i] for i in gen), 0.0),
        "numfield.gen_calls": len(gen),
        "numfield.gen_p50_ms": _percentile_ms([dur[i] for i in gen], 0.50),
        "numfield.gen_p99_ms": _percentile_ms([dur[i] for i in gen], 0.99),
        "numfield.signs_s": outer_time("numfield.signs_of"),
        "numfield.signs_calls": len(ids("numfield.signs_of")),
        "numfield.norm_calls_per_gen": norms_in_gen / len(gen) if gen else 0.0,
        "numfield.split_s": outer_time("numfield.split_completely"),
        "numfield.split_calls": len(ids("numfield.split_completely")),
        "numfield.legendre_s": outer_time("numfield.legendre_deg1"),
        "residue.m4_s": outer_time("residue.m4_class_of"),
        "residue.pairing_s": outer_time("residue.pairing"),
        "residue.hilbert2_calls": len(ids("residue.hilbert2")),
        "residue.hilbert2_s": outer_time("residue.hilbert2"),
        "residue.star_table_s": outer_time("residue.star_table"),
        "residue.matrix_a_s": outer_time("residue.build_matrix_A"),
        "residue.kernel_scan_s": outer_time("residue.kernel_counts_via_B"),
        "checks.m4_suite_s": outer_time("checks.m4_suite"),
        "checks.hilbert_suite_s": outer_time("checks.hilbert_suite"),
        "checks.kernel_suite_s": outer_time("checks.kernel_suite"),
        "checks.rows_failed": sum(spans[i][5] for i in ids("checks.run_all")),
        "density.report_s": outer_time("density.density_report", "density.format_table"),
        "sweep.classify_s": outer_time("sweep.classify_prime"),
        "sweep.classify_p50_ms": _percentile_ms([dur[i] for i in split_classify], 0.50),
        "sweep.classify_p99_ms": _percentile_ms([dur[i] for i in split_classify], 0.99),
        "sweep.sieve_s": outer_time("sweep.odd_primes_in"),
        "sweep.driver_self_s": sum(dur[i] - child_time[i] for i in ids("sweep.run_sweep"))
        + outer_time("sweep.emit_csv"),
        "sweep.primes_tested": len(classify),
        "sweep.split_primes": len(split_classify),
        "sweep.identity_checks": identity,
        "trace.spans": n,
    }
