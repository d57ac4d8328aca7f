"""The benchmark's tracer must still find every function it times, and its pins must hold.

`perfbench/tracer.py` names its targets by module and attribute; a rename
in `spinsweep` would only show when a traced benchmark run fails.  A traced
small sweep must also pass the checks the benchmark makes on its counts.  The
`exact-kernels` workload checks values pinned in `perfbench/workloads.py`
(pure data); a change that breaks them fails here rather than only in the
benchmark.  These tests read both files from `perfbench/` and change
nothing there.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import spinsweep.cli  # noqa: F401  (the tracer patches every loaded spinsweep module)
from spinsweep import checks, residue, sweep

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")


@pytest.fixture(scope="module")
def exact_specs(spec7, spec9):
    # Q(zeta_11)^+ with nothing but f and sigma, the two values build_family reads
    n5 = WORKLOADS.N5_SPEC
    bare = SimpleNamespace(f=n5["f"], sigma=n5["sigma"])
    return {"simplest-cubic-7": spec7, "cyclic-cubic-9": spec9, n5["name"]: bare}


def test_exact_kernels_field_pins(exact_specs):
    assert set(WORKLOADS.CUBICS) < set(WORKLOADS.FIELD_EXPECT) == set(exact_specs)
    for name, (kernels, c) in WORKLOADS.FIELD_EXPECT.items():
        family = residue.build_family(exact_specs[name])
        star = residue.star_table(family)
        assert (star.ker_plus, star.ker_minus) == kernels, name
        assert residue.build_matrix_A(family).c == c, name


@pytest.mark.parametrize("name", WORKLOADS.CUBICS)
def test_exact_kernels_selfcheck_rows(exact_specs, name):
    rows = checks.run_all(exact_specs[name])
    assert len(rows) == WORKLOADS.SELFCHECK_ROWS
    assert all(row.ok for row in rows)


def test_tracer_targets_resolve_and_restore():
    tracer = _load("tracer")
    originals = {target: tracer._resolve(*target)[2] for target in tracer.TARGETS}
    tr = tracer.Tracer()
    tr.install()
    try:
        patches = list(tr._patches)
        for owner, attr, fn in patches:
            assert getattr(owner, attr).__wrapped__ is fn
    finally:
        tr.uninstall()
    patched = {id(fn) for _, _, fn in patches}
    for target, fn in originals.items():
        assert id(fn) in patched, f"{target} resolved but nothing was patched"
    for owner, attr, fn in patches:
        assert getattr(owner, attr) is fn
    for target, fn in originals.items():
        assert tracer._resolve(*target)[2] is fn


def test_traced_sweep_passes_the_benchmark_checks(tmp_path, capsys):
    # the two checks perfbench/child.py makes on every traced sweep pass: the
    # traced split primes are the CSV rows, and each row makes 2(n - 1)
    # identity checks; and every odd prime up to X is classified once
    tracer = _load("tracer")
    csv = tmp_path / "c7.csv"
    tr = tracer.Tracer()
    tr.install()
    try:
        spinsweep.cli.main(["sweep", "--field", "simplest-cubic-7", "--limit", "2000", "--jobs", "1",
                            "--csv", str(csv)])
    finally:
        tr.uninstall()
    capsys.readouterr()
    rows = csv.read_text(encoding="utf-8").count("\n") - 1
    metrics = tracer.layer_metrics(tr.spans)
    assert rows == metrics["sweep.split_primes"] == 97
    assert metrics["sweep.identity_checks"] == 2 * (3 - 1) * rows == 388
    assert metrics["sweep.primes_tested"] == len(sweep.odd_primes_in(3, 2001)) == 302
