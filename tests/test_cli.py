import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import spinsweep
from spinsweep import numfield, sweep
from spinsweep.cli import _load_field, main


def builtin_path():
    return str(resources.files("spinsweep.data") / "simplest-cubic-7.cfg")


def test_table_output(capsys):
    assert main(["table", "--n", "3,13"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n | d(F+|S+) | d(F-|S-) | d(F|S)"
    assert out[1] == "3 | 1/8 | 3/8 | 1/4"
    assert out[2] == "13 | 1/262144 | 65/262144 | 33/262144"
    assert len(out) == 3  # no footnote without n = 15


def test_table_erratum_footnote(capsys):
    assert main(["table", "--n", "15"]) == 0
    out = capsys.readouterr().out
    assert "15 | 31/2097152 | 225/2097152 | 1/16384" in out
    assert "note:" in out and "47/262144" in out  # the published row is cited


def test_density_report_output(capsys):
    assert main(["density", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "s_plus  = 1" in out and "s_minus = 3" in out
    assert "d(F|S) = 1/4" in out and "d(R|S) = 1/2" in out


def test_table_rejects_even_degree(capsys):
    assert main(["table", "--n", "4"]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err


def test_usage_error_unknown_command(capsys):
    assert main(["frobnicate"]) == 1


def test_usage_error_missing_flag(capsys):
    assert main(["table"]) == 1


def test_unknown_flag_rejected(capsys):
    assert main(["table", "--n", "3", "--wat"]) == 1


def test_verify_kernel(capsys):
    assert main(["verify-kernel", "--field", builtin_path()]) == 0
    out = capsys.readouterr().out
    assert "verdict: AGREE" in out
    assert "(1, 3)" in out


def test_verify_kernel_builtin_name(capsys):
    assert main(["verify-kernel", "--field", "cyclic-cubic-9"]) == 0
    assert "AGREE" in capsys.readouterr().out


def test_verify_kernel_missing_field(capsys):
    assert main(["verify-kernel", "--field", "/does/not/exist.cfg"]) == 2


def test_verify_kernel_unreadable_field(tmp_path, capsys):
    # a directory is not a config: named, exit 2, no traceback
    assert main(["verify-kernel", "--field", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error [config]: field config unreadable: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("key, good, bad", [
    ("f", "[-1, -2, 1, 1]", "[-1, -2, true, true]"),
    ("sigma", "[-2, 0, 1]", "[-2, false, true]"),
    ("unit", "[0, 1, 0]", "[false, true, 0]"),
])
def test_config_rejects_json_booleans(tmp_path, capsys, key, good, bad):
    # true == 1 and false == 0, so each bad line once loaded as the shipped field
    text = Path(builtin_path()).read_text(encoding="utf-8")
    assert f"{key} = {good}" in text
    cfg = tmp_path / "bools.cfg"
    cfg.write_text(text.replace(f"{key} = {good}", f"{key} = {bad}"))
    assert main(["verify-kernel", "--field", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error [config]: line ")
    assert f"bad value for {key}" in err
    assert "Traceback" not in err


def test_selfcheck(capsys):
    assert main(["selfcheck", "--field", builtin_path()]) == 0
    out = capsys.readouterr().out
    assert "selfcheck: PASS" in out
    assert "FAIL" not in out.replace("PASS/FAIL", "")


def test_sweep_csv_to_stdout_is_clean(capsys):
    code = main([
        "sweep", "--field", builtin_path(), "--limit", "4000", "--csv", "-",
    ])
    captured = capsys.readouterr()
    # stdout carries only CSV; the report goes to stderr
    lines = captured.out.strip().split("\n")
    assert lines[0].startswith("p,p_mod4,root_a")
    assert all("," in line for line in lines)
    assert "quantity" in captured.err
    assert code in (0, 3)  # tolerances may legitimately fail at tiny X


def test_sweep_csv_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    main([
        "sweep", "--field", builtin_path(), "--limit", "4000",
        "--csv", str(target),
    ])
    captured = capsys.readouterr()
    body = target.read_text()
    assert body.startswith("p,p_mod4,root_a")
    assert "quantity" in captured.out  # report on stdout when csv goes to a file


@pytest.mark.parametrize("where", ["missing-dir/out.csv", "."])
def test_sweep_unwritable_csv_fails_before_the_sweep(tmp_path, monkeypatch, capsys, where):
    monkeypatch.setattr("spinsweep.cli.run_sweep", lambda *a, **k: pytest.fail("sweep ran"))
    target = str(tmp_path / where)
    assert main(["sweep", "--field", "simplest-cubic-7", "--limit", "1000", "--csv", target]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: cannot write --csv target {target}")
    assert "Traceback" not in err


def test_sweep_bad_limit(capsys):
    assert main(["sweep", "--field", builtin_path(), "--limit", "10"]) == 2


def test_sweep_skip_flags_removed(capsys):
    for flag in ("--no-spin-check", "--no-r4-check", "--chunk-size=1000"):
        assert main(["sweep", "--field", "simplest-cubic-7", "--limit", "100", flag]) == 1


def test_sweep_jobs_splits_the_range(monkeypatch, capsys, in_process_pool):
    # --jobs 2 asks for 2 workers over 8 equal windows covering [3, X]
    windows = []

    def record(bounds):
        windows.append(bounds)
        return sweep.Tally(), [], []

    monkeypatch.setattr(sweep, "_worker_chunk", record)
    main(["sweep", "--field", "simplest-cubic-7", "--limit", "100000", "--jobs", "2"])
    assert in_process_pool == [2]
    assert len(windows) == 8 and windows[0][0] == 3 and windows[-1][1] == 100_001
    assert all(a[1] == b[0] for a, b in zip(windows, windows[1:]))
    assert {hi - lo for lo, hi in windows} == {12_499, 12_500}


def _no_radius_stages(monkeypatch):
    monkeypatch.setattr(numfield, "_RADIUS_STAGES", ())


def _undecided_signs(monkeypatch):
    # load first, so only the sweep's sign queries see undecidable intervals
    spec = _load_field("simplest-cubic-7")
    monkeypatch.setattr("spinsweep.cli._load_field", lambda arg: spec)
    monkeypatch.setattr(numfield, "_eval_interval", lambda coeffs, lo, hi: (-1, 1))
    monkeypatch.setattr(numfield, "_MAX_BITS", 2 * numfield._START_BITS)


def _lattice_check_fails(monkeypatch):
    # search the lattice of another root of f mod p: its generator is not in P
    spec = _load_field("simplest-cubic-7")
    lattice = numfield._ideal_power_basis
    monkeypatch.setattr(numfield, "_ideal_power_basis",
                        lambda n, q, root: lattice(n, q, numfield.eval_mod(spec.sigma, root, q)))


@pytest.mark.parametrize("condition, inject", [
    ("GeneratorNotFound", _no_radius_stages),
    ("AmbiguousSign", _undecided_signs),
    ("GeneratorSelfCheckFailed", _lattice_check_fails),
])
def test_sweep_search_failure_is_named(monkeypatch, capsys, condition, inject):
    inject(monkeypatch)
    code = main(["sweep", "--field", "simplest-cubic-7", "--limit", "100", "--jobs", "1"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith(f"sweep failed [{condition}]: p=13: ")  # first split prime
    assert "Traceback" not in err


def test_undecided_unit_sign_at_load_is_named(monkeypatch, capsys):
    # an undecidable sign while the field builds its unit signature table
    def undecided(self, a):
        raise numfield.AmbiguousSign("sign undecided (injected)")

    monkeypatch.setattr(numfield.Embeddings, "signs_of", undecided)
    code = main(["verify-kernel", "--field", "simplest-cubic-7"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("validation error [unit]: ")
    assert "Traceback" not in err


def test_isolation_failure_at_load_is_named(monkeypatch, capsys):
    # undecidable intervals before the field loads: the orbit images never separate
    monkeypatch.setattr(numfield, "_eval_interval", lambda coeffs, lo, hi: (-1, 1))
    monkeypatch.setattr(numfield, "_MAX_BITS", 2 * numfield._START_BITS)
    code = main(["verify-kernel", "--field", "simplest-cubic-7"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("validation error [config]: real roots of f not isolated")
    assert "Traceback" not in err


CRASHING_SWEEP = """
import os, sys
from spinsweep import sweep
from spinsweep.cli import main

def crash(bounds):
    os._exit(1)

if __name__ == "__main__":
    sweep._worker_chunk = crash
    sys.exit(main(["sweep", "--field", "simplest-cubic-7", "--limit", "1000",
                   "--jobs", "2"]))
"""


def _env_with_package():
    src = os.path.dirname(os.path.dirname(spinsweep.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_sweep_worker_crash_is_named(tmp_path):
    # in a subprocess with a timeout, so a pool that waits forever fails the test
    script = tmp_path / "crashing_sweep.py"
    script.write_text(CRASHING_SWEEP)
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=60, env=_env_with_package())
    assert proc.returncode == 4
    assert proc.stderr.startswith("sweep failed [WorkerCrashed]: ")
    assert "Traceback" not in proc.stderr


NUMPY_FREE_SWEEP = """
import sys
from spinsweep.cli import main

main(["sweep", "--field", "simplest-cubic-7", "--limit", "1000"])
print("numpy loaded:", "numpy" in sys.modules)
"""


def test_sweep_does_not_import_numpy():
    # numpy serves only the mod-8 oracle of verify-kernel and selfcheck
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE_SWEEP], capture_output=True,
                          text=True, timeout=60, env=_env_with_package())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "numpy loaded: False"
