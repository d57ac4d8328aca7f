import os
import subprocess
import sys
from importlib import resources

import pytest

import spinsweep
from spinsweep import numfield
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


def test_selfcheck(capsys):
    assert main(["selfcheck", "--field", builtin_path()]) == 0
    out = capsys.readouterr().out
    assert "selfcheck: PASS" in out
    assert "FAIL" not in out.replace("PASS/FAIL", "")


def test_sweep_csv_to_stdout_is_clean(capsys):
    code = main([
        "sweep", "--field", builtin_path(), "--limit", "4000",
        "--csv", "-", "--chunk-size", "1000",
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
        "--csv", str(target), "--chunk-size", "4000",
    ])
    captured = capsys.readouterr()
    body = target.read_text()
    assert body.startswith("p,p_mod4,root_a")
    assert "quantity" in captured.out  # report on stdout when csv goes to a file


def test_sweep_bad_limit(capsys):
    assert main(["sweep", "--field", builtin_path(), "--limit", "10"]) == 2


def test_sweep_skip_flags_removed(capsys):
    for flag in ("--no-spin-check", "--no-r4-check"):
        assert main(["sweep", "--field", "simplest-cubic-7", "--limit", "100", flag]) == 1


def _no_radius_stages(monkeypatch):
    monkeypatch.setattr(numfield, "_RADIUS_STAGES", ())


def _undecided_signs(monkeypatch):
    # load first, so only the sweep's sign queries see undecidable intervals
    spec = _load_field("simplest-cubic-7")
    monkeypatch.setattr("spinsweep.cli._load_field", lambda arg: spec)
    monkeypatch.setattr(numfield, "_eval_interval", lambda coeffs, lo, hi: (-1, 1))
    monkeypatch.setattr(numfield, "_MAX_BITS", 2 * numfield._START_BITS)


def _lattice_check_fails(monkeypatch):
    monkeypatch.setattr(numfield, "_in_row_span", lambda basis, vec: False)


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
    # the same undecidable intervals as _undecided_signs, but before the field loads
    monkeypatch.setattr(numfield, "_eval_interval", lambda coeffs, lo, hi: (-1, 1))
    monkeypatch.setattr(numfield, "_MAX_BITS", 2 * numfield._START_BITS)
    code = main(["verify-kernel", "--field", "simplest-cubic-7"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("validation error [unit]: ")
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
                   "--jobs", "2", "--chunk-size", "500"]))
"""


def test_sweep_worker_crash_is_named(tmp_path):
    # in a subprocess with a timeout, so a pool that waits forever fails the test
    script = tmp_path / "crashing_sweep.py"
    script.write_text(CRASHING_SWEEP)
    src = os.path.dirname(os.path.dirname(spinsweep.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 4
    assert proc.stderr.startswith("sweep failed [WorkerCrashed]: ")
    assert "Traceback" not in proc.stderr
