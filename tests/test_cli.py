import errno
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import spinsweep
from spinsweep import numfield, sweep
from spinsweep.cli import BUILTIN_FIELDS, _load_field, main
from test_numfield import QUINTIC11, shanks_cubic


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


@pytest.mark.parametrize("argv, line", [
    (["table", "--n", "4"], "validation error: degree must be odd and >= 3, got 4"),
    (["table", "--n", "x"], "validation error: bad degree list: 'x'"),
    (["density", "--n", ","], "validation error: empty degree list"),
])
def test_degree_list_error_names_no_config(capsys, argv, line):
    # a bad --n is an argument error, printed like --limit and --jobs, with no [config] code
    assert main(argv) == 2
    assert capsys.readouterr().err == line + "\n"


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


def test_sweep_non_utf8_field_is_named(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"name = \"x\"\n\xff\n")
    assert main(["sweep", "--field", str(cfg), "--limit", "1000"]) == 2
    assert capsys.readouterr().err == f"validation error [config]: field config unreadable: {cfg}: not UTF-8 text\n"


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


@pytest.fixture
def quintic_cfg(tmp_path):
    cfg = tmp_path / "quintic.cfg"
    cfg.write_text(QUINTIC11)
    return str(cfg)


def test_selfcheck_rejects_degree_above_three(quintic_cfg):
    # in a subprocess with a timeout: the suites at n = 5 would run for a quarter of an hour
    proc = subprocess.run([sys.executable, "-m", "spinsweep.cli", "selfcheck", "--field", quintic_cfg],
                          capture_output=True, text=True, timeout=60, env=_env_with_package())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("validation error: selfcheck runs its exhaustive suites at n <= 3")
    assert "real-quintic-11 has n = 5" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_kernel_runs_at_degree_five(quintic_cfg, capsys):
    assert main(["verify-kernel", "--field", quintic_cfg]) == 0
    out = capsys.readouterr().out
    assert "(n = 5)" in out and "verdict: AGREE" in out


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


@pytest.mark.parametrize("where", ["missing-dir/out.csv", ".", "afile/out.csv"])
def test_sweep_unwritable_csv_fails_before_the_sweep(tmp_path, monkeypatch, capsys, where):
    monkeypatch.setattr("spinsweep.cli.run_sweep", lambda *a, **k: pytest.fail("sweep ran"))
    (tmp_path / "afile").write_text("")  # a regular file where a folder is needed
    target = str(tmp_path / where)
    assert main(["sweep", "--field", "simplest-cubic-7", "--limit", "1000", "--csv", target]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: cannot write --csv target {target}")
    assert "Traceback" not in err


def test_sweep_csv_write_error_is_named(tmp_path, monkeypatch, capsys):
    # the target's folder exists, but opening the file beside it fails, before any prime is classified
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr("spinsweep.cli.open", refuse, raising=False)  # shadows the builtin there only
    monkeypatch.setattr("spinsweep.sweep.classify_prime", lambda *a, **k: pytest.fail("prime classified"))
    target = str(tmp_path / "out.csv")
    assert main(["sweep", "--field", "simplest-cubic-7", "--limit", "100", "--csv", target]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: cannot write --csv target {target}: Permission denied")
    assert "Traceback" not in err


def test_sweep_csv_full_disk_is_named(tmp_path, monkeypatch, capsys):
    # a write that fails during the sweep is a validation error too, and leaves no file
    class DiskFull:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def close(self):
            self.fh.close()

    monkeypatch.setattr("spinsweep.cli.open", lambda *a, **k: DiskFull(open(*a, **k)), raising=False)
    target = str(tmp_path / "out.csv")
    assert main(["sweep", "--field", "simplest-cubic-7", "--limit", "100", "--csv", target]) == 2
    err = capsys.readouterr().err
    assert err == f"validation error: cannot write --csv target {target}: No space left on device\n"
    assert os.listdir(tmp_path) == []


def _fail_at(monkeypatch, p, exc):
    """Windows of 2^10, and classify_prime raises exc at p; returns the folder listings seen there."""
    classify, seen = sweep.classify_prime, []

    def failing(tables, q):
        if q == p:
            seen.append(sorted(os.listdir()))
            raise exc
        return classify(tables, q)

    monkeypatch.setattr(sweep, "WINDOW_WIDTH", 2**10)
    monkeypatch.setattr(sweep, "classify_prime", failing)
    return seen


def _csv_to(limit, target):
    assert main(["sweep", "--field", "simplest-cubic-7", "--limit", str(limit), "--csv", target]) in (0, 3)


@pytest.mark.parametrize("exc, code, line", [
    (sweep.SpinRelationViolation, 3, "hard consistency violation: p=4001: injected\n"),
    (numfield.GeneratorNotFound, 4, "sweep failed [GeneratorNotFound]: p=4001: injected\n"),
], ids=["violation", "prime-failure"])
@pytest.mark.parametrize("before", [None, "p,from,an,earlier,run\n"], ids=["new", "existing"])
def test_stopped_sweep_leaves_the_csv_target_as_it_was(tmp_path, monkeypatch, capsys, exc, code, line, before):
    # the sweep to 6000 runs 6 windows and stops at 4001, the first prime of the fifth;
    # the four finished windows went to a file beside the target, which is left as it was
    monkeypatch.chdir(tmp_path)
    message = "p=4001: injected" if exc is sweep.SpinRelationViolation else "injected"
    seen = _fail_at(monkeypatch, 4001, exc(message))
    if before is not None:
        (tmp_path / "out.csv").write_text(before)
    assert main(["sweep", "--field", "simplest-cubic-7", "--limit", "6000", "--csv", "out.csv"]) == code
    captured = capsys.readouterr()
    assert captured.err == line and captured.out == ""
    partial = f".out.csv.{os.getpid()}.tmp"
    assert seen == [sorted([partial] + ["out.csv"] * (before is not None))]
    assert os.listdir(tmp_path) == ([] if before is None else ["out.csv"])
    if before is not None:
        assert (tmp_path / "out.csv").read_text() == before


def test_stopped_sweep_cuts_the_streamed_csv_short(monkeypatch, capsys):
    # --csv - writes each window as it finishes: a stop leaves the rows of the finished windows
    _csv_to(4000, "-")
    reference = capsys.readouterr().out
    _fail_at(monkeypatch, 4001, sweep.SpinRelationViolation("p=4001: injected"))
    assert main(["sweep", "--field", "simplest-cubic-7", "--limit", "6000", "--csv", "-"]) == 3
    captured = capsys.readouterr()
    assert captured.out == reference
    assert captured.err == "hard consistency violation: p=4001: injected\n"


def test_tolerance_failure_still_writes_the_csv(tmp_path, capsys):
    target = tmp_path / "out.csv"
    target.write_text("p,from,an,earlier,run\n")
    assert main(["sweep", "--field", "simplest-cubic-7", "--limit", "100", "--csv", str(target)]) == 3
    captured = capsys.readouterr()
    assert "overall: FAIL" in captured.out
    assert captured.err == f"wrote 7 rows to {target}\n"
    assert target.read_text().splitlines()[1:] == [
        "13,1,7,-1,1,0,0,011", "29,1,3,-1,1,0,0,110", "41,1,14,-1,1,0,0,011", "43,3,8,1,1,1,1,100",
        "71,3,4,-1,-1,1,0,010", "83,3,10,-1,-1,1,0,010", "97,1,25,1,-1,0,0,101",
    ]
    assert os.listdir(tmp_path) == ["out.csv"]


def test_csv_file_and_stream_match_over_many_windows(tmp_path, monkeypatch, capsys):
    # 30 windows of at most 2^10: the file and stdout carry the CSV of the collected records
    monkeypatch.setattr(sweep, "WINDOW_WIDTH", 2**10)
    spec, records = _load_field("simplest-cubic-7"), []
    sweep.run_sweep(spec, 30_000, sink=records.extend)
    _csv_to(30_000, "-")
    streamed = capsys.readouterr().out
    _csv_to(30_000, str(tmp_path / "out.csv"))
    assert (tmp_path / "out.csv").read_text() == streamed == sweep.emit_csv(records, 3)


def test_sweep_negative_jobs_fails_before_the_sweep(monkeypatch, capsys):
    monkeypatch.setattr("spinsweep.sweep.classify_prime", lambda *a, **k: pytest.fail("prime classified"))
    assert main(["sweep", "--field", "simplest-cubic-7", "--limit", "1000", "--jobs", "-3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: jobs must be >= 0 (0 = auto), got -3")
    assert "Traceback" not in err


def test_sweep_bad_limit(capsys):
    assert main(["sweep", "--field", builtin_path(), "--limit", "10"]) == 2


def test_sweep_skip_flags_removed(capsys):
    for flag in ("--no-spin-check", "--no-r4-check", "--chunk-size=1000"):
        assert main(["sweep", "--field", "simplest-cubic-7", "--limit", "100", flag]) == 1


def test_sweep_jobs_splits_the_range(monkeypatch, capsys, in_process_pool):
    # --jobs 2 asks for 2 workers over 8 equal windows covering [3, X]; with no
    # split prime every ratio row has N = 0 and fails, so the sweep exits 3
    windows = []

    def record(tables, lo, hi):
        windows.append((lo, hi))
        return []

    monkeypatch.setattr(sweep, "_classify_range", record)
    code = main(["sweep", "--field", "simplest-cubic-7", "--limit", "100000", "--jobs", "2"])
    assert code == 3
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
    monkeypatch.setattr(numfield, "_eval_box", lambda coeffs, box: (-1, 1))
    monkeypatch.setattr(numfield, "_MAX_BITS", 2 * numfield._START_BITS)


def _lattice_check_fails(monkeypatch):
    # search the lattice of another root of f mod p: its generator is not in P
    spec = _load_field("simplest-cubic-7")
    lattice = numfield._ideal_power_basis
    monkeypatch.setattr(numfield, "_ideal_power_basis",
                        lambda n, q, root: lattice(n, q, numfield.eval_mod(spec.sigma, root, q)))


def _self_check_norm_misreported(monkeypatch):
    # the box pass that follows a hit (|N| = 13 at p = 13) is the self-check on
    # the unit-adjusted element; it misreports that element's norm
    fused = numfield.Embeddings.signs_and_norm
    after_hit = [False]

    def misreport(self, a):
        signs, norm = fused(self, a)
        if after_hit[0]:
            return signs, norm + 1
        after_hit[0] = abs(norm) == 13
        return signs, norm

    monkeypatch.setattr(numfield.Embeddings, "signs_and_norm", misreport)


def _no_shift_separates(monkeypatch):
    # a gcd that never splits off a proper factor, so the root descent runs out of shifts;
    # load first, since C4 takes the same gcd at load
    spec = _load_field("simplest-cubic-7")
    monkeypatch.setattr("spinsweep.cli._load_field", lambda arg: spec)
    monkeypatch.setattr(numfield, "gcd_mod", lambda a, b, p: a)


@pytest.mark.parametrize("condition, inject", [
    ("GeneratorNotFound", _no_radius_stages),
    ("AmbiguousSign", _undecided_signs),
    ("GeneratorSelfCheckFailed", _lattice_check_fails),
    ("GeneratorSelfCheckFailed", _self_check_norm_misreported),
    ("RootNotSeparated", _no_shift_separates),
])
def test_sweep_search_failure_is_named(monkeypatch, capsys, condition, inject):
    inject(monkeypatch)
    code = main(["sweep", "--field", "simplest-cubic-7", "--limit", "100", "--jobs", "1"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith(f"sweep failed [{condition}]: p=13: ")  # first split prime
    assert "Traceback" not in err


def test_sweep_non_principal_prime_is_a_named_miss(tmp_path, capsys):
    # a real miss, not an injected one: Shanks m = 14 has class number 3, so
    # with h = 1 typed in, P over 17 has no generator and the search runs out
    cfg = tmp_path / "shanks-14.cfg"
    cfg.write_text(shanks_cubic(14))
    code = main(["sweep", "--field", str(cfg), "--limit", "200"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == "sweep failed [GeneratorNotFound]: p=17: no generator of norm 17 within the search radius\n"
    assert captured.out == ""


def test_sweep_rejects_a_modulus_that_is_not_a_multiple_of_the_conductor(monkeypatch, capsys):
    # mod 13 the least prime of each class does not split in a subgroup of index 3
    monkeypatch.setattr(numfield, "conductor_multiple", lambda spec: 13)
    code = main(["sweep", "--field", "simplest-cubic-7", "--limit", "20000"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("hard consistency violation: split classes mod 13 ")
    assert captured.out == "" and "Traceback" not in captured.err


def test_sweep_rejects_a_split_class_prime_that_does_not_split(monkeypatch, capsys):
    # 43 = 1 mod 7 must split; the table is built before the patch takes effect
    build, split = sweep.build_tables, numfield.split_completely

    def build_then_patch(spec):
        tables = build(spec)
        monkeypatch.setattr(numfield, "split_completely",
                            lambda spec, p: [] if p == 43 else split(spec, p))
        return tables

    monkeypatch.setattr(sweep, "build_tables", build_then_patch)
    code = main(["sweep", "--field", "simplest-cubic-7", "--limit", "1000"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("hard consistency violation: p=43: p mod 7 is a split class")
    assert "Traceback" not in err


def test_any_prime_failure_is_named(monkeypatch, capsys):
    # a new per-prime condition needs only to subclass PrimeFailure to exit 4, not a list entry
    class Injected(numfield.PrimeFailure):
        pass

    def search(spec, P):
        raise Injected("no generator (injected)")

    monkeypatch.setattr(numfield, "generator_of_power", search)
    code = main(["sweep", "--field", "simplest-cubic-7", "--limit", "200"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("sweep failed [Injected]: p=13: ")
    assert "Traceback" not in err


def test_shipped_configs_load_and_are_the_builtin_fields():
    configs = [ref for ref in resources.files("spinsweep.data").iterdir() if ref.name.endswith(".cfg")]
    assert {ref.name.removesuffix(".cfg") for ref in configs} == set(BUILTIN_FIELDS)
    for ref in configs:
        spec = numfield.load_spec(ref.read_text(encoding="utf-8"))
        assert spec.name == ref.name.removesuffix(".cfg") and spec.n == 3


@pytest.mark.parametrize("line", ["n = 3", "disc_f = 49"])
def test_config_with_a_derived_key_is_rejected(tmp_path, capsys, line):
    # the degree and the discriminant are read off f, so neither is a config key
    cfg = tmp_path / "c7.cfg"
    cfg.write_text(Path(builtin_path()).read_text(encoding="utf-8") + line + "\n")
    assert main(["verify-kernel", "--field", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error [config]: ")
    assert f"unknown key '{line.split()[0]}'" in err


def test_undecided_unit_sign_at_load_is_named(monkeypatch, capsys):
    # an undecidable sign in the box pass that certifies each listed unit
    def undecided(self, a):
        raise numfield.AmbiguousSign("sign undecided (injected)")

    monkeypatch.setattr(numfield.Embeddings, "signs_and_norm", undecided)
    code = main(["verify-kernel", "--field", "simplest-cubic-7"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("validation error [unit]: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("bad, reason", [
    ("unit = [2, 0, 0]", "has norm != +-1"),
    ("unit = [0, 0, 0]", "is zero"),
    ("unit = [0, 1, 0]", "do not realize all sign patterns"),  # theta twice
])
def test_bad_unit_config_is_named(tmp_path, capsys, bad, reason):
    text = Path(builtin_path()).read_text(encoding="utf-8")
    assert "unit = [1, 1, 0]" in text
    cfg = tmp_path / "bad-unit.cfg"
    cfg.write_text(text.replace("unit = [1, 1, 0]", bad))
    assert main(["verify-kernel", "--field", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error [unit]: ") and reason in err
    assert "Traceback" not in err


def test_isolation_failure_at_load_is_named(monkeypatch, capsys):
    # undecidable intervals before the field loads: the orbit images never separate
    monkeypatch.setattr(numfield, "_eval_box", lambda coeffs, box: (-1, 1))
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

def crash(tables, lo, hi):
    os._exit(1)

if __name__ == "__main__":
    sweep._classify_range = crash
    sweep.os.cpu_count = lambda: 2  # a pool of 2 on any machine
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


NUMPY_FREE_COMMAND = """
import sys
from spinsweep.cli import main

main(sys.argv[1:])
print("numpy loaded:", "numpy" in sys.modules)
"""


@pytest.mark.parametrize("argv", [
    ["sweep", "--field", "simplest-cubic-7", "--limit", "1000"],
    ["verify-kernel", "--field", "simplest-cubic-7"],
    ["selfcheck", "--field", "simplest-cubic-7"],
], ids=lambda argv: argv[0])
def test_no_command_imports_numpy(argv):
    # the package needs the standard library alone
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE_COMMAND, *argv], capture_output=True,
                          text=True, timeout=60, env=_env_with_package())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "numpy loaded: False"


LOADED_MODULES = """
import sys
import {module}

print(" ".join(sorted(sys.modules)))
"""


def _modules_after_import(module):
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES.format(module=module)], capture_output=True,
                          text=True, timeout=60, env=_env_with_package())
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_loads_no_process_pool():
    # only a sweep with --jobs > 1 starts a pool, so only it imports one
    loaded = _modules_after_import("spinsweep.cli")
    assert "multiprocessing" not in loaded and "concurrent.futures.process" not in loaded


def test_submodule_import_loads_only_its_dependencies():
    # the package root imports nothing, and f2poly is a leaf: it loads no other spinsweep module
    loaded = _modules_after_import("spinsweep.f2poly")
    assert {m for m in loaded if m.split(".")[0] == "spinsweep"} == {"spinsweep", "spinsweep.f2poly"}
