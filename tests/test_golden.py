"""Stdout of the CLI and the demos, byte for byte, against the files in tests/golden.

Each golden file is the output of the command beside it.  A refactor that
is meant to change no output must leave every one of them as it is; a
change that is meant to change an output rewrites its file in the same
commit.  Every command runs as a reader would start it, in a subprocess
with a timeout, so a command that would run for hours fails instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinsweep
from test_numfield import QUINTIC11, REAL_CYCLOTOMIC19

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = Path(__file__).resolve().parent.parent / "demos"
CONFIGS = {"real-quintic-11.cfg": QUINTIC11, "real-cyclotomic-19.cfg": REAL_CYCLOTOMIC19}

# golden file -> (argv after the interpreter, exit code); a path under demos/ runs
# that demo, anything else runs `python -m spinsweep.cli` with those arguments
CASES = {
    "selfcheck.txt": (["selfcheck"], 0),
    "verify-kernel-simplest-cubic-7.txt": (["verify-kernel", "--field", "simplest-cubic-7"], 0),
    "verify-kernel-cyclic-cubic-9.txt": (["verify-kernel", "--field", "cyclic-cubic-9"], 0),
    "verify-kernel-real-quintic-11.txt": (["verify-kernel", "--field", "real-quintic-11.cfg"], 0),
    "verify-kernel-real-cyclotomic-19.txt": (["verify-kernel", "--field", "real-cyclotomic-19.cfg"], 0),
    "table-3-to-21.txt": (["table", "--n", "3,5,7,9,11,13,15,17,19,21"], 0),
    "density-3-5-15.txt": (["density", "--n", "3,5,15"], 0),
    # at X = 3 10^4 some rows miss the tolerances sized for X = 10^6, so it exits 3
    "sweep-simplest-cubic-7-30000.txt": (["sweep", "--field", "simplest-cubic-7", "--limit", "30000"], 3),
    "demo-02.txt": ([str(DEMOS / "02_kernel_three_ways.py")], 0),
    "demo-03.txt": ([str(DEMOS / "03_hilbert_symbol.py")], 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    argv, code = CASES[name]
    for cfg, text in CONFIGS.items():
        (tmp_path / cfg).write_text(text)
    command = argv if argv[0].endswith(".py") else ["-m", "spinsweep.cli", *argv]
    src = os.path.dirname(os.path.dirname(spinsweep.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, *command], capture_output=True, text=True,
                          timeout=120, env=env, cwd=tmp_path)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_text(encoding="utf-8")


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)
