"""Every benchmark record at the repo root parses and names what it measured.

A `BENCH_<topic>.json` file is the evidence behind a speed claim: what was
measured, on which machine, between which commits, with which command,
every run, and the summary drawn from them.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("topic", "machine", "commits", "benchmark", "runs", "summary")


def test_bench_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_carries_its_context(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert [key for key in REQUIRED if key not in record] == []
