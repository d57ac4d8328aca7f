from importlib import resources

import pytest

from spinsweep import checks, numfield, residue


def _builtin(name):
    ref = resources.files("spinsweep.data") / f"{name}.cfg"
    return numfield.load_spec(ref.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def spec7():
    return _builtin("simplest-cubic-7")


@pytest.fixture(scope="session")
def spec9():
    return _builtin("cyclic-cubic-9")


@pytest.fixture(scope="session")
def family7(spec7):
    return residue.build_family(spec7)


@pytest.fixture(scope="session")
def family9(spec9):
    return residue.build_family(spec9)


@pytest.fixture(scope="session")
def star7(family7):
    return residue.star_table(family7)


@pytest.fixture(scope="session")
def star9(family9):
    return residue.star_table(family9)


@pytest.fixture(scope="session")
def oracle_star7(family7):
    return checks.oracle_star_table(family7)


@pytest.fixture(scope="session")
def oracle_star9(family9):
    return checks.oracle_star_table(family9)


@pytest.fixture(scope="session")
def pairing7(family7):
    return residue.build_matrix_A(family7)


@pytest.fixture(scope="session")
def pairing9(family9):
    return residue.build_matrix_A(family9)


@pytest.fixture
def in_process_pool(monkeypatch):
    """Make the sweep's pool map in this process, starting none; returns each max_workers asked."""
    from spinsweep import sweep

    requested = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            requested.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(sweep, "_WORKER_CTX", {})
    return requested
