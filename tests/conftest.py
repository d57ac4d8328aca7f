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
