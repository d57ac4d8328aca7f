import pickle
from importlib import resources
from types import SimpleNamespace

import pytest

from spinsweep import checks, intpoly, numfield, residue


def mul_mod(a, b, f, m: int) -> tuple[int, ...]:
    """Reference product in Z[x]/(f, m), m >= 1: `intpoly.mul_mod` modulo monic f, then each coefficient mod m."""
    return tuple([c % m for c in intpoly.mul_mod(a, b, f)])


def pow_mod(a, e: int, f, m: int) -> tuple[int, ...]:
    """a^e in Z[x]/(f, m), coefficients in [0, m): `PackedRing.pow` on a reduced mod f (`poly_rem_monic`).

    ValueError for e < 0 or m < 1, from the ring.
    """
    ring = intpoly.PackedRing(f, m)
    return ring.coeffs(ring.pow(ring.pack(intpoly.poly_rem_monic(a, f)), e))


def _builtin(name):
    ref = resources.files("spinsweep.data") / f"{name}.cfg"
    return numfield.load_spec(ref.read_text(encoding="utf-8"))


def real_cyclotomic(p):
    """Q(zeta_p)^+ as the residue layer reads it, theta = zeta + 1/zeta and sigma = theta^2 - 2.

    f = 1 + sum_{k=1}^{n} P_k with P_k(theta) = zeta^k + zeta^-k, from
    P_0 = 2, P_1 = theta and P_(k+1) = theta P_k - P_(k-1).
    """
    n = (p - 1) // 2
    f = [1] + [0] * n
    prev, cur = [2], [0, 1]
    for _ in range(n):
        f = [c + (cur[i] if i < len(cur) else 0) for i, c in enumerate(f)]
        prev, cur = cur, [c - (prev[i] if i < len(prev) else 0) for i, c in enumerate([0] + cur)]
    return SimpleNamespace(n=n, f=tuple(f), sigma=(-2, 0, 1))


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
    """Make the sweep's pool run in this process, starting none; returns each max_workers asked.

    `submit` runs the call at once and returns a finished future, so a
    submitted window's result is held from its submit until the sweep takes
    it.  Each call gets a pickle round trip of its arguments, as a real
    pool's worker does.  The machine is taken to have 4 CPUs, so worker
    counts do not depend on the one the tests run on; a test may patch
    `sweep.os.cpu_count` again.
    """
    import concurrent.futures.process

    from spinsweep import sweep

    requested = []

    class InProcessPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*pickle.loads(pickle.dumps(args))))
            except Exception as exc:
                future.set_exception(exc)
            return future

    # run_sweep imports the pool class when it needs one, so patch it at its source
    monkeypatch.setattr(concurrent.futures.process, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 4)
    return requested
