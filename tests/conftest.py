import pytest

from pkde import linalg


@pytest.fixture(scope="session")
def blas_get():
    """The getter of numpy's bundled OpenBLAS thread count, looked up once so
    that tests which clear or break the lookup do not blind the guard; None
    without the bundled OpenBLAS."""
    calls = linalg._blas_thread_calls()
    return None if calls is None else calls[0]


@pytest.fixture(autouse=True)
def blas_count_unchanged(blas_get):
    """Every test leaves the process-wide OpenBLAS thread count as it found
    it: a pin that leaks would slow every later BLAS call of the process."""
    if blas_get is None:
        yield
        return
    before = blas_get()
    yield
    assert blas_get() == before, "the test changed the OpenBLAS thread count"
