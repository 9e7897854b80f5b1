# row_blocks imports concurrent.futures on its first pooled loop; importing it
# here keeps that import out of every traced peak.
import concurrent.futures  # noqa: F401
import os
import tracemalloc

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


@pytest.fixture(autouse=True)
def only_regular_files_removed(monkeypatch):
    """No test removes an existing path that is not a regular file: run as
    root, a stray os.remove would delete a device such as /dev/null."""
    remove = os.remove

    def guarded(path, *args, **kwargs):
        if os.path.lexists(path) and not os.path.isfile(path):
            pytest.fail(f"os.remove({path!r}): not a regular file")
        return remove(path, *args, **kwargs)

    monkeypatch.setattr(os, "remove", guarded)


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args, **kwargs) -> (fn's result, the peak bytes that
    tracemalloc traced while fn ran)."""

    def run(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return run
