import pytest

from sminlab import linalg


@pytest.fixture
def blas_at_two_threads():
    """numpy's OpenBLAS, the process's only BLAS, set to two threads for the
    test, then put back as it was; yields its thread-count getter."""
    blas = linalg._BLAS
    before = blas.get_num_threads()
    blas.set_num_threads(2)
    assert blas.get_num_threads() == 2
    yield blas.get_num_threads
    blas.set_num_threads(before)
