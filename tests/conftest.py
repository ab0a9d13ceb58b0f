import pytest

from sminlab import linalg


@pytest.fixture
def blas_at_two_threads():
    """Both bundled OpenBLAS copies set to two threads for the test, then
    put back as they were."""
    controls = linalg._openblas_thread_controls()
    if len(controls) < 2:
        pytest.skip("numpy's and scipy's bundled OpenBLAS not both found")
    before = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    yield controls
    for (_, set_), count in zip(controls, before):
        set_(count)
