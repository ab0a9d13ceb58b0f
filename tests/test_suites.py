import numpy as np
import pytest

from sminlab import suites
from sminlab.errors import InvalidInputError


def test_invert_by_elimination_matches_numpy():
    for seed in range(10):
        B = np.random.default_rng(seed).standard_normal((8, 8))
        np.testing.assert_allclose(
            suites.invert_by_elimination(B), np.linalg.inv(B), rtol=1e-9, atol=1e-10
        )


def loop_elimination(B):
    """Gauss-Jordan with the row updates written as a loop, the original
    form of ``invert_by_elimination``."""
    A = np.asarray(B, dtype=float)
    n = A.shape[0]
    aug = np.hstack([A.copy(), np.eye(n)])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot, col]) < 1e-300:
            raise InvalidInputError("matrix is numerically singular")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0.0:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def test_invert_by_elimination_equals_row_loop():
    rng = np.random.default_rng(574)
    for n in range(2, 51, 3):
        for B in (rng.standard_normal((n, n)), rng.choice([-1.0, 1.0], size=(n, n))):
            try:
                expected = loop_elimination(B)
            except InvalidInputError:
                with pytest.raises(InvalidInputError):
                    suites.invert_by_elimination(B)
                continue
            np.testing.assert_array_equal(suites.invert_by_elimination(B), expected)


def test_invert_by_elimination_rejects_singular():
    with pytest.raises(InvalidInputError):
        suites.invert_by_elimination(np.ones((3, 3)))


@pytest.mark.parametrize(
    "name,instances",
    [
        ("pivot", 200),
        ("q-sets", 40),
        ("edge-interval", 15),
        ("low-value", 6),
        ("dichotomy", 25),
        ("alpharho", 40),
        ("biorthogonality", 40),
    ],
)
def test_suites_pass_smoke(name, instances):
    result = suites.run_suite(name, instances=instances, seed=2026)
    assert result.passed, result.messages


def test_unknown_suite():
    with pytest.raises(InvalidInputError):
        suites.run_suite("nonsense")


def test_summary_format():
    result = suites.run_suite("alpharho", instances=3, seed=0)
    assert "alpharho" in result.summary()
    assert "3 instances" in result.summary()
