from collections import Counter

import numpy as np
import pytest

from sminlab import suites
from sminlab.errors import InvalidInputError
from sminlab.samplers import SeedSpec


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


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_negative_counts_are_rejected(name):
    with pytest.raises(InvalidInputError, match="non-negative"):
        suites.SUITES[name](-5)
    for instances in (0, -5):
        with pytest.raises(InvalidInputError, match="at least 1"):
            suites.run_suite(name, instances=instances)


def test_negative_triple_matrix_count_is_rejected():
    with pytest.raises(InvalidInputError, match="triple_matrices"):
        suites.run_low_value_suite(matrices=2, triple_matrices=-4)


def recorded_keys(monkeypatch, run) -> list[int]:
    """Trial indices of every stream a suite run opens, in order."""
    keys = []

    class Recording(SeedSpec):
        def __post_init__(self):
            super().__post_init__()
            keys.append(self.trial_index)

    monkeypatch.setattr(suites, "SeedSpec", Recording)
    run()
    return keys


@pytest.mark.parametrize(
    "run, count",
    [
        (lambda: suites.run_biorthogonality_suite(30, seed=5), 30),
        (lambda: suites.run_low_value_suite(matrices=3, seed=5, triple_matrices=4), 3),
    ],
    ids=["biorthogonality", "low-value"],
)
def test_derived_streams_never_meet_an_instance_stream(monkeypatch, run, count):
    # instance idx reads SeedSpec(seed, idx); every other stream is opened
    # once and lies outside the index range of a run of any count below 2**63
    keys = recorded_keys(monkeypatch, run)
    assert set(range(count)) <= set(keys)
    assert max(Counter(keys).values()) == 1
    derived = set(keys) - set(range(count))
    assert derived and all(2**63 <= k < 2**64 for k in derived)


def test_derived_keys_are_a_function_of_the_instance():
    assert suites._derived(9, 4, 2) == suites._derived(9, 4, 2)
    keys = {suites._derived(9, idx, attempt).trial_index for idx in range(50) for attempt in range(200)}
    assert len(keys) == 50 * 200
