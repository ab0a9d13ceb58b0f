import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import sminlab
from sminlab.errors import InvalidInputError
from sminlab.samplers import (
    KINDS,
    RowDistribution,
    SeedSpec,
    ShiftSpec,
    build_shift,
    counterexample_witness,
    sample_matrix,
)
from sminlab.suites import _derived

CONTINUOUS_KINDS = ("gaussian", "uniform_entry", "symmetric_exponential", "ball_uniform")


class TestSeedSpec:
    def test_bit_identical_streams(self):
        dist = RowDistribution("gaussian")
        a = sample_matrix(dist, 12, SeedSpec(42, 3))
        b = sample_matrix(dist, 12, SeedSpec(42, 3))
        assert np.array_equal(a, b)

    def test_distinct_trials_differ(self):
        dist = RowDistribution("gaussian")
        a = sample_matrix(dist, 12, SeedSpec(42, 0))
        b = sample_matrix(dist, 12, SeedSpec(42, 1))
        assert not np.array_equal(a, b)

    def test_trial_streams_uncorrelated(self):
        dist = RowDistribution("gaussian")
        a = sample_matrix(dist, 100, SeedSpec(9, 0)).ravel()
        b = sample_matrix(dist, 100, SeedSpec(9, 1)).ravel()
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) <= 0.05

    def test_negative_trial_index_rejected(self):
        with pytest.raises(InvalidInputError):
            SeedSpec(1, -1)

    @pytest.mark.parametrize("args", [(1, 2**64 + 5), (1, 2**64), (-1,), (2**64 + 5, 3)])
    def test_keys_beyond_64_bits_rejected(self, args):
        # masking them to 64 bits would make SeedSpec(1, 2**64 + 5) the stream of SeedSpec(1, 5)
        with pytest.raises(InvalidInputError, match=r"\[0, 2\*\*64\)"):
            SeedSpec(*args)

    @pytest.mark.parametrize("args", [(1.5,), (True,), ("3",), (1, 2.0), (1, False), (None,)])
    def test_non_integer_keys_rejected(self, args):
        # SeedSpec(1.5) and SeedSpec(True) would draw seed 1's stream
        with pytest.raises(InvalidInputError, match="expected an integer"):
            SeedSpec(*args)

    def test_numpy_integer_keys_stored_as_int(self):
        spec = SeedSpec(np.uint64(7), np.int64(3))
        assert spec == SeedSpec(7, 3)
        assert type(spec.master_seed) is int and type(spec.trial_index) is int

    def test_largest_keys_accepted(self):
        top = 2**64 - 1
        assert SeedSpec(top, top).rng().standard_normal() != SeedSpec(top, top - 1).rng().standard_normal()


def key_built_rng(spec: SeedSpec) -> np.random.Generator:
    """The stream of ``spec`` as numpy builds it from a key: the contract of
    ``SeedSpec.rng``.  The key is a uint64 array, since a list holding a
    word of 2**63 or more is not read as two 64-bit words."""
    key = np.array([spec.master_seed, spec.trial_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


STREAM_KEYS = [(0, 0), (2**64 - 1, 2**64 - 1), (7, _derived(7, 12345, 3).trial_index)]

DRAWS = {
    "standard_normal": lambda g: g.standard_normal((3, 5)),
    "integers": lambda g: g.integers(0, 2, size=17),
    "integer": lambda g: g.integers(2, 51),
    "random": lambda g: g.random(9),
    "uniform": lambda g: g.uniform(-1.5, 1.5, size=9),
    "laplace": lambda g: g.laplace(0.0, 0.5, size=9),
    "permutation": lambda g: g.permutation(11),
}


class TestStreamContract:
    @pytest.mark.parametrize("key", STREAM_KEYS, ids=["zero", "top", "derived"])
    def test_state_equals_a_key_built_philox(self, key):
        got = SeedSpec(*key).rng().bit_generator.state
        want = key_built_rng(SeedSpec(*key)).bit_generator.state
        assert got["state"]["key"].tolist() == list(key)
        assert got["state"]["counter"].tolist() == want["state"]["counter"].tolist()
        assert {k: v for k, v in got.items() if k not in ("state", "buffer")} == {
            k: v for k, v in want.items() if k not in ("state", "buffer")
        }

    @pytest.mark.parametrize("key", STREAM_KEYS, ids=["zero", "top", "derived"])
    def test_draws_equal_a_key_built_philox(self, key):
        got, want = SeedSpec(*key).rng(), key_built_rng(SeedSpec(*key))
        for name, draw in DRAWS.items():  # one after the other, on one stream
            assert np.array_equal(draw(got), draw(want)), name

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("key", STREAM_KEYS, ids=["zero", "top", "derived"])
    def test_sample_matrix_equals_a_key_built_philox(self, monkeypatch, kind, key):
        got = sample_matrix(RowDistribution(kind), 7, SeedSpec(*key))
        monkeypatch.setattr(SeedSpec, "rng", key_built_rng)
        want = sample_matrix(RowDistribution(kind), 7, SeedSpec(*key))
        assert np.array_equal(got, want)

    def test_two_live_generators_of_one_spec_are_independent(self):
        spec = SeedSpec(5, 9)
        first, second = spec.rng(), spec.rng()
        assert first.bit_generator is not second.bit_generator
        a = first.standard_normal(40)
        b = second.standard_normal(20)  # not moved by the draws of the first
        assert np.array_equal(b, a[:20])
        assert np.array_equal(first.standard_normal(10), key_built_rng(spec).standard_normal(50)[40:])
        assert np.array_equal(second.standard_normal(20), a[20:])

    def test_streams_drawn_on_two_threads_equal_the_serial_draws(self):
        specs = [SeedSpec(3, idx) for idx in range(200)] + [SeedSpec(2**64 - 1, idx) for idx in range(200)]
        serial = [key_built_rng(spec).standard_normal(64) for spec in specs]
        start = threading.Barrier(2, timeout=30)

        def draw(half):
            start.wait()
            return [spec.rng().standard_normal(64) for spec in specs[half::2]]

        with ThreadPoolExecutor(max_workers=2) as pool:
            even, odd = pool.map(draw, (0, 1))
        assert all(np.array_equal(x, y) for x, y in zip(even, serial[0::2]))
        assert all(np.array_equal(x, y) for x, y in zip(odd, serial[1::2]))

    def test_importing_the_samplers_loads_no_numpy_random(self):
        # a fresh process: numpy.random loads with the first stream, not at import
        script = "import sys, sminlab.samplers\nassert 'numpy.random' not in sys.modules\n"
        src = os.path.dirname(os.path.dirname(sminlab.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestRowDistribution:
    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            RowDistribution("cauchy")

    def test_density_bounds_filled(self):
        assert RowDistribution("gaussian").density_bound == pytest.approx(
            1 / math.sqrt(2 * math.pi)
        )
        assert RowDistribution("uniform_entry").density_bound == pytest.approx(
            1 / (2 * math.sqrt(3))
        )
        assert RowDistribution("symmetric_exponential").density_bound == pytest.approx(
            1 / math.sqrt(2)
        )
        assert RowDistribution("bernoulli").density_bound is None
        assert RowDistribution("ball_uniform").density_bound is None

    def test_density_bound_is_not_settable(self):
        with pytest.raises(TypeError):
            RowDistribution("gaussian", density_bound=0.4)
        assert RowDistribution("gaussian").to_dict() == {"kind": "gaussian"}

    def test_dict_round_trip(self):
        d = RowDistribution("gaussian")
        assert RowDistribution.from_dict(d.to_dict()) == d

    @pytest.mark.parametrize("extra", [{"c2_params": [1.0, 2000.0]}, {"density_bound": 0.4}])
    def test_unknown_keys_rejected(self, extra):
        with pytest.raises(InvalidInputError, match="unknown keys"):
            RowDistribution.from_dict({"kind": "gaussian", **extra})


class TestSampleMatrix:
    def test_bernoulli_support(self):
        B = sample_matrix(RowDistribution("bernoulli"), 3, SeedSpec(0))
        assert set(np.unique(B)).issubset({-1.0, 1.0})

    def test_uniform_entry_moments(self):
        draws = sample_matrix(RowDistribution("uniform_entry"), 100, SeedSpec(5)).ravel()
        assert abs(draws.mean()) <= 0.05
        assert 0.9 <= draws.var() <= 1.1
        assert np.max(np.abs(draws)) <= math.sqrt(3) + 1e-12

    def test_symmetric_exponential_moments(self):
        draws = sample_matrix(
            RowDistribution("symmetric_exponential"), 100, SeedSpec(6)
        ).ravel()
        assert abs(draws.mean()) <= 0.05
        assert 0.9 <= draws.var() <= 1.1

    def test_ball_rows_inside_ball(self):
        B = sample_matrix(RowDistribution("ball_uniform"), 50, SeedSpec(7))
        norms = np.linalg.norm(B, axis=1)
        assert np.all(norms <= math.sqrt(52) + 1e-12)

    @pytest.mark.parametrize("kind", CONTINUOUS_KINDS)
    def test_isotropy(self, kind):
        # empirical covariance over 10^4 independent rows of dimension 10
        dist = RowDistribution(kind)
        rows = np.vstack(
            [sample_matrix(dist, 10, SeedSpec(1234, t)) for t in range(1000)]
        )
        assert rows.shape == (10_000, 10)
        assert np.max(np.abs(rows.mean(axis=0))) <= 0.05
        cov = np.cov(rows, rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) <= 0.1
        assert np.all(np.diag(cov) >= 0.85) and np.all(np.diag(cov) <= 1.15)

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_matrix(RowDistribution("gaussian"), 0, SeedSpec(0))


class TestBuildShift:
    def test_counterexample_diagonal(self):
        M = build_shift(ShiftSpec.counterexample(10.0), 5)
        np.testing.assert_allclose(np.diag(M), [10, 10, 10, 0, 0])
        assert np.count_nonzero(M - np.diag(np.diag(M))) == 0

    def test_zero(self):
        np.testing.assert_allclose(build_shift(ShiftSpec.zero(), 4), np.zeros((4, 4)))

    def test_scaled_identity(self):
        np.testing.assert_allclose(
            build_shift(ShiftSpec.scaled_identity(2.5), 2), [[2.5, 0.0], [0.0, 2.5]]
        )

    def test_diagonal_values(self):
        M = build_shift(ShiftSpec.diagonal([1.0, -2.0, 3.0]), 3)
        np.testing.assert_allclose(np.diag(M), [1.0, -2.0, 3.0])

    def test_diagonal_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            build_shift(ShiftSpec.diagonal([1.0, 2.0]), 3)

    def test_explicit(self):
        M0 = np.arange(4.0).reshape(2, 2)
        np.testing.assert_allclose(build_shift(ShiftSpec.explicit(M0), 2), M0)

    @pytest.mark.parametrize(
        "spec",
        [
            ShiftSpec.scaled_identity(math.nan),
            ShiftSpec.scaled_identity(-math.inf),
            ShiftSpec.diagonal([1.0, math.nan, 2.0]),
            ShiftSpec.explicit([[1.0, 0.0], [math.inf, 1.0]]),
            ShiftSpec.counterexample(math.inf),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_non_finite_entries_rejected(self, spec):
        n = len(spec.values or spec.entries or "abc")
        with pytest.raises(InvalidInputError, match="non-finite entries"):
            build_shift(spec, n)

    def test_counterexample_needs_three(self):
        with pytest.raises(InvalidInputError):
            build_shift(ShiftSpec.counterexample(5.0), 2)

    def test_dict_round_trip(self):
        for spec in (
            ShiftSpec.zero(),
            ShiftSpec.scaled_identity(7.0),
            ShiftSpec.diagonal([1.0, 2.0]),
            ShiftSpec.counterexample(100.0),
            ShiftSpec.explicit([[1.0, 0.0], [0.0, 1.0]]),
        ):
            assert ShiftSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "kind, fields",
        [
            ("zero", {"tau": 3.0}),
            ("diagonal", {"values": (1.0,), "tau": 1.0}),
            ("scaled_identity", {}),
            ("explicit", {"values": (1.0,)}),
            ("affine", {}),
            (["zero"], {}),
        ],
    )
    def test_constructor_takes_exactly_the_fields_of_its_kind(self, kind, fields):
        with pytest.raises(InvalidInputError):
            ShiftSpec(kind, **fields)


class TestCounterexampleWitness:
    def test_all_ones(self):
        X = counterexample_witness(np.ones((4, 4)), 10.0)
        np.testing.assert_allclose(X, [-0.2, -0.2, 1.0, 1.0])

    def test_cancellation(self):
        B = np.ones((5, 5))
        B[:, 3] = -1.0  # column n-2 opposite to column n-1
        X = counterexample_witness(B, 5.0)
        np.testing.assert_allclose(X, [0, 0, 0, 1, 1])
        assert np.linalg.norm(X) == pytest.approx(math.sqrt(2))

    def test_norm_bounds(self):
        for t in range(20):
            B = sample_matrix(RowDistribution("bernoulli"), 50, SeedSpec(77, t))
            X = counterexample_witness(B, 50.0)
            norm = np.linalg.norm(X)
            assert math.sqrt(2) - 1e-12 <= norm < 2.0

    def test_regime_check(self):
        with pytest.raises(InvalidInputError):
            counterexample_witness(np.ones((4, 4)), 3.0)

    def test_requires_sign_entries(self):
        with pytest.raises(InvalidInputError):
            counterexample_witness(np.eye(4), 10.0)

    def test_near_kernel_action(self):
        # the witness maps to a vector whose norm shrinks like 1/tau
        B = sample_matrix(RowDistribution("bernoulli"), 20, SeedSpec(5, 1))
        norms = []
        for tau in (100.0, 10_000.0):
            M = build_shift(ShiftSpec.counterexample(tau), 20)
            X = counterexample_witness(B, tau)
            norms.append(np.linalg.norm((B + M) @ X))
        corner = (B[18, 18] + B[18, 19]) ** 2 + (B[19, 18] + B[19, 19]) ** 2
        if corner == 0:
            assert norms[1] <= norms[0] / 50.0


def test_all_kinds_sample():
    for kind in KINDS:
        B = sample_matrix(RowDistribution(kind), 4, SeedSpec(3))
        assert B.shape == (4, 4)
        assert np.isfinite(B).all()
