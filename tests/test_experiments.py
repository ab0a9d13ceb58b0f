import csv
import functools
import json
import math
import pickle
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sminlab.experiments as ex
from sminlab import linalg
from sminlab.errors import InvalidInputError
from sminlab.linalg import singular_data
from sminlab.samplers import KINDS, RowDistribution, SeedSpec, ShiftSpec, sample_matrix


def make_config(**overrides):
    base = dict(
        dist=RowDistribution("gaussian"),
        shift=ShiftSpec.zero(),
        n=10,
        trials=50,
        t_grid=(0.05, 0.1, 0.2, 0.4),
        master_seed=101,
        statistic=ex.Statistic.smin_scaled(),
    )
    base.update(overrides)
    return ex.ExperimentConfig(**base)


class TestWilsonInterval:
    def test_zero_hits_closed_form(self):
        low, high = ex.wilson_interval(0, 10)
        assert low == 0.0
        # with p_hat = 0 the upper bound collapses to z^2 / (n + z^2)
        assert high == pytest.approx(1.96**2 / (10 + 1.96**2), rel=1e-12)
        assert high == pytest.approx(0.2775401687666166, rel=1e-10)

    def test_all_hits(self):
        low, high = ex.wilson_interval(10, 10)
        assert high == 1.0
        assert low == pytest.approx(1.0 - 1.96**2 / (10 + 1.96**2), rel=1e-12)

    def test_brackets_point_estimate(self):
        for hits, trials in ((1, 7), (3, 9), (50, 100), (999, 1000)):
            low, high = ex.wilson_interval(hits, trials)
            assert 0.0 <= low <= hits / trials <= high <= 1.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ex.wilson_interval(5, 0)
        with pytest.raises(InvalidInputError):
            ex.wilson_interval(5, 4)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_bracketing_property(self, data):
        trials = data.draw(st.integers(min_value=1, max_value=10_000))
        hits = data.draw(st.integers(min_value=0, max_value=trials))
        low, high = ex.wilson_interval(hits, trials)
        assert 0.0 <= low <= hits / trials <= high <= 1.0
        if 0 < hits < trials:
            assert low < hits / trials < high


class TestStatistic:
    def test_labels(self):
        assert ex.Statistic.smin_scaled().label() == "smin_scaled"
        assert ex.Statistic.distance_profile(4, 0.7).label() == "distance_profile(k=4,a=0.7)"

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ex.Statistic("nope")
        with pytest.raises(InvalidInputError):
            ex.Statistic("distance_profile")
        with pytest.raises(InvalidInputError):
            ex.Statistic("smin_scaled", k=3)

    def test_dict_round_trip(self):
        for s in (
            ex.Statistic.smin_scaled(),
            ex.Statistic.hs_scaled_sqrt(),
            ex.Statistic.hs_scaled_n(),
            ex.Statistic.distance_profile(2, 0.5),
        ):
            assert ex.Statistic.from_dict(s.to_dict()) == s

    def test_nan_distance_threshold_rejected(self):
        with pytest.raises(InvalidInputError):
            ex.Statistic.distance_profile(2, float("nan"))

    @pytest.mark.parametrize("a", ["1", True, b"1"])
    def test_non_numeric_distance_threshold_rejected(self, a):
        # a="1" raised a bare TypeError and a=True was kept as True
        with pytest.raises(InvalidInputError, match="a: expected a number"):
            ex.Statistic("distance_profile", k=2, a=a)

    def test_threshold_read_as_a_float(self):
        stat = ex.Statistic.distance_profile(2, np.float32(0.5))
        assert type(stat.a) is float and stat == ex.Statistic.distance_profile(2, 0.5)
        assert type(ex.Statistic.distance_profile(2, 1).a) is float


def config_dict(**overrides):
    d = make_config(statistic=ex.Statistic.distance_profile(3, 0.4)).to_dict()
    d.update(overrides)
    return d


class TestExperimentConfig:
    def test_grid_must_increase(self):
        with pytest.raises(InvalidInputError):
            make_config(t_grid=(0.2, 0.1))
        with pytest.raises(InvalidInputError):
            make_config(t_grid=(0.1, 0.1))

    def test_grid_allows_zero_threshold(self):
        cfg = make_config(t_grid=(0.0, 0.1))
        assert cfg.t_grid == (0.0, 0.1)

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidInputError):
            make_config(t_grid=(-0.1, 0.2))

    def test_json_round_trip(self):
        cfg = make_config(
            shift=ShiftSpec.scaled_identity(10.0),
            statistic=ex.Statistic.distance_profile(3, 0.4),
        )
        assert ex.ExperimentConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize("grid", [(float("nan"), 1.0), (0.5, float("nan"))])
    def test_nan_threshold_rejected(self, grid):
        with pytest.raises(InvalidInputError, match="NaN"):
            make_config(t_grid=grid)

    @pytest.mark.parametrize("seed", [-1, 2**64 + 5])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(InvalidInputError, match="master_seed"):
            make_config(master_seed=seed)
        with pytest.raises(InvalidInputError, match="master_seed"):
            ex.ExperimentConfig.from_dict(config_dict(master_seed=seed))

    @pytest.mark.parametrize(
        "overrides", [{"master_seed": 1.5}, {"master_seed": True}, {"n": 3.0}, {"trials": 50.0},
                      {"trials": True}, {"n": "10"}],
    )
    def test_non_integer_seed_or_size_rejected(self, overrides):
        # master_seed=1.5 drew seed 1's stream and wrote a document from_dict
        # refuses; n=3.0 failed later with a bare TypeError
        with pytest.raises(InvalidInputError, match="expected an integer"):
            make_config(**overrides)

    def test_non_integer_cardinality_rejected(self):
        with pytest.raises(InvalidInputError, match="expected an integer"):
            ex.Statistic.distance_profile(2.0, 0.5)

    def test_numpy_integers_round_trip(self):
        cfg = make_config(n=np.int64(10), trials=np.int32(50), master_seed=np.uint64(101),
                          statistic=ex.Statistic.distance_profile(np.int64(2)))
        assert cfg == make_config(statistic=ex.Statistic.distance_profile(2))
        assert ex.ExperimentConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize("grid", [("0.5",), (True,), (0.1, b"1"), "0.5", 0.5])
    def test_non_numeric_grid_rejected(self, grid):
        # ("0.5",) became (0.5,) and (True,) became (1.0,)
        with pytest.raises(InvalidInputError, match="t_grid"):
            make_config(t_grid=grid)

    @pytest.mark.parametrize("name, value", [("dist", "gaussian"), ("shift", "zero"),
                                             ("statistic", "smin_scaled"), ("dist", {"kind": "gaussian"})])
    def test_spec_fields_must_be_specs(self, name, value):
        # dist="gaussian" failed later with a bare AttributeError
        with pytest.raises(InvalidInputError, match=f"{name} must be a"):
            make_config(**{name: value})

    def test_threshold_alone_is_the_one_point_grid(self):
        cfg = make_config(t_grid=(), statistic=ex.Statistic.distance_profile(3, 0.4))
        assert cfg.t_grid == (0.4,)
        assert cfg.to_dict()["t_grid"] == [0.4]
        assert ex.ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        assert ex.ExperimentConfig.from_dict(config_dict(t_grid=[])) == cfg
        # a grid, when given, is the sweep; a is the label's
        assert make_config(statistic=ex.Statistic.distance_profile(3, 0.4)).t_grid == (0.05, 0.1, 0.2, 0.4)

    def test_document_errors_name_the_document(self):
        with pytest.raises(InvalidInputError, match="^experiment config: n: expected an integer"):
            ex.ExperimentConfig.from_dict(config_dict(n="10"))
        with pytest.raises(InvalidInputError, match="^experiment config: shift: tau: expected a number"):
            ex.ExperimentConfig.from_dict(config_dict(shift={"kind": "scaled_identity", "tau": "big"}))
        with pytest.raises(InvalidInputError, match="^experiment config: trials must be a positive"):
            ex.ExperimentConfig.from_json(json.dumps(config_dict(trials=0)))

    def test_missing_key_rejected(self):
        d = config_dict()
        del d["trials"]
        with pytest.raises(InvalidInputError, match="missing key 'trials'"):
            ex.ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": "10"},
            {"n": 10.5},
            {"master_seed": None},
            {"t_grid": "0.1"},
            {"t_grid": 0.1},
            {"t_grid": ["0.1"]},
            {"dist": "gaussian"},
            {"dist": {"kind": "gaussian", "c2_params": [1.0]}},
            {"shift": {"kind": "scaled_identity", "tau": "big"}},
            {"shift": {"kind": "explicit", "entries": [[1.0, 2.0], [3.0]]}},
            {"shift": {"kind": "diagonal"}},
            {"statistic": {}},
            {"statistic": {"kind": "distance_profile", "k": 2.5}},
            {"statistic": ["smin_scaled"]},
        ],
    )
    def test_wrong_type_rejected(self, overrides):
        with pytest.raises(InvalidInputError):
            ex.ExperimentConfig.from_dict(config_dict(**overrides))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"trails": 50},
            {"shift": {"kind": "zero", "tau": 3}},
            {"shift": {"kind": "scaled_identity", "tau": 3.0, "values": [1.0]}},
            {"statistic": {"kind": "smin_scaled", "K": 2}},
            {"statistic": {"kind": "distance_profile", "k": 2, "a": 0.5, "b": 1.0}},
        ],
    )
    def test_unknown_keys_rejected(self, overrides):
        with pytest.raises(InvalidInputError, match="unknown keys"):
            ex.ExperimentConfig.from_dict(config_dict(**overrides))

    @pytest.mark.parametrize("text", ["{not json", "[]", "null", '{"n": 5}'])
    def test_malformed_json_rejected(self, text):
        with pytest.raises(InvalidInputError):
            ex.ExperimentConfig.from_json(text)


class TestEstimateTail:
    def test_continuous_never_hits_zero_threshold(self):
        est = ex.estimate_tail(make_config(t_grid=(0.0, 0.2)))
        assert est.points[0].hits == 0
        assert est.points[0].p_hat == 0.0

    def test_sign_matrices_do_hit_zero_threshold(self):
        # small sign matrices are singular with sizeable probability
        cfg = make_config(dist=RowDistribution("bernoulli"), n=3, trials=200, t_grid=(0.0,))
        est = ex.estimate_tail(cfg)
        assert est.points[0].hits > 0

    def test_hit_counts_monotone_along_grid(self):
        est = ex.estimate_tail(make_config(trials=100))
        hits = [p.hits for p in est.points]
        assert all(hits[i] <= hits[i + 1] for i in range(len(hits) - 1))

    def test_worker_count_does_not_change_counts(self):
        cfg = make_config(trials=64)
        a = ex.estimate_tail(cfg, workers=1)
        b = ex.estimate_tail(cfg, workers=3)
        assert [p.hits for p in a.points] == [p.hits for p in b.points]

    def test_thread_cap_env(self, monkeypatch):
        monkeypatch.setenv("SMINLAB_THREADS", "1")
        assert ex.resolve_workers(8) == 1
        monkeypatch.delenv("SMINLAB_THREADS")
        assert ex.resolve_workers(3) == 3

    @pytest.mark.parametrize("cap", ["abc", "2.5", "", "0", "-1"])
    def test_thread_cap_must_be_a_positive_integer(self, monkeypatch, cap):
        monkeypatch.setenv("SMINLAB_THREADS", cap)
        with pytest.raises(InvalidInputError, match="SMINLAB_THREADS"):
            ex.resolve_workers(2)
        with pytest.raises(InvalidInputError, match="SMINLAB_THREADS"):
            ex.estimate_tail(make_config(trials=8))

    @pytest.mark.parametrize("workers", [0, -2])
    def test_explicit_worker_count_must_be_positive(self, workers):
        with pytest.raises(InvalidInputError, match="workers"):
            ex.resolve_workers(workers)

    @pytest.mark.parametrize("workers", [2.5, 2.0, "2", True])
    def test_explicit_worker_count_must_be_an_integer(self, workers):
        with pytest.raises(InvalidInputError, match="workers: expected an integer"):
            ex.resolve_workers(workers)
        with pytest.raises(InvalidInputError, match="workers"):
            ex.estimate_tail(make_config(trials=8), workers=workers)

    def test_empty_grid_short_circuits(self):
        est = ex.estimate_tail(make_config(t_grid=()))
        assert est.points == []

    def test_hs_statistics_consistent_with_singular_data(self):
        # one realization, all three scaled statistics against singular_data,
        # on grids placed around the value each of them should have
        B = sample_matrix(RowDistribution("gaussian"), 10, SeedSpec(101, 0))
        sd = singular_data(B)
        for kind, value in (
            ("smin_scaled", sd.s_min * math.sqrt(10)),
            ("hs_scaled_sqrt", sd.hs_inverse / math.sqrt(10)),
            ("hs_scaled_n", sd.hs_inverse / 10),
        ):
            grid = tuple(value * f for f in (0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0))
            cfg = make_config(trials=1, t_grid=grid, statistic=ex.Statistic(kind))
            assert ex._stack_hits(cfg, np.zeros((10, 10)), range(1)) == [2]
            hits = [p.hits for p in ex.estimate_tail(cfg, workers=1).points]
            assert hits == ([0, 0, 1, 1] if kind == "smin_scaled" else [1, 1, 0, 0])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("c", [1e200, 1e-200])
    @pytest.mark.parametrize("kind", ["hs_scaled_sqrt", "hs_scaled_n"])
    def test_hs_statistics_at_extreme_scales(self, monkeypatch, kind, c):
        # a grid around the values of three trials, then the same trials
        # times c against that grid divided by c
        unit = math.sqrt(10) if kind == "hs_scaled_sqrt" else 10
        gaussian = RowDistribution("gaussian")
        draws = [sample_matrix(gaussian, 10, SeedSpec(101, idx)) for idx in range(3)]
        values = [singular_data(B).hs_inverse / unit for B in draws]
        grid = tuple(sorted(v * f for v in values for f in (1.0 - 1e-6, 1.0 + 1e-6)))
        cfg = make_config(trials=3, t_grid=grid, statistic=ex.Statistic(kind))
        shift = np.zeros((10, 10))
        expected = [sum(v >= t for t in grid) for v in values]
        assert ex._stack_hits(cfg, shift, range(3)) == expected
        scaled = replace(cfg, t_grid=tuple(t / c for t in grid))
        sample = ex.sample_matrix

        def scaled_draw(*args, out):
            # the trials draw into their stack through sample_matrix's out
            return np.multiply(c, sample(*args, out=out), out=out)

        monkeypatch.setattr(ex, "sample_matrix", scaled_draw)
        assert ex._stack_hits(scaled, shift, range(3)) == expected

    def test_clustered_shift_trials_take_no_svd(self, monkeypatch):
        # criterion 03's shape and grid: s_min * sqrt(n) is about 860, so the
        # bracket before the first power step places every trial on the grid
        n = 100
        cfg = ex.ExperimentConfig(
            RowDistribution("uniform_entry"), ShiftSpec.scaled_identity(10.0 * math.sqrt(n)), n,
            200, tuple(np.linspace(0.05, 0.5, 10)), 33,
        )

        def no_svd(X):
            raise AssertionError("SVD fallback taken")

        monkeypatch.setattr(linalg, "_stack_extremes", no_svd)
        assert [p.hits for p in ex.estimate_tail(cfg, workers=1).points] == [0] * 10

    def test_gaussian_svd_fallbacks_stay_rare(self, monkeypatch):
        # criterion 02's shape and grid at 200 trials: 0 fallbacks at this
        # seed, 1 in 1600 trials over eight seeds, 1 in criterion 02's 5000
        cfg = ex.ExperimentConfig(
            RowDistribution("gaussian"), ShiftSpec.zero(), 200, 200,
            tuple(np.linspace(0.05, 0.5, 10)), 20260810,
        )
        calls = []
        extremes = linalg._stack_extremes

        def counting(X):
            calls.extend(1 for _ in X)
            return extremes(X)

        monkeypatch.setattr(linalg, "_stack_extremes", counting)
        ex.estimate_tail(cfg, workers=1)
        assert len(calls) <= 2

    def test_scaling_identity_cross_check(self):
        B = np.random.default_rng(8).standard_normal((7, 7))
        assert singular_data(3.0 * B).s_min == pytest.approx(
            3.0 * singular_data(B).s_min, rel=1e-10
        )


    @pytest.mark.parametrize(
        "shift",
        [
            ShiftSpec.scaled_identity(math.nan),
            ShiftSpec.diagonal([1.0, math.inf, 2.0]),
            ShiftSpec.explicit([[1.0, math.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        ],
        ids=lambda shift: shift.kind,
    )
    def test_non_finite_shift_rejected_before_sampling(self, monkeypatch, shift):
        def sentinel(*args, **kwargs):
            raise AssertionError("a trial was sampled")

        monkeypatch.setattr(ex, "sample_matrix", sentinel)
        with pytest.raises(InvalidInputError, match="non-finite entries"):
            ex.estimate_tail(make_config(shift=shift, n=3))


class TestDistanceProfile:
    def test_huge_threshold_always_hits(self):
        cfg = make_config(
            trials=20, t_grid=(), statistic=ex.Statistic.distance_profile(1, 1e6)
        )
        est = ex.distance_profile_tail(cfg)
        assert est.points[0].p_hat == 1.0

    def test_impossible_cardinality_never_hits(self):
        cfg = make_config(
            trials=20, t_grid=(), statistic=ex.Statistic.distance_profile(11, 1e6)
        )
        est = ex.distance_profile_tail(cfg)
        assert est.points[0].p_hat == 0.0

    def test_grid_sweep_monotone(self):
        cfg = make_config(
            trials=40,
            t_grid=(0.05, 0.2, 0.5, 1.0),
            statistic=ex.Statistic.distance_profile(2),
        )
        est = ex.distance_profile_tail(cfg)
        hits = [p.hits for p in est.points]
        assert all(hits[i] <= hits[i + 1] for i in range(len(hits) - 1))

    def test_one_threshold_gives_one_result_under_either_verb(self):
        # estimate_tail wrote no point for a config holding only a
        cfg = make_config(trials=30, t_grid=(), statistic=ex.Statistic.distance_profile(2, 0.5))
        tail, profile = ex.estimate_tail(cfg), ex.distance_profile_tail(cfg)
        assert tail.points == profile.points and len(tail.points) == 1
        swept = ex.estimate_tail(replace(cfg, t_grid=(0.5,)))
        assert tail.points == swept.points and tail.config == swept.config

    def test_requires_threshold_or_grid(self):
        cfg = make_config(trials=5, t_grid=(), statistic=ex.Statistic.distance_profile(2))
        with pytest.raises(InvalidInputError):
            ex.distance_profile_tail(cfg)

    def test_requires_distance_profile_statistic(self):
        with pytest.raises(InvalidInputError):
            ex.distance_profile_tail(make_config())


class TestCounterexampleExperiment:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ex.counterexample_experiment(4, 100.0, 10, 0)
        with pytest.raises(InvalidInputError):
            ex.counterexample_experiment(10, 5.0, 10, 0)

    @pytest.mark.parametrize(
        "n, tau, trials, name",
        [(8.5, 100.0, 10, "n"), (np.float64(10.0), 100.0, 10, "n"), (True, 100.0, 10, "n"),
         (10, 100.0, 2.5, "trials"), (10, 100.0, "10", "trials"), (10, "100", 10, "tau"),
         (10, None, 10, "tau"), (10, True, 10, "tau")],
    )
    def test_non_numeric_arguments_rejected_before_sampling(self, monkeypatch, n, tau, trials, name):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a matrix")

        monkeypatch.setattr(ex, "sample_matrix", no_sampling)
        with pytest.raises(InvalidInputError, match=f"^{name}: expected an? (integer|number)"):
            ex.counterexample_experiment(n, tau, trials, 0)

    def test_integer_tau_and_numpy_sizes_are_accepted(self):
        rep = ex.counterexample_experiment(np.int64(10), 100, np.int32(12), 3)
        assert rep.to_dict() == ex.counterexample_experiment(10, 100.0, 12, 3).to_dict()
        assert type(rep.n) is int and type(rep.tau) is float and type(rep.trials) is int

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected_before_sampling(self, monkeypatch, seed):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a matrix")

        monkeypatch.setattr(ex, "sample_matrix", no_sampling)
        with pytest.raises(InvalidInputError, match="master_seed"):
            ex.counterexample_experiment(10, 100.0, 10, seed)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected_before_sampling(self, monkeypatch, tau):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a matrix")

        monkeypatch.setattr(ex, "sample_matrix", no_sampling)
        with pytest.raises(InvalidInputError, match="tau"):
            ex.counterexample_experiment(10, tau, 10, 0)

    def test_trial_kernel_pickles(self):
        shift = ex.build_shift(ShiftSpec.counterexample(40.0), 10)
        kernel = functools.partial(ex._counterexample_stack, shift, 9)
        clone = pickle.loads(pickle.dumps(kernel))
        assert clone(range(4, 7)) == kernel(range(4, 7))

    def test_quick_run(self):
        rep = ex.counterexample_experiment(10, 50.0, 80, 3)
        assert 0.0 <= rep.corner_frequency <= 1.0
        assert set(rep.smin_tail) == {1.0, 5.0, 10.0}
        assert set(rep.kappa_tail) == {0.01, 0.1}
        assert rep.smin_tail[1.0] <= rep.smin_tail[5.0] <= rep.smin_tail[10.0]
        doc = rep.to_dict()
        assert doc["n"] == 10 and doc["trials"] == 80

    def test_worker_determinism(self):
        a = ex.counterexample_experiment(10, 40.0, 60, 9, workers=1)
        b = ex.counterexample_experiment(10, 40.0, 60, 9, workers=3)
        assert a.corner_frequency == b.corner_frequency
        assert a.smin_tail == b.smin_tail

    def test_corner_quantiles_shrink_like_one_over_tau(self):
        # on the corner event the smallest singular value is driven by the
        # near-kernel witness, whose residual scales as 1/tau
        small = ex.counterexample_experiment(20, 1000.0, 200, 314)
        large = ex.counterexample_experiment(20, 100_000.0, 200, 314)
        assert small.corner_frequency == large.corner_frequency  # same sign matrices
        ratio = small.corner_smin_median / large.corner_smin_median
        assert 50.0 <= ratio <= 200.0  # tau ratio is 100


class TestMapTrials:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("trials", [1, 3, 4, 37])
    def test_results_in_trial_order(self, trials, workers):
        kernel = lambda stack: [(idx, idx * idx) for idx in stack]  # noqa: E731
        assert ex.map_trials(kernel, trials, 10, workers) == [
            (idx, idx * idx) for idx in range(trials)
        ]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 50, 100, 199, 200, 300])
    @pytest.mark.parametrize("trials", [1, 3, 4, 37, 500])
    def test_stacks_are_contiguous_and_capped(self, trials, n, workers):
        # a stack holds no more entries than one n = 200 trial, and at least
        # one trial; the stacks cover the trials in order
        stacks = []
        ex.map_trials(lambda stack: stacks.append(stack) or list(stack), trials, n, workers)
        stacks.sort(key=lambda stack: stack.start)
        assert [idx for stack in stacks for idx in stack] == list(range(trials))
        cap = max(1, ex.STACK_ENTRIES // (n * n))
        share = math.ceil(trials / (ex.resolve_workers(workers) * 8))
        assert all(1 <= len(stack) <= cap for stack in stacks)
        assert max(len(stack) for stack in stacks) == min(cap, share)
        if n >= 200:
            assert all(len(stack) == 1 for stack in stacks)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blas_single_threaded_inside_and_restored_after(self, blas_at_two_threads, workers):
        seen = ex.map_trials(lambda stack: [blas_at_two_threads() for _ in stack], 9, 10, workers)
        assert seen == [1] * 9
        assert blas_at_two_threads() == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blas_restored_after_a_kernel_raises(self, blas_at_two_threads, workers):
        def kernel(stack):
            if 5 in stack:
                raise ValueError("trial 5 failed")
            return list(stack)

        with pytest.raises(ValueError, match="trial 5"):
            ex.map_trials(kernel, 9, 10, workers)
        assert blas_at_two_threads() == 2

    def test_overlapping_maps_keep_blas_pinned_until_the_last_ends(
        self, blas_at_two_threads, monkeypatch
    ):
        # Two estimate_tail calls on two Python threads, three workers each
        # (more than the cores here): both start their first stack together,
        # and the second's last stack runs only after the first call returned.
        short = make_config(trials=8, master_seed=1)
        long = make_config(trials=12, master_seed=2)
        expected = {
            cfg: [p.hits for p in ex.estimate_tail(cfg, workers=1).points] for cfg in (short, long)
        }
        both_started = threading.Barrier(2, timeout=30)
        short_done = threading.Event()
        seen = []
        stack_hits = ex._stack_hits

        def kernel(config, shift_matrix, stack):
            if 0 in stack:
                both_started.wait()
            if config is long and long.trials - 1 in stack:
                assert short_done.wait(timeout=30)
            seen.extend(blas_at_two_threads() for _ in stack)
            return stack_hits(config, shift_matrix, stack)

        monkeypatch.setattr(ex, "_stack_hits", kernel)
        hits = {}

        def run(cfg):
            hits[cfg] = [p.hits for p in ex.estimate_tail(cfg, workers=3).points]
            if cfg is short:
                short_done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(cfg,)) for cfg in (short, long)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert hits == expected
        assert seen == [1] * (short.trials + long.trials)
        assert blas_at_two_threads() == 2


def check_stacked_draws_are_sample_matrix_plus_shift():
    """Every law's trials drawn into their stack by ``_sample_stack``, at
    several sizes and a nonzero shift, bit for bit against
    ``sample_matrix(...) + shift`` drawn one by one."""
    for kind in KINDS:
        dist = RowDistribution(kind)
        for n in (1, 2, 7, 50):
            shift = np.random.default_rng(n).standard_normal((n, n))
            trials = range(5, 9)
            got = ex._sample_stack(dist, 77, shift, trials)
            want = np.array([sample_matrix(dist, n, SeedSpec(77, idx)) + shift for idx in trials])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (kind, n)


class TestStacks:
    """Trials stacked by map_trials against the same trials one by one."""

    def test_stacked_draws_are_sample_matrix_plus_shift(self):
        check_stacked_draws_are_sample_matrix_plus_shift()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),
            dict(dist=RowDistribution("bernoulli"), n=6, t_grid=(0.0, 0.1, 0.4, 1.0)),
            dict(
                dist=RowDistribution("uniform_entry"),
                shift=ShiftSpec.scaled_identity(10.0 * math.sqrt(10)),
                t_grid=(86.0, 88.0, 90.0, 92.0),
            ),
            dict(t_grid=(0.5, 1.0, 2.0, 4.0), statistic=ex.Statistic.hs_scaled_sqrt()),
            dict(t_grid=(0.3, 0.5, 1.0, 2.0), statistic=ex.Statistic.hs_scaled_n()),
            dict(t_grid=(0.1, 0.3, 0.6, 1.0), statistic=ex.Statistic.distance_profile(2)),
            dict(n=1, t_grid=(0.1, 0.3, 0.6, 1.0), statistic=ex.Statistic.distance_profile(1)),
        ],
        ids=["smin", "signs", "clustered", "hs_sqrt", "hs_n", "profile", "profile_n1"],
    )
    def test_hits_match_trial_by_trial(self, overrides):
        cfg = make_config(trials=37, **overrides)
        shift = ex.build_shift(cfg.shift, cfg.n)
        values = []
        for idx in range(cfg.trials):
            B = sample_matrix(cfg.dist, cfg.n, SeedSpec(cfg.master_seed, idx)) + shift
            s_min, _, hs = linalg._extremes(B)
            values.append({
                "smin_scaled": s_min * math.sqrt(cfg.n),
                "hs_scaled_sqrt": hs / math.sqrt(cfg.n),
                "hs_scaled_n": hs / cfg.n,
                "distance_profile": float(np.sort(linalg.row_distances(B))[-1 if cfg.n == 1 else 1]),
            }[cfg.statistic.kind])
        below = cfg.statistic.hit_when_below
        expected = [sum(v <= t if below else v >= t for v in values) for t in cfg.t_grid]
        assert 0 < sum(expected) < cfg.trials * len(cfg.t_grid)
        for workers in (1, 2, 3):
            assert [p.hits for p in ex.estimate_tail(cfg, workers).points] == expected

    def test_counterexample_matches_trial_by_trial(self):
        shift = ex.build_shift(ShiftSpec.counterexample(100.0), 12)
        trial_by_trial = [ex._counterexample_stack(shift, 3, range(idx, idx + 1))[0] for idx in range(37)]
        assert ex._counterexample_stack(shift, 3, range(37)) == trial_by_trial
        assert 0 < sum(corner for _, _, corner in trial_by_trial) < 37
        report = ex.counterexample_experiment(12, 100.0, 37, 3, workers=1).to_dict()
        for workers in (2, 3):
            assert ex.counterexample_experiment(12, 100.0, 37, 3, workers=workers).to_dict() == report


class TestEmitResults:
    def test_csv_columns_and_precision(self, tmp_path):
        est = ex.estimate_tail(make_config(trials=30))
        path = tmp_path / "out.csv"
        ex.emit_results(est, path, "csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(ex.CSV_COLUMNS)
        assert len(rows) == 1 + len(est.points)
        # 17 significant digits make the parse exact
        assert float(rows[1][3]) == est.points[0].p_hat
        assert float(rows[1][5]) == est.points[0].ci_high
        assert rows[1][7] == "smin_scaled"
        assert rows[1][8] == "gaussian"
        assert rows[1][9] == "zero"

    def test_empty_grid_gives_header_only_csv(self, tmp_path):
        est = ex.estimate_tail(make_config(t_grid=()))
        path = tmp_path / "empty.csv"
        ex.emit_results(est, path, "csv")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [list(ex.CSV_COLUMNS)]

    def test_json_round_trip_equality(self, tmp_path):
        est = ex.estimate_tail(make_config(trials=25))
        path = tmp_path / "out.json"
        ex.emit_results(est, path, "json")
        with open(path) as fh:
            clone = ex.TailEstimate.from_json(fh.read())
        assert clone == est

    def test_malformed_estimate_rejected(self):
        d = ex.estimate_tail(make_config(trials=5)).to_dict()
        del d["points"][0]["hits"]
        with pytest.raises(InvalidInputError, match="hits"):
            ex.TailEstimate.from_dict(d)
        with pytest.raises(InvalidInputError):
            ex.TailEstimate.from_json('{"config": {}, "points": [], "wall_time": 0.0}')
        with pytest.raises(InvalidInputError):
            ex.TailEstimate.from_json("")

    @pytest.mark.parametrize(
        "key, value", [("hits", "1"), ("hits", 1.0), ("trials", True), ("t", "0.05"), ("p_hat", None)]
    )
    def test_point_fields_read_as_numbers(self, key, value):
        # "hits": "1" became a GridPointEstimate holding a string
        d = ex.estimate_tail(make_config(trials=5)).to_dict()
        d["points"][0][key] = value
        with pytest.raises(InvalidInputError, match=f"^tail estimate: {key}: expected an? "):
            ex.TailEstimate.from_dict(d)

    def test_unknown_point_key_rejected(self):
        d = ex.estimate_tail(make_config(trials=5)).to_dict()
        d["points"][0]["hit"] = 1
        with pytest.raises(InvalidInputError, match="grid point: unknown keys"):
            ex.TailEstimate.from_dict(d)

    def test_unknown_estimate_key_rejected(self):
        d = ex.estimate_tail(make_config(trials=5)).to_dict()
        d["wall_seconds"] = 1.0
        with pytest.raises(InvalidInputError, match="unknown keys"):
            ex.TailEstimate.from_dict(d)

    def test_json_keys_in_their_written_order(self):
        est = ex.estimate_tail(make_config(trials=25))
        points = [
            {"t": p.t, "hits": p.hits, "trials": p.trials, "p_hat": p.p_hat,
             "ci_low": p.ci_low, "ci_high": p.ci_high}
            for p in est.points
        ]
        doc = {"config": est.config.to_dict(), "wall_time": est.wall_time, "points": points}
        assert est.to_json() == json.dumps(doc, indent=2)

    def test_bad_format(self, tmp_path):
        est = ex.estimate_tail(make_config(t_grid=()))
        with pytest.raises(InvalidInputError):
            ex.emit_results(est, tmp_path / "x.bin", "xml")

    def test_io_error_carries_path(self, tmp_path):
        est = ex.estimate_tail(make_config(t_grid=()))
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        with pytest.raises(OSError) as excinfo:
            ex.emit_results(est, missing, "csv")
        assert excinfo.value.filename is not None
