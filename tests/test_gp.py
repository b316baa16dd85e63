import json
import math
import sys

import numpy as np
import pytest

from tasnsc.gp import (
    GPFitError,
    GPModel,
    Kernel,
    MotionPattern,
    fit,
    kernel_matrix,
    pattern_log_likelihood,
    posterior,
)
from tasnsc.predictor import PipelineConfig

TIGHT = Kernel(length_x=2.0, length_y=2.0, signal_sd=1.0, noise_sd=1e-6)


def grid_points(lo=0.0, hi=4.0, n=5):
    g = np.linspace(lo, hi, n)
    X, Y = np.meshgrid(g, g)
    return np.column_stack((X.ravel(), Y.ravel()))


class TestKernel:
    def test_positive_params_enforced(self):
        with pytest.raises(ValueError):
            Kernel(length_x=0.0)
        with pytest.raises(ValueError):
            Kernel(noise_sd=-0.1)

    def test_diagonal_is_signal_variance(self):
        k = Kernel(signal_sd=1.7)
        pts = np.array([[0.0, 0.0], [3.0, -1.0]])
        K = kernel_matrix(k, pts, pts)
        assert np.allclose(np.diag(K), 1.7**2)

    def test_anisotropic_lengths(self):
        k = Kernel(length_x=1.0, length_y=10.0, signal_sd=1.0)
        a = np.array([[0.0, 0.0]])
        same_x = kernel_matrix(k, a, np.array([[0.0, 1.0]]))[0, 0]
        same_y = kernel_matrix(k, a, np.array([[1.0, 0.0]]))[0, 0]
        assert same_x > same_y  # a 1 m offset costs much less along the long axis

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["length_x", "length_y", "signal_sd", "noise_sd"])
    def test_non_finite_params_rejected(self, name, bad):
        with pytest.raises(ValueError, match=name):
            Kernel(**{name: bad})

    @pytest.mark.parametrize("name", ["length_x", "length_y", "signal_sd", "noise_sd"])
    def test_square_overflow_rejected(self, name):
        # A fit squares the scales, so a value whose square overflows would
        # surface as an OverflowError there instead of a ValueError here.
        root = math.sqrt(sys.float_info.max)
        Kernel(**{name: root})  # the largest value accepted
        for bad in (math.nextafter(root, math.inf), 1e308):
            with pytest.raises(ValueError, match=f"{name} must be .* so must its square"):
                Kernel(**{name: bad})

    def test_dict_round_trip(self):
        # A kernel's JSON form is its dataclass fields, read back by the
        # pipeline config reader.
        k = Kernel(1.5, 2.5, 0.8, 0.3)
        doc = json.loads(json.dumps(PipelineConfig(kernel=k).to_dict()))
        assert doc["kernel"] == {"length_x": 1.5, "length_y": 2.5, "signal_sd": 0.8, "noise_sd": 0.3}
        assert PipelineConfig.from_dict(doc).kernel == k


class TestFit:
    def test_single_point_interpolation(self):
        model = fit([[0.0, 0.0]], [1.0], TIGHT)
        mean, _ = posterior(model, (0.0, 0.0))
        assert mean == pytest.approx(1.0, abs=1e-4)

    def test_zero_targets_zero_mean(self):
        rng = np.random.default_rng(0)
        model = fit(rng.uniform(-5, 5, (20, 2)), np.zeros(20), Kernel())
        mean, _ = posterior(model, rng.uniform(-5, 5, (10, 2)))
        assert np.allclose(mean, 0.0)

    def test_antisymmetric_targets_cancel_at_origin(self):
        model = fit([[1.0, 0.0], [-1.0, 0.0]], [1.0, -1.0], Kernel())
        mean, _ = posterior(model, (0.0, 0.0))
        assert mean == pytest.approx(0.0, abs=1e-12)

    def test_non_spd_raises(self):
        with pytest.raises(GPFitError):
            fit([[0.0, 0.0]] * 5, [1.0] * 5, Kernel(noise_sd=1e-12))

    def test_empty_rejected(self):
        with pytest.raises(GPFitError):
            fit(np.empty((0, 2)), np.empty(0), Kernel())


class TestWithTargets:
    def test_matches_fresh_fit_and_shares_factor(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-3.0, 3.0, (15, 2))
        vx, vy = rng.normal(size=15), rng.normal(size=15)
        gp_x = GPModel(pts, vx, Kernel())
        gp_y = gp_x.with_targets(vy)
        assert gp_y._chol is gp_x._chol
        assert gp_y.inputs is gp_x.inputs
        query = rng.uniform(-4.0, 4.0, (7, 2))
        for got, want in zip(posterior(gp_y, query), posterior(GPModel(pts, vy, Kernel()), query)):
            assert np.array_equal(got, want)
        assert np.array_equal(gp_x.targets, vx)

    def test_targets_validated(self):
        gp = GPModel([[0.0, 0.0], [1.0, 0.0]], [1.0, 2.0], Kernel())
        with pytest.raises(ValueError, match="lengths differ"):
            gp.with_targets([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            gp.with_targets([1.0, np.nan])


class TestPosterior:
    def test_prior_reversion_far_away(self):
        k = Kernel(length_x=1.0, length_y=1.0, signal_sd=0.9, noise_sd=0.1)
        model = fit([[0.0, 0.0]], [2.0], k)
        mean, var = posterior(model, (15.0, 15.0))
        assert abs(mean) < 1e-6
        assert var == pytest.approx(0.9**2, abs=1e-6)

    def test_mean_at_training_inputs(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-3, 3, (15, 2))
        targets = np.sin(pts[:, 0]) + 0.3 * pts[:, 1]
        model = fit(pts, targets, TIGHT)
        mean, _ = posterior(model, pts)
        assert np.max(np.abs(mean - targets)) < 1e-3

    def test_linear_field_interpolation(self):
        pts = grid_points()
        model = fit(pts, 0.5 * pts[:, 0], Kernel(noise_sd=0.01))
        rng = np.random.default_rng(0)
        q = rng.uniform(0.5, 3.5, (20, 2))
        mean, _ = posterior(model, q)
        true = 0.5 * q[:, 0]
        rms = np.sqrt(np.mean((mean - true) ** 2)) / np.sqrt(np.mean(true**2))
        assert rms < 0.05

    def test_variance_nonnegative_everywhere(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-2, 2, (40, 2))
        model = fit(pts, rng.normal(size=40), Kernel(noise_sd=0.05))
        _, var = posterior(model, rng.uniform(-6, 6, (500, 2)))
        assert np.all(var >= 0.0)

    def test_raw_variance_never_far_negative(self):
        # Oracle-side check of the clamp margin on a well-conditioned fit.
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 2, (30, 2))
        k = Kernel(noise_sd=0.1)
        model = fit(pts, rng.normal(size=30), k)
        q = rng.uniform(-3, 3, (200, 2))
        gram = kernel_matrix(k, pts, pts) + k.noise_sd**2 * np.eye(len(pts))
        k_star = kernel_matrix(k, pts, q)
        raw = k.signal_sd**2 - np.sum(k_star * np.linalg.solve(gram, k_star), axis=0)
        assert raw.min() > -1e-10


def make_pattern(flow, prior=1.0, kernel=None, n=25):
    kernel = kernel or Kernel(noise_sd=0.05)
    pts = grid_points(-2.0, 2.0, int(np.sqrt(n)))
    return MotionPattern(atoms=(0, 1), flow=fit(pts, np.column_stack(flow(pts)), kernel), prior_weight=prior)


class TestPatternLogLikelihood:
    def test_matching_flow_beats_orthogonal(self):
        east = make_pattern(lambda p: (np.full(len(p), 1.2), np.zeros(len(p))), prior=0.5)
        north = make_pattern(lambda p: (np.zeros(len(p)), np.full(len(p), 1.2)), prior=0.5)
        obs = np.array([[x, 0.0, 1.2, 0.0] for x in np.linspace(-1, 1, 5)])
        assert pattern_log_likelihood(east, obs) > pattern_log_likelihood(north, obs)

    def test_empty_observation_is_log_prior(self):
        pat = make_pattern(lambda p: (np.ones(len(p)), np.zeros(len(p))), prior=0.25)
        assert pattern_log_likelihood(pat, np.empty((0, 4))) == pytest.approx(np.log(0.25))

    def test_prior_only_difference(self):
        heavy = make_pattern(lambda p: (np.ones(len(p)), np.zeros(len(p))), prior=0.8)
        light = MotionPattern(atoms=heavy.atoms, flow=heavy.flow, prior_weight=0.2)
        obs = np.array([[0.0, 0.0, 1.0, 0.0], [0.5, 0.5, 1.0, 0.1]])
        diff = pattern_log_likelihood(heavy, obs) - pattern_log_likelihood(light, obs)
        assert diff == pytest.approx(np.log(4.0), rel=1e-12)

    def test_monotone_in_velocity_deviation(self):
        pat = make_pattern(lambda p: (np.ones(len(p)), np.zeros(len(p))))
        lls = []
        for dev in (0.0, 0.3, 0.6, 1.2, 2.4):
            obs = np.array([[0.0, 0.0, 1.0 + dev, 0.0]])
            lls.append(pattern_log_likelihood(pat, obs))
        assert all(a > b for a, b in zip(lls, lls[1:]))

    def test_prior_weight_validated(self):
        pat = make_pattern(lambda p: (np.ones(len(p)), np.zeros(len(p))))
        with pytest.raises(ValueError):
            MotionPattern(atoms=(0, 0), flow=pat.flow, prior_weight=0.0)

    @pytest.mark.parametrize(
        "atoms", [[0, 1], (0,), (0, 1, 2), (0.0, 1.0), (True, 0), ("0", "1"), 5], ids=repr
    )
    def test_atoms_must_be_an_integer_pair(self, atoms):
        pat = make_pattern(lambda p: (np.ones(len(p)), np.zeros(len(p))))
        with pytest.raises(ValueError, match="pattern atoms must be a pair of integers"):
            MotionPattern(atoms=atoms, flow=pat.flow, prior_weight=1.0)

    def test_numpy_integer_atoms_accepted(self):
        pat = make_pattern(lambda p: (np.ones(len(p)), np.zeros(len(p))))
        assert MotionPattern(atoms=(np.int64(2), 3), flow=pat.flow, prior_weight=1.0).atoms == (2, 3)


def old_kernel_matrix(kernel, a, b):
    """The out-of-place formula, as reference for the in-place kernel."""
    dx = (a[:, 0, None] - b[None, :, 0]) / kernel.length_x
    dy = (a[:, 1, None] - b[None, :, 1]) / kernel.length_y
    return kernel.signal_sd**2 * np.exp(-0.5 * (dx * dx + dy * dy))


class TestVectorGP:
    def test_kernel_matrix_bitwise_reference_and_symmetric(self):
        rng = np.random.default_rng(5)
        k = Kernel(1.3, 0.7, 1.9, 0.2)
        a, b = rng.uniform(-4, 4, (17, 2)), rng.uniform(-4, 4, (9, 2))
        assert np.array_equal(kernel_matrix(k, a, b), old_kernel_matrix(k, a, b))
        assert np.array_equal(kernel_matrix(k, b, a), kernel_matrix(k, a, b).T)

    def test_two_columns_equal_two_scalar_fits(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-3.0, 3.0, (40, 2))
        v = rng.normal(size=(40, 2))
        k = Kernel(1.5, 2.5, 0.8, 0.3)
        flow = fit(pts, v, k)
        query = rng.uniform(-5.0, 5.0, (60, 2))
        mean, var = posterior(flow, query)
        assert mean.shape == (60, 2) and var.shape == (60,)
        for col in range(2):
            mean_c, var_c = posterior(fit(pts, v[:, col], k), query)
            assert np.max(np.abs(mean[:, col] - mean_c)) < 1e-12
            assert np.max(np.abs(var - var_c)) < 1e-12
        one_mean, one_var = posterior(flow, query[0])
        assert one_mean.shape == (2,) and isinstance(one_var, float)
        assert np.max(np.abs(one_mean - mean[0])) < 1e-12

    def test_variance_matches_dense_solve(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-2, 2, (30, 2))
        k = Kernel(noise_sd=0.1)
        q = rng.uniform(-3, 3, (50, 2))
        gram = kernel_matrix(k, pts, pts) + k.noise_sd**2 * np.eye(len(pts))
        k_star = kernel_matrix(k, pts, q)
        want = k.signal_sd**2 - np.sum(k_star * np.linalg.solve(gram, k_star), axis=0)
        _, var = posterior(fit(pts, rng.normal(size=30), k), q)
        assert np.max(np.abs(var - np.maximum(want, 0.0))) < 1e-12

    def test_target_shape_checked(self):
        with pytest.raises(ValueError, match=r"\(n,\) or \(n, d\)"):
            fit([[0.0, 0.0], [1.0, 0.0]], np.zeros((2, 2, 1)), Kernel())
        with pytest.raises(ValueError, match="lengths differ"):
            fit([[0.0, 0.0], [1.0, 0.0]], np.zeros((3, 2)), Kernel())
        with pytest.raises(ValueError, match="non-finite"):
            fit([[0.0, 0.0], [1.0, 0.0]], [[0.0, 1.0], [np.inf, 0.0]], Kernel())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        model = fit([[0.0, 0.0], [1.0, 0.0]], [1.0, 2.0], Kernel())
        with pytest.raises(ValueError, match="query contains non-finite"):
            posterior(model, (bad, 0.0))
        with pytest.raises(ValueError, match="query contains non-finite"):
            posterior(model, [[0.0, 0.0], [0.0, bad]])


def scalar_fits(flow):
    """The two-component oracle: one scalar GP per column of the flow's targets."""
    return [fit(flow.inputs, flow.targets[:, col], flow.kernel) for col in range(2)]


class TestFlow:
    def test_flow_matches_scalar_fits(self):
        pat = make_pattern(lambda p: (np.sin(p[:, 0]), np.cos(p[:, 1])))
        q = np.random.default_rng(8).uniform(-3, 3, (20, 2))
        mean, var = posterior(pat.flow, q)
        for col, gp in enumerate(scalar_fits(pat.flow)):
            mean_c, var_c = posterior(gp, q)
            assert np.max(np.abs(mean[:, col] - mean_c)) < 1e-12
            assert np.max(np.abs(var - var_c)) < 1e-12

    @pytest.mark.parametrize("shape", [(25,), (25, 1), (25, 3)])
    def test_flow_targets_must_have_two_columns(self, shape):
        flow = fit(grid_points(-2.0, 2.0, 5), np.zeros(shape), Kernel())
        with pytest.raises(ValueError, match=r"flow targets must be \(n, 2\)"):
            MotionPattern(atoms=(0, 1), flow=flow, prior_weight=1.0)

    def test_component_views_are_flow_columns_on_its_factor(self):
        pat = make_pattern(lambda p: (np.sin(p[:, 0]), np.cos(p[:, 1])))
        q = np.random.default_rng(11).uniform(-3, 3, (20, 2))
        mean, var = posterior(pat.flow, q)
        for col, gp in enumerate((pat.gp_x, pat.gp_y)):
            assert gp._chol is pat.flow._chol and gp.inputs is pat.flow.inputs
            assert gp.kernel == pat.flow.kernel
            assert np.array_equal(gp.targets, pat.flow.targets[:, col])
            mean_c, var_c = posterior(gp, q)
            assert np.max(np.abs(mean[:, col] - mean_c)) < 1e-12
            assert np.array_equal(var, var_c)

    def test_batched_scores_equal_one_at_a_time(self):
        pat = make_pattern(lambda p: (np.sin(p[:, 1]), 0.5 * p[:, 0]), prior=0.3)
        rng = np.random.default_rng(9)
        counts = [3, 0, 5, 1]
        obs = [rng.uniform(-2, 2, (c, 4)) for c in counts]
        batched = pattern_log_likelihood(pat, np.vstack(obs), counts)
        single = np.array([pattern_log_likelihood(pat, o) for o in obs])
        assert np.all(np.abs(batched - single) <= 1e-12 * np.abs(single))
        assert batched[1] == pytest.approx(np.log(0.3))
        with pytest.raises(ValueError, match="counts sum to 10, got 9 samples"):
            pattern_log_likelihood(pat, np.vstack(obs), [3, 5, 1, 1])

    def test_scores_equal_two_component_sum(self):
        # The old scoring: each component under its own GP, summed.
        pat = make_pattern(lambda p: (np.sin(p[:, 1]), 0.5 * p[:, 0]), prior=0.4)
        obs = np.random.default_rng(10).uniform(-2, 2, (7, 4))
        total = np.log(0.4)
        for col, gp in zip((2, 3), scalar_fits(pat.flow)):
            mean, var = posterior(gp, obs[:, :2])
            var = var + gp.kernel.noise_sd**2
            total += np.sum(-0.5 * (np.log(2 * np.pi) + np.log(var)) - (obs[:, col] - mean) ** 2 / (2 * var))
        assert pattern_log_likelihood(pat, obs) == pytest.approx(total, rel=1e-12)
