import math

import numpy as np
import pytest

from bbmlab.errors import ConfigurationError, DomainError
from bbmlab.mc import (
    ErrorEnvelope,
    _chunked_mean,
    _log_time_grid,
    _monotone_on_grid,
    _quadratic_angle,
    _weight_grid,
    _weighted_paths,
    alpha2_exponent_fit,
    bessel_density,
    bridge_barrier_mc,
    bridge_barrier_probability,
    estimate_gtilde,
    estimate_total_mass,
    localization_probe,
    log_i0,
    make_envelope,
)
from bbmlab.model import ModelParams, RateFamily

from test_mc_stream import marched_paths

P11 = ModelParams(alpha=1.0, beta=1.0, rate_family=RateFamily.POW_CLAMP)


class TestEnvelope:
    def test_eta_matches_analytic_bound(self):
        # the monotonicity constraint solves to eta = min(1/2, alpha/(alpha+a))
        env = make_envelope(0.5, 1.5, 1.0, 1.0)
        assert env.eta == pytest.approx(0.4, abs=5e-3)

    def test_eta_caps_at_half(self):
        env = make_envelope(1.0, 0.5, 1.0, 1.3)
        assert env.eta == 0.5

    def test_grid_check_fails_above_eta(self):
        env = make_envelope(0.5, 1.5, 1.0, 1.0)
        assert env.eta < 0.5
        assert not _monotone_on_grid(0.5, 1.5, 1.0, 1.0, 1.05 * env.eta)

    def test_branch_shapes(self):
        env = make_envelope(2.0, 1.3, 0.8, 1.0)
        y, r = np.array([0.0, 1.0, 50.0]), 10.0
        assert np.all(env.f_plus(y, r) <= 1.0)
        assert np.all(env.f_minus(y, r) >= -env.eta)
        assert np.all(env.f_minus(y, r) <= 0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_envelope(-1.0, 1.0, 1.0, 1.0)


class TestMarch:
    def test_bridge_endpoints_exact(self):
        grid, paths = marched_paths(3, 300, 2.0, 6.0, 0.3, 0.2, end=-0.7)
        assert np.all(paths[:, 0] == 0.3)
        assert np.all(paths[:, -1] == -0.7)

    def test_forward_increments_gaussian(self):
        grid, paths = marched_paths(4, 5000, 1.0, 5.0, 0.0, 0.25)
        incr = np.diff(paths, axis=1) / math.sqrt(grid[1] - grid[0])
        import scipy.stats as stt

        assert stt.kstest(incr.ravel(), "norm").pvalue > 0.01

    def test_bit_identical(self):
        _, a = marched_paths(9, 500, 1.0, 3.0, 0.0, 0.2)
        _, b = marched_paths(9, 500, 1.0, 3.0, 0.0, 0.2)
        assert np.array_equal(a, b)


class TestTotalMass:
    def test_degenerate_and_beta_zero(self):
        assert estimate_total_mass(4.0, 4.0, 0.0, P11, 1000, 0.1, seed=1).value == 1.0
        p0 = ModelParams(alpha=1.0, beta=1e-300, rate_family=RateFamily.POW_CLAMP)
        # beta == 0 handled as exact unity
        import dataclasses

        pz = dataclasses.replace(P11, beta=1.0)
        est = estimate_total_mass(4.0, 8.0, 0.0, pz, 1000, 0.1, seed=1)
        assert 0.0 < est.value < 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            estimate_total_mass(4.0, 8.0, 0.0, P11, 50, 0.1, seed=1)
        with pytest.raises(DomainError):
            estimate_total_mass(4.0, 8.0, 0.0, P11, 1000, 3.0, seed=1)
        with pytest.raises(DomainError):
            estimate_total_mass(8.0, 4.0, 0.0, P11, 1000, 0.1, seed=1)

    @pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf])
    def test_step_positive_and_finite(self, step):
        # a zero step divided by zero; a negative one ran on a 2-step grid
        with pytest.raises(DomainError):
            estimate_total_mass(1.0, 2.0, 0.0, ModelParams(alpha=1), 1000, step, 1)
        with pytest.raises(DomainError):
            bridge_barrier_mc(0.0, 0.0, 1.0, 0.0, 1.0, 1000, step, 1)
        with pytest.raises(DomainError):
            _weight_grid(0.0, 1.0, step)

    def test_reducer_needs_a_sample(self):
        with pytest.raises(ConfigurationError):
            _chunked_mean(1, 0, lambda rng, size: rng.standard_normal(size))

    def test_value_in_unit_interval(self):
        env = make_envelope(1.0, 1.0, 1.0, 1.0)
        for branch in ("zero", "plus", "minus"):
            est = estimate_total_mass(4.0, 16.0, 0.5, P11, 2000, 0.1, seed=3,
                                      envelope=env, branch=branch)
            assert 0.0 <= est.value <= 1.0
            assert est.stderr > 0.0

    def test_seed_determinism(self):
        a = estimate_total_mass(4.0, 16.0, 0.0, P11, 5000, 0.1, seed=7)
        b = estimate_total_mass(4.0, 16.0, 0.0, P11, 5000, 0.1, seed=7)
        assert a == b

    def test_monotone_in_f_pathwise(self):
        env = make_envelope(1.0, 1.0, 1.0, 1.0)
        plus = estimate_total_mass(4.0, 16.0, 0.0, P11, 5000, 0.1, seed=7,
                                   envelope=env, branch="plus")
        zero = estimate_total_mass(4.0, 16.0, 0.0, P11, 5000, 0.1, seed=7)
        minus = estimate_total_mass(4.0, 16.0, 0.0, P11, 5000, 0.1, seed=7,
                                    envelope=env, branch="minus")
        assert plus.value <= zero.value <= minus.value

    def test_step_halving_consistency(self):
        a = estimate_total_mass(16.0, 64.0, 0.0, P11, 20000, 0.1, seed=5)
        b = estimate_total_mass(16.0, 64.0, 0.0, P11, 20000, 0.05, seed=5)
        assert abs(a.value - b.value) < 2.0 * (a.stderr + b.stderr)


class TestGtilde:
    def test_beta_zero_gaussian(self):
        import dataclasses

        est = estimate_gtilde(4.0, 0.0, 16.0, 0.5, dataclasses.replace(P11, beta=1.0),
                              500, 0.1, seed=1)
        # nonzero beta: below the free density
        free = math.exp(-0.25 / 24.0) / math.sqrt(2 * math.pi * 12.0)
        assert est.value < free

    def test_monotone_in_f(self):
        env = make_envelope(1.0, 1.0, 1.0, 1.0)
        plus = estimate_gtilde(4.0, 0.0, 16.0, 0.5, P11, 4000, 0.1, seed=9,
                               envelope=env, branch="plus")
        zero = estimate_gtilde(4.0, 0.0, 16.0, 0.5, P11, 4000, 0.1, seed=9)
        assert plus.value <= zero.value

    def test_matches_pde_kernel(self):
        # PDE oracle at (s=4, t=16, x=0, y=0.5)
        from bbmlab.pde import PdeGrids, kernel_G_from_g

        est = estimate_gtilde(4.0, 0.0, 16.0, 0.5, P11, 40000, 0.04, seed=505)
        ref = kernel_G_from_g(4.0, 0.0, 16.0, 0.5, 1.0, 1.0,
                              grids=PdeGrids(x_max=8.0, dx=1 / 128, cfl_pot=0.02))
        assert abs(est.value - ref) <= 3.0 * est.stderr


class TestLocalization:
    def test_ratio_bounds_and_monotonicity(self):
        out = {}
        for s in (4.0, 8.0, 16.0):
            out[s] = localization_probe(s, 4 * s, 0.0, 0.0, 0.4, P11, 4000, 0.1, seed=21)
            assert 0.0 <= out[s]["ratio"] <= 1.0
        assert out[4.0]["ratio"] >= out[8.0]["ratio"] >= out[16.0]["ratio"]

    def test_huge_tube_empty_event(self):
        out = localization_probe(4.0, 16.0, 0.0, 0.0, 8.0, P11, 2000, 0.1, seed=2)
        assert out["ratio"] == 0.0

    def test_eta_validation(self):
        with pytest.raises(DomainError):
            localization_probe(4.0, 16.0, 0.0, 0.0, -0.1, P11, 2000, 0.1, seed=2)


class TestAlpha2Fit:
    def test_beta_zero(self):
        assert alpha2_exponent_fit(0.0, [2.0, 4.0], 64.0, 1000, 0.1, seed=1)["slope"] == 0.0

    @pytest.mark.parametrize("s_list", [[], [4.0], [4.0, 4.0]])
    def test_needs_two_distinct_s(self, s_list):
        with pytest.raises(ConfigurationError):
            alpha2_exponent_fit(1.0, s_list, 64.0, 1000, 0.1, seed=1)

    def test_beta_one_slope_half(self):
        rep = alpha2_exponent_fit(1.0, [2.0, 4.0, 8.0, 16.0], 512.0, 20000, 0.1, seed=99)
        assert rep["slope"] == pytest.approx(0.5, abs=0.05)
        assert rep["r2"] > 0.99

    @pytest.mark.parametrize("s, t", [(2.0, 512.0), (16.0, 64.0), (0.3, 1.0)])
    def test_log_time_integral_unbiased(self, s, t):
        """E int_s^t (B_r/r)^2 dr = int_s^t (r - s)/r^2 dr for B_s = 0; a
        dropped or doubled Jacobian r in the log-time rule misses it."""
        grid = _log_time_grid(s, t, 0.1)
        mean, stderr, _ = _chunked_mean(3, 20_000, lambda rng, size: _quadratic_angle(
            rng, grid, size))
        assert abs(mean - (math.log(t / s) - 1.0 + s / t)) <= 3.0 * stderr

    @pytest.mark.parametrize("beta", [1.0, 3.0])
    def test_log_time_matches_r_grid(self, beta):
        """Each point of the fit against the uniform r-grid route it replaced
        (the trapezoidal rule in r of (y/r)^2, zero-crossing midpoints
        included), at reduced samples: within 3 combined standard errors."""
        s_list, t, n = [2.0, 4.0, 8.0, 16.0], 512.0, 4_000
        rep = alpha2_exponent_fit(beta, s_list, t, n, 0.1, seed=21)
        for idx, s in enumerate(s_list):
            grid = _log_time_grid(s, t, 0.1)
            log_time = _chunked_mean(21 + idx, n, lambda rng, size: np.exp(
                -beta * _quadratic_angle(rng, grid, size)))
            assert math.log(log_time[0]) == pytest.approx(rep["points"][idx][1], rel=1e-12)
            r_grid = _chunked_mean(31 + idx, n, _weighted_paths(
                _weight_grid(s, t, 0.1), beta, lambda y, r: (y / r) ** 2, 0.0))
            assert abs(log_time[0] - r_grid[0]) <= 3.0 * math.hypot(log_time[1], r_grid[1])


class TestBridgeBarrier:
    def test_exact_values(self):
        assert bridge_barrier_probability(0.0, 0.0, 1.0, 0.0, 1.0) == pytest.approx(
            math.exp(-2.0), rel=1e-14)
        assert bridge_barrier_probability(0.0, 0.0, 1.0, 0.0, 60.0) < 1e-300 * 1e10

    def test_domain(self):
        with pytest.raises(DomainError):
            bridge_barrier_probability(0.0, 2.0, 1.0, 0.0, 1.0)
        for s, t in ((1.0, 0.0), (1.0, 1.0)):
            with pytest.raises(DomainError):
                bridge_barrier_mc(s, 0.0, t, 0.0, 1.0, 1000, 0.1, 1)

    def test_mc_agrees(self):
        exact = bridge_barrier_probability(0.0, 0.0, 1.0, 0.0, 1.0)
        est = bridge_barrier_mc(0.0, 0.0, 1.0, 0.0, 1.0, 40000, 1e-3, seed=11)
        assert abs(est.value - exact) <= 3.0 * est.stderr

    def test_mc_three_configurations(self):
        for (K, t, seed) in ((1.0, 1.0, 11), (1.5, 2.0, 12), (0.8, 0.5, 13)):
            exact = bridge_barrier_probability(0.0, 0.1, t, -0.2, K)
            est = bridge_barrier_mc(0.0, 0.1, t, -0.2, K, 30000, 1e-3, seed=seed)
            assert abs(est.value - exact) <= 3.0 * est.stderr


class TestBessel:
    def test_r0_zero_rayleigh(self):
        z = np.linspace(0.0, 10.0, 50)
        d = bessel_density(0.0, 2.0, z)
        ref = z / 2.0 * np.exp(-z * z / 4.0)
        assert np.allclose(d, ref, atol=1e-14)

    def test_normalization(self):
        from scipy.integrate import quad

        val, _ = quad(lambda z: bessel_density(2.0, 1.5, z), 0.0, 50.0, limit=300)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_pointwise_upper_bound(self):
        z = np.linspace(0.0, 30.0, 400)
        d = bessel_density(2.0, 1.5, z)
        bound = z / 1.5 * np.exp(-((z - 2.0) ** 2) / (2 * 1.5))
        assert np.all(d <= bound + 1e-14)

    def test_log_i0_against_scipy(self):
        from scipy.special import i0e

        z = np.array([0.0, 0.5, 3.0, 19.0, 25.0, 200.0, 5000.0])
        ref = np.log(i0e(z)) + z
        assert np.allclose(log_i0(z), ref, rtol=2e-3, atol=1e-14)
        # series region is essentially exact
        zs = z[z < 20]
        assert np.allclose(log_i0(zs), np.log(i0e(zs)) + zs, rtol=1e-12)

    def test_no_overflow_large_argument(self):
        val = bessel_density(300.0, 1.0, 300.0)
        assert np.isfinite(val) and val > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_density(1.0, -1.0, 2.0)
        with pytest.raises(DomainError):
            bessel_density(1.0, 1.0, -2.0)
