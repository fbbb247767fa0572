import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbmlab.errors import ConfigurationError, DomainError
from bbmlab.mc import (
    ErrorEnvelope,
    _chunked_mean,
    _chunks,
    _log_time_grid,
    _quadratic_angle,
    _Trapezoid,
    _kernel_weight,
    _march,
    _weight_grid,
    alpha2_exponent_fit,
    bessel_density,
    bridge_barrier_mc,
    bridge_barrier_probability,
    estimate_gtilde,
    estimate_total_mass,
    localization_probe,
    make_envelope,
)
from bbmlab.model import ModelParams, RateFamily
from bbmlab.operations import REGISTRY

from oracles import monotone_on_grid
from test_mc_stream import marched_paths

P11 = ModelParams(alpha=1.0, beta=1.0, rate_family=RateFamily.POW_CLAMP)


# The dense per-column code that the gathered kernels replaced, kept as it
# was: the marcher, the trapezoid with its zero-crossing midpoints taken over
# all paths through np.where, and the barrier sample.  The package's kernels
# must equal them bit for bit.

def dense_march(rng, r_grid, start, end=None):
    m = len(r_grid) - 1
    cur = start
    yield 0, cur
    for j in range(m):
        dr = r_grid[j + 1] - r_grid[j]
        if end is None:
            cur = cur + math.sqrt(dr) * rng.standard_normal(cur.shape)
        elif j == m - 1:
            cur = np.full_like(cur, end)
        else:
            remain = r_grid[-1] - r_grid[j]
            mean = cur + (end - cur) * (dr / remain)
            var = dr * (remain - dr) / remain
            cur = mean + math.sqrt(var) * rng.standard_normal(cur.shape)
        yield j + 1, cur


class DenseTrapezoid:
    def __init__(self, r_grid, weight):
        self.r, self.weight, self.total = r_grid, weight, 0.0

    def add(self, j, col):
        w = self.weight(col, self.r[j])
        if j:
            dr = self.r[j] - self.r[j - 1]
            trap = 0.5 * (self.w_prev + w)
            crossing = self.prev * col < 0.0
            if np.any(crossing):
                mid = self.weight(0.5 * (self.prev + col), self.r[j - 1] + 0.5 * dr)
                trap = np.where(crossing, mid, trap)
            self.total += dr * trap
        self.prev, self.w_prev = col, w


def dense_barrier_sample(r_grid, x, y, K):
    def sample(rng, size):
        hit = np.zeros(size, dtype=bool)
        log_stay = np.zeros(size)
        for j, col in dense_march(rng, r_grid, np.full(size, float(x)), y):
            hit |= col >= K
            if j:
                a = np.clip(K - prev, 0.0, None)
                b = np.clip(K - col, 0.0, None)
                dr = r_grid[j] - r_grid[j - 1]
                p_cross = np.clip(np.exp(-2.0 * a * b / dr), 0.0, 1.0 - 1e-16)
                log_stay += np.where((a > 0) & (b > 0), np.log1p(-p_cross), 0.0)
            prev = col
        return np.where(hit, 1.0, 1.0 - np.exp(log_stay))
    return sample


def envelope_f(env, branch):
    """The perturbation f that `branch` names: none, env.f_plus or env.f_minus."""
    return {"zero": None, "plus": env.f_plus, "minus": env.f_minus}[branch]


def first_chunk_rng(seed):
    return next(_chunks(seed, 1))[0]


# distances of a bridge endpoint below the barrier, within 1e-3 of it or not
GAP = st.one_of(st.floats(1e-6, 1e-3), st.floats(1e-3, 3.0))


def assert_barrier_as_dense(x, t, y, K, step, seed, n=200):
    est = bridge_barrier_mc(0.0, x, t, y, K, n, step, seed)
    mean, stderr, _ = _chunked_mean(seed, n, dense_barrier_sample(_weight_grid(0.0, t, step),
                                                                   x, y, K))
    assert (est.value, est.stderr) == (mean, stderr)


class TestEnvelope:
    def test_eta_matches_analytic_bound(self):
        # the monotonicity constraint solves to eta = min(1/2, alpha/(alpha+a))
        for L, a, b, alpha in [(0.5, 1.5, 1.0, 1.0), (0.5, 2.0, 1.0, 1.0), (1.0, 0.5, 1.0, 1.3),
                               (2.0, 1.3, 0.8, 1.0), (0.1, 3.0, 2.0, 0.7)]:
            assert make_envelope(L, a, b, alpha).eta == min(0.5, alpha / (alpha + a))

    @pytest.mark.parametrize("L, a, b, alpha", [(0.5, 1.5, 1.0, 1.0), (0.5, 2.0, 1.0, 1.0)])
    def test_weight_never_falls_at_the_cap(self, L, a, b, alpha):
        # (y/r)^alpha (1 + f-) on a fine grid bracketing the cap at
        # r = 10^k r0: it falls nowhere, and with eta 0.3% larger (the
        # bisected value this closed form replaced) it falls at r = 10^7 r0
        env = make_envelope(L, a, b, alpha)

        def steps(eta, r):
            # at y = 0 already where L r^-b >= eta
            u_cap = (max(eta - L * r ** -b, 0.0) / L) ** (1.0 / a)
            y = np.linspace(0.9 * u_cap, 1.1 * u_cap or 1.0, 20_001) * r
            vals = (y / r) ** alpha * (1.0 - np.minimum(env.magnitude(y, r), eta))
            return np.diff(vals)

        for k in range(8):
            assert np.all(steps(env.eta, 10.0 ** k * env.r0) >= 0.0)
        assert np.any(steps(1.003 * env.eta, 1e7 * env.r0) < 0.0)

    def test_eta_caps_at_half(self):
        env = make_envelope(1.0, 0.5, 1.0, 1.3)
        assert env.eta == 0.5

    def test_grid_check_fails_above_eta(self):
        env = make_envelope(0.5, 1.5, 1.0, 1.0)
        assert env.eta < 0.5
        assert monotone_on_grid(0.5, 1.5, 1.0, 1.0, env.eta)
        assert not monotone_on_grid(0.5, 1.5, 1.0, 1.0, 1.05 * env.eta)

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

    @pytest.mark.parametrize("start, end", [
        (np.full(500, 0.3), None), (np.zeros((2, 500)), None), (np.full(500, 0.3), -0.7)])
    def test_columns_fresh_and_as_dense(self, start, end):
        """Forward 1-D, forward planar and bridge columns equal the dense
        marcher's, and consecutive columns never share memory (consumers keep
        them)."""
        grid = _weight_grid(1.0, 2.0, 0.1)
        cols = [col for _, col in _march(first_chunk_rng(9), grid, start, end)]
        ref = [col for _, col in dense_march(first_chunk_rng(9), grid, start, end)]
        assert len(cols) == len(ref) == len(grid)
        assert all(np.array_equal(c, r) for c, r in zip(cols, ref))
        assert not any(np.shares_memory(p, c) for p, c in zip(cols, cols[1:]))


class TestTotalMass:
    def test_degenerate_and_beta_zero(self):
        assert estimate_total_mass(4.0, 4.0, 0.0, P11, 1000, 0.1, seed=1).value == 1.0
        # beta = 0 reaches no estimator: the model rejects it, and so do the
        # mass and gtilde operations when they parse their parameters
        with pytest.raises(ConfigurationError, match="beta"):
            ModelParams(alpha=1.0, beta=0.0, rate_family=RateFamily.POW_CLAMP)
        for name in ("mass", "gtilde"):
            with pytest.raises(ConfigurationError):
                REGISTRY[name].parameters["beta"].parse(0)

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
                                      f=envelope_f(env, branch))
            assert 0.0 <= est.value <= 1.0
            assert est.stderr > 0.0

    def test_seed_determinism(self):
        a = estimate_total_mass(4.0, 16.0, 0.0, P11, 5000, 0.1, seed=7)
        b = estimate_total_mass(4.0, 16.0, 0.0, P11, 5000, 0.1, seed=7)
        assert a == b

    def test_monotone_in_f_pathwise(self):
        env = make_envelope(1.0, 1.0, 1.0, 1.0)
        plus = estimate_total_mass(4.0, 16.0, 0.0, P11, 5000, 0.1, seed=7, f=env.f_plus)
        zero = estimate_total_mass(4.0, 16.0, 0.0, P11, 5000, 0.1, seed=7)
        minus = estimate_total_mass(4.0, 16.0, 0.0, P11, 5000, 0.1, seed=7, f=env.f_minus)
        assert plus.value <= zero.value <= minus.value

    def test_alpha2_closed_form(self):
        """At alpha = 2 and x = 0, log E = T/4 - log(cosh gT + sinh gT/(2g))/2
        with T = log(t/s) and g = sqrt(1/4 + beta), since B_r/sqrt(r) is an
        Ornstein-Uhlenbeck process in log r.  The smooth weight takes the
        plain trapezoid; zero-crossing midpoints read high here (z near 12
        at a million samples)."""
        s, t, beta = 1.0, 8.0, 3.0
        est = estimate_total_mass(s, t, 0.0, ModelParams(alpha=2.0, beta=beta), 200_000, 0.1,
                                  seed=42)
        T, g = math.log(t / s), math.sqrt(0.25 + beta)
        exact = T / 4.0 - 0.5 * math.log(math.cosh(g * T) + math.sinh(g * T) / (2.0 * g))
        assert abs(math.log(est.value) - exact) <= 3.0 * est.stderr / est.value

    def test_step_halving_consistency(self):
        a = estimate_total_mass(16.0, 64.0, 0.0, P11, 20000, 0.1, seed=5)
        b = estimate_total_mass(16.0, 64.0, 0.0, P11, 20000, 0.05, seed=5)
        assert abs(a.value - b.value) < 2.0 * (a.stderr + b.stderr)


class TestGatheredMidpoints:
    @pytest.mark.parametrize("alpha, branch, midpoints", [
        (0.5, "zero", True), (1.5, "zero", True), (2.0, "zero", False), (3.0, "zero", False),
        (2.0, "plus", True), (3.0, "minus", True)])
    def test_midpoints_only_at_a_kink(self, alpha, branch, midpoints):
        env = make_envelope(1.0, 1.0, 1.0, alpha)
        assert _kernel_weight(alpha, envelope_f(env, branch))[1] is midpoints

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("branch", ["zero", "plus", "minus"])
    @pytest.mark.parametrize("end", [None, -0.2])
    def test_as_dense_where_rule(self, alpha, branch, end):
        """Midpoints taken on the crossing paths only equal the dense
        np.where rule bit for bit, forward and bridge, with and without an
        envelope."""
        weight, midpoints = _kernel_weight(alpha, envelope_f(make_envelope(
            1.0, 1.0, 1.0, alpha), branch))
        grid = _weight_grid(1.0, 2.0, 0.02)
        gathered, dense = _Trapezoid(grid, weight, midpoints), DenseTrapezoid(grid, weight)
        crossings = 0
        for j, col in _march(first_chunk_rng(5), grid, np.full(2_000, 0.1), end):
            if j:
                crossings += int(np.sum(gathered.prev * col < 0.0))
            gathered.add(j, col)
            dense.add(j, col)
        assert crossings > 1_000
        assert np.array_equal(gathered.total, dense.total)


class TestGtilde:
    def test_below_free_density(self):
        est = estimate_gtilde(4.0, 0.0, 16.0, 0.5, P11, 500, 0.1, seed=1)
        free = math.exp(-0.25 / 24.0) / math.sqrt(2 * math.pi * 12.0)
        assert est.value < free

    def test_monotone_in_f(self):
        env = make_envelope(1.0, 1.0, 1.0, 1.0)
        plus = estimate_gtilde(4.0, 0.0, 16.0, 0.5, P11, 4000, 0.1, seed=9, f=env.f_plus)
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
        for beta in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="beta"):
                alpha2_exponent_fit(beta, [2.0, 4.0], 64.0, 1000, 0.1, seed=1)

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

    @settings(max_examples=40, deadline=None)
    @given(x_gap=GAP, y_gap=GAP, K=st.floats(-1.0, 2.0), t=st.floats(0.05, 2.0),
           step=st.floats(1e-3, 1.0), seed=st.integers(0, 2**31))
    @example(x_gap=5e-4, y_gap=0.3, K=1.0, t=1.0, step=0.01, seed=1)
    @example(x_gap=1.0, y_gap=1e-4, K=1.0, t=1.0, step=1e-3, seed=2)
    def test_matches_dense(self, x_gap, y_gap, K, t, step, seed):
        """The gathered crossing correction equals the dense one exactly,
        endpoints just below K included."""
        assert_barrier_as_dense(K - x_gap, t, K - y_gap, K, step, seed)

    @pytest.mark.parametrize("K, step, share", [(1.0, 0.5, 1.0), (3.0, 1e-3, 0.0)])
    def test_matches_dense_at_both_extremes(self, K, step, share):
        """A coarse step where the correction is taken on every step of
        the paths below K, and a fine one where it is taken on none."""
        grid, paths = marched_paths(4, 200, 0.0, 1.0, 0.0, step, end=0.0)
        clear = paths[(paths < K).all(axis=1)]
        near = (K - clear[:, :-1]) * (K - clear[:, 1:]) < 400.0 * (grid[1] - grid[0])
        assert near.mean() == share
        assert_barrier_as_dense(0.0, 1.0, 0.0, K, step, 4)


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

    def test_density_against_mpmath(self):
        # r0 = z = sqrt(u s) puts the Bessel argument r0 z / s at u and keeps
        # the density of order one; u runs across 20, where a series and an
        # asymptotic form would meet
        import mpmath as mp

        s = 1.5
        for u in (0.5, 3.0, 19.0, 19.99, 20.0, 20.01, 25.0, 40.0, 100.0, 1000.0):
            r0 = z = math.sqrt(u * s)
            with mp.workdps(40):
                want = float(z / s * mp.exp(-(r0 ** 2 + z ** 2) / (2 * s)) * mp.besseli(0, u))
            assert bessel_density(r0, s, z) == pytest.approx(want, rel=1e-12)

    def test_no_overflow_large_argument(self):
        val = bessel_density(300.0, 1.0, 300.0)
        assert np.isfinite(val) and val > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_density(1.0, -1.0, 2.0)
        with pytest.raises(DomainError):
            bessel_density(1.0, 1.0, -2.0)
