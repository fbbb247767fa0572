import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, solve_banded

from bbmlab.errors import DomainError, NumericalFailure
from bbmlab.pde import (
    BarrierPair,
    PdeGrids,
    PiecewiseQ,
    build_barriers,
    cross_validate_galerkin,
    default_epsilons,
    evolve_coefficients,
    fundamental_solution_g,
    galerkin_matrices,
    gaussian_on_grid,
    initial_coefficients,
    kernel_G_from_g,
    rho_for_kernel,
    solve_pde,
)
from bbmlab.spectral import _solve_tridiagonal

from oracles import hermite_mixing_entry

FAST = PdeGrids(x_max=8.0, dx=1.0 / 128.0, cfl_pot=0.02)


class TestTimeCoefficient:
    def test_integral_helper(self):
        # closed form (1 - (1-T)^{1-kappa}) / (1-kappa)
        T, kap = 0.5, 2.0 / 3.0
        val = PiecewiseQ.singular(kap, T).integral_pow(1.0, 0.0, T)
        assert val == pytest.approx(3.0 * (1 - 0.5 ** (1 / 3)), rel=1e-14)

    def test_piecewise_integral_matches_quadrature(self):
        pair = build_barriers(0.5, 0.03, 0.02, 1.3)
        from scipy.integrate import quad

        for qq in (pair.q_star, pair.q_upper):
            val = qq.integral_pow(0.6, 0.0, 0.5)
            ref, _ = quad(lambda t: qq.value(t) ** 0.6, 0.0, 0.5, limit=200,
                          points=qq.breakpoints())
            assert val == pytest.approx(ref, rel=1e-9)

    def test_time_steps_bound_singular_coefficient(self):
        # q(t) dt stays below cfl/rho all the way to T
        from bbmlab.pde import _time_steps

        q = PiecewiseQ.singular(1.0, 0.9)
        grids = PdeGrids(cfl_pot=0.05, dt_max=0.1)
        steps = _time_steps(50.0, 0.9, q, grids)
        t = np.concatenate([[0.0], np.cumsum(steps)])[:-1]
        assert np.all(q.value(t) * steps <= 0.05 / 50.0 + 1e-12)
        assert abs(t[-1] + steps[-1] - 0.9) < 1e-12


class TestBarriers:
    def test_constraint_violations_named(self):
        with pytest.raises(DomainError, match="eps1"):
            build_barriers(0.5, 0.08, 0.02, 1.0)
        with pytest.raises(DomainError, match="eps2 <= \\(1-T\\)/10"):
            build_barriers(0.8, 0.01, 0.03, 1.0)

    def test_endpoint_values(self):
        pair = build_barriers(0.5, 0.03, 0.02, 1.0)
        assert pair.q_star.value(0.0) == 1.0
        assert pair.q_upper.value(0.5) == pytest.approx(2.0, rel=1e-14)
        # equal to the singular coefficient in the middle
        assert pair.q_star.value(0.25) == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert pair.q_upper.value(0.25) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_sandwich_on_grid(self):
        pair = build_barriers(0.5, 0.03, 0.02, 1.0)
        lo, hi = pair.sandwich_margins()
        assert lo <= 1e-12 and hi <= 1e-12

    def test_constant_plateaus(self):
        pair = build_barriers(0.5, 0.03, 0.02, 1.0)
        for qq in (pair.q_star, pair.q_upper):
            assert qq.value(0.005) == qq.value(0.025)
            assert qq.value(0.485) == qq.value(0.499)

    def test_ratio_bounds(self):
        T, e1, e2, a = 0.5, 0.03, 0.02, 1.0
        pair = build_barriers(T, e1, e2, a)
        t = np.linspace(0.0, T, 10_000)
        target = (1 - t) ** (-a)
        rs = pair.q_star.value(t) / target
        ru = pair.q_upper.value(t) / target
        early = t <= 2 * e1
        late = t >= T - 2 * e2
        assert np.all(rs[early] >= 1 - 4 * e1 - 1e-12)
        assert np.all(ru[early] <= 1 + 3 * e1 + 1e-12)
        assert np.all(rs[late] >= 1 - 2 * e2 / (1 - T) - 1e-12)
        assert np.all(ru[late] <= 1 + 5 * e2 / (1 - T) + 1e-12)
        assert np.all(rs >= 0.5) and np.all(ru <= 2.0)


class TestSolver:
    def test_pure_diffusion_conserves_mass(self):
        fld = solve_pde(lambda x: gaussian_on_grid(x, 0.0, 0.3), rho=2.0, alpha=1.0,
                        T=0.3, grids=PdeGrids(x_max=10.0, dx=1 / 64), potential_off=True)
        m = fld.mass()
        assert abs(m[-1] - m[0]) / m[0] < 1e-10

    def test_positivity_and_mass_decrease(self):
        fld = solve_pde(lambda x: gaussian_on_grid(x, 0.5, 0.1), rho=10.0, alpha=1.0,
                        T=0.4, grids=FAST)
        m = fld.mass()
        assert np.all(np.diff(m) <= 1e-12 * m[0])
        assert fld.values.min() >= -fld.diagnostics["positivity_floor"] * fld.values.max()

    def test_resource_error(self):
        tiny = PdeGrids(x_max=4.0, dx=1 / 32, max_steps=50)
        with pytest.raises(NumericalFailure, match="reduce T"):
            solve_pde(lambda x: gaussian_on_grid(x, 0.0, 0.2), rho=500.0, alpha=1.0,
                      T=0.9, grids=tiny)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            solve_pde(lambda x: gaussian_on_grid(x, 0.0, 0.2), 1.0, 1.0, T=1.2, grids=FAST)

    def test_product_form_small(self, sys_a1_small):
        # scaled-down version of the headline check: rho=100, T=0.5
        g = fundamental_solution_g(0.0, 0.5, 100.0, 1.0, FAST, gauge_lambda0="discrete")
        kap = 2.0 / 3.0
        pred = float(sys_a1_small.phi(0, 0.0)) * 0.5 ** (-kap / 4) * float(sys_a1_small.phi(0, 0.0))
        assert g.renormalized(0.0) == pytest.approx(pred, rel=5e-3)

    def test_grid_convergence(self):
        # halving both steps moves g(0) by less than 10x the claimed accuracy
        vals = []
        for dx, cfl in ((1 / 64, 0.04), (1 / 128, 0.02)):
            grids = PdeGrids(x_max=8.0, dx=dx, cfl_pot=cfl)
            vals.append(fundamental_solution_g(0.3, 0.4, 30.0, 1.0, grids)(0.0))
        assert abs(vals[1] - vals[0]) / vals[1] < 10 * FAST.claimed_accuracy

    def test_dirac_width_convergence(self):
        # g(0) from initial Gaussians of width 2 dx and dx moves by < 0.5%
        vals = []
        for width in (2.0 * FAST.dx, FAST.dx):
            fld = solve_pde(lambda x: gaussian_on_grid(x, 0.2, width), 20.0, 1.0, 0.3, FAST)
            vals.append(float(np.interp(0.0, fld.space_grid, fld.final())))
        assert abs(vals[1] - vals[0]) / vals[1] < 5e-3


class TestFundamentalSolution:
    def test_mass_at_most_one(self):
        g = fundamental_solution_g(0.3, 0.4, 50.0, 1.0, FAST)
        assert g.integral() <= 1.0 + 1e-9

    def test_even_symmetry_for_centered_source(self):
        g = fundamental_solution_g(0.0, 0.4, 30.0, 1.0, FAST)
        f = g.field.final()
        assert np.abs(f - f[::-1]).max() <= 1e-12 * f.max()

    def test_comparison_sandwich(self):
        pair = build_barriers(0.4, 0.02, 0.015, 1.0)
        out = {}
        for name, qq in (("true", None), ("star", pair.q_star), ("upper", pair.q_upper)):
            out[name] = fundamental_solution_g(0.3, 0.4, 50.0, 1.0, FAST, q=qq).field.final()
        slack = 1e-8 * out["true"].max()
        assert np.all(out["upper"] <= out["true"] + slack)
        assert np.all(out["true"] <= out["star"] + slack)


class TestKernelScaling:
    def test_rho_formula(self):
        # rho = beta^{2/(2+a)} 2^{-2a/(2+a)} t^{1-kappa}
        assert rho_for_kernel(16.0, 1.0, 1.0) == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-14)

    def test_beta_zero_limit_gaussian(self):
        G0 = kernel_G_from_g(4.0, 0.0, 16.0, 0.5, 1.0, 1.0, grids=FAST, potential_off=True)
        gauss = math.exp(-0.25 / 24.0) / math.sqrt(2 * math.pi * 12.0)
        assert G0 == pytest.approx(gauss, rel=2e-4)

    def test_sign_symmetry(self):
        Ga = kernel_G_from_g(4.0, 0.3, 16.0, 0.5, 1.0, 1.0, grids=FAST)
        Gb = kernel_G_from_g(4.0, -0.3, 16.0, -0.5, 1.0, 1.0, grids=FAST)
        assert Ga == pytest.approx(Gb, rel=1e-12)

    def test_validates_order(self):
        with pytest.raises(DomainError):
            kernel_G_from_g(16.0, 0.0, 4.0, 0.0, 1.0, 1.0, grids=FAST)


class TestGalerkin:
    def test_matrices_alpha2(self, sys_a2):
        d_mat, a_mat, defect = galerkin_matrices(sys_a2, 5)
        assert defect < 1e-8
        assert d_mat[0, 0] == 0.0
        assert np.allclose(np.diag(d_mat), 2.0 * np.arange(5), atol=1e-5)
        # opposite parity entries vanish identically
        assert a_mat[0, 1] == 0.0 and a_mat[1, 2] == 0.0
        # same-parity entry against the analytic Hermite oracle
        assert a_mat[0, 2] == pytest.approx(-math.sqrt(2.0) / 8.0, abs=1e-7)
        assert a_mat[0, 2] == pytest.approx(hermite_mixing_entry(0, 2), abs=1e-6)
        # antisymmetry
        assert np.abs(a_mat + a_mat.T).max() < 1e-15

    def test_constant_q_closed_form(self, sys_a1):
        n = 6
        d_mat, a_mat, _ = galerkin_matrices(sys_a1, n)
        q = PiecewiseQ.constant(1.0, 0.3)
        c0 = initial_coefficients(sys_a1, 1.0, 0.5, n)
        path = evolve_coefficients(c0, q, 10.0, d_mat, a_mat, 1.0)
        lam = sys_a1.eigenvalues
        assert path.coefficients[-1, 0] == c0[0]  # exactly constant
        expect = c0[1] * math.exp(-10.0 * (lam[1] - lam[0]) * 0.3)
        assert path.coefficients[-1, 1] == pytest.approx(expect, rel=1e-8)

    def test_zero_mixing_scalar_decay(self, sys_a1):
        # with A zeroed every mode decays by exp(-rho (lam_n - lam_0) int q^{2/3})
        n = 5
        d_mat, a_mat, _ = galerkin_matrices(sys_a1, n)
        pair = build_barriers(0.4, 0.02, 0.015, 1.0)
        c0 = initial_coefficients(sys_a1, 1.0, 0.4, n)
        path = evolve_coefficients(c0, pair.q_star, 15.0, d_mat, np.zeros_like(a_mat), 1.0)
        from scipy.integrate import quad

        integral, _ = quad(lambda t: pair.q_star.value(t) ** (2.0 / 3.0), 0.0, 0.4,
                           points=pair.q_star.breakpoints(), limit=200)
        lam = sys_a1.eigenvalues
        for n_i in range(n):
            expect = c0[n_i] * math.exp(-15.0 * (lam[n_i] - lam[0]) * integral)
            assert path.coefficients[-1, n_i] == pytest.approx(expect, rel=1e-7)

    def test_norm_monotone(self, sys_a1):
        n = 8
        d_mat, a_mat, _ = galerkin_matrices(sys_a1, n)
        pair = build_barriers(0.5, 0.03, 0.02, 1.0)
        for qq in (pair.q_star, pair.q_upper):
            c0 = initial_coefficients(sys_a1, qq.value(0.0), 0.7, n)
            path = evolve_coefficients(c0, qq, 30.0, d_mat, a_mat, 1.0)
            norms = path.norms()
            assert np.all(np.diff(norms) <= 1e-10 * norms[0])

    def test_cross_validation_fast(self, sys_a1):
        res = cross_validate_galerkin(sys_a1, 60.0, 0.4, 1.0, xi=0.0, n_modes=16,
                                      grids=FAST)
        assert res["rel_l2"] < 0.02

    def test_needs_enough_levels(self, sys_a1_small):
        with pytest.raises(DomainError):
            galerkin_matrices(sys_a1_small, 10)


class TestC0Stability:
    def test_ladder(self, sys_a1):
        # |c_0(T) - c_0(0)| under the q_* barrier falls like 1/rho
        T, alpha, xi, n = 0.5, 1.0, 0.5, 12
        d_mat, a_mat, _ = galerkin_matrices(sys_a1, n)
        rhos, devs = [50.0, 100.0, 200.0], []
        for rho in rhos:
            _, eps1, eps2 = default_epsilons(rho, T, 2.0 * alpha / (2.0 + alpha))
            q_star = build_barriers(T, eps1, eps2, alpha).q_star
            c0 = initial_coefficients(sys_a1, q_star.value(0.0), xi, n)
            path = evolve_coefficients(c0, q_star, rho, d_mat, a_mat, alpha)
            devs.append(abs(path.coefficients[-1, 0] - c0[0]))
        for a, b in zip(devs, devs[1:]):
            assert 0.3 <= b / a <= 0.8
        assert np.polyfit(np.log(rhos), np.log(devs), 1)[0] == pytest.approx(-1.0, abs=0.25)

    def test_epsilon_algebra(self):
        rho, T, kap = 100.0, 0.5, 2.0 / 3.0
        delta, eps1, eps2 = default_epsilons(rho, T, kap)
        assert rho * eps1 ** 2 == pytest.approx(delta, rel=1e-12)
        assert eps2 == pytest.approx((1 - T) * math.sqrt(delta / (rho * (1 - T) ** (1 - kap))), rel=1e-12)

    def test_constant_q_zero_deviation(self, sys_a1):
        n = 6
        d_mat, a_mat, _ = galerkin_matrices(sys_a1, n)
        q = PiecewiseQ.constant(2.0, 0.4)
        c0 = initial_coefficients(sys_a1, 2.0, 0.3, n)
        path = evolve_coefficients(c0, q, 80.0, d_mat, a_mat, 1.0)
        assert path.coefficients[-1, 0] == c0[0]

    def test_preconditions(self):
        # below the ladder (T < 20/rho) the default epsilons are inadmissible
        _, eps1, eps2 = default_epsilons(10.0, 0.5, 2.0 / 3.0)
        with pytest.raises(DomainError, match="eps1 <= T/10"):
            build_barriers(0.5, eps1, eps2, 1.0)


class TestExports:
    def test_field_round_trip(self, tmp_path):
        fld = solve_pde(lambda x: gaussian_on_grid(x, 0.0, 0.2), 5.0, 1.0, 0.3,
                        grids=PdeGrids(x_max=4.0, dx=1 / 32))
        fld.export_csv(tmp_path / "f.csv")
        fld.export_json(tmp_path / "f.json")
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert lines[0].startswith("t,u_0")
        assert len(lines) == len(fld.time_grid) + 1


PIN_GRIDS = PdeGrids(x_max=6.0, dx=1.0 / 32.0, cfl_pot=0.02)
LAMBDA0_A1 = 1.018792971647471  # |a'_1|, the alpha = 1 ground level


def _q_star(rho, T, alpha):
    _, eps1, eps2 = default_epsilons(rho, T, 2.0 * alpha / (2.0 + alpha))
    return build_barriers(T, eps1, eps2, alpha).q_star


PINNED_SOLVES = {
    "ungauged": (
        lambda: fundamental_solution_g(0.3, 0.5, 20.0, 1.3, PIN_GRIDS),
        "1a29ff001329a4483344ba83c3a813026034e74a4342374a446804ebe2ca0533"),
    "discrete_gauge": (
        lambda: fundamental_solution_g(0.0, 0.5, 40.0, 1.0, PIN_GRIDS,
                                       gauge_lambda0="discrete"),
        "40916292b573758f266b3422a8983be78f2568130a9ff154f424e98d4efcccf0"),
    "lambda0_gauge_q_star": (
        lambda: fundamental_solution_g(0.5, 0.5, 40.0, 1.0, PIN_GRIDS,
                                       q=_q_star(40.0, 0.5, 1.0), gauge_lambda0=LAMBDA0_A1),
        "452b27449dea073771060a3f32ffe2460e5ff6b235c7d2db8462c347535c02a6"),
    "potential_off": (
        lambda: fundamental_solution_g(0.0, 0.3, 2.0, 1.0, PIN_GRIDS, potential_off=True),
        "9859d6633af0edeb43eaa9703cdfeee0d816429e59966862a96599f3e1adddee"),
}


@pytest.mark.parametrize("name", sorted(PINNED_SOLVES))
def test_pinned_solve(name):
    """sha256 over the bytes of `values` and `time_grid`, repr(log_gauge) and
    the diagnostics, taken before the stepping loop moved onto dgtsv with
    precomputed stage coefficients, which must leave every bit as it was.
    Recorded with numpy 2.4 and scipy 1.17 on x86-64; a libm that rounds
    `pow` or `log` differently in the last bit may need them re-taken from a
    tree that predates that change."""
    make, expected = PINNED_SOLVES[name]
    fld = make().field
    h = hashlib.sha256(fld.values.tobytes())
    h.update(fld.time_grid.tobytes())
    h.update(repr(fld.log_gauge).encode())
    h.update(repr(sorted(fld.diagnostics.items())).encode())
    assert h.hexdigest() == expected


def _tridiagonal(n, seed, kind):
    """(dl, d, du, b): diagonally dominant, or a shifted indefinite band
    whose factorization pivots."""
    rng = np.random.default_rng(seed)
    dl, du = rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n - 1)
    if kind == "dominant":
        d = (2.0 + rng.uniform(0.0, 1.0, n)) * rng.choice([-1.0, 1.0], n)
    else:
        d = rng.uniform(-0.5, 0.5, n) - rng.uniform(-2.0, 2.0)
    return dl, d, du, rng.normal(size=n)


class TestTridiagonalSolve:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 300), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["dominant", "indefinite"]))
    def test_equals_solve_banded(self, n, seed, kind):
        dl, d, du, b = _tridiagonal(n, seed, kind)
        ab = np.zeros((3, n))
        ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
        ref = solve_banded((1, 1), ab, b)
        got = _solve_tridiagonal(dl.copy(), d.copy(), du.copy(), b.copy())
        assert got.tobytes() == ref.tobytes()

    def test_singular_raises(self):
        # the first column is zero
        dl, d, du = np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0])
        with pytest.raises(LinAlgError):
            _solve_tridiagonal(dl, d, du, np.ones(3))

