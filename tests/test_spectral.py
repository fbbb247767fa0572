import math

import numpy as np
import pytest

from bbmlab.errors import DomainError
from bbmlab.spectral import (
    derivative,
    fit_tail_constant,
    rescale_to_q,
    residual_norms,
    solve_spectrum,
    weyl_check,
    weyl_constant,
    weyl_lambda,
)

from oracles import airy_level_oracle, weyl_constant_closed_form

AIRY_LEVELS = np.array([1.0187929716474714, 2.338107410459767, 3.2481975821798366])


class TestGoldenValues:
    def test_airy_oracle_self_consistent(self):
        # recompute the frozen oracle values from scratch (mpmath bisection)
        assert np.allclose(airy_level_oracle(3), AIRY_LEVELS, atol=1e-12)

    def test_harmonic_oscillator_levels(self, sys_a2):
        assert np.allclose(sys_a2.eigenvalues[:3], [1.0, 3.0, 5.0], atol=1e-6)
        assert np.allclose(sys_a2.eigenvalues, 2 * np.arange(8) + 1.0, atol=1e-5)

    def test_harmonic_ground_state_shape(self, sys_a2):
        x = sys_a2.grid[sys_a2.grid < 6.0]
        exact = np.pi ** -0.25 * np.exp(-x * x / 2.0)
        assert np.abs(sys_a2.phi(0, x) - exact).max() < 1e-6
        assert sys_a2.phi(0, 0.0) == pytest.approx(0.751126, abs=1e-5)

    def test_airy_levels(self, sys_a1_small):
        assert np.allclose(sys_a1_small.eigenvalues[:3], AIRY_LEVELS, atol=1e-5)

    def test_tail_envelope_alpha1(self, sys_a1_small):
        # |phi_0(x)| <= C exp(-(2/3) x^{3/2} (1 - delta)) for x >= 10
        g = sys_a1_small.grid
        region = (g >= 10.0) & (g <= 14.0)
        bound = np.exp(-(2.0 / 3.0) * g[region] ** 1.5 * 0.9)
        assert np.all(np.abs(sys_a1_small.eigenfunctions[0][region]) <= bound)


class TestStructure:
    def test_positive_increasing(self, sys_a1):
        lam = sys_a1.eigenvalues
        assert lam[0] > 0 and np.all(np.diff(lam) > 0)

    def test_orthonormality(self, sys_a1_small):
        # full-line <phi_i, phi_j> by the midpoint rule on the half-line grid;
        # levels of opposite parity are orthogonal by symmetry
        n = sys_a1_small.n_levels
        f = sys_a1_small.eigenfunctions[:n]
        gram = 2.0 * sys_a1_small.h_grid * (f @ f.T)
        for i in range(n):
            for j in range(i % 2, n, 2):
                want = 1.0 if i == j else 0.0
                tol = 1e-8 if i == j else 1e-6
                assert abs(gram[i, j] - want) < tol

    def test_parity_and_sign_changes(self, sys_a1_small):
        # level n changes sign exactly n times on the full line
        for n in range(sys_a1_small.n_levels):
            f = sys_a1_small.eigenfunctions[n]
            mask = np.abs(f) > 1e-8 * np.abs(f).max()
            half = np.count_nonzero(np.diff(np.sign(f[mask])) != 0)
            full = 2 * half + (1 if n % 2 == 1 else 0)
            assert full == n
            # positive past the largest zero
            assert f[mask][-1] > 0

    def test_residuals(self, sys_a1_small):
        res = residual_norms(sys_a1_small)
        assert np.all(res <= 1e-8 * (1.0 + sys_a1_small.eigenvalues))

    def test_truncation_insensitive(self):
        # the analytic truncation error is < 1e-14 here; what this measures
        # in practice is the LAPACK bisection floor eps*||T|| ~ 4e-10
        a = solve_spectrum(1.0, 1)
        b = solve_spectrum(1.0, 1, x_max=2 * a.x_max)
        assert abs(a.eigenvalues[0] - b.eigenvalues[0]) < 1e-9

    def test_derivative_tail(self, sys_a1_small):
        d0 = derivative(sys_a1_small, 0)
        half = sys_a1_small.grid >= sys_a1_small.x_max / 2
        assert np.abs(d0[half]).max() < 1e-10

    def test_ground_state_convex_decreasing_past_turning_point(self, sys_a1_small):
        s = sys_a1_small
        tp = s.eigenvalues[0] ** (1.0 / s.alpha)
        f = s.eigenfunctions[0]
        reg = (s.grid >= tp) & (np.abs(f) > 1e-12)
        assert np.all(np.diff(f[reg]) < 1e-15)
        assert np.all(np.diff(f[reg], 2) > -1e-15)

    def test_tail_constant_fit(self, sys_a1_small):
        c = fit_tail_constant(sys_a1_small)
        assert 0.0 < c < 30.0
        # assert the envelope with the fitted constant thereafter
        p = (2.0 + 1.0) / 2.0
        xp = sys_a1_small.grid ** p
        for n in range(5):
            bound = (n + 1) ** 3 * np.exp(-(xp - c * n) / 3.0)
            region = (xp >= c * n + 20.0) & (bound >= 1e-11)
            assert np.all(np.abs(sys_a1_small.eigenfunctions[n][region]) <= bound[region])

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            solve_spectrum(-1.0, 3)
        with pytest.raises(DomainError):
            solve_spectrum(1.0, 0)


class TestScaling:
    def test_identity(self, sys_a1_small):
        assert rescale_to_q(sys_a1_small, 1.0) is sys_a1_small

    def test_harmonic_q16(self, sys_a2):
        r = rescale_to_q(sys_a2, 16.0)
        assert r.eigenvalues[0] == pytest.approx(4.0, rel=1e-8)

    def test_direct_vs_rescale(self, sys_a1_small):
        # independent oracle: dedicated discrete solve with potential q|x|
        from bbmlab.spectral import _interleave

        q = 5.0
        r = rescale_to_q(sys_a1_small, q)
        h, xm = 1.0 / 2048.0, sys_a1_small.x_max

        def direct(even, k):
            import scipy.linalg as sla

            n = int(round(xm / h))
            x = (np.arange(n) + 0.5) * h
            v = q * x ** 1.0
            d = 2.0 / h**2 + v
            d[0] = (1.0 if even else 3.0) / h**2 + v[0]
            off = np.full(n - 1, -1.0 / h**2)
            w, _ = sla.eigh_tridiagonal(d, off, select="i", select_range=(0, k - 1))
            return w

        coarse = _interleave(direct(True, 3), direct(False, 3))[:5]
        # second-order error of the direct solve itself limits agreement
        assert np.all(np.abs(coarse - r.eigenvalues) / r.eigenvalues < 1e-5)

    def test_scaling_law_tight(self, sys_a1_small):
        # 1e-8 relative against the exact transformation at q in {0.5, 5}
        for q in (0.5, 5.0):
            r = rescale_to_q(sys_a1_small, q)
            expect = q ** (2.0 / 3.0) * sys_a1_small.eigenvalues
            assert np.all(np.abs(r.eigenvalues - expect) <= 1e-8 * expect)

    def test_q_validation(self, sys_a1_small):
        with pytest.raises(DomainError):
            rescale_to_q(sys_a1_small, -2.0)


class TestWeyl:
    def test_constant_alpha2(self):
        assert weyl_constant(2.0) == pytest.approx(0.5, abs=1e-12)

    def test_constant_alpha1(self):
        assert weyl_constant(1.0) == pytest.approx(4.0 / (3.0 * math.pi), abs=1e-12)

    def test_constant_closed_form_cross_check(self):
        for a in (0.8, 1.3, 2.7, 5.0):
            assert weyl_constant(a) == pytest.approx(weyl_constant_closed_form(a), abs=1e-10)

    def test_large_alpha_limit(self):
        vals = [weyl_constant(a) for a in (5.0, 20.0, 100.0)]
        assert all(v < 2.0 / math.pi for v in vals)
        assert vals == sorted(vals)

    def test_alpha2_error_is_one_over_2n(self, sys_a2):
        rep = weyl_check(solve_spectrum(2.0, 21))
        for n in (5, 10):
            assert rep.error_at(n) == pytest.approx(1.0 / (2 * n), rel=2e-2)

    def test_needs_enough_levels(self, sys_a1_small):
        with pytest.raises(DomainError):
            weyl_check(sys_a1_small)

    def test_alpha1_n20_golden(self, sys_a1):
        rep = weyl_check(sys_a1)
        # golden regression value from a fine-grid solve of this module
        assert rep.error_at(20) < 0.02
        assert rep.decreasing_over([5, 10, 20])


class TestExports:
    def test_csv_json(self, sys_a1_small, tmp_path):
        csv = tmp_path / "eig.csv"
        js = tmp_path / "eig.json"
        sys_a1_small.export_csv(csv)
        sys_a1_small.export_json(js)
        head = csv.read_text().splitlines()[0]
        assert head.split(",")[:2] == ["x", "phi_0"]
        import json

        meta = json.loads(js.read_text())
        assert meta["alpha"] == 1.0 and len(meta["lambdas"]) == 5
