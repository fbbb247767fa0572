import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgError, eigh_tridiagonal
from scipy.linalg.lapack import dstebz

from bbmlab import spectral
from bbmlab.errors import DomainError, NumericalFailure
from bbmlab.spectral import (
    _eigenvector,
    _lowest_eigenvalues,
    _parity_tridiag,
    _stebz,
    derivative,
    fit_tail_constant,
    rescale_to_q,
    residual_norms,
    solve_spectrum,
    weyl_check,
    weyl_constant,
    weyl_lambda,
)

from oracles import airy_level_oracle, hermite_function, weyl_constant_quadrature

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

    def test_harmonic_levels_are_hermite_functions(self):
        # every level of the alpha = 2 solve, against the normalized Hermite
        # functions (sign: positive past the largest zero, as both are)
        sys_ = solve_spectrum(2.0, 12)
        x = sys_.grid[sys_.grid < 8.0]
        for n in range(sys_.n_levels):
            assert np.abs(sys_.phi(n, x) - hermite_function(n, x)).max() < 5e-6

    def test_airy_levels(self, sys_a1_small):
        assert np.allclose(sys_a1_small.eigenvalues[:3], AIRY_LEVELS, atol=1e-5)

    def test_tail_envelope_alpha1(self, sys_a1_small):
        # |phi_0(x)| <= C exp(-(2/3) x^{3/2} (1 - delta)) for x >= 10
        g = sys_a1_small.grid
        region = (g >= 10.0) & (g <= 14.0)
        bound = np.exp(-(2.0 / 3.0) * g[region] ** 1.5 * 0.9)
        assert np.all(np.abs(sys_a1_small.eigenfunctions[0][region]) <= bound)


def _assert_orthonormal(sys_):
    # full-line <phi_i, phi_j> by the midpoint rule on the half-line grid;
    # levels of opposite parity are orthogonal by symmetry
    n = sys_.n_levels
    f = sys_.eigenfunctions
    gram = 2.0 * sys_.h_grid * (f @ f.T)
    for i in range(n):
        for j in range(i % 2, n, 2):
            want = 1.0 if i == j else 0.0
            tol = 1e-8 if i == j else 1e-6
            assert abs(gram[i, j] - want) < tol


def _assert_parity_and_sign_changes(sys_):
    # level n changes sign exactly n times on the full line
    for n in range(sys_.n_levels):
        f = sys_.eigenfunctions[n]
        mask = np.abs(f) > 1e-8 * np.abs(f).max()
        half = np.count_nonzero(np.diff(np.sign(f[mask])) != 0)
        full = 2 * half + (1 if n % 2 == 1 else 0)
        assert full == n
        # positive past the largest zero
        assert f[mask][-1] > 0


class TestStructure:
    def test_positive_increasing(self, sys_a1):
        lam = sys_a1.eigenvalues
        assert lam[0] > 0 and np.all(np.diff(lam) > 0)

    def test_orthonormality(self, sys_a1_small):
        _assert_orthonormal(sys_a1_small)

    def test_parity_and_sign_changes(self, sys_a1_small):
        _assert_parity_and_sign_changes(sys_a1_small)

    @pytest.mark.parametrize("alpha, n_max", [(0.8, 12), (1.5, 12), (1.0, 41)])
    def test_orthonormality_and_sign_changes_across_alpha(self, alpha, n_max):
        sys_ = solve_spectrum(alpha, n_max)
        _assert_orthonormal(sys_)
        _assert_parity_and_sign_changes(sys_)

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

    def test_constant_matches_quadrature(self):
        # the Beta-function closed form against a 30-digit quadrature
        for a in (0.05, 0.1, 0.3, 0.8, 1.0, 2.0, 5.0, 100.0):
            expect = weyl_constant_quadrature(a)
            assert weyl_constant(a) == pytest.approx(expect, rel=5e-15, abs=0.0)

    def test_constant_finite_for_small_alpha(self):
        # Gamma(1 + 1/alpha) alone overflows past 1/alpha ~ 171
        for a in (1e-3, 1e-9):
            c = weyl_constant(a)
            assert 0.0 < c < 1.0 and math.isfinite(c)
        assert weyl_constant(1e-3) == pytest.approx(weyl_constant_quadrature(1e-3), rel=1e-12)

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


# sha256 of the float64 bytes of each array, recorded with numpy 2.4 and
# scipy 1.17 on x86-64.  The eigenvalue, error-estimate and discrete-eigenvalue
# digests date from before the parity classes were bisected concurrently
# through the ctypes binding; the eigenfunction digests were re-taken when the
# eigenvectors became two inverse-iteration sweeps from the constant vector
# (max |change| 3.7e-12, at alpha = 0.8).
PINNED_SPECTRA = {
    "alpha2-n3": ((2.0, 3), {}, {
        "eigenvalues": "f57367224103bc870b962fb4f630d3e265b4b7c4b66100715b811b1ad6441ece",
        "eigenfunctions": "f5a019f0561706df491457dbb892e7d13d938c545511bc54537ec8183eaaf869",
        "error_estimates": "085106e45582ca4b3f5bae474050ea806f9c1c5885b76b2fa79b6e0b2492eeeb",
        "discrete_eigenvalues": "314494266912bbfe0f9aa6ba9347ad1674620a314b6ad02c2ac344d43404003b"}),
    "alpha1-n5-q0.5": ((1.0, 5), {"q": 0.5}, {
        "eigenvalues": "9207232464fd2d21e2e0b0d65def66ace6f1d945ebf8761457b11fb276f00e22",
        "eigenfunctions": "f5ab1098168cbc0eae6df582523aa39b6bf9fe1daf624d541c12d91cee246494",
        "error_estimates": "db69f292b5d135d8cc396c928841982270f74a2996d2fe1e9c897f6a6c0b31ec",
        "discrete_eigenvalues": "9d4af5ac621e458afaefc558e2c01cc3fbe81760487fca33782940a2b4ef982e"}),
    "alpha1-n26-acc1e-7": ((1.0, 26), {"accuracy": 1e-7}, {
        "eigenvalues": "9f3c55dc20e0dc4cba745c583f4db6e4b8e3c4317a165c3912a19829c1272637",
        "eigenfunctions": "6df26da518c8891adf3504e3e47d976cc3bd606f120b258657e2e1f20c4362ff",
        "error_estimates": "9be07c98a6b9ec7e2013f79a327182e45e963bb6855a0d08335285fcfd499ccc",
        "discrete_eigenvalues": "8ddf3844aab07a6a116087a034074c04bb7875e778227500d974c1718582964c"}),
    "alpha0.8-n12": ((0.8, 12), {}, {
        "eigenvalues": "88a7d6b5c5b34c8a3a1a273702a7038180f332ed43dfb675d639de20e29ce755",
        "eigenfunctions": "9bc6b76cf42946f96e5223d8ad95c2b3241ebdfd9fb71e5a65644ac311f04755",
        "error_estimates": "ddcdbcde24d28ce7abb2a394d4c3fc7005d9680657f15b9c7e9121c5bc4c9129",
        "discrete_eigenvalues": "f766d357d707f5a1565ae279d89c5586499dae107ca442c909cc93d71ba8ef5d"}),
    # one level: the odd class keeps none
    "alpha1-n1": ((1.0, 1), {}, {
        "eigenvalues": "524b266a851c75b25f9e429f4dbd996c48efb2daaee7df1f90ff8b2001539797",
        "eigenfunctions": "c1b8122446e186c902e38ea4461d2c0d64b7dcf3529860100c02bf20549c0f69",
        "error_estimates": "875b6764aec12bcf35e71541b997e2dfa5f40eef1242be57848c2e86b0b7cb0d",
        "discrete_eigenvalues": "06009256cb3e4a2a454cc59e74dcb09187ca4381560368a08053e03169b5f352"}),
}


@pytest.mark.parametrize("name", sorted(PINNED_SPECTRA))
def test_pinned_spectrum(name):
    args, kwargs, expected = PINNED_SPECTRA[name]
    sys_ = solve_spectrum(*args, **kwargs)
    got = {field: hashlib.sha256(np.ascontiguousarray(getattr(sys_, field), dtype="<f8")
                                 .tobytes()).hexdigest() for field in expected}
    assert got == expected


def _symmetric_tridiagonal(n, seed, split):
    """Random (d, e); a fraction `split` of the off-diagonal is zeroed, so
    the matrix falls into blocks."""
    rng = np.random.default_rng(seed)
    d, e = rng.normal(size=n), rng.normal(size=n - 1)
    e[rng.random(n - 1) < split] = 0.0
    return d, e


class TestLapackBinding:
    """dstebz called through ctypes against scipy's f2py wrapper of the same
    routine, with the arguments scipy's eigh_tridiagonal uses."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 300), st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 0.05]),
           st.data())
    def test_equals_f2py(self, n, seed, split, data):
        k = data.draw(st.integers(1, n))
        d, e = _symmetric_tridiagonal(n, seed, split)
        call, result = _stebz(d, e, k)
        call()
        w = result()
        m, w_ref, _, _, info = dstebz(d, e, 2, 0.0, 1.0, 1, k, 0.0, "B")
        assert info == 0 and m == len(w) == k
        assert w.tobytes() == w_ref[:m].tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 300), st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
    def test_lowest_eigenvalues_equal_eigh_tridiagonal(self, n, seed, k):
        d, e = _symmetric_tridiagonal(n, seed, 0.0)
        k = min(k, n)
        ref = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1), eigvals_only=True)
        assert _lowest_eigenvalues(d, e, k).tobytes() == ref.tobytes()

    def test_info_raises(self):
        # an index range past the matrix order, then more eigenvalues than rows
        d, e = np.ones(3), np.full(2, 0.5)
        with pytest.raises(NumericalFailure, match="dstebz"):
            _lowest_eigenvalues(d, e, 4)

    def test_concurrent_solves_agree(self):
        # solves on more threads than cores, each with its own parity
        # worker, equal a solve run alone bit for bit
        import sys
        import threading

        want = solve_spectrum(1.0, 5)
        got = [None] * 4
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def run(i):
                got[i] = solve_spectrum(1.0, 5)
            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for sys_ in got:
            assert sys_.eigenvalues.tobytes() == want.eigenvalues.tobytes()
            assert sys_.eigenfunctions.tobytes() == want.eigenfunctions.tobytes()

    def test_shapes_checked(self):
        # pointers reach LAPACK only for arrays of the sizes it reads
        with pytest.raises(ValueError):
            _stebz(np.ones(3), np.ones(3), 1)
        with pytest.raises(ValueError):
            _stebz(np.ones((3, 1)), np.ones(2), 1)


class TestEigenvector:
    """The eigenvectors' one path: inverse iteration from the constant vector."""

    @pytest.mark.parametrize("even", [True, False])
    def test_equals_eigh_tridiagonal(self, even):
        # the lowest levels of one parity class, up to sign
        _, d, e = _parity_tridiag(1.0, 1.0 / 64.0, 30.0, even)
        w, z = eigh_tridiagonal(d, e, select="i", select_range=(0, 3))
        for lam, ref in zip(w, z.T):
            v = _eigenvector(d, e, lam)
            assert np.abs(np.abs(v @ ref) - 1.0) < 1e-12
            assert np.abs(v * np.sign(v @ ref) - ref).max() < 1e-9

    def test_singular_pivot_raises(self, monkeypatch):
        def singular(*args):
            raise LinAlgError("singular matrix")

        monkeypatch.setattr(spectral, "_solve_tridiagonal", singular)
        with pytest.raises(NumericalFailure, match="eigenvalue 1.5"):
            _eigenvector(np.full(3, 2.0), np.full(2, -1.0), 1.5)

    def test_points_budget(self):
        # one point over the budget is refused before anything is allocated
        x_max = (spectral.MAX_CLASS_POINTS + 1) / 256.0
        with pytest.raises(NumericalFailure, match="budget"):
            _parity_tridiag(1.0, 1.0 / 256.0, x_max, True)
