"""Eigenpairs of the line operator  L_q f = -f'' + q |x|^alpha f.

The spectrum is discrete, simple, positive, and splits by parity: even
levels satisfy f'(0) = 0, odd levels f(0) = 0.  We discretize each parity
class on a staggered half-line grid x_j = (j + 1/2) h (so the |x|^alpha
kink at the origin is never sampled), with a Dirichlet wall at x_max far
beyond the classical turning point.  Both reductions are symmetric
tridiagonal; eigenvalues come from LAPACK's tridiagonal solver and are
Richardson-extrapolated over the grid pair (h, h/2).

Only q = 1 is ever solved directly; other q follow from the exact scaling

    lambda_{q,n} = q^{2/(2+alpha)} lambda_n,
    phi_{q,n}(x) = q^{1/(2(2+alpha))} phi_n(q^{1/(2+alpha)} x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad
from scipy.linalg import LinAlgError, eigh_tridiagonal
from scipy.linalg.lapack import dgtsv

from .errors import DomainError, NumericalFailure
from .files import write_csv, write_json

DEFAULT_H = 1.0 / 256.0
DEFAULT_ACCURACY = 1e-8
MAX_REFINEMENTS = 3


@dataclass(frozen=True)
class EigenSystem:
    """Half-line samples of the first n_max eigenpairs at a fixed q.

    grid holds the staggered abscissae; eigenfunctions[n] is phi_n sampled
    there, normalized to unit full-line L2 norm and positive past its
    largest zero.  Full-line values follow from parity(n).
    """

    alpha: float
    q: float
    grid: np.ndarray
    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray  # shape (n_max, len(grid))
    error_estimates: np.ndarray
    h: float
    x_max: float
    # eigenvalues of the discrete operator on `grid` (pre-extrapolation);
    # these pair with the stored eigenvectors in residual checks
    discrete_eigenvalues: np.ndarray | None = None

    @property
    def n_levels(self) -> int:
        return len(self.eigenvalues)

    def parity(self, n: int) -> int:
        """+1 for even levels, -1 for odd ones."""
        return 1 if n % 2 == 0 else -1

    def phi(self, n, x):
        """Evaluate phi_n at arbitrary points by parity-aware interpolation.

        Linear interpolation on the stored grid; zero beyond x_max.
        """
        x = np.asarray(x, dtype=float)
        sgn = np.where(x < 0.0, float(self.parity(n)), 1.0)
        vals = np.interp(np.abs(x), self.grid, self.eigenfunctions[n], left=np.nan, right=0.0)
        # |x| below the first node: quadratic-free extension consistent
        # with parity (even: flat, odd: linear through 0).
        inner = np.abs(x) < self.grid[0]
        if np.any(inner):
            f0 = self.eigenfunctions[n][0]
            if self.parity(n) == 1:
                fill = np.full_like(np.asarray(x, dtype=float), f0)
            else:
                fill = f0 * np.abs(x) / self.grid[0]
            vals = np.where(inner, fill, vals)
        return sgn * vals

    @property
    def h_grid(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def export_csv(self, path):
        return write_csv(path, ["x"] + [f"phi_{n}" for n in range(self.n_levels)],
                         [self.grid, *self.eigenfunctions[:self.n_levels]])

    def export_json(self, path):
        return write_json(path, {
            "alpha": self.alpha,
            "q": self.q,
            "lambdas": [float(v) for v in self.eigenvalues],
            "grid": {"h": self.h_grid, "x_max": self.x_max, "points": int(len(self.grid))},
            "accuracy": {
                "solver_h": self.h,
                "error_estimates": [float(v) for v in self.error_estimates],
            },
        })


def weyl_constant(alpha: float) -> float:
    """c_alpha = (2/pi) * int_0^1 sqrt(1 - u^alpha) du.

    The substitution u = 1 - s^2 removes the square-root endpoint
    singularity, after which adaptive quadrature reaches ~1e-13.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")

    def integrand(s):
        return 2.0 * s * math.sqrt(max(1.0 - (1.0 - s * s) ** alpha, 0.0))

    val, err = quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    if err > 1e-10:
        raise NumericalFailure(f"weyl constant quadrature error {err:.2e}")
    return 2.0 / math.pi * val


def weyl_lambda(alpha: float, n) -> np.ndarray:
    """Leading Weyl growth (n / c_alpha)^{2 alpha/(alpha+2)}; degenerate at n=0."""
    c = weyl_constant(alpha)
    return (np.asarray(n, dtype=float) / c) ** (2.0 * alpha / (alpha + 2.0))


def _choose_x_max(alpha: float, n_max: int) -> float:
    """Truncation point: tail envelope below 1e-14 for the largest level.

    Uses the Weyl estimate for lambda_{n_max} with a safety margin; the
    envelope exponent is (x^{(2+alpha)/2} - b^{(2+alpha)/2})/(2+alpha)
    with b the outer turning point of 2*lambda.
    """
    lam_est = float(weyl_lambda(alpha, max(n_max + 2, 3))) * 1.3 + 5.0
    b = (2.0 * lam_est) ** (1.0 / alpha)
    p = (2.0 + alpha) / 2.0
    target = b ** p + (2.0 + alpha) * (14.0 * math.log(10.0) + 3.0)
    return max(30.0, target ** (1.0 / p))


def _parity_tridiag(alpha: float, h: float, x_max: float, even: bool, q: float = 1.0):
    """Half-line tridiagonal reduction on the staggered grid.

    Even levels use a mirror ghost (f(-h/2) = f(h/2)), odd levels an
    antisymmetric ghost (f(-h/2) = -f(h/2)); Dirichlet beyond x_max.
    """
    n = int(round(x_max / h))
    x = (np.arange(n) + 0.5) * h
    v = q * x ** alpha
    diag = 2.0 / h ** 2 + v
    diag[0] = (1.0 if even else 3.0) / h ** 2 + v[0]
    off = np.full(n - 1, -1.0 / h ** 2)
    return x, diag, off


def _solve_parity(alpha, h, x_max, even, k, q=1.0):
    x, d, e = _parity_tridiag(alpha, h, x_max, even, q)
    w, v = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    return x, w, v, (d, e)


def _solve_tridiagonal(dl, d, du, b):
    """Solve the tridiagonal system with sub-, main and super-diagonals
    dl, d, du (float64) for the right-hand side b with LAPACK dgtsv, the
    routine scipy's banded solver calls for one band each side, so the
    result is bit for bit the same, without its input validation.  Works
    in place: all four arrays are overwritten and the returned solution
    shares b's storage when b is a contiguous float64 array.  A singular
    matrix raises LinAlgError, as the banded solver does."""
    *_, x, info = dgtsv(dl, d, du, b, 1, 1, 1, 1)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgtsv")
    return x


def _refine_vector(d, e, lam, v):
    """Two inverse-iteration sweeps to pull the eigenvector residual down to
    the factorization floor (the LAPACK bisection vectors sit a couple of
    orders above it)."""
    shifted = d - (lam + 1e-10 * (1.0 + abs(lam)))
    cur = v
    for _ in range(2):
        try:
            w = _solve_tridiagonal(e.copy(), shifted.copy(), e.copy(), cur.copy())
        except LinAlgError:
            return cur
        nrm = float(np.linalg.norm(w))
        if not math.isfinite(nrm) or nrm == 0.0:
            return cur
        w = w / nrm
        if float(w @ v) < 0:
            w = -w
        cur = w
    return cur


def _normalized_functions(x, vecs, h):
    """Unit full-line L2 norm and positive tail sign per column."""
    out = []
    for j in range(vecs.shape[1]):
        f = vecs[:, j].copy()
        norm = math.sqrt(2.0 * h * float(f @ f))
        f /= norm
        # sign: positive beyond the largest zero = positive where the
        # envelope is still well above noise at the far end
        tail = np.nonzero(np.abs(f) > 1e-8 * np.abs(f).max())[0]
        if f[tail[-1]] < 0:
            f = -f
        out.append(f)
    return out


def solve_spectrum(alpha: float, n_max: int, accuracy: float = DEFAULT_ACCURACY,
                   h: float = DEFAULT_H, x_max: float | None = None,
                   q: float = 1.0) -> EigenSystem:
    """First n_max eigenpairs of -f'' + q |x|^alpha f (q = 1 by default).

    Eigenvalues carry a grid-refinement (Richardson) error estimate that
    must land below `accuracy`; otherwise the grid is halved up to a cap
    and a NumericalFailure reports the last two estimates.  Solving at
    q != 1 exists as a direct cross-check of the exact rescaling law.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    if q <= 0:
        raise DomainError("q must be positive")
    if x_max is None:
        x_max = _choose_x_max(alpha, n_max)
        if q != 1.0:
            x_max = max(20.0, x_max * q ** (-1.0 / (2.0 + alpha)) + 3.0)

    k_even = (n_max + 1) // 2 + 1
    k_odd = n_max // 2 + 1

    def merged(hh):
        _, we, ve, ge = _solve_parity(alpha, hh, x_max, True, k_even, q)
        x, wo, vo, go = _solve_parity(alpha, hh, x_max, False, k_odd, q)
        return x, _interleave(we, wo)[:n_max], (we, ve, ge), (wo, vo, go)

    # three grids h, h/2, h/4: two Richardson values whose difference
    # estimates the error of the finer one
    _, lam_h, _, _ = merged(h)
    _, lam_h2, _, _ = merged(h / 2)
    rich_prev = (4.0 * lam_h2 - lam_h) / 3.0

    last_pair = None
    for attempt in range(MAX_REFINEMENTS + 1):
        hf = h / 2 ** (attempt + 2)
        xf, lam_hf, ve_f, vo_f = merged(hf)
        lam_rich = (4.0 * lam_hf - lam_h2) / 3.0
        est = np.abs(lam_rich - rich_prev)
        last_pair = (rich_prev.copy(), lam_rich.copy())
        if est.max() <= accuracy:
            break
        lam_h2, rich_prev = lam_hf, lam_rich
    else:
        raise NumericalFailure(
            f"eigenvalues did not reach accuracy {accuracy:.1e} after "
            f"{MAX_REFINEMENTS} refinements (last estimates "
            f"{est.max():.2e})", estimates=last_pair)

    if not (lam_rich[0] > 0 and np.all(np.diff(lam_rich) > 0)):
        raise NumericalFailure("eigenvalues not positive strictly increasing")

    def refined(bundle, k):
        w, v, (d, e) = bundle
        cols = np.column_stack([
            _refine_vector(d, e, w[j], v[:, j]) for j in range(k)
        ])
        return _normalized_functions(xf, cols, hf)

    funcs_even = refined(ve_f, k_even)
    funcs_odd = refined(vo_f, k_odd)
    funcs = []
    for n in range(n_max):
        funcs.append(funcs_even[n // 2] if n % 2 == 0 else funcs_odd[n // 2])

    return EigenSystem(
        alpha=alpha, q=q, grid=xf, eigenvalues=lam_rich,
        eigenfunctions=np.array(funcs), error_estimates=est,
        h=hf, x_max=x_max, discrete_eigenvalues=lam_hf,
    )


def _interleave(even_vals, odd_vals):
    """Merge parity spectra as lambda_0 < lambda_1 < ... checking interlacing."""
    n = len(even_vals) + len(odd_vals)
    out = np.empty(n)
    out[0::2] = even_vals[: (n + 1) // 2]
    out[1::2] = odd_vals[: n // 2]
    if np.any(np.diff(out) <= 0):
        raise NumericalFailure("parity spectra do not interlace")
    return out


def rescale_to_q(sys: EigenSystem, q: float) -> EigenSystem:
    """Exact transform of a q=1 system to general q > 0 (resampled grid)."""
    if q <= 0:
        raise DomainError("q must be positive")
    if sys.q != 1.0:
        raise DomainError("rescaling starts from a q = 1 system")
    if q == 1.0:
        return sys
    s = q ** (1.0 / (2.0 + sys.alpha))
    amp = q ** (1.0 / (2.0 * (2.0 + sys.alpha)))
    lam_scale = q ** (2.0 / (2.0 + sys.alpha))
    return replace(
        sys,
        q=q,
        grid=sys.grid / s,
        eigenvalues=sys.eigenvalues * lam_scale,
        eigenfunctions=sys.eigenfunctions * amp,
        x_max=sys.x_max / s,
        discrete_eigenvalues=None if sys.discrete_eigenvalues is None
        else sys.discrete_eigenvalues * lam_scale,
    )


@dataclass(frozen=True)
class WeylReport:
    alpha: float
    levels: np.ndarray
    relative_errors: np.ndarray

    def error_at(self, n: int) -> float:
        idx = np.nonzero(self.levels == n)[0]
        if len(idx) == 0:
            raise DomainError(f"level {n} not in report")
        return float(self.relative_errors[idx[0]])

    def decreasing_over(self, ns) -> bool:
        errs = [self.error_at(n) for n in ns]
        return all(b < a for a, b in zip(errs, errs[1:]))


def weyl_check(sys: EigenSystem) -> WeylReport:
    """Relative errors of lambda_n against the Weyl growth law, n >= 1.

    Level 0 is excluded (the law degenerates there).
    """
    if sys.n_levels < 20:
        raise DomainError("weyl check needs at least 20 levels")
    ns = np.arange(1, sys.n_levels)
    pred = weyl_lambda(sys.alpha, ns) * sys.q ** (2.0 / (2.0 + sys.alpha))
    rel = np.abs(sys.eigenvalues[1:] - pred) / pred
    return WeylReport(sys.alpha, ns, rel)


def residual_norms(sys: EigenSystem) -> np.ndarray:
    """Max interior defect of the second-difference eigenequation per level.

    The stored eigenvectors pair with the discrete eigenvalues of their
    own grid (the extrapolated eigenvalue differs from those by the very
    O(h^2) correction a residual would pick up).
    """
    h = sys.h_grid
    lam = sys.discrete_eigenvalues if sys.discrete_eigenvalues is not None else sys.eigenvalues
    out = np.empty(sys.n_levels)
    v = sys.q * sys.grid ** sys.alpha
    for n in range(sys.n_levels):
        f = sys.eigenfunctions[n]
        lap = np.empty_like(f)
        lap[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / h ** 2
        res = -lap[1:-1] + (v[1:-1] - lam[n]) * f[1:-1]
        out[n] = np.abs(res).max()
    return out


def fit_tail_constant(sys: EigenSystem) -> float:
    """Smallest C in a coarse ladder making the tail envelope

        |phi_n(x)| <= (n+1)^3 exp(-(x^{(2+alpha)/2} - C n)/(2+alpha))

    hold for n < 6 on the region x^{(2+alpha)/2} >= C n + 20.
    The constant is an artifact of this module, not a known value.
    """
    p = (2.0 + sys.alpha) / 2.0
    xp = sys.grid ** p
    noise_floor = 1e-11  # eigenvector tails bottom out near 1e-13
    for c_try in np.arange(0.5, 30.0, 0.5):
        ok = True
        for n in range(min(6, sys.n_levels)):
            bound = (n + 1) ** 3 * np.exp(-(xp - c_try * n) / (2.0 + sys.alpha))
            region = (xp >= c_try * n + 20.0) & (bound >= noise_floor)
            if not np.any(region):
                continue
            if np.any(np.abs(sys.eigenfunctions[n][region]) > bound[region]):
                ok = False
                break
        if ok:
            return float(c_try)
    raise NumericalFailure("no tail constant below ladder cap fits the envelope")


def derivative(sys: EigenSystem, n: int) -> np.ndarray:
    """4th-order centered derivative of phi_n on the stored grid.

    Parity supplies ghost values across the origin; one-sided stencils
    at the outer boundary where the function is already negligible.
    """
    f = sys.eigenfunctions[n]
    h = sys.h_grid
    sgn = float(sys.parity(n))
    # ghosts across the origin by parity: f(-h/2) = sgn f0, f(-3h/2) = sgn f1
    pad = np.concatenate([[sgn * f[1], sgn * f[0]], f, [0.0, 0.0]])
    i = np.arange(2, 2 + len(f))
    return (pad[i - 2] - 8 * pad[i - 1] + 8 * pad[i + 1] - pad[i + 2]) / (12.0 * h)
