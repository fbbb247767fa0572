"""Eigenpairs of the line operator  L_q f = -f'' + q |x|^alpha f.

The spectrum is discrete, simple, positive, and splits by parity: even
levels satisfy f'(0) = 0, odd levels f(0) = 0.  We discretize each parity
class on a staggered half-line grid x_j = (j + 1/2) h (so the |x|^alpha
kink at the origin is never sampled), with a Dirichlet wall at x_max far
beyond the classical turning point.  Both reductions are symmetric
tridiagonal.  Eigenvalues come from LAPACK bisection (dstebz) on three grids
h, h/2 and h/4 (halved further while the estimate misses the accuracy):
Richardson values from (h, h/2) and from (h/2, h/4) differ by the error
estimate of the finer one.  The two parity classes are bisected at the same
time, the even one on a worker thread: dstebz is called through scipy's
Cython export, which releases the GIL for the call.  The coarse grids give
eigenvalues only; the eigenvectors of the kept levels are taken on the
final grid alone, by two sweeps of inverse iteration.

Only q = 1 is ever solved directly; other q follow from the exact scaling

    lambda_{q,n} = q^{2/(2+alpha)} lambda_n,
    phi_{q,n}(x) = q^{1/(2(2+alpha))} phi_n(q^{1/(2+alpha)} x).
"""

from __future__ import annotations

import ctypes
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.linalg import LinAlgError, cython_lapack
from scipy.linalg.lapack import dgtsv

from .errors import DomainError, NumericalFailure
from .files import write_csv, write_json

DEFAULT_H = 1.0 / 256.0
DEFAULT_ACCURACY = 1e-8
MAX_REFINEMENTS = 3
# the points budget of one parity class on one grid.  A solve peaks at about
# 176 B a point of its finest grid (both classes' tridiagonals and dstebz
# workspaces, the grid, the previous grid's arrays; traced), 740 MB at it
MAX_CLASS_POINTS = 2 ** 22


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
    discrete_eigenvalues: np.ndarray

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

    With v = u^alpha the integral is B(1/alpha, 3/2) / alpha, so
    c_alpha = (2/pi) Gamma(1 + 1/alpha) Gamma(3/2) / Gamma(1/alpha + 3/2),
    taken through log-gamma to stay finite for small alpha.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    k = 1.0 / alpha
    return 2.0 / math.pi * math.exp(math.lgamma(1.0 + k) + math.lgamma(1.5) - math.lgamma(k + 1.5))


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
    antisymmetric ghost (f(-h/2) = -f(h/2)); Dirichlet beyond x_max.  A
    grid over MAX_CLASS_POINTS is a NumericalFailure, raised before any
    array is allocated.
    """
    if not x_max / h <= MAX_CLASS_POINTS:
        raise NumericalFailure(
            f"the grid of step {h:.3g} on [0, {x_max:.4g}] needs {x_max / h:.3g} points per "
            f"parity class, over the budget of {MAX_CLASS_POINTS}")
    n = int(round(x_max / h))
    x = (np.arange(n) + 0.5) * h
    v = q * x ** alpha
    diag = 2.0 / h ** 2 + v
    diag[0] = (1.0 if even else 3.0) / h ** 2 + v[0]
    off = np.full(n - 1, -1.0 / h ** 2)
    return x, diag, off


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _cython_lapack(name, n_args):
    """The LAPACK routine `name` as scipy exports it for Cython, callable
    through ctypes; every argument is a pointer.  ctypes releases the GIL
    for the whole foreign call, which scipy's f2py wrappers do not."""
    capsule = cython_lapack.__pyx_capi__[name]
    prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)
    return prototype(_capsule_pointer(capsule, _capsule_name(capsule)))


_DSTEBZ = _cython_lapack("dstebz", 18)


def _prepared(*args):
    """A zero-argument call of dstebz with every argument allocated by the
    caller: arrays (one-element ones for scalars) pass by address and bytes
    as character flags.  The call allocates nothing, so it may run on a
    worker thread without that thread growing a malloc arena of its own."""
    return partial(_DSTEBZ, *[
        a if isinstance(a, bytes) else a.ctypes.data_as(ctypes.c_void_p) for a in args])


def _int(v):
    return np.array([v], dtype=np.intc)


def _stebz(d, e, k):
    """dstebz for the k lowest eigenvalues of the symmetric tridiagonal with
    diagonal d and off-diagonal e, as scipy's eigh_tridiagonal calls it:
    index range, absolute tolerance 0, block order.  Returns the prepared
    call and a function that, after it, gives the k eigenvalues in block
    order.  iblock and isplit are dstebz's workspace here."""
    d, e = np.ascontiguousarray(d, dtype=float), np.ascontiguousarray(e, dtype=float)
    n = len(d)
    if d.ndim != 1 or e.shape != (n - 1,):
        raise ValueError(f"need d of length n and e of length n - 1, got {d.shape} and {e.shape}")
    w, iblock, isplit = np.empty(n), np.empty(n, dtype=np.intc), np.empty(n, dtype=np.intc)
    m, info = _int(0), _int(0)
    call = _prepared(b"I", b"B", _int(n), np.zeros(1), np.zeros(1), _int(1), _int(k),
                     np.zeros(1), d, e, m, _int(0), w, iblock, isplit, np.empty(4 * n),
                     np.empty(3 * n, dtype=np.intc), info)

    def result():
        if info[0] != 0:
            raise NumericalFailure(f"LAPACK dstebz failed (info {int(info[0])})")
        return w[:m[0]]
    return call, result


def _lowest_eigenvalues(d, e, k):
    """The k lowest eigenvalues of the symmetric tridiagonal (d, e), in
    ascending order, by dstebz on this thread."""
    call, result = _stebz(d, e, k)
    call()
    return np.sort(result())


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


def _eigenvector(d, e, lam):
    """The unit eigenvector of the symmetric tridiagonal (d, e) at its
    eigenvalue lam, up to sign: two sweeps of inverse iteration from the
    constant vector, shifted just past lam, which bring the residual down to
    the factorization floor.  A singular pivot or a vanishing norm is a
    NumericalFailure."""
    shifted = d - (lam + 1e-10 * (1.0 + abs(lam)))
    v = np.ones_like(d)
    for _ in range(2):
        try:
            v = _solve_tridiagonal(e.copy(), shifted.copy(), e.copy(), v)
        except LinAlgError:
            raise NumericalFailure(f"inverse iteration at eigenvalue {lam!r} "
                                   "met a singular pivot") from None
        nrm = float(np.linalg.norm(v))
        if not math.isfinite(nrm) or nrm == 0.0:
            raise NumericalFailure(f"inverse iteration at eigenvalue {lam!r} "
                                   f"gave a vector of norm {nrm}")
        v = v / nrm
    return v


def _normalized(f, h):
    """f scaled to unit full-line L2 norm and positive past its largest zero,
    that is where the envelope is still well above noise at the far end."""
    f = f / math.sqrt(2.0 * h * float(f @ f))
    tail = np.nonzero(np.abs(f) > 1e-8 * np.abs(f).max())[0]
    return -f if f[tail[-1]] < 0 else f


def solve_spectrum(alpha: float, n_max: int, accuracy: float = DEFAULT_ACCURACY,
                   h: float = DEFAULT_H, x_max: float | None = None,
                   q: float = 1.0) -> EigenSystem:
    """First n_max eigenpairs of -f'' + q |x|^alpha f (q = 1 by default).

    Eigenvalues carry a grid-refinement (Richardson) error estimate that
    must land below `accuracy`; otherwise the grid is halved up to a cap
    and a NumericalFailure reports the last error estimate.  Solving at
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

    # one level per class beyond those kept: it bounds the bisection and
    # the interlacing check reads it
    kept = ((n_max + 1) // 2, n_max // 2)
    with ThreadPoolExecutor(max_workers=1) as worker:
        def levels(hh):
            """Eigenvalues of both parity classes on the grid of step hh,
            bisected at the same time, the even class on the worker thread;
            also each class's tridiagonal with its sorted eigenvalues."""
            classes = []
            for even, k in zip((True, False), kept):
                x, d, e = _parity_tridiag(alpha, hh, x_max, even, q)
                classes.append((d, e, *_stebz(d, e, k + 1)))
            (_, _, even_call, _), (_, _, odd_call, _) = classes
            pending = worker.submit(even_call)
            odd_call()
            pending.result()
            found = [(d, e, np.sort(result())) for d, e, _, result in classes]
            (_, _, w_even), (_, _, w_odd) = found
            return x, _interleave(w_even, w_odd)[:n_max], found

        # three grids h, h/2, h/4: two Richardson values whose difference
        # estimates the error of the finer one
        _, lam_h, _ = levels(h)
        _, lam_h2, _ = levels(h / 2)
        rich_prev = (4.0 * lam_h2 - lam_h) / 3.0

        for attempt in range(MAX_REFINEMENTS + 1):
            hf = h / 2 ** (attempt + 2)
            xf, lam_hf, found = levels(hf)
            lam_rich = (4.0 * lam_hf - lam_h2) / 3.0
            est = np.abs(lam_rich - rich_prev)
            if est.max() <= accuracy:
                break
            lam_h2, rich_prev = lam_hf, lam_rich
        else:
            raise NumericalFailure(
                f"eigenvalues did not reach accuracy {accuracy:.1e} after "
                f"{MAX_REFINEMENTS} refinements (last estimates "
                f"{est.max():.2e})")

    if not (lam_rich[0] > 0 and np.all(np.diff(lam_rich) > 0)):
        raise NumericalFailure("eigenvalues not positive strictly increasing")

    # eigenvectors of the kept levels only, in ascending order per class
    funcs = [[_normalized(_eigenvector(d, e, lam), hf) for lam in w[:k]]
             for (d, e, w), k in zip(found, kept)]

    return EigenSystem(
        alpha=alpha, q=q, grid=xf, eigenvalues=lam_rich,
        eigenfunctions=np.array([funcs[n % 2][n // 2] for n in range(n_max)]),
        error_estimates=est, h=hf, x_max=x_max, discrete_eigenvalues=lam_hf,
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
        discrete_eigenvalues=sys.discrete_eigenvalues * lam_scale,
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
    lam = sys.discrete_eigenvalues
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
