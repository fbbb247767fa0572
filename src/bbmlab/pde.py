"""Deterministic solvers for the killed-diffusion equation

    du/dt = rho * ( d^2u/dx^2 - q(t) |x|^alpha u ),   t in [0, T], T < 1,

with the singular coefficient q(t) = (1-t)^{-alpha} as the default, plus
the whole machinery around it: the sandwich pair (q_*, q^*) of Lipschitz
coefficients, a spectral-Galerkin evolution of the expansion coefficients
c_n(t) in the instantaneous eigenbasis, fundamental-solution evaluation
from a narrow-Gaussian initial condition, and the change of variables
connecting the rescaled fundamental solution g to the weighted Brownian
kernel G.

Finite differences use TR-BDF2 stepping (a trapezoidal substep to
t + gamma dt, then a BDF2 completion) with the potential frozen at each
stage time, and a Rannacher start (the first two steps taken as four damped
backward-Euler half-steps) to suppress ringing from near-Dirac data.  Every
implicit stage is one tridiagonal solve with LAPACK dgtsv.
The coefficient ODE  c' = (-rho q^{2/(2+alpha)} D + (q'/q) A) c  is split
exactly: the diagonal factor uses the closed-form integral of q^{2/(2+alpha)}
and the mixing factor is expm(log(q ratio) * A), an orthogonal matrix, so
constant-q intervals are reproduced to machine precision and ||c(t)||_2
never increases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .errors import ConfigurationError, DomainError, NumericalFailure
from .files import write_csv, write_json
from .spectral import (EigenSystem, _lowest_eigenvalues, _solve_tridiagonal, derivative,
                       rescale_to_q)


# ---------------------------------------------------------------------------
# time coefficients q(t)
# ---------------------------------------------------------------------------

class PiecewiseQ:
    """Piecewise time coefficient built from const / linear / power pieces.

    Pieces are tuples (t0, t1, kind, payload):
      const:  payload = value
      linear: payload = (value at t0, slope)
      power:  payload = alpha, the piece is (1-t)^{-alpha}
    """

    def __init__(self, pieces, label):
        self.pieces = list(pieces)
        self.label = label
        self.t0 = self.pieces[0][0]
        self.t1 = self.pieces[-1][1]

    @classmethod
    def constant(cls, value, T):
        return cls([(0.0, T, "const", value)], label="const")

    @classmethod
    def singular(cls, alpha, T):
        return cls([(0.0, T, "power", alpha)], label="(1-t)^-alpha")

    def breakpoints(self):
        return [p[0] for p in self.pieces] + [self.t1]

    def _locate(self, t):
        for p in self.pieces:
            if p[0] <= t <= p[1]:
                return p
        if t < self.t0 or t > self.t1:
            raise DomainError(f"t={t} outside [{self.t0}, {self.t1}] for {self.label}")
        return self.pieces[-1]

    def value(self, t):
        if np.isscalar(t):
            return self._value_one(t)
        return np.array([self._value_one(float(ti)) for ti in np.asarray(t).ravel()])

    def _value_one(self, t):
        return self._on_piece(self._locate(t), t)

    @staticmethod
    def _on_piece(piece, t):
        """The value at t of the formula of `piece`."""
        t0, t1, kind, pay = piece
        if kind == "const":
            return pay
        if kind == "linear":
            v0, slope = pay
            return v0 + slope * (t - t0)
        return (1.0 - t) ** (-pay)

    def integral_pow(self, p: float, a: float, b: float) -> float:
        """int_a^b q(s)^p ds, exact per piece (closed-form antiderivatives of
        constant, power and linear pieces)."""
        if b < a:
            return -self.integral_pow(p, b, a)
        total = 0.0
        for t0, t1, kind, pay in self.pieces:
            lo, hi = max(a, t0), min(b, t1)
            if hi <= lo:
                continue
            if kind == "const":
                total += pay ** p * (hi - lo)
            elif kind == "power":
                m = pay * p
                if m == 1.0:
                    total += math.log((1.0 - lo) / (1.0 - hi))
                else:
                    total += ((1.0 - hi) ** (1.0 - m) - (1.0 - lo) ** (1.0 - m)) / (m - 1.0)
            else:
                v0, slope = pay
                if slope == 0.0:
                    total += v0 ** p * (hi - lo)
                else:
                    # exact antiderivative of (v0 + slope (t-t0))^p
                    qa = v0 + slope * (lo - t0)
                    qb = v0 + slope * (hi - t0)
                    total += (qb ** (p + 1.0) - qa ** (p + 1.0)) / (slope * (p + 1.0))
        return total


@dataclass(frozen=True)
class BarrierPair:
    """Lipschitz sandwich q_*(t) <= (1-t)^{-alpha} <= q^*(t) on [0, T].

    Both members are constant on [0, eps1] and [T - eps2, T] and agree
    with the singular coefficient on [2 eps1, T - 2 eps2].
    """

    T: float
    eps1: float
    eps2: float
    alpha: float
    q_star: PiecewiseQ
    q_upper: PiecewiseQ

    def sandwich_margins(self):
        """Max violations of the ordering q_* <= (1-t)^-a <= q^* on a
        10,000-point grid."""
        t = np.linspace(0.0, self.T, 10_000)
        target = (1.0 - t) ** (-self.alpha)
        star = self.q_star.value(t)
        upper = self.q_upper.value(t)
        return float((star - target).max()), float((target - upper).max())


def build_barriers(T: float, eps1: float, eps2: float, alpha: float) -> BarrierPair:
    if not (0.0 < T < 1.0):
        raise DomainError(f"need 0 < T < 1, got T={T}")
    if not (0.0 < eps1 <= T / 10.0):
        raise DomainError(f"constraint 0 < eps1 <= T/10 failed: eps1={eps1}, T={T}")
    if not (0.0 < eps2 <= T / 10.0):
        raise DomainError(f"constraint 0 < eps2 <= T/10 failed: eps2={eps2}, T={T}")
    if not (eps2 <= (1.0 - T) / 10.0):
        raise DomainError(f"constraint eps2 <= (1-T)/10 failed: eps2={eps2}, T={T}")

    pow_at = lambda t: (1.0 - t) ** (-alpha)

    v1 = pow_at(2.0 * eps1)
    star = PiecewiseQ(
        [
            (0.0, eps1, "const", 1.0),
            (eps1, 2.0 * eps1, "linear", (1.0, (v1 - 1.0) / eps1)),
            (2.0 * eps1, T - eps2, "power", alpha),
            (T - eps2, T, "const", pow_at(T - eps2)),
        ],
        label="q_*",
    )
    v2lo = pow_at(T - 2.0 * eps2)
    v2hi = pow_at(T)
    upper = PiecewiseQ(
        [
            (0.0, eps1, "const", pow_at(eps1)),
            (eps1, T - 2.0 * eps2, "power", alpha),
            (T - 2.0 * eps2, T - eps2, "linear", (v2lo, (v2hi - v2lo) / eps2)),
            (T - eps2, T, "const", v2hi),
        ],
        label="q^*",
    )
    return BarrierPair(T=T, eps1=eps1, eps2=eps2, alpha=alpha, q_star=star, q_upper=upper)


def default_epsilons(rho: float, T: float, kappa: float):
    """The always-admissible choice delta = 1/(rho (1-T)^{1-kappa}),
    eps1 = sqrt(delta/rho), eps2 = sqrt(delta (1-T)^{1+kappa} / rho)."""
    delta = 1.0 / (rho * (1.0 - T) ** (1.0 - kappa))
    eps1 = math.sqrt(delta / rho)
    eps2 = math.sqrt(delta * (1.0 - T) ** (1.0 + kappa) / rho)
    return delta, eps1, eps2


# ---------------------------------------------------------------------------
# finite-difference evolution
# ---------------------------------------------------------------------------

@dataclass
class PdeGrids:
    """Space and time grids of a solve; the defaults are the CLI's."""

    x_max: float = 8.0
    dx: float = 1.0 / 128.0
    # enforce q(t) * dt <= cfl_pot / rho; this also caps the per-step decay
    # phase of the dominant mode, which controls the time-integration bias
    cfl_pot: float = 0.02


@dataclass
class PdeField:
    """Stored evolution of u(t, x); a decimated set of time slices.

    For gauged runs the slices hold w = u * exp(-log_gauge); log_gauge is
    the (negative) log of the accumulated integrating factor, 0 otherwise.
    Called at x, it is the final u there; for a narrow-Gaussian start, as
    built by fundamental_solution_g, that is g(0, xi; T, x).
    """

    time_grid: np.ndarray
    space_grid: np.ndarray
    values: np.ndarray  # shape (len(time_grid), len(space_grid))
    rho: float
    alpha: float
    q_label: str
    log_gauge: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    def final(self) -> np.ndarray:
        return self.values[-1]

    def __call__(self, xq):
        return self.renormalized(xq) * math.exp(self.log_gauge)

    def renormalized(self, xq):
        """The final stored slice at xq: exp(lambda_0 rho int q^{2/(2+alpha)})
        u(T, xq) for gauged runs, plain u(T, xq) when ungauged."""
        x = self.space_grid
        xq_arr = np.asarray(xq, dtype=float)
        if np.any(np.abs(xq_arr) > x[-1]):
            raise DomainError(f"evaluation outside the grid [-{x[-1]}, {x[-1]}]")
        out = np.interp(xq_arr, x, self.final())
        return float(out) if np.isscalar(xq) else out

    def mass(self) -> np.ndarray:
        return np.trapezoid(self.values, self.space_grid, axis=1)

    def export_csv(self, path):
        return write_csv(path, ["t"] + [f"u_{j}" for j in range(len(self.space_grid))],
                         [self.time_grid, *self.values.T])

    def export_json(self, path):
        return write_json(path, {
            "rho": self.rho,
            "alpha": self.alpha,
            "q": self.q_label,
            "x_max": float(self.space_grid[-1]),
            "dx": float(self.space_grid[1] - self.space_grid[0]),
            "times": [float(t) for t in self.time_grid],
            "diagnostics": {k: (float(v) if isinstance(v, (float, np.floating)) else v)
                            for k, v in self.diagnostics.items()},
        })


def _discrete_ground_interp(x: np.ndarray, v_pot: np.ndarray, q_lo: float, q_hi: float):
    """Ground eigenvalue of the interior tridiagonal -Dxx + q V as a smooth
    function of q: sampled on a 33-node geometric ladder, cubic spline in log q
    (interpolation error ~1e-9, far below the h^2 scale it corrects).
    The returned function maps a sequence of q values to an array."""
    from scipy.interpolate import CubicSpline

    h = x[1] - x[0]
    vi = v_pot[1:-1]
    n = len(vi)
    off = np.full(n - 1, -1.0 / h ** 2)

    def ground(qv):
        return float(_lowest_eigenvalues(2.0 / h ** 2 + qv * vi, off, 1)[0])

    if abs(q_hi - q_lo) < 1e-14:
        lam = ground(q_lo)
        return lambda qs: np.full(len(qs), lam)
    qs = np.geomspace(q_lo, q_hi, 33)
    lams = np.array([ground(qv) for qv in qs])
    spline = CubicSpline(np.log(qs), lams)
    # math.log, not np.log: the vectorized log may differ in the last bit
    return lambda qs: spline([math.log(v) for v in qs])


GAMMA_TRBDF2 = 2.0 - math.sqrt(2.0)
STORED_SLICES = 200  # at most this many time slices after the initial one
CLAIMED_ACCURACY = 1e-3  # relative, validated by halving tests
MIN_STEPS = 400  # no step longer than T / MIN_STEPS
MAX_STEPS = 400_000  # the step budget of one solve
# the node budget of one solve, sixteen times the default grid's 4,097.  At
# it the stored field takes 201 x 65,552 x 8 B = 105 MB; a `pde` command on
# 65,537 nodes, its 190 MB field.csv included, peaked at 885 MB resident
MAX_NODES = 16 * 4097


def _min_steps(rho, T, q: PiecewiseQ, cfl: float) -> float:
    """A lower bound on the step count of `_step_plan`, 0 where none is proven:
    every step has q(t) dt <= c = cfl/rho, so if q grows by at most a factor r
    over a step, the count is >= int_0^T q dt / (c r).  r = 1 on a const piece;
    on a power piece (1-t)^-a, dt/(1-t) <= c M with M = max(1, (1-T)^(a-1)), so
    r = (1 - c M)^-a (no bound if c M >= 1).  Other pieces give no bound.  A
    jump at a breakpoint needs no guard: the step that leaves it reads the
    larger of the two values there."""
    c, r = cfl / rho, 1.0
    for _, _, kind, pay in q.pieces:
        if kind not in ("const", "power"):
            return 0.0
        if kind == "power":
            reach = c * max(1.0, (1.0 - T) ** (pay - 1.0))
            r = max(r, (1.0 - reach) ** -pay) if reach < 1.0 else math.inf
    return q.integral_pow(1.0, 0.0, T) / (c * r)


def _step_plan(rho, T, q: PiecewiseQ, cfl: float, shifts):
    """One walk over [0, T] that yields everything the stepping loop needs
    from the time axis: the step sizes, honoring q(t) dt <= cfl/rho and
    dt <= T/MIN_STEPS and landing exactly on every breakpoint of q (a step
    that leaves a breakpoint is sized by the larger of the values of the two
    pieces that meet there); q and the gauge shift at both implicit stages
    of every step (the Rannacher halves for the first two steps, else the
    trapezoidal and BDF2 stages); the time after each step; and each step's
    gauge increment, rho times Simpson's rule for the integral of the shift
    over the step (None when `shifts`, which maps a list of q values to
    their shifts, is None).
    Simpson's nodes start from a = t - dt, taken after the step.
    """
    dt_max = T / MIN_STEPS
    brk = iter(sorted(b for b in q.breakpoints() if 0.0 < b < T))
    nb = next(brk, T)
    # q.value(b) reads the piece that ends at breakpoint b; this, the one that starts there
    leaving = {p[0]: PiecewiseQ._on_piece(p, p[0]) for p in q.pieces}
    steps, stage_q, ends = [], [], []
    t = 0.0
    while t < T - 1e-15:
        dt = min(dt_max, cfl / (rho * max(q.value(t), leaving.get(t, 0.0))))
        if t + dt >= nb - 1e-15:
            dt, t_next, nb = nb - t, nb, next(brk, T)
        elif len(steps) == MAX_STEPS:
            raise NumericalFailure(
                f"time grid exceeds {MAX_STEPS} steps before reaching T={T} "
                f"(reached t={t + dt:.5f}); reduce T to about that value")
        else:
            t_next = t + dt
        # the midpoints of the two Rannacher halves, or the two TR-BDF2 stages
        stages = (0.25, 0.75) if len(steps) < 2 else (GAMMA_TRBDF2 / 2.0, 1.0)
        stage_q.append([q.value(min(t + f * dt, T)) for f in stages])
        steps.append(dt)
        ends.append(t_next)
        t = t_next
    steps, stage_q, ends = np.array(steps), np.array(stage_q), np.array(ends)
    if shifts is None:
        return steps, stage_q, np.zeros_like(stage_q), ends, None
    n = len(steps)
    a = ends - steps
    simpson_q = q.value(np.stack([a, 0.5 * (a + ends), ends], axis=1))
    fa, fm, fb = shifts(simpson_q.tolist()).reshape(n, 3).T
    stage_shift = shifts(stage_q.ravel().tolist()).reshape(n, 2)
    return steps, stage_q, stage_shift, ends, rho * ((ends - a) / 6.0 * (fa + 4.0 * fm + fb))


def solve_pde(initial, rho: float, alpha: float, T: float, grids: PdeGrids | None = None,
              q: PiecewiseQ | None = None, potential_off: bool = False,
              gauge_lambda0: float | None = None) -> PdeField:
    """TR-BDF2 evolution of the killed diffusion, stage-frozen q.

    `initial` maps the space grid to a nonnegative density on it.
    Each step runs a trapezoidal substep to t + gamma*dt followed by a BDF2
    completion (gamma = 2 - sqrt 2).  The composite is second order and
    L-stable: a plain trapezoidal scheme leaves the grid's Nyquist mode
    essentially undamped, and once the solution has decayed by many orders
    of magnitude (the integrating factor here is exp(-lambda_0 rho
    int q^{2/(2+alpha)}), easily e^-100) the surviving noise swamps it.

    With `gauge_lambda0` set to the ground eigenvalue of -f'' + |x|^alpha f,
    the evolved field is w = u * exp(+lambda_0 rho int_0^t q^{2/(2+alpha)}):
    the dominant mode is then neutral, so the integrator's phase error no
    longer accumulates through the huge integrating factor, and the stored
    values stay O(1) for any rho.  PdeField.log_gauge records the final
    log-factor (u = w * exp(log_gauge)); invariant checks are gauge-aware.
    """
    if not (0.0 < T < 1.0):
        raise DomainError(f"need 0 < T < 1, got {T}")
    if rho <= 0:
        raise DomainError("rho must be positive")
    grids = grids or PdeGrids()
    if q is None:
        q = PiecewiseQ.singular(alpha, T)
    # the step budget is refused before the grid and the potential are built;
    # landing steps on breakpoints may pass it
    if _min_steps(rho, T, q, grids.cfl_pot) > MAX_STEPS + len(q.pieces):
        raise NumericalFailure(f"time grid needs over {MAX_STEPS} steps to reach T={T}; reduce T")

    span = 2.0 * grids.x_max
    if not span / grids.dx >= 1.5:  # fewer than two intervals after rounding
        raise DomainError(f"a dx of {grids.dx:g} over [-{grids.x_max:g}, {grids.x_max:g}] "
                          "gives fewer than 3 grid nodes")
    if span / grids.dx > MAX_NODES - 1:
        fit = span / (MAX_NODES - 1)
        unit = 10.0 ** (math.floor(math.log10(fit)) - 2)
        raise NumericalFailure(
            f"a dx of {grids.dx:g} over [-{grids.x_max:g}, {grids.x_max:g}] exceeds the budget "
            f"of {MAX_NODES} grid nodes; the smallest dx that fits is "
            f"{math.ceil(fit / unit) * unit:.3g}")
    m = int(round(span / grids.dx))
    x = np.linspace(-grids.x_max, grids.x_max, m + 1)
    h = x[1] - x[0]
    u = np.asarray(initial(x), dtype=float).copy()
    if u.shape != x.shape:
        raise ConfigurationError(f"initial shape {u.shape} does not match grid {x.shape}")
    if u.min() < 0.0 or not np.isfinite(u).all():
        raise DomainError("initial condition must be nonnegative and finite")
    u[0] = u[-1] = 0.0

    v_pot = np.zeros_like(x) if potential_off else np.abs(x) ** alpha
    p_exp = 2.0 / (2.0 + alpha)

    # shifts(qs): the gauge shift at each q of a list, as an array
    if gauge_lambda0 is None:
        shifts = None
    elif gauge_lambda0 == "discrete":
        # ground level of the solver's own discrete operator as a function
        # of q; gauging with the continuum eigenvalue would leave a drift
        # (lambda_h - lambda) rho int q^... growing like rho dx^2
        if potential_off:
            raise ConfigurationError("discrete gauge needs the potential on")
        shifts = _discrete_ground_interp(x, v_pot, q.value(0.0), q.value(T))
    else:
        lam_g = float(gauge_lambda0)
        # Python pow, not np.power: the vectorized power may differ in the last bit
        shifts = lambda qs: np.array([lam_g * v ** p_exp for v in qs])

    steps, stage_q, stage_shift, ends, gauge_steps = _step_plan(rho, T, q, grids.cfl_pot, shifts)
    n_steps = len(steps)
    stride = max(1, int(np.ceil(n_steps / STORED_SLICES)))

    times = [0.0]
    slices = [u.copy()]
    mass0 = np.trapezoid(u, x)
    dxs = np.diff(x)
    log_mass_prev = math.log(mass0) if mass0 > 0 else -math.inf
    gauge_int = 0.0  # running lambda_0 rho int q^{2/(2+alpha)}
    min_u = 0.0
    mass_uptick = 0.0

    lap_main = -2.0 / h ** 2
    lap_off = 1.0 / h ** 2
    dl, diag, du = np.empty(m), np.empty(m + 1), np.empty(m)

    def implicit_solve(c_impl, qmid, shift, rhs):
        # (I - c_impl * rho * (Dxx - qmid V + shift)) u = rhs with Dirichlet
        # rows; the band is refilled on every call since dgtsv overwrites it
        off = -c_impl * rho * lap_off
        dl.fill(off)
        du.fill(off)
        dl[-1] = du[0] = 0.0
        np.multiply(v_pot, qmid, out=diag)
        np.subtract(lap_main, diag, out=diag)
        np.add(diag, shift, out=diag)
        np.multiply(diag, c_impl * rho, out=diag)
        np.subtract(1.0, diag, out=diag)
        diag[0] = diag[-1] = 1.0
        rhs[0] = rhs[-1] = 0.0
        return _solve_tridiagonal(dl, diag, du, rhs)

    def explicit_apply(uv, c_expl, qmid, shift):
        out = uv.copy()
        out[1:-1] = uv[1:-1] + c_expl * rho * (
            (uv[2:] - 2.0 * uv[1:-1] + uv[:-2]) / h ** 2
            + (shift - qmid * v_pot[1:-1]) * uv[1:-1]
        )
        return out

    # coherent rounding floor of the explicit half-step: each application
    # cancels terms of size nu = rho dt (2/h^2 + q Vmax) against u, leaving
    # relative debris ~ eps * nu per step
    q_end = q.value(T)
    nu = rho * float(steps.max()) * (2.0 / h ** 2 + q_end * float(v_pot.max()))
    noise_floor = 16.0 * np.finfo(float).eps * nu * n_steps
    pos_tol = max(1e-12, noise_floor)

    g = GAMMA_TRBDF2
    c_tr = g / 2.0                      # trapezoidal half-weight (times dt)
    c_bdf = (1.0 - g) / (2.0 - g)       # implicit BDF2 weight (times dt)
    w_star = 1.0 / (g * (2.0 - g))
    w_old = (1.0 - g) ** 2 / (g * (2.0 - g))

    for k, dt in enumerate(steps):
        q1, q2 = stage_q[k]
        s1, s2 = stage_shift[k]
        if k < 2:
            # Rannacher start: backward-Euler halves keep the near-Dirac
            # data positive (the TR-BDF2 stability function dips negative
            # around z ~ 3-10 and would undershoot on rough data)
            u = implicit_solve(dt / 2.0, q1, s1, u)
            u = implicit_solve(dt / 2.0, q2, s2, u)
        else:
            u_star = implicit_solve(c_tr * dt, q1, s1, explicit_apply(u, c_tr * dt, q1, s1))
            u = implicit_solve(c_bdf * dt, q2, s2, w_star * u_star - w_old * u)
        u[0] = u[-1] = 0.0

        min_u = min(min_u, float(u.min() / max(1.0, u.max())))
        # mass of the ungauged solution, compared in log scale; the mass is
        # np.trapezoid's own formula on the precomputed spacings
        if gauge_steps is not None:
            gauge_int += gauge_steps[k]
        mass_w = np.add.reduce(dxs * (u[1:] + u[:-1]) / 2.0)
        log_mass = (math.log(mass_w) if mass_w > 0 else -math.inf) - gauge_int
        if log_mass > log_mass_prev:
            mass_uptick = max(mass_uptick, log_mass - log_mass_prev)
        log_mass_prev = log_mass
        if (k + 1) % stride == 0 or k == n_steps - 1:
            times.append(ends[k])
            slices.append(u.copy())

    if min_u < -pos_tol:
        raise NumericalFailure(
            f"positivity violated: min(u)/max(u) = {min_u:.2e} (floor {pos_tol:.2e})")
    if mass_uptick > 1e-11:
        raise NumericalFailure(f"mass increased by log-relative {mass_uptick:.2e}")

    return PdeField(
        time_grid=np.array(times), space_grid=x, values=np.array(slices),
        rho=rho, alpha=alpha, q_label=q.label, log_gauge=-gauge_int,
        diagnostics={
            "steps": n_steps, "min_u_rel": min_u, "mass_uptick_rel": mass_uptick,
            "mass_initial": mass0,
            "positivity_floor": pos_tol,
            "claimed_accuracy": CLAIMED_ACCURACY,
        },
    )


def gaussian_on_grid(x: np.ndarray, center: float, width: float) -> np.ndarray:
    """Unit-mass narrow Gaussian on the grid (trapezoid-normalized)."""
    g = np.exp(-((x - center) ** 2) / (2.0 * width ** 2))
    g[0] = g[-1] = 0.0
    mass = np.trapezoid(g, x)
    if mass <= 0:
        raise DomainError("gaussian mass vanished on the grid")
    return g / mass


def fundamental_solution_g(xi: float, T: float, rho: float, alpha: float,
                           grids: PdeGrids | None = None, q: PiecewiseQ | None = None,
                           potential_off: bool = False,
                           gauge_lambda0: float | None = None) -> PdeField:
    """g(0, xi; T, .) approximated from a width-2dx Gaussian initial mass."""
    grids = grids or PdeGrids()
    if abs(xi) > grids.x_max * 0.8:
        raise DomainError(f"source xi={xi} too close to the wall x_max={grids.x_max}")
    width = 2.0 * grids.dx

    def init(x):
        return gaussian_on_grid(x, xi, width)

    return solve_pde(init, rho, alpha, T, grids, q=q, potential_off=potential_off,
                     gauge_lambda0=gauge_lambda0)


def rho_for_kernel(t: float, beta: float, alpha: float) -> float:
    """rho = beta^{2/(2+alpha)} 2^{-2 alpha/(2+alpha)} t^{1-kappa}."""
    kappa = 2.0 * alpha / (2.0 + alpha)
    return beta ** (2.0 / (2.0 + alpha)) * 2.0 ** (-2.0 * alpha / (2.0 + alpha)) * t ** (1.0 - kappa)


def kernel_G_from_g(s: float, x: float, t: float, y: float, beta: float, alpha: float,
                    grids: PdeGrids | None = None, potential_off: bool = False,
                    _cache: dict | None = None) -> float:
    """Weighted kernel G(s, x; t, y) through the substitution

        G(s,x;t,y) = sqrt(2 rho / t) g(0, sqrt(2 rho/t) y; 1 - s/t, sqrt(2 rho/t) x).
    """
    if not (0.0 < s < t):
        raise DomainError(f"need 0 < s < t, got s={s}, t={t}")
    rho = rho_for_kernel(t, beta, alpha)
    scale = math.sqrt(2.0 * rho / t)
    T = 1.0 - s / t
    key = (round(scale * y, 14), T, rho, alpha, potential_off)
    if _cache is not None and key in _cache:
        g = _cache[key]
    else:
        g = fundamental_solution_g(scale * y, T, rho, alpha, grids,
                                   potential_off=potential_off)
        if _cache is not None:
            _cache[key] = g
    return scale * g(scale * x)


# ---------------------------------------------------------------------------
# spectral-Galerkin coefficient evolution
# ---------------------------------------------------------------------------

def galerkin_matrices(sys: EigenSystem, n_modes: int):
    """Gap vector d and antisymmetric mixing matrix A.

    d_i = lambda_i - lambda_0, the diagonal of the gap matrix D.
    A[i, j] = (<phi_j, x phi_i'> - <x phi_j', phi_i>) / (2 (2+alpha)) for
    levels of the same parity (for opposite parities the integrand is odd
    and the integral zero), with derivatives by 4th-order centered
    differences and integrals by the composite Simpson rule over the
    full-line grid, Cartwright's correction on its last interval (the rule
    of scipy's `simpson`).  Every same-parity integrand is even, so the
    rule is folded onto the half line and two products give all integrals:
    M[i, j] = <x phi_i, phi_j'> and G[i, j] = <phi_i, phi_j>, so that
    A = (M^T - M) / (2 (2+alpha)).  Integration by parts makes M + M^T + G
    vanish between distinct levels; the largest such residual over
    same-parity pairs is returned as the quadrature defect and must stay
    below 1e-5.
    """
    if sys.n_levels < n_modes:
        raise DomainError(f"system holds {sys.n_levels} levels, need {n_modes}")
    lam = sys.eigenvalues[:n_modes]

    g, h = sys.grid, sys.h_grid
    n = len(g)
    full = np.where(np.arange(2 * n) % 2 == 1, 4.0 * h / 3.0, 2.0 * h / 3.0)
    full[0] = h / 3.0
    full[-3:] = 5.0 * h / 4.0, h, 5.0 * h / 12.0  # the last interval's correction
    w = full[n:] + full[n - 1::-1]  # folded about 0
    f = sys.eigenfunctions[:n_modes]
    df = np.array([derivative(sys, i) for i in range(n_modes)])
    m = (f * (w * g)) @ df.T
    gram = (f * w) @ f.T

    idx = np.arange(n_modes)
    same = (idx[:, None] + idx[None, :]) % 2 == 0
    pref = 1.0 / (2.0 * (2.0 + sys.alpha))
    a_mat = np.where(same, pref * (m.T - m), 0.0)
    defect = float(np.abs((m + m.T + gram)[same & (idx[:, None] != idx)]).max(initial=0.0))
    if defect > 1e-5:
        raise NumericalFailure(f"mixing-matrix quadrature defect {defect:.2e} > 1e-5")
    return lam - lam[0], a_mat, defect


@dataclass
class CoefficientPath:
    times: np.ndarray
    coefficients: np.ndarray  # shape (len(times), n_modes)
    tail_ratio: float

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.coefficients, axis=1)


def evolve_coefficients(c0: Sequence[float], q: PiecewiseQ, rho: float,
                        gaps: np.ndarray, a_matrix: np.ndarray,
                        alpha: float) -> CoefficientPath:
    """Exact-factor Strang evolution of c' = (-rho q^{2/(2+a)} D + (q'/q) A) c
    over the whole of q's interval, with D = diag(gaps).

    Per step [a,b]:  diagonal half with weight rho*int q^{2/(2+alpha)},
    orthogonal mixing expm(log(q(b)/q(a)) A), diagonal half.  Constant-q
    pieces therefore evolve by the closed form with zero mixing; the other
    pieces share 600 steps by length, at least 24 each.
    """
    c = np.asarray(c0, dtype=float).copy()
    n_modes = len(c)
    if len(gaps) != n_modes or a_matrix.shape[0] != n_modes:
        raise ConfigurationError("coefficient count does not match matrices")
    p = 2.0 / (2.0 + alpha)

    # per-piece substeps: constant pieces are exact in one step
    grid = [q.t0]
    nonconst_len = sum(p1 - p0 for p0, p1, kind, _ in q.pieces if kind != "const")
    for p0, p1, kind, _ in q.pieces:
        if p1 <= p0:
            continue
        sub = 2 if kind == "const" else max(24, int(math.ceil(600 * ((p1 - p0) / nonconst_len))))
        grid.extend(np.linspace(p0, p1, sub + 1)[1:])
    grid = np.array(grid)

    times = [grid[0]]
    path = [c.copy()]
    for a, b in zip(grid[:-1], grid[1:]):
        w = rho * q.integral_pow(p, a, b)
        half = np.exp(-0.5 * w * gaps)
        ratio = q.value(b) / q.value(a)
        c = half * c
        if ratio != 1.0:
            c = expm(math.log(ratio) * a_matrix) @ c
        c = half * c
        times.append(b)
        path.append(c.copy())

    coeffs = np.array(path)
    norm_end = float(np.linalg.norm(coeffs[-1]))
    # the top level of each parity: A never mixes parities, so for an even
    # source one of them is exactly zero
    tail = np.abs(coeffs[-1, -2:]).max() / norm_end if norm_end > 0 else 0.0
    return CoefficientPath(times=np.array(times), coefficients=coeffs, tail_ratio=float(tail))


def initial_coefficients(sys: EigenSystem, q0: float, xi: float, n_modes: int) -> np.ndarray:
    """c_n(0) = phi_{q(0), n}(xi)."""
    scaled = rescale_to_q(sys, q0)
    return np.array([float(scaled.phi(n, xi)) for n in range(n_modes)])


def reconstruct_profile(sys: EigenSystem, q_val: float, coeffs: np.ndarray,
                        x: np.ndarray) -> np.ndarray:
    """Sum_n c_n phi_{q, n}(x) on an arbitrary grid."""
    scaled = rescale_to_q(sys, q_val)
    out = np.zeros_like(np.asarray(x, dtype=float))
    for n, cn in enumerate(coeffs):
        if cn != 0.0:
            out += cn * scaled.phi(n, x)
    return out


def cross_validate_galerkin(sys: EigenSystem, rho: float, T: float, alpha: float,
                            xi: float = 0.0, n_modes: int = 24,
                            grids: PdeGrids | None = None) -> dict:
    """Relative L2 distance between the FD solution (rescaled by the
    ground-eigenvalue integrating factor) and the Galerkin reconstruction,
    both run with the q_* barrier coefficient.

    Raises the mode count once if the spectral tail monitor trips.
    """
    grids = grids or PdeGrids()
    kappa = 2.0 * alpha / (2.0 + alpha)
    _, eps1, eps2 = default_epsilons(rho, T, kappa)
    pair = build_barriers(T, eps1, eps2, alpha)
    qs = pair.q_star

    lam0 = sys.eigenvalues[0]
    gsol = fundamental_solution_g(xi, T, rho, alpha, grids, q=qs, gauge_lambda0=lam0)
    x = gsol.space_grid
    w_fd = gsol.final()  # gauged field is the rescaled profile directly

    for attempt in range(2):
        c0 = initial_coefficients(sys, qs.value(0.0), xi, n_modes)
        gaps, amat, _ = galerkin_matrices(sys, n_modes)
        cpath = evolve_coefficients(c0, qs, rho, gaps, amat, alpha)
        if cpath.tail_ratio < 1e-6 or sys.n_levels < int(1.5 * n_modes):
            break
        n_modes = int(1.5 * n_modes)

    w_gal = reconstruct_profile(sys, qs.value(T), cpath.coefficients[-1], x)
    num = np.trapezoid((w_fd - w_gal) ** 2, x)
    den = np.trapezoid(w_fd ** 2, x)
    rel_l2 = math.sqrt(num / den)
    return {"rel_l2": rel_l2, "n_modes": n_modes, "tail_ratio": cpath.tail_ratio}
