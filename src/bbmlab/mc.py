"""Monte Carlo estimation of the weighted Brownian kernels.

The object of interest is the exponential weight

    exp( - beta int_s^t |B_r / (sqrt 2 r)|^alpha (1 + f(B_r, r)) dr )

averaged over forward Wiener paths (total mass) or Brownian bridges (the
pointwise kernel, times the Gaussian prefactor).  The estimators' argument
`f` is None (f = 0) or one of the explicit envelopes, `f_plus` or `f_minus`,

    f+(y,r) = min(L(|y/r|^a + r^-b), 1),
    f-(y,r) = -min(L(|y/r|^a + r^-b), eta),

where eta is the largest value in (0, 1/2] keeping y -> (y/r)^alpha (1+f-)
non-decreasing for all r >= (2L)^{1/b}: eta = min(1/2, alpha/(alpha+a)).
Below the cap, with u = y/r, the map u^alpha (1 - L u^a - L r^-b) rises
exactly while u^a <= alpha (1 - L r^-b) / (L (alpha+a)); the cap sits at
u^a = eta/L - r^-b, which stays inside that range for every such r exactly
when eta <= alpha/(alpha+a).  Above the cap the map is u^alpha (1 - eta).

Every Monte Carlo estimate in bbmlab, including the spine checks in `sim`,
goes through one reducer, `_chunked_mean`: chunk i of the samples draws from
Philox(key=[seed, key_offset + i]), and the sums of v and v^2 are taken per
chunk and added in chunk index order.  Chunks hold 20,000 samples with key
offset 0; the two-spine check in `sim` uses chunks of 10,000 and key offset
7,000,000.  Results are therefore bit-reproducible, and two estimates with
the same seed share every path (making pathwise-monotone comparisons exact).
Every path, the spines of `sim` included, comes from one column marcher,
`_march`, forward or bridge, for 1-D or stacked (planar, two-spine) states.
Path integrals use the trapezoidal rule on the sampled skeleton.  Where the
weight has a kink at y = 0 (alpha < 2, or an envelope), a step on which a
1-D path crosses zero takes the weight at the step's midpoint instead; the
bare weight at alpha >= 2 takes the plain rule.  `_intervals` sizes every
path grid, the spines' included: at least two intervals, none longer than
`step`.  The skeletons are uniform in r, except in the alpha = 2 exponent fit:
its weight is scale-invariant, so it marches a geometric grid, uniform in
u = log r with du <= step / 5, and takes the trapezoidal rule in u of the
smooth integrand B_r^2 / r.

Terms that change the result on few paths are evaluated only on those
paths, gathered per column with `np.flatnonzero`: the zero-crossing
midpoints, and the barrier estimate's crossing correction, which underflows
to exactly 0 unless the geometric mean of a step's two distances below the
barrier is under 20 sqrt(dr).  Every estimate equals the dense per-column
evaluation bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import i0e

from .errors import ConfigurationError, DomainError, NumericalFailure

CHUNK = 20_000
MAX_COLUMNS = 1_000_000  # the interval budget of one path grid


@dataclass(frozen=True)
class KernelEstimate:
    value: float
    stderr: float
    n_samples: int
    integrator_step: float

    def to_json_dict(self, **inputs):
        rec = {"value": self.value, "stderr": self.stderr,
               "n_samples": self.n_samples, "step": self.integrator_step}
        rec.update(inputs)
        return rec


@dataclass(frozen=True)
class ErrorEnvelope:
    """Explicit perturbation pair; `make_envelope` gives eta in closed form."""

    L: float
    a: float
    b: float
    alpha: float
    eta: float

    @property
    def r0(self) -> float:
        return (2.0 * self.L) ** (1.0 / self.b)

    def magnitude(self, y, r):
        return self.L * (np.abs(y / r) ** self.a + r ** (-self.b))

    def f_plus(self, y, r):
        return np.minimum(self.magnitude(y, r), 1.0)

    def f_minus(self, y, r):
        return -np.minimum(self.magnitude(y, r), self.eta)


def make_envelope(L: float, a: float, b: float, alpha: float) -> ErrorEnvelope:
    """The envelope with the largest admissible eta, min(1/2, alpha/(alpha+a))."""
    if min(L, a, b) <= 0:
        raise ConfigurationError("envelope parameters must be positive")
    return ErrorEnvelope(L, a, b, alpha, min(0.5, alpha / (alpha + a)))


def _chunks(seed, n, key_offset=0, chunk=CHUNK):
    """Yield (rng, size) for the chunks of n samples; chunk i draws from
    Philox(key=[seed, key_offset + i])."""
    for i, start in enumerate(range(0, n, chunk)):
        rng = np.random.Generator(np.random.Philox(key=[int(seed), key_offset + i]))
        yield rng, min(chunk, n - start)


def _chunked_mean(seed, n, sample, key_offset=0, chunk=CHUNK):
    """Mean, standard error and count of the values sample(rng, size) over
    the chunks of n samples.  The sums of v and v^2 are taken per chunk and
    added in chunk index order; a sample of shape (k, size) reduces each of
    its k rows."""
    if n < 1:
        raise ConfigurationError(f"need at least one sample, got n={n}")
    acc_sum = acc_sq = 0.0
    for rng, size in _chunks(seed, n, key_offset, chunk):
        v = sample(rng, size)
        acc_sum += v.sum(axis=-1)
        acc_sq += (v ** 2).sum(axis=-1)
    mean = acc_sum / n
    var = np.maximum(acc_sq / n - mean ** 2, 0.0)
    return mean, np.sqrt(var / n), n


def _intervals(length, step):
    """Number of grid intervals of at most `step` over `length`, at least two.

    A count over MAX_COLUMNS is a NumericalFailure, raised before any grid
    is allocated, that names the smallest step (to three digits) that fits."""
    if not (step > 0 and math.isfinite(step)):
        raise DomainError(f"step must be positive and finite, got {step}")
    if length / step > MAX_COLUMNS:
        fit = length / MAX_COLUMNS
        unit = 10.0 ** (math.floor(math.log10(fit)) - 2)
        raise NumericalFailure(
            f"a step of {step:g} over {length:g} exceeds the budget of {MAX_COLUMNS} "
            f"grid intervals; the smallest step that fits is {math.ceil(fit / unit) * unit:.3g}")
    return max(2, int(math.ceil(length / step)))


def _weight_grid(s, t, step):
    return np.linspace(s, t, _intervals(t - s, step) + 1)


def _log_time_grid(s, t, step):
    """Geometric grid from s to t, uniform in u = log r with du <= step / 5."""
    return np.geomspace(s, t, _intervals(5.0 * math.log(t / s), step) + 1)


def _march(rng, r_grid, start, end=None):
    """Yield (j, column) of a skeleton on r_grid, from the state `start` of
    shape (n,) or (k, n), k coordinates of n paths.  Column j draws its k
    rows of normals in row order.  Without `end` the increments are
    independent N(0, dr); with it the path is a Brownian bridge to `end`,
    drawn as sequential conditional Gaussians with the last column exact.
    Each column is a new array, so consumers may keep it.
    """
    m = len(r_grid) - 1
    cur = start
    yield 0, cur
    for j in range(m):
        dr = r_grid[j + 1] - r_grid[j]
        if end is None:
            nxt = rng.standard_normal(cur.shape)
            nxt *= math.sqrt(dr)
            nxt += cur
        elif j == m - 1:
            nxt = np.full_like(cur, end)
        else:
            remain = r_grid[-1] - r_grid[j]
            nxt = rng.standard_normal(cur.shape)
            nxt *= math.sqrt(dr * (remain - dr) / remain)
            nxt += cur + (end - cur) * (dr / remain)
        cur = nxt
        yield j + 1, cur


class _Trapezoid:
    """Trapezoidal integral of weight(column, r) over the columns of a
    skeleton, added in order; memory stays O(n paths).  With `midpoints`
    (1-D states only) a step whose ends straddle zero takes the midpoint
    value instead, for the kink of |y|^alpha at y = 0.  `add` returns the
    weight of the column it was given."""

    def __init__(self, r_grid, weight, midpoints=False):
        self.r, self.weight, self.midpoints, self.total = r_grid, weight, midpoints, 0.0

    def add(self, j, col):
        w = self.weight(col, self.r[j])
        if j:
            dr = self.r[j] - self.r[j - 1]
            trap = 0.5 * (self.w_prev + w)
            if self.midpoints:
                cross = np.flatnonzero(self.prev * col < 0.0)
                if cross.size:
                    trap[cross] = self.weight(0.5 * (self.prev[cross] + col[cross]),
                                              self.r[j - 1] + 0.5 * dr)
            self.total += dr * trap
        self.prev, self.w_prev = col, w
        return w


def _weighted_paths(r_grid, beta, kernel, x, end=None):
    """sample(rng, size) -> exp(-beta int weight) along paths started at x,
    for kernel = (weight, midpoints) from `_kernel_weight`."""
    def sample(rng, size):
        integral = _Trapezoid(r_grid, *kernel)
        for j, col in _march(rng, r_grid, np.full(size, float(x)), end):
            integral.add(j, col)
        return np.exp(-beta * integral.total)
    return sample


def _kernel_weight(alpha, f=None):
    """(weight, midpoints): the weight |y/(sqrt2 r)|^alpha, times
    (1 + f(y, r)) when f is given, and whether its trapezoid takes
    zero-crossing midpoints.  They serve the kink at y = 0 of alpha < 2 and
    of the envelopes; the bare weight at alpha >= 2 is C^2 there and takes
    the plain rule."""
    sqrt2 = math.sqrt(2.0)
    if f is None:
        return lambda y, r: np.abs(y / (sqrt2 * r)) ** alpha, alpha < 2.0
    return lambda y, r: np.abs(y / (sqrt2 * r)) ** alpha * (1.0 + f(y, r)), True


def _validate(s, t, n_samples, step=None):
    """Domain and sample count; a uniform-grid step, when given, must be at
    most min(1, s)/10."""
    if not (0.0 < s < t):
        raise DomainError(f"need 0 < s < t, got s={s}, t={t}")
    if n_samples < 100:
        raise ConfigurationError("need at least 100 samples")
    if step is not None and step > min(1.0, s) / 10.0:
        raise DomainError(f"step {step} too coarse; need <= min(1, s)/10")


def estimate_total_mass(s: float, t: float, x: float, params, n_samples: int,
                        step: float, seed: int, f=None) -> KernelEstimate:
    """Forward-path estimate of E[exp(-beta int_s^t |B/(sqrt2 r)|^a (1+f))],
    with f = 0 when not given (an envelope's f_plus or f_minus, say).
    Degenerate t == s returns exactly 1.
    """
    if t == s:
        return KernelEstimate(1.0, 0.0, n_samples, step)
    _validate(s, t, n_samples, step)
    beta, alpha = params.beta, params.alpha
    r_grid = _weight_grid(s, t, step)
    kernel = _kernel_weight(alpha, f)
    mean, stderr, count = _chunked_mean(seed, n_samples, _weighted_paths(r_grid, beta, kernel, x))
    return KernelEstimate(mean, stderr, count, float(r_grid[1] - r_grid[0]))


def estimate_gtilde(s: float, x: float, t: float, y: float, params, n_samples: int,
                    step: float, seed: int, f=None) -> KernelEstimate:
    """Bridge estimate of the pointwise kernel (conditional weight times the
    Gaussian prefactor), with the perturbation f as in `estimate_total_mass`."""
    _validate(s, t, n_samples, step)
    beta, alpha = params.beta, params.alpha
    pref = math.exp(-((y - x) ** 2) / (2.0 * (t - s))) / math.sqrt(2.0 * math.pi * (t - s))
    r_grid = _weight_grid(s, t, step)
    kernel = _kernel_weight(alpha, f)
    mean, stderr, count = _chunked_mean(seed, n_samples,
                                        _weighted_paths(r_grid, beta, kernel, x, y))
    return KernelEstimate(pref * mean, pref * stderr, count, float(r_grid[1] - r_grid[0]))


def localization_probe(s: float, t: float, x: float, y: float, eta_exponent: float,
                       params, n_samples: int, step: float, seed: int) -> dict:
    """Share of the conditional weight carried by paths leaving the tube
    |B_r| < r^{(kappa + eta)/2}."""
    if eta_exponent <= 0:
        raise DomainError("eta must be positive")
    _validate(s, t, n_samples, step)
    beta, alpha = params.beta, params.alpha
    kappa = params.kappa()
    expo = (kappa + eta_exponent) / 2.0
    r_grid = _weight_grid(s, t, step)
    tube = r_grid ** expo
    kernel = _kernel_weight(alpha)

    def sample(rng, size):
        integral = _Trapezoid(r_grid, *kernel)
        exits = np.zeros(size, dtype=bool)
        for j, col in _march(rng, r_grid, np.full(size, float(x)), y):
            integral.add(j, col)
            exits |= np.abs(col) >= tube[j]
        w = np.exp(-beta * integral.total)
        return np.stack([w, np.where(exits, w, 0.0)])

    (w_all, w_exit), _, count = _chunked_mean(seed, n_samples, sample)
    ratio = w_exit / w_all if w_all > 0 else 0.0
    return {"ratio": ratio, "weight_total": w_all, "weight_exit": w_exit, "n_samples": count}


def _quadratic_angle(rng, r_grid, size):
    """int_s^t (B_r/r)^2 dr along `size` paths with B_s = 0, marched on the
    geometric r_grid from s to t.  With r = e^u the integrand is B_r^2 / r
    (dr = r du), integrated by the trapezoid rule in u; its value at u = 0
    is zero, so the rule is du (sum of all columns - last / 2)."""
    du = math.log(r_grid[-1] / r_grid[0]) / (len(r_grid) - 1)
    total = np.zeros(size)
    for j, col in _march(rng, r_grid, np.zeros(size)):
        last = col * col / r_grid[j]
        total += last
    return du * (total - 0.5 * last)


def alpha2_exponent_fit(beta: float, s_list, t: float, n_samples: int, step: float,
                        seed: int) -> dict:
    """Fit the decay exponent of E[exp(-beta int_s^t (B_r/r)^2 dr)] against
    log(s/t); the weight here uses y/r directly (no sqrt-2 normalization).

    The weight is scale-invariant: X_u = B_r / sqrt(r) with r = e^u is an
    Ornstein-Uhlenbeck process, so each s is marched on a geometric grid,
    uniform in u = log r with du <= step / 5 (at least two steps), and the
    forward steps of `_march` are exact on it.  At step 0.1 (du = 0.02) the
    quadrature bias of each log-mean stays below a tenth of its Monte Carlo
    standard error at the acceptance run's 30,000 samples (CHANGES.md).

    Expected slope: (sqrt(1 + 8 beta) - 1) / 4.
    """
    if len(set(s_list)) < 2:
        raise ConfigurationError(f"a slope needs at least two distinct s, got {list(s_list)}")
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    vals, logs = [], []
    for idx, s in enumerate(sorted(s_list)):
        _validate(s, t, n_samples)
        r_grid = _log_time_grid(s, t, step)
        sample = lambda rng, size: np.exp(-beta * _quadratic_angle(rng, r_grid, size))
        vals.append(_chunked_mean(seed + idx, n_samples, sample)[0])
        logs.append(math.log(s / t))
    logs = np.array(logs)
    lv = np.log(np.array(vals))
    slope, intercept = np.polyfit(logs, lv, 1)
    pred = slope * logs + intercept
    ss_res = float(np.sum((lv - pred) ** 2))
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    out = {"slope": float(slope), "intercept": float(intercept), "r2": r2,
           "points": list(zip(logs.tolist(), lv.tolist()))}
    if r2 < 0.99:
        out["warning"] = f"fit quality r2={r2:.4f} below 0.99"
    return out


def bridge_barrier_probability(s: float, x: float, t: float, y: float, K: float) -> float:
    """P(exists r in [s,t]: B_r >= K | bridge x -> y) = exp(-2(K-x)(K-y)/(t-s))."""
    if x >= K or y >= K:
        raise DomainError("endpoints must lie below the barrier")
    if not (t > s):
        raise DomainError("need t > s")
    return math.exp(-2.0 * (K - x) * (K - y) / (t - s))


def bridge_barrier_mc(s: float, x: float, t: float, y: float, K: float,
                      n_samples: int, step: float, seed: int) -> KernelEstimate:
    """Unbiased MC for the barrier-crossing probability.

    The skeleton indicator alone is biased low by O(sqrt step); each
    sub-interval is therefore completed with the exact conditional
    crossing probability exp(-2ab/dr) given its endpoints' distances a and
    b below K, which removes the bias.  A path that reaches K counts 1.
    On the others the probability is taken only where a b < 400 dr: beyond
    it 2ab/dr exceeds 745.2 and the exponential underflows to exactly 0, so
    the skipped steps would add -0.0 to the log survival probability, and
    the estimate equals the dense evaluation bit for bit.
    """
    if x >= K or y >= K:
        raise DomainError("endpoints must lie below the barrier")
    if not (t > s):
        raise DomainError(f"need t > s, got s={s}, t={t}")
    if n_samples < 100:
        raise ConfigurationError("need at least 100 samples")
    r_grid = _weight_grid(s, t, step)

    def sample(rng, size):
        clear = np.ones(size, dtype=bool)  # below K at every column so far
        log_stay = np.zeros(size)
        for j, col in _march(rng, r_grid, np.full(size, float(x)), y):
            b = K - col
            clear &= b > 0.0
            if j:
                # crossing probability exp(-2ab/dr) inside the sub-interval,
                # on the clear paths where it does not underflow to 0
                dr = r_grid[j] - r_grid[j - 1]
                near = np.flatnonzero(clear & (a * b < 400.0 * dr))
                p_cross = np.clip(np.exp(-2.0 * a[near] * b[near] / dr), 0.0, 1.0 - 1e-16)
                log_stay[near] += np.log1p(-p_cross)
            a = b
        return np.where(clear, 1.0 - np.exp(log_stay), 1.0)

    mean, stderr, count = _chunked_mean(seed, n_samples, sample)
    return KernelEstimate(mean, stderr, count, r_grid[1] - r_grid[0])


def bessel_density(r0: float, s: float, z) -> np.ndarray:
    """Density of the radius at time s of a planar Brownian motion started
    at radius r0: (z/s) exp(-(r0^2+z^2)/(2s)) I_0(r0 z / s), with
    log I_0(u) = log(i0e(u)) + u so large arguments cannot overflow."""
    if s <= 0:
        raise DomainError("s must be positive")
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0):
        raise DomainError("z must be nonnegative")
    with np.errstate(divide="ignore"):
        logz = np.where(z_arr > 0, np.log(np.maximum(z_arr, 1e-300)), -np.inf)
        u = r0 * z_arr / s
        log_dens = (logz - math.log(s)
                    - (r0 ** 2 + z_arr ** 2) / (2.0 * s)
                    + np.log(i0e(u)) + u)
    out = np.exp(log_dens)
    return float(out) if np.isscalar(z) else out

