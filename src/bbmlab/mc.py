"""Monte Carlo estimation of the weighted Brownian kernels.

The object of interest is the exponential weight

    exp( - beta int_s^t |B_r / (sqrt 2 r)|^alpha (1 + f(B_r, r)) dr )

averaged over forward Wiener paths (total mass) or Brownian bridges (the
pointwise kernel, times the Gaussian prefactor).  The perturbation f is
either zero or one of the explicit envelopes

    f+(y,r) = min(L(|y/r|^a + r^-b), 1),
    f-(y,r) = -min(L(|y/r|^a + r^-b), eta),

where eta is the largest value in (0, 1/2] keeping y -> (y/r)^alpha (1+f-)
non-decreasing for all r >= (2L)^{1/b}.

Every Monte Carlo estimate in bbmlab, including the spine checks in `sim`,
goes through one reducer, `_chunked_mean`: chunk i of the samples draws from
Philox(key=[seed, key_offset + i]), and the sums of v and v^2 are taken per
chunk and added in chunk index order.  Chunks hold 20,000 samples with key
offset 0; the two-spine check in `sim` uses chunks of 10,000 and key offset
7,000,000.  Results are therefore bit-reproducible, and two estimates with
the same seed share every path (making pathwise-monotone comparisons exact).
Every path, the spines of `sim` included, comes from one column marcher,
`_march`, forward or bridge, for 1-D or stacked (planar, two-spine) states.
Path integrals use the trapezoidal rule on the sampled skeleton, with
midpoint evaluation on steps where a 1-D path crosses zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalFailure

CHUNK = 20_000


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
    """Explicit perturbation pair; eta is found by bisection once."""

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


def _monotone_on_grid(L, a, b, alpha, eta):
    """Check y -> (y/r)^alpha (1 + f-) non-decreasing on a grid of 1000 y
    values for each of 40 radii spanning four decades."""
    r0 = (2.0 * L) ** (1.0 / b)
    for r in np.geomspace(r0, r0 * 1e4, 40):
        # resolve the region around the cap; beyond it the map is clearly
        # increasing, so scan up to twice the cap location
        u_cap = ((eta - L * r ** (-b)) / L)
        u_hi = 2.0 * max(u_cap, 0.0) ** (1.0 / a) if u_cap > 0 else 1.0
        y = np.linspace(0.0, max(u_hi, 1.0) * r, 1000)
        vals = (y / r) ** alpha * (1.0 - np.minimum(L * ((y / r) ** a + r ** (-b)), eta))
        if np.any(np.diff(vals) < -1e-15):
            return False
    return True


def make_envelope(L: float, a: float, b: float, alpha: float) -> ErrorEnvelope:
    """Bisect for the largest admissible eta in (0, 1/2]."""
    if min(L, a, b) <= 0:
        raise ConfigurationError("envelope parameters must be positive")
    if _monotone_on_grid(L, a, b, alpha, 0.5):
        return ErrorEnvelope(L, a, b, alpha, 0.5)
    lo, hi = 0.0, 0.5
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if _monotone_on_grid(L, a, b, alpha, mid):
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise NumericalFailure("no admissible eta found (envelope too steep)")
    return ErrorEnvelope(L, a, b, alpha, lo)


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


def _weight_grid(s, t, step):
    if not (step > 0 and math.isfinite(step)):
        raise DomainError(f"step must be positive and finite, got {step}")
    m = max(2, int(math.ceil((t - s) / step)))
    return np.linspace(s, t, m + 1)


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
            cur = cur + math.sqrt(dr) * rng.standard_normal(cur.shape)
        elif j == m - 1:
            cur = np.full_like(cur, end)
        else:
            remain = r_grid[-1] - r_grid[j]
            mean = cur + (end - cur) * (dr / remain)
            var = dr * (remain - dr) / remain
            cur = mean + math.sqrt(var) * rng.standard_normal(cur.shape)
        yield j + 1, cur


class _Trapezoid:
    """Trapezoidal integral of weight(column, r) over the columns of a
    skeleton, added in order; memory stays O(n paths).  On 1-D states a step
    that crosses zero takes the midpoint value instead (|y|^alpha kink).
    `add` returns the weight of the column it was given."""

    def __init__(self, r_grid, weight):
        self.r, self.weight, self.total = r_grid, weight, 0.0

    def add(self, j, col):
        w = self.weight(col, self.r[j])
        if j:
            dr = self.r[j] - self.r[j - 1]
            trap = 0.5 * (self.w_prev + w)
            if col.ndim == 1:
                crossing = self.prev * col < 0.0
                if np.any(crossing):
                    mid = self.weight(0.5 * (self.prev + col), self.r[j - 1] + 0.5 * dr)
                    trap = np.where(crossing, mid, trap)
            self.total += dr * trap
        self.prev, self.w_prev = col, w
        return w


def _weighted_paths(r_grid, beta, weight, x, end=None):
    """sample(rng, size) -> exp(-beta int weight) along paths started at x."""
    def sample(rng, size):
        integral = _Trapezoid(r_grid, weight)
        for j, col in _march(rng, r_grid, np.full(size, float(x)), end):
            integral.add(j, col)
        return np.exp(-beta * integral.total)
    return sample


def _kernel_weight(alpha, f=None):
    """|y/(sqrt2 r)|^alpha, times (1 + f(y, r)) when f is given."""
    sqrt2 = math.sqrt(2.0)
    if f is None:
        return lambda y, r: np.abs(y / (sqrt2 * r)) ** alpha
    return lambda y, r: np.abs(y / (sqrt2 * r)) ** alpha * (1.0 + f(y, r))


def _validate(s, t, n_samples, step):
    if not (0.0 < s < t):
        raise DomainError(f"need 0 < s < t, got s={s}, t={t}")
    if n_samples < 100:
        raise ConfigurationError("need at least 100 samples")
    if step > min(1.0, s) / 10.0:
        raise DomainError(f"step {step} too coarse; need <= min(1, s)/10")


def estimate_total_mass(s: float, t: float, x: float, params, n_samples: int,
                        step: float, seed: int, envelope: ErrorEnvelope | None = None,
                        branch: str = "zero") -> KernelEstimate:
    """Forward-path estimate of E[exp(-beta int_s^t |B/(sqrt2 r)|^a (1+f))].

    branch selects f: "zero", "plus" or "minus" of the given envelope.
    Degenerate t == s returns exactly 1.
    """
    if t == s:
        return KernelEstimate(1.0, 0.0, n_samples, step)
    _validate(s, t, n_samples, step)
    beta, alpha = params.beta, params.alpha
    if beta == 0.0:
        return KernelEstimate(1.0, 0.0, n_samples, step)
    r_grid = _weight_grid(s, t, step)
    weight = _kernel_weight(alpha, _branch_fn(envelope, branch))
    mean, stderr, count = _chunked_mean(seed, n_samples, _weighted_paths(r_grid, beta, weight, x))
    return KernelEstimate(mean, stderr, count, float(r_grid[1] - r_grid[0]))


def _branch_fn(envelope, branch):
    if branch == "zero" or envelope is None:
        return None
    if branch == "plus":
        return envelope.f_plus
    if branch == "minus":
        return envelope.f_minus
    raise ConfigurationError(f"unknown envelope branch {branch!r}")


def estimate_gtilde(s: float, x: float, t: float, y: float, params, n_samples: int,
                    step: float, seed: int, envelope: ErrorEnvelope | None = None,
                    branch: str = "zero") -> KernelEstimate:
    """Bridge estimate of the pointwise kernel (conditional weight times the
    Gaussian prefactor)."""
    _validate(s, t, n_samples, step)
    beta, alpha = params.beta, params.alpha
    pref = math.exp(-((y - x) ** 2) / (2.0 * (t - s))) / math.sqrt(2.0 * math.pi * (t - s))
    if beta == 0.0:
        return KernelEstimate(pref, 0.0, n_samples, step)
    r_grid = _weight_grid(s, t, step)
    weight = _kernel_weight(alpha, _branch_fn(envelope, branch))
    mean, stderr, count = _chunked_mean(seed, n_samples,
                                        _weighted_paths(r_grid, beta, weight, x, y))
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
    weight = _kernel_weight(alpha)

    def sample(rng, size):
        integral = _Trapezoid(r_grid, weight)
        exits = np.zeros(size, dtype=bool)
        for j, col in _march(rng, r_grid, np.full(size, float(x)), y):
            integral.add(j, col)
            exits |= np.abs(col) >= tube[j]
        w = np.exp(-beta * integral.total)
        return np.stack([w, np.where(exits, w, 0.0)])

    (w_all, w_exit), _, count = _chunked_mean(seed, n_samples, sample)
    ratio = w_exit / w_all if w_all > 0 else 0.0
    return {"ratio": ratio, "weight_total": w_all, "weight_exit": w_exit, "n_samples": count}


def alpha2_exponent_fit(beta: float, s_list, t: float, n_samples: int, step: float,
                        seed: int) -> dict:
    """Fit the decay exponent of E[exp(-beta int_s^t (B_r/r)^2 dr)] against
    log(s/t); the weight here uses y/r directly (no sqrt-2 normalization).

    Expected slope: (sqrt(1 + 8 beta) - 1) / 4.
    """
    if beta == 0.0:
        return {"slope": 0.0, "intercept": 0.0, "r2": 1.0, "points": []}
    vals, logs = [], []
    weight = lambda yv, r: (yv / r) ** 2
    for idx, s in enumerate(sorted(s_list)):
        eff_step = min(step, min(1.0, s) / 10.0)
        _validate(s, t, n_samples, eff_step)
        r_grid = _weight_grid(s, t, eff_step)
        sample = _weighted_paths(r_grid, beta, weight, 0.0)
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
    crossing probability given its endpoints, which removes the bias.
    """
    if x >= K or y >= K:
        raise DomainError("endpoints must lie below the barrier")
    if not (t > s):
        raise DomainError(f"need t > s, got s={s}, t={t}")
    if n_samples < 100:
        raise ConfigurationError("need at least 100 samples")
    r_grid = _weight_grid(s, t, step)

    def sample(rng, size):
        hit = np.zeros(size, dtype=bool)
        log_stay = np.zeros(size)
        for j, col in _march(rng, r_grid, np.full(size, float(x)), y):
            hit |= col >= K
            if j:
                # conditional crossing probability inside the sub-interval
                a = np.clip(K - prev, 0.0, None)
                b = np.clip(K - col, 0.0, None)
                dr = r_grid[j] - r_grid[j - 1]
                p_cross = np.clip(np.exp(-2.0 * a * b / dr), 0.0, 1.0 - 1e-16)
                log_stay += np.where((a > 0) & (b > 0), np.log1p(-p_cross), 0.0)
            prev = col
        return np.where(hit, 1.0, 1.0 - np.exp(log_stay))

    mean, stderr, count = _chunked_mean(seed, n_samples, sample)
    return KernelEstimate(mean, stderr, count, r_grid[1] - r_grid[0])


def log_i0(z):
    """log I_0(z) for z >= 0: power series below 20, two-term asymptotic
    e^z / sqrt(2 pi z) (1 + 1/(8z)) beyond, evaluated in log space."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z < 20.0
    if np.any(small):
        zs = z[small]
        term = np.ones_like(zs)
        acc = np.ones_like(zs)
        for k in range(1, 40):
            term = term * (zs / (2.0 * k)) ** 2
            acc += term
        out[small] = np.log(acc)
    if np.any(~small):
        zl = z[~small]
        out[~small] = zl - 0.5 * np.log(2.0 * math.pi * zl) + np.log1p(1.0 / (8.0 * zl))
    return out


def bessel_density(r0: float, s: float, z) -> np.ndarray:
    """Density of the radius at time s of a planar Brownian motion started
    at radius r0: (z/s) exp(-(r0^2+z^2)/(2s)) I_0(r0 z / s), via log-space
    Bessel evaluation so large arguments cannot overflow."""
    if s <= 0:
        raise DomainError("s must be positive")
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < 0):
        raise DomainError("z must be nonnegative")
    with np.errstate(divide="ignore"):
        logz = np.where(z_arr > 0, np.log(np.maximum(z_arr, 1e-300)), -np.inf)
        log_dens = (logz - math.log(s)
                    - (r0 ** 2 + z_arr ** 2) / (2.0 * s)
                    + log_i0(r0 * z_arr / s))
    out = np.exp(log_dens)
    return float(out) if np.isscalar(z) else out

