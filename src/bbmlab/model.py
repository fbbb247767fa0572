"""Model parameters, branching-rate families and closed-form constants.

The particle system lives in the plane; a particle at angle theta branches
at rate b(theta) <= 1 with maximum at theta = 0 and local behaviour
b(theta) = 1 - beta |theta|^alpha + O(theta^2).  Everything downstream
(kernel decay, centering of the maximum) is driven by the two constants

    kappa  = 2 alpha / (2 + alpha),
    theta1 = lambda0 * beta^{2/(2+alpha)} * 2^{-2 alpha/(2+alpha)} / (1 - kappa),

where lambda0 is the ground-state eigenvalue of -f'' + |x|^alpha f
(computed by the spectral module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigurationError, DomainError

TAU = 2.0 * math.pi

SQRT2 = math.sqrt(2.0)


class RateFamily(str, Enum):
    SIN_POW = "SinPow"
    POW_CLAMP = "PowClamp"
    HOMOGENEOUS = "Homogeneous"
    CUSTOM = "Custom"


def wrap_angle(theta):
    """Wrap an angle to (-pi, pi], the boundary -pi mapped to +pi; a float
    for a scalar, an array otherwise.

    Exact in IEEE arithmetic: fmod by 2*pi is exact, and the one 2*pi added
    or subtracted after it is too, by Sterbenz's lemma, since the value it
    corrects has magnitude in [pi, 2*pi).  So the result equals the exact
    IEEE remainder by 2*pi with -pi sent to +pi, signed zeros included.
    """
    r = np.fmod(np.asarray(theta, dtype=float), TAU)
    r = np.where(r > math.pi, r - TAU, r)
    r = np.where(r <= -math.pi, r + TAU, r)
    return r if r.ndim else float(r)


@dataclass(frozen=True)
class RateTable:
    """Custom rate given on a uniform theta grid over [-pi, pi].

    Values are linearly interpolated and must already lie in [0, 1];
    the two endpoints must agree (2*pi periodicity).
    """

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(x) for x in self.values))
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 16:
            raise ConfigurationError("custom rate table needs at least 16 points")
        if not np.isfinite(v).all():
            raise ConfigurationError("custom rate table has non-finite entries")
        if v.min() < 0.0 or v.max() > 1.0:
            raise ConfigurationError("custom rate table values must lie in [0, 1]")
        if v[0] != v[-1]:
            raise ConfigurationError(
                "custom rate table endpoints differ: not 2*pi-periodic"
            )

    def __call__(self, theta_wrapped):
        v = np.asarray(self.values, dtype=float)
        grid = np.linspace(-math.pi, math.pi, v.size)
        out = np.interp(theta_wrapped, grid, v)
        return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class ModelParams:
    """Immutable model description; safe to share across threads."""

    alpha: float
    beta: float = 1.0
    rate_family: RateFamily = RateFamily.SIN_POW
    table: RateTable | None = None

    def __post_init__(self):
        if not (self.alpha > 0.0):
            raise ConfigurationError(f"alpha must be > 0, got {self.alpha}")
        if not (self.beta > 0.0):
            raise ConfigurationError(f"beta must be > 0, got {self.beta}")
        if self.rate_family is RateFamily.CUSTOM and self.table is None:
            raise ConfigurationError("Custom rate family requires a table")

    def kappa(self) -> float:
        return 2.0 * self.alpha / (2.0 + self.alpha)

    def effective_beta(self) -> float:
        """Coefficient of |theta|^alpha in 1 - b(theta) near theta = 0.

        SinPow has b = 1 - |sin(theta/2)|^alpha, hence beta = 2^{-alpha}
        regardless of the beta field; PowClamp and Custom use the field.
        """
        if self.rate_family is RateFamily.SIN_POW:
            return 2.0 ** (-self.alpha)
        if self.rate_family is RateFamily.HOMOGENEOUS:
            raise DomainError("homogeneous rate has no angular penalty")
        return self.beta


@dataclass(frozen=True)
class DerivedConstants:
    """kappa, theta1, theta2 for a given (alpha, beta, lambda0)."""

    alpha: float
    beta: float
    lambda0: float
    kappa: float = field(init=False)
    theta1: float = field(init=False)
    theta2: float = field(init=False)

    def __post_init__(self):
        a, b = self.alpha, self.beta
        kap = 2.0 * a / (2.0 + a)
        if kap == 1.0:
            raise DomainError(f"theta1 has the factor 1/(1-kappa), undefined at kappa = 1 "
                              f"(alpha = {a})")
        t1 = self.lambda0 * b ** (2.0 / (2.0 + a)) * 2.0 ** (-2.0 * a / (2.0 + a)) / (1.0 - kap)
        t2 = (2.0 * b) ** (1.0 / (2.0 + a))
        object.__setattr__(self, "kappa", kap)
        object.__setattr__(self, "theta1", t1)
        object.__setattr__(self, "theta2", t2)


def derived_constants(params: ModelParams, lambda0: float) -> DerivedConstants:
    """Build the derived constants from a model's effective beta."""
    return DerivedConstants(params.alpha, params.effective_beta(), lambda0)


def branching_rate(theta, params: ModelParams):
    """Branching rate b(theta) in [0, 1]; accepts scalars or arrays.

    The angle is wrapped to (-pi, pi] first; the origin of the plane has
    no angle, by convention b = 1 there (matches the theta -> 0 limit).
    """
    scalar = np.isscalar(theta)
    w = wrap_angle(theta)
    fam = params.rate_family
    if fam is RateFamily.SIN_POW:
        val = 1.0 - np.abs(np.sin(np.asarray(w) / 2.0)) ** params.alpha
    elif fam is RateFamily.POW_CLAMP:
        val = np.maximum(1.0 - params.beta * np.abs(np.asarray(w)) ** params.alpha, 0.0)
    elif fam is RateFamily.HOMOGENEOUS:
        val = np.ones_like(np.asarray(w, dtype=float))
    elif fam is RateFamily.CUSTOM:
        val = params.table(w)
    else:
        raise ConfigurationError(f"unknown rate family {fam}")
    return float(val) if scalar else val


def log_coefficient(alpha: float) -> float:
    """Coefficient of -log t in the centering, (3 - alpha/(2+alpha)) / (2*sqrt 2)."""
    return 3.0 / (2.0 * SQRT2) - alpha / (2.0 * SQRT2 * (2.0 + alpha))


def centering_m(t: float, consts: DerivedConstants) -> float:
    """Centering of the maximal displacement,

    m(t) = sqrt(2) t - (theta1/sqrt 2) t^{1-kappa} - (3/(2 sqrt 2) -
           alpha/(2 sqrt 2 (2+alpha))) log t,   valid for t > 1.
    """
    if t <= 1.0:
        raise DomainError(f"centering needs t > 1, got t={t}")
    return (
        SQRT2 * t
        - consts.theta1 / SQRT2 * t ** (1.0 - consts.kappa)
        - log_coefficient(consts.alpha) * math.log(t)
    )


def barrier_m_plus(s: float, consts: DerivedConstants) -> float:
    """Upper barrier sqrt(2) s - (theta1/sqrt 2) s^{1-kappa} + 10 log s, s > 1.

    The +10 log s headroom is a convention carried through the whole
    analysis; any coefficient large enough would do.
    """
    if s <= 1.0:
        raise DomainError(f"barrier needs s > 1, got s={s}")
    return SQRT2 * s - consts.theta1 / SQRT2 * s ** (1.0 - consts.kappa) + 10.0 * math.log(s)


@dataclass(frozen=True)
class CorrectionReport:
    """Conjectured log-t coefficients outside the proven regime.

    These are printed for reference only and never enter acceptance of
    runs inside the (2/3, 2) regime.
    """

    alpha: float
    beta: float
    alpha2_log_coefficient: float
    alpha_gt2_log_coefficient: float
    conjecture: bool = True


def conjectured_corrections(params: ModelParams) -> CorrectionReport:
    beta = params.beta
    c2 = 3.0 / (2.0 * SQRT2) + (math.sqrt(1.0 + 8.0 * beta) - 1.0) / (4.0 * SQRT2)
    cg2 = (1.0 + 1.0 / params.alpha) / SQRT2
    return CorrectionReport(params.alpha, beta, c2, cg2)
