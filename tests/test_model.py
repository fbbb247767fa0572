import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbmlab.errors import ConfigurationError, DomainError
from bbmlab.model import (
    DerivedConstants,
    ModelParams,
    RateFamily,
    RateTable,
    barrier_m_plus,
    branching_rate,
    centering_m,
    conjectured_corrections,
    derived_constants,
    log_coefficient,
    wrap_angle,
)

SQRT2 = math.sqrt(2.0)
LAMBDA0_A1 = 1.0187929716474714  # ground level at alpha=1, cross-checked in test_spectral


def _theta1_by_ratio(a, b, lambda0):
    """theta1 with the factor (2+a)/(2-a) in place of 1/(1-kappa)."""
    return lambda0 * (2.0 + a) / (2.0 - a) * b ** (2.0 / (2.0 + a)) / 2.0 ** (2.0 * a / (2.0 + a))


def sinpow(alpha):
    return ModelParams(alpha=alpha, rate_family=RateFamily.SIN_POW)


class TestBranchingRate:
    def test_maximum_at_zero(self):
        assert branching_rate(0.0, sinpow(1.0)) == 1.0

    def test_zero_at_pi(self):
        for a in (0.7, 1.0, 1.9):
            assert branching_rate(math.pi, sinpow(a)) == pytest.approx(0.0, abs=1e-15)

    def test_periodicity_on_representable_angles(self):
        # dyadic angles keep theta + 2*pi exact in floating point, so the
        # wrap (exact IEEE remainder) reproduces theta bit for bit
        rng = np.random.default_rng(7)
        p = sinpow(1.0)
        thetas = np.round(rng.uniform(-3.0, 3.0, 1000) * 2**20) / 2**20
        for th in thetas:
            assert branching_rate(float(th) + 2 * math.pi, p) == branching_rate(float(th), p)

    def test_wrap_convention_at_pi(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3 * math.pi) == math.pi

    def test_powclamp_floor(self):
        p = ModelParams(alpha=1.0, beta=2.0, rate_family=RateFamily.POW_CLAMP)
        assert branching_rate(3.0, p) == 0.0
        assert branching_rate(0.1, p) == pytest.approx(0.8)

    def test_homogeneous(self):
        p = ModelParams(alpha=1.0, rate_family=RateFamily.HOMOGENEOUS)
        assert branching_rate(2.3, p) == 1.0

    def test_custom_table_validation(self):
        with pytest.raises(ConfigurationError):
            RateTable(tuple([0.5] * 8))  # too few points
        with pytest.raises(ConfigurationError):
            RateTable(tuple([0.5] * 15 + [0.4]))  # endpoints differ
        with pytest.raises(ConfigurationError):
            RateTable(tuple([1.5] + [0.5] * 15))  # outside [0, 1]

    def test_custom_table_interpolates(self):
        tab = RateTable(tuple(0.5 + 0.25 * math.cos(t) for t in np.linspace(-math.pi, math.pi, 33)))
        p = ModelParams(alpha=1.0, rate_family=RateFamily.CUSTOM, table=tab)
        assert branching_rate(0.0, p) == pytest.approx(0.75, abs=1e-12)
        out = branching_rate(np.linspace(-9, 9, 101), p)
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_monotone_in_alpha_for_sinpow(self):
        thetas = np.linspace(-math.pi, math.pi, 401)
        alphas = [0.5, 0.8, 1.3, 2.0, 4.0]
        rates = [branching_rate(thetas, sinpow(a)) for a in alphas]
        for lo, hi in zip(rates, rates[1:]):
            assert np.all(lo <= hi + 1e-15)

    def test_small_angle_expansion(self):
        # |b(theta) - (1 - |theta/2|^alpha)| <= theta^2 near zero validates
        # the quadratic error term with constant 1 on |theta| <= 0.1
        for a in (0.7, 1.0, 1.5, 1.9):
            p = sinpow(a)
            for th in np.linspace(-0.1, 0.1, 201):
                assert abs(branching_rate(th, p) - 1.0 + abs(th / 2.0) ** a) <= th * th

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_wrapped_range(self, theta):
        w = wrap_angle(theta)
        assert -math.pi < w <= math.pi


class TestConstants:
    def test_kappa_range(self):
        assert ModelParams(alpha=1.0).kappa() == pytest.approx(2.0 / 3.0)
        # (1/2, 1) exactly on the tightness regime
        for a in (0.67, 1.0, 1.99):
            k = ModelParams(alpha=a).kappa()
            assert 0.5 < k < 1.0 if 2 / 3 < a < 2 else True

    def test_theta2(self):
        c = DerivedConstants(1.0, 1.0, LAMBDA0_A1)
        assert c.theta2 == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)

    @given(st.floats(0.7, 1.9), st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_theta1_two_formulas(self, alpha, beta):
        # the same constant written with (2+a)/(2-a) instead of 1/(1-kappa)
        t1 = DerivedConstants(alpha, beta, 1.0).theta1
        assert t1 == pytest.approx(_theta1_by_ratio(alpha, beta, 1.0), rel=1e-12)

    def test_theta1_next_to_alpha_two(self):
        # 1 - kappa = (2-a)/(2+a) cancels to about 6 digits at 1.999999: the
        # two forms differ by rounding there, not by a fault
        t1 = DerivedConstants(1.999999, 1.0, 1.0).theta1
        assert t1 == pytest.approx(_theta1_by_ratio(1.999999, 1.0, 1.0), rel=1e-9)

    def test_theta1_undefined_at_kappa_one(self):
        with pytest.raises(DomainError, match="kappa = 1"):
            DerivedConstants(2.0, 0.25, 1.0)
        with pytest.raises(DomainError):
            derived_constants(sinpow(2.0), 1.0)

    def test_effective_beta(self):
        assert sinpow(1.0).effective_beta() == 0.5
        p = ModelParams(alpha=1.0, beta=3.0, rate_family=RateFamily.POW_CLAMP)
        assert p.effective_beta() == 3.0
        with pytest.raises(DomainError):
            ModelParams(alpha=1.0, rate_family=RateFamily.HOMOGENEOUS).effective_beta()


class TestCentering:
    def consts(self, beta=1.0):
        return DerivedConstants(1.0, beta, LAMBDA0_A1)

    def test_log_term_vanishes_at_one(self):
        # t=1 is outside the domain, but the limit value is sqrt2 - theta1/sqrt2
        c = self.consts()
        val = centering_m(1.0 + 1e-12, c)
        assert val == pytest.approx(SQRT2 - c.theta1 / SQRT2, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            centering_m(1.0, self.consts())
        with pytest.raises(DomainError):
            barrier_m_plus(0.5, self.consts())

    def test_value_at_t1000(self):
        # recomputed by direct arithmetic with the Airy ground level
        c = self.consts()
        theta1 = LAMBDA0_A1 * 3.0 / 2.0 ** (2.0 / 3.0)
        expected = (
            SQRT2 * 1000.0
            - theta1 / SQRT2 * 1000.0 ** (1.0 / 3.0)
            - (3.0 / (2 * SQRT2) - 1.0 / (6 * SQRT2)) * math.log(1000.0)
        )
        assert centering_m(1000.0, c) == pytest.approx(expected, rel=1e-14)
        assert centering_m(1000.0, c) == pytest.approx(1394.086, abs=5e-3)

    def test_log_coefficient_alpha1(self):
        assert log_coefficient(1.0) == pytest.approx(4.0 / (3.0 * SQRT2), rel=1e-14)
        assert -log_coefficient(1.0) == pytest.approx(-0.942809, abs=1e-6)

    def test_barrier_above_centering(self):
        c = self.consts()
        for s in (2.0, 10.0, 100.0):
            assert barrier_m_plus(s, c) > centering_m(s, c)

    def test_barrier_value_s100(self):
        c = self.consts()
        expected = SQRT2 * 100.0 - c.theta1 / SQRT2 * 100.0 ** (1.0 / 3.0) + 10.0 * math.log(100.0)
        assert barrier_m_plus(100.0, c) == pytest.approx(expected, rel=1e-14)


class TestConjectures:
    def test_alpha2_beta1(self):
        rep = conjectured_corrections(ModelParams(alpha=2.0, beta=1.0, rate_family=RateFamily.POW_CLAMP))
        assert rep.alpha2_log_coefficient == pytest.approx(3.0 / (2 * SQRT2) + 1.0 / (2 * SQRT2), rel=1e-14)
        assert rep.conjecture

    def test_alpha2_beta_to_zero(self):
        rep = conjectured_corrections(ModelParams(alpha=2.0, beta=1e-12, rate_family=RateFamily.POW_CLAMP))
        assert rep.alpha2_log_coefficient == pytest.approx(3.0 / (2 * SQRT2), rel=1e-6)

    def test_alpha4(self):
        rep = conjectured_corrections(ModelParams(alpha=4.0, beta=1.0, rate_family=RateFamily.POW_CLAMP))
        assert rep.alpha_gt2_log_coefficient == pytest.approx((1 + 0.25) / SQRT2, rel=1e-14)
