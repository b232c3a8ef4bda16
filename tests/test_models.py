"""Closed-form growth laws: exact values, frozen oracles, and curve properties.

Frozen reference numbers in this file were produced by an independent
fixed-step fourth-order integration of each defining equation (dt = 1e-5,
written and run before the closed forms), or by direct analytic evaluation
where the expression is elementary.
"""
import math
import warnings

import numpy as np
import pytest

from growthdyn import models
from growthdyn import (UNBOUNDED, DomainError, GeneralizedLogisticParams,
                       ParameterError, PowerLawParams, SaturatingLinearParams,
                       Unbounded, early_time_approx, eval_logistic_family,
                       eval_power_law, eval_saturating_linear, terminal_value)
from growthdyn.ode import AutonomousSystem, integrate_fixed

# Oracle values from the independent dt=1e-5 RK4 runs.
LOGISTIC_A1_T1 = 4.868777734693238    # a=5, b=1, alpha=1, phi0=1, t=1
LOGISTIC_A1_T2 = 4.999092166267092    # same params, t=2
LOGISTIC_A2_T1 = 2.2358649704906424   # a=5, b=1, alpha=2, phi0=1, t=1
LOGISTIC_A2_T2 = 2.23606796828203     # same params, t=2
LOGISTIC_A3_T2 = 1.709975946676475    # a=5, b=1, alpha=3, phi0=1, t=2


class TestPowerLaw:
    def test_linear_identity(self):
        assert eval_power_law(PowerLawParams(a=1, beta=1), 3.0) == 3.0

    def test_square_root_case(self):
        # 2 * 4**0.5; the exponent was cross-checked by log-log regression
        # on a sampled grid before freezing.
        assert eval_power_law(PowerLawParams(a=2, beta=0.5), 4.0) == pytest.approx(4.0, rel=1e-12)

    def test_zero_time(self):
        assert eval_power_law(PowerLawParams(a=1, beta=0.5), 0.0) == 0.0

    def test_array_round_trip(self):
        t = np.array([0.0, 1.0, 4.0])
        out = eval_power_law(PowerLawParams(a=2, beta=0.5), t)
        np.testing.assert_allclose(out, [0.0, 2.0, 4.0], rtol=1e-12)
        assert isinstance(eval_power_law(PowerLawParams(a=2, beta=0.5), 4.0), float)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            eval_power_law(PowerLawParams(a=1, beta=1), -0.5)

    def test_zero_time_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            eval_power_law(PowerLawParams(a=1, beta=-0.5), 0.0)

    @pytest.mark.parametrize("a, beta", [(1e300, 2.0), (1e-10, 40.0)])
    def test_value_outside_float64_raises(self, a, beta):
        # the product or t**beta alone overflows: an error, not inf and a warning
        with pytest.raises(DomainError):
            eval_power_law(PowerLawParams(a=a, beta=beta), np.array([1.0, 1e10]))

    @pytest.mark.parametrize("a, beta", [(0.0, 1.0), (-1.0, 1.0), (1.0, math.inf)])
    def test_bad_params(self, a, beta):
        with pytest.raises(ParameterError):
            PowerLawParams(a=a, beta=beta)

    def test_log_log_regression_recovers_exponent(self):
        # Regression oracle: slope of ln(phi) vs ln(t) equals beta.
        t = np.geomspace(0.1, 100.0, 60)
        phi = eval_power_law(PowerLawParams(a=2.0, beta=0.5), t)
        slope, intercept = np.polyfit(np.log(t), np.log(phi), 1)
        assert slope == pytest.approx(0.5, abs=1e-12)
        assert math.exp(intercept) == pytest.approx(2.0, rel=1e-12)


class TestSaturatingLinear:
    def test_initial_condition(self):
        assert eval_saturating_linear(SaturatingLinearParams(a=1, b=1), 0.0) == 0.0

    def test_reference_point(self):
        # 0.5*(1 - e^-2), confirmed by the RK4 oracle run.
        value = eval_saturating_linear(SaturatingLinearParams(a=1, b=2), 1.0)
        assert value == pytest.approx(0.43233235838169365, rel=1e-12)

    def test_frozen_oracle(self):
        value = eval_saturating_linear(SaturatingLinearParams(a=2, b=0.5), 3.0)
        assert value == pytest.approx(3.107479359406281, rel=1e-12)

    def test_terminal_limit(self):
        p = SaturatingLinearParams(a=1, b=1)
        assert eval_saturating_linear(p, 60.0) == pytest.approx(1.0, abs=1e-15)
        assert terminal_value(p) == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0.2, 5.0, 2)
        p = SaturatingLinearParams(a=a, b=b)
        t = np.linspace(0.0, 30.0 / b, 400)
        phi = eval_saturating_linear(p, t)
        assert np.all(np.diff(phi) > 0)
        assert np.all(phi <= a / b + 1e-12)
        # approach within 1e-6 of the plateau by t = 20/b
        assert abs(eval_saturating_linear(p, 20.0 / b) - a / b) <= 1e-6 * (a / b)

    def test_matches_direct_integration(self):
        p = SaturatingLinearParams(a=1.0, b=2.0)
        system = AutonomousSystem(1, lambda s: np.array([p.a - p.b * s[0]]))
        traj = integrate_fixed(system, np.array([0.0]), 0.0, 12.0, 0.002)
        closed = eval_saturating_linear(p, traj.times)
        np.testing.assert_allclose(traj.states[:, 0], closed, rtol=1e-6, atol=1e-12)

    def test_level_outside_float64_raises(self):
        # a/b overflows: inf * expm1(0) would be NaN with a numpy warning
        with pytest.raises(DomainError):
            eval_saturating_linear(SaturatingLinearParams(a=1e300, b=1e-300),
                                   np.array([0.0, 1.0]))

    def test_huge_rate_saturates_without_overflow(self):
        # b*t overflows float64, but the value is the level a/b within resolution
        p = SaturatingLinearParams(a=1.0, b=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi = eval_saturating_linear(p, np.array([0.0, 1.0, 1e9]))
        assert phi[0] == 0.0
        assert phi[1] == phi[2] == 1e-300


class TestLogisticFamily:
    def test_alpha0_is_pure_exponential(self):
        p = GeneralizedLogisticParams(a=5, b=1, alpha=0, phi0=1)
        assert eval_logistic_family(p, 1.0) == pytest.approx(math.exp(4.0), rel=1e-12)

    def test_alpha0_frozen_point(self):
        p = GeneralizedLogisticParams(a=2, b=1, alpha=0, phi0=1)
        assert eval_logistic_family(p, 3.0) == pytest.approx(20.085536923187668, rel=1e-12)

    def test_alpha1_frozen_oracle(self):
        p = GeneralizedLogisticParams(a=5, b=1, alpha=1, phi0=1)
        assert eval_logistic_family(p, 1.0) == pytest.approx(LOGISTIC_A1_T1, rel=1e-9)
        assert eval_logistic_family(p, 2.0) == pytest.approx(LOGISTIC_A1_T2, rel=1e-9)

    def test_alpha2_frozen_oracle(self):
        p = GeneralizedLogisticParams(a=5, b=1, alpha=2, phi0=1)
        assert eval_logistic_family(p, 1.0) == pytest.approx(LOGISTIC_A2_T1, rel=1e-9)
        assert eval_logistic_family(p, 2.0) == pytest.approx(LOGISTIC_A2_T2, rel=1e-9)

    def test_alpha3_routes_through_integrator(self):
        p = GeneralizedLogisticParams(a=5, b=1, alpha=3, phi0=1)
        assert eval_logistic_family(p, 2.0) == pytest.approx(LOGISTIC_A3_T2, rel=1e-8)
        # long-time value sits on (a/b)**(1/3)
        assert eval_logistic_family(p, 10.0) == pytest.approx(5.0 ** (1 / 3), rel=1e-8)

    def test_long_time_plateau(self):
        p = GeneralizedLogisticParams(a=5, b=1, alpha=1, phi0=1)
        assert eval_logistic_family(p, 50.0) == pytest.approx(5.0, abs=1e-12)

    def test_terminal_values(self):
        assert terminal_value(GeneralizedLogisticParams(a=5, b=1, alpha=1, phi0=1)) == 5.0
        assert terminal_value(GeneralizedLogisticParams(a=5, b=1, alpha=2, phi0=1)) \
            == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert terminal_value(GeneralizedLogisticParams(a=5, b=1, alpha=0, phi0=1)) is UNBOUNDED

    def test_unbounded_marker_is_singleton(self):
        assert Unbounded() is UNBOUNDED
        assert repr(UNBOUNDED) == "unbounded"

    def test_fixed_point_start_stays_constant(self):
        # a == b*phi0**alpha: the run starts on the equilibrium
        p = GeneralizedLogisticParams(a=2, b=2, alpha=1, phi0=1)
        t = np.linspace(0, 10, 11)
        np.testing.assert_array_equal(eval_logistic_family(p, t), np.ones(11))

    def test_zero_start_stays_zero(self):
        p = GeneralizedLogisticParams(a=2, b=1, alpha=1, phi0=0)
        assert eval_logistic_family(p, 5.0) == 0.0

    def test_alpha0_zero_start_stays_zero(self):
        # phi = 0 is a fixed point of alpha = 0 too: no log of the zero start
        p = GeneralizedLogisticParams(a=2, b=1, alpha=0, phi0=0)
        assert eval_logistic_family(p, 5.0) == 0.0
        np.testing.assert_array_equal(eval_logistic_family(p, np.linspace(0.0, 900.0, 4)),
                                      np.zeros(4))

    @pytest.mark.parametrize("alpha,shown", [(-1, "-1"), (-1.0, "-1"), (1.5, "1.5"),
                                             ("2", "'2'")])
    def test_exponent_rule_message(self, alpha, shown):
        with pytest.raises(ParameterError) as info:
            GeneralizedLogisticParams(a=5, b=1, alpha=alpha, phi0=1)
        assert str(info.value) == \
            f"unsupported alpha: {shown} (must be a non-negative integer)"

    def test_alpha0_overflow_returns_marker(self):
        p = GeneralizedLogisticParams(a=2, b=1, alpha=0, phi0=1)
        assert eval_logistic_family(p, 800.0) is UNBOUNDED

    def test_alpha0_overflow_array_raises(self):
        p = GeneralizedLogisticParams(a=2, b=1, alpha=0, phi0=1)
        with pytest.raises(DomainError):
            eval_logistic_family(p, np.array([1.0, 800.0]))

    def test_growth_regime_enforced(self):
        with pytest.raises(ParameterError):
            GeneralizedLogisticParams(a=1, b=2, alpha=1, phi0=1)

    def test_non_integer_alpha_rejected(self):
        with pytest.raises(ParameterError):
            GeneralizedLogisticParams(a=5, b=1, alpha=1.5, phi0=1)

    def test_integral_float_alpha_accepted(self):
        p = GeneralizedLogisticParams(a=5, b=1, alpha=2.0, phi0=1)
        assert p.alpha == 2 and isinstance(p.alpha, int)

    def test_negative_time_rejected(self):
        p = GeneralizedLogisticParams(a=5, b=1, alpha=1, phi0=1)
        with pytest.raises(DomainError):
            eval_logistic_family(p, -1.0)

    def test_subnormal_damping_is_exponential(self):
        # b*phi0**2/a underflows to a subnormal here; (a/b)**(1/2) does not
        # overflow, and until t = 5 the curve is phi0*e^t to float precision.
        p = GeneralizedLogisticParams(a=1, b=1e-310, alpha=2, phi0=0.03)
        t = np.linspace(0.0, 5.0, 51)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            phi = eval_logistic_family(p, t)
            # with alpha = 1 the terminal level a/b = 1e310 overflows float64,
            # which the late-time value reaches
            beyond = GeneralizedLogisticParams(a=1, b=1e-310, alpha=1, phi0=0.03)
            with pytest.raises(DomainError):
                eval_logistic_family(beyond, 800.0)
        np.testing.assert_allclose(phi, 0.03 * np.exp(t), rtol=1e-12)


class TestCurveProperties:
    @pytest.mark.parametrize("alpha", [0, 1, 2, 3, 7])
    @pytest.mark.parametrize("seed", range(4))
    def test_strictly_increasing_below_terminal(self, alpha, seed):
        rng = np.random.default_rng(100 * alpha + seed)
        a = rng.uniform(1.0, 5.0)
        b = rng.uniform(0.1, 0.9)
        phi0 = rng.uniform(0.05, 0.5)  # below (a/b)**(1/alpha) for these draws
        p = GeneralizedLogisticParams(a=a, b=b, alpha=alpha, phi0=phi0)
        # up to alpha*a*t = 16 for alpha >= 2: later the gap to the terminal
        # level, which closes like exp(-alpha*a*t), is below float64 resolution
        t = np.linspace(0.0, 16.0 / (max(alpha, 2) * a), 300)
        phi = eval_logistic_family(p, t)
        assert np.all(np.diff(phi) > 0)

    @pytest.mark.parametrize("alpha", [1, 2, 3, 7])
    def test_terminal_convergence_rate(self, alpha):
        p = GeneralizedLogisticParams(a=5, b=1, alpha=alpha, phi0=1)
        limit = terminal_value(p)
        assert abs(eval_logistic_family(p, 20.0 / p.a) - limit) <= 1e-6 * limit

    def test_early_curves_merge_into_exponential(self):
        # With identical (a, b, phi0) all three damped variants track the
        # same early exponential within 1% while t <= 0.01/a.
        a, b, phi0 = 5.0, 1.0, 1.0
        t = np.linspace(0.0, 0.01 / a, 20)
        curves = [eval_logistic_family(
            GeneralizedLogisticParams(a=a, b=b, alpha=al, phi0=phi0), t)
            for al in (0, 1, 2)]
        for other in curves[1:]:
            np.testing.assert_allclose(curves[0], other, rtol=0.01)

    def test_retardation_ordering(self):
        # identical drive a = 1: larger b sits strictly below at every t > 0
        t = np.linspace(0.01, 12.0, 200)
        curves = [eval_saturating_linear(SaturatingLinearParams(a=1, b=b), t)
                  for b in (1, 2, 3)]
        assert np.all(curves[0] > curves[1])
        assert np.all(curves[1] > curves[2])

    def test_nonlinearity_ordering(self):
        # a=5, b=1, phi0=1: higher alpha saturates lower, pointwise
        t = np.linspace(0.05, 12.0, 200)
        c0, c1, c2 = [eval_logistic_family(
            GeneralizedLogisticParams(a=5, b=1, alpha=al, phi0=1), t)
            for al in (0, 1, 2)]
        assert np.all(c0 >= c1) and np.all(c1 >= c2)

    @pytest.mark.parametrize("alpha", [0, 3, 7])
    def test_closed_form_matches_integration(self, alpha):
        p = GeneralizedLogisticParams(a=2, b=1, alpha=alpha, phi0=1)
        system = AutonomousSystem(
            1, lambda s: np.array([s[0] * (p.a - p.b * s[0] ** p.alpha)]))
        traj = integrate_fixed(system, np.array([1.0]), 0.0, 6.0, 0.002)
        closed = eval_logistic_family(p, traj.times)
        np.testing.assert_allclose(traj.states[:, 0], closed, rtol=1e-6)


class TestEarlyTimeApprox:
    def test_reference_error(self):
        p = SaturatingLinearParams(a=1, b=1)
        approx = early_time_approx(p, 0.01)
        exact = eval_saturating_linear(p, 0.01)
        assert approx == 0.01
        assert exact == pytest.approx(0.009950166250831947, rel=1e-12)
        assert abs(approx - exact) < 5e-5

    def test_zero_case(self):
        assert early_time_approx(SaturatingLinearParams(a=3, b=2), 0.0) == 0.0

    def test_small_t_difference(self):
        p = SaturatingLinearParams(a=1, b=3)
        diff = abs(early_time_approx(p, 0.001) - eval_saturating_linear(p, 0.001))
        assert diff < 1.5e-6

    @pytest.mark.parametrize("seed", range(5))
    def test_taylor_remainder_bound(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(0.2, 4.0, 2)
        p = SaturatingLinearParams(a=a, b=b)
        t = np.linspace(0.0, 3.0 / b, 200)
        gap = np.abs(eval_saturating_linear(p, t) - early_time_approx(p, t))
        bound = (a * b / 2.0) * t ** 2
        assert np.all(gap <= bound * (1 + 1e-9) + 1e-15)


class TestTerminalLevel:
    """models.terminal_level: terminal_value where it is a level, else None."""

    def test_saturating_families(self):
        assert models.terminal_level(SaturatingLinearParams(a=3.0, b=0.8)) == 3.0 / 0.8
        for alpha in (1, 2, 3):
            p = GeneralizedLogisticParams(a=5, b=1, alpha=alpha, phi0=1)
            assert models.terminal_level(p) == terminal_value(p)

    def test_unbounded_growth_has_none(self):
        assert models.terminal_level(PowerLawParams(a=2.0, beta=0.7)) is None
        assert models.terminal_level(
            GeneralizedLogisticParams(a=5, b=1, alpha=0, phi0=1)) is None

    def test_alpha0_constant_solution_is_its_start(self):
        # a == b with alpha = 0: the solution is the constant phi0
        p = GeneralizedLogisticParams(a=2, b=2, alpha=0, phi0=0.5)
        assert models.terminal_level(p) == 0.5 == terminal_value(p)
