"""Parameter estimation, the early-window classifier, and onset summaries.

Recovery targets are exact because every synthetic dataset below is generated
from the same closed forms the optimizer fits; the noisy-data medians live in
the acceptance suite.
"""
import itertools
import math

import numpy as np
import pytest

from growthdyn import models
from growthdyn import (EXPONENTIAL, INDETERMINATE, KIND_GENERIC,
                       LOGISTIC_FAMILY, LOSS_LINEAR, LOSS_LOG, POWER_LAW,
                       SATURATING_LINEAR, DomainError, FitProblem, FitResult,
                       GeneralizedLogisticParams, NonConvergenceError,
                       ParameterError,
                       RankDeficiencyError, SaturatingLinearParams,
                       TimeSeries, ValidationError, early_growth_classifier,
                       eval_logistic_family, eval_saturating_linear, fit,
                       saturation_onset)


def _series(t, y, kind=KIND_GENERIC):
    return TimeSeries(np.asarray(t, float), np.asarray(y, float), kind=kind)


def _logistic_series(a=5.0, b=1.0, alpha=1, phi0=1.0, n=90, t_max=3.0):
    t = np.linspace(0.0, t_max, n)
    y = eval_logistic_family(
        GeneralizedLogisticParams(a=a, b=b, alpha=alpha, phi0=phi0), t)
    return _series(t, y)


class TestFitProblemValidation:
    def test_unknown_model(self):
        with pytest.raises(ValidationError):
            FitProblem(_series([1, 2, 3, 4], [1, 2, 3, 4]), "quartic", (1.0, 1.0))

    def test_wrong_guess_length(self):
        with pytest.raises(ValidationError):
            FitProblem(_series([1, 2, 3, 4], [1, 2, 3, 4]), POWER_LAW, (1.0,))

    def test_nonpositive_guess_for_log_parameter(self):
        with pytest.raises(ValidationError):
            FitProblem(_series([1, 2, 3, 4], [1, 2, 3, 4]), POWER_LAW, (-1.0, 1.0))

    def test_negative_beta_guess_allowed(self):
        FitProblem(_series([1, 2, 3, 4], [4, 3, 2, 1]), POWER_LAW, (1.0, -0.5))

    def test_too_few_points(self):
        with pytest.raises(ValidationError):
            FitProblem(_series([1, 2, 3, 4, 5], [1, 2, 3, 4, 5]),
                       LOGISTIC_FAMILY, (1.0, 1.0, 1.0))

    def test_log_loss_needs_positive_values(self):
        with pytest.raises(ValidationError):
            FitProblem(_series([1, 2, 3, 4], [0.0, 1, 2, 3]), POWER_LAW,
                       (1.0, 1.0), loss_space=LOSS_LOG)

    def test_non_integer_alpha(self):
        with pytest.raises(ValidationError):
            FitProblem(_logistic_series(), LOGISTIC_FAMILY, (1.0, 1.0, 1.0),
                       alpha=1.5)

    def test_negative_alpha_is_the_records_error(self):
        # one exponent rule: the problem raises what the record would
        with pytest.raises(ParameterError) as info:
            FitProblem(_logistic_series(), LOGISTIC_FAMILY, (1.0, 1.0, 1.0), alpha=-1)
        assert str(info.value) == "FitProblem.alpha must be >= 0 (an integer), got -1"

    def test_integral_float_alpha_becomes_int(self):
        problem = FitProblem(_logistic_series(), LOGISTIC_FAMILY, (1.0, 1.0, 1.0),
                             alpha=2.0)
        assert problem.alpha == 2 and isinstance(problem.alpha, int)

    def test_only_log_coordinates_need_positive_guesses(self):
        FitProblem(_series([1, 2, 3, 4], [1, 2, 3, 4]), POWER_LAW, (1.0, -0.5))
        with pytest.raises(ValidationError, match="guess for a must be > 0"):
            FitProblem(_series([1, 2, 3, 4], [1, 2, 3, 4]), POWER_LAW, (-1.0, 0.5))


class TestNoiselessRecovery:
    def test_power_law(self):
        t = np.linspace(0.2, 6.0, 40)
        problem = FitProblem(_series(t, 2.0 * t ** 0.7), POWER_LAW, (1.0, 1.0))
        result = fit(problem)
        assert result.converged
        assert result.params[0] == pytest.approx(2.0, rel=1e-8)
        assert result.params[1] == pytest.approx(0.7, rel=1e-8)
        assert result.rmse < 1e-10
        assert result.terminal_forecast is None
        assert result.named_params() == {"a": result.params[0],
                                         "beta": result.params[1]}

    def test_saturating_linear(self):
        t = np.linspace(0.0, 10.0, 60)
        y = eval_saturating_linear(SaturatingLinearParams(a=3.0, b=0.8), t)
        result = fit(FitProblem(_series(t, y), SATURATING_LINEAR, (1.0, 1.0)))
        assert result.converged
        assert result.params == pytest.approx((3.0, 0.8), rel=1e-8)
        assert result.terminal_forecast == pytest.approx(3.75, rel=1e-8)

    def test_logistic_alpha1(self):
        result = fit(FitProblem(_logistic_series(), LOGISTIC_FAMILY,
                                (3.0, 2.0, 0.5), alpha=1))
        assert result.converged
        assert result.params == pytest.approx((5.0, 1.0, 1.0), rel=1e-6)
        assert result.terminal_forecast == pytest.approx(5.0, rel=1e-6)
        assert result.alpha == 1

    @pytest.mark.parametrize("alpha", [2, 3])
    def test_logistic_higher_alpha(self, alpha):
        result = fit(FitProblem(_logistic_series(alpha=alpha), LOGISTIC_FAMILY,
                                (3.0, 2.0, 0.5), alpha=alpha))
        assert result.converged
        assert result.params == pytest.approx((5.0, 1.0, 1.0), rel=1e-6)
        assert result.terminal_forecast == pytest.approx(5.0 ** (1.0 / alpha), rel=1e-6)

    def test_log_loss_recovery(self):
        t = np.linspace(0.2, 6.0, 40)
        problem = FitProblem(_series(t, 2.0 * t ** 0.7), POWER_LAW,
                             (1.0, 1.0), loss_space=LOSS_LOG)
        result = fit(problem)
        assert result.converged
        assert result.params == pytest.approx((2.0, 0.7), rel=1e-8)
        assert result.loss_space == LOSS_LOG

    def test_diagnostics_populated(self):
        t = np.linspace(0.2, 6.0, 40)
        result = fit(FitProblem(_series(t, 2.0 * t ** 0.7), POWER_LAW, (1.0, 1.0)))
        assert result.iterations >= 1
        assert math.isfinite(result.jacobian_condition)
        assert result.jacobian_condition >= 1.0
        assert result.alpha is None


class TestNoisyRecovery:
    def test_one_percent_noise(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0.0, 3.0, 90)
        clean = eval_logistic_family(
            GeneralizedLogisticParams(a=5.0, b=1.0, alpha=1, phi0=1.0), t)
        noisy = clean * (1.0 + 0.01 * rng.standard_normal(t.size))
        result = fit(FitProblem(_series(t, noisy), LOGISTIC_FAMILY,
                                (3.0, 2.0, 0.5), alpha=1))
        assert result.converged
        assert result.params[0] == pytest.approx(5.0, rel=0.05)
        assert result.params[1] == pytest.approx(1.0, rel=0.05)


class TestFitFailureModes:
    def test_constant_series_rank_deficient(self):
        with pytest.raises(RankDeficiencyError):
            fit(FitProblem(_series([1, 2, 3, 4], [3.0, 3.0, 3.0, 3.0]),
                           POWER_LAW, (1.0, 1.0)))

    def test_all_zero_series_rank_deficient(self):
        with pytest.raises(RankDeficiencyError):
            fit(FitProblem(_series([1, 2, 3, 4], [0.0, 0.0, 0.0, 0.0]),
                           SATURATING_LINEAR, (1.0, 1.0)))

    def test_tiny_but_varying_series_fits(self):
        # the constant-series test is relative to the data's scale
        t = np.linspace(1.0, 10.0, 50)
        result = fit(FitProblem(_series(t, 2e-14 * t ** 1.5), POWER_LAW, (1.0, 1.0),
                                loss_space=LOSS_LOG))
        assert result.params == pytest.approx((2e-14, 1.5), rel=1e-8)

    def test_starved_iterations_report_best_attempt(self):
        t = np.linspace(0.2, 6.0, 40)
        problem = FitProblem(_series(t, 2.0 * t ** 0.7), POWER_LAW, (1.0, 0.1))
        with pytest.raises(NonConvergenceError, match=r"^fit did not converge "
                           r"within 1 iterations \(rmse") as info:
            fit(problem, max_iter=1)
        assert isinstance(info.value.best, FitResult)
        assert not info.value.best.converged
        assert info.value.best.iterations == 1

    def test_refused_jacobian_names_its_stop(self):
        # the best lattice point, near the float64 ceiling, evaluates but its
        # Jacobian is not finite: the descent stops there, not on its budget
        t = np.linspace(0.0, 1e4, 20)
        series = _series(t, np.r_[1.0, np.full(19, 10.0)])
        problem = FitProblem(series, LOGISTIC_FAMILY, (1e305, 1e304, 1.0),
                             loss_space=LOSS_LOG)
        with pytest.raises(NonConvergenceError, match=r"^fit did not converge: its "
                           r"Jacobian was not finite at iteration 1 \(rmse") as info:
            fit(problem)
        best = info.value.best
        assert (best.iterations, best.converged) == (1, False)
        assert best.jacobian_condition == math.inf
        assert math.isfinite(best.rmse)

    def test_guess_outside_growth_regime_stays_nonconvergence(self):
        # a < b*phi0**alpha at every start: no start can be evaluated, and the
        # best attempt (the guess) is no valid model, so it has no forecast
        t = np.linspace(0.0, 8.0, 50)
        problem = FitProblem(_series(t, 5.0 / (1.0 + 4.0 * np.exp(-t))),
                             LOGISTIC_FAMILY, (1.0, 1.0, 100.0))
        with pytest.raises(NonConvergenceError) as info:
            fit(problem)
        assert info.value.best.rmse == math.inf
        assert info.value.best.terminal_forecast is None

    def test_unevaluable_lattice_has_no_forecast_and_says_so(self):
        # the guess is a valid record, but every lattice point overflows: no
        # record was evaluated, so there is no forecast
        t = np.linspace(0.0, 8.0, 50)
        problem = FitProblem(_series(t, 5.0 / (1.0 + 4.0 * np.exp(-t))),
                             LOGISTIC_FAMILY, (1e300, 1e-300, 1.0))
        with pytest.raises(NonConvergenceError,
                           match="no lattice point could be evaluated") as info:
            fit(problem)
        assert info.value.best.iterations == 0
        assert info.value.best.terminal_forecast is None

    @pytest.mark.parametrize("seed", range(6))
    def test_singular_jacobian_is_not_converged(self, seed):
        # a cumulated power law drives the saturating fit to b -> 0, where the
        # ln b column bt/expm1(bt) - 1 is exactly 0 and b is undetermined
        t = np.linspace(0.5, 10.0, 60)
        noise = 1.0 + 0.01 * np.random.default_rng(seed).standard_normal(t.size)
        series = _series(t, np.cumsum(2.0 * t ** 0.7 * noise))
        with pytest.raises(NonConvergenceError, match="singular Jacobian") as info:
            fit(FitProblem(series, SATURATING_LINEAR, (1.0, 1.0)))
        best = info.value.best
        assert not best.converged
        assert best.jacobian_condition == math.inf
        assert best.params[1] < 1e-15

    def test_bad_tol(self):
        t = np.linspace(0.2, 6.0, 40)
        problem = FitProblem(_series(t, 2.0 * t ** 0.7), POWER_LAW, (1.0, 1.0))
        with pytest.raises(ValidationError):
            fit(problem, tol=0.0)

    def test_overflowing_cost_is_infinite_without_warning(self):
        # residuals near 1e160 square past float64: the cost is inf, not a warning
        t = np.linspace(1.0, 10.0, 20)
        problem = FitProblem(_series(t, 2.0 * t ** 0.7), POWER_LAW, (1e160, 1.0))
        with pytest.raises(NonConvergenceError) as info:
            fit(problem)
        assert info.value.best.rmse == math.inf

    def test_overflowing_guess_record_has_no_forecast(self):
        # b*phi0**alpha overflows in the guess's record: still NonConvergenceError
        t = np.linspace(0.0, 8.0, 50)
        problem = FitProblem(_series(t, 5.0 / (1.0 + 4.0 * np.exp(-t))),
                             LOGISTIC_FAMILY, (1e300, 1e-300, 1e300), alpha=2)
        with pytest.raises(NonConvergenceError) as info:
            fit(problem)
        assert info.value.best.terminal_forecast is None


class TestStartAndStop:
    @pytest.mark.parametrize("alpha", [1, 2])
    def test_far_guesses_recover_truth(self, alpha):
        # guesses off by a factor e**1 .. e**2 in every sign pattern
        truth = (1.0, 1.0 / 10.0 ** alpha, 0.2)  # a = 1, K = 10, phi0 = 0.2
        series = _logistic_series(*truth[:2], alpha=alpha, phi0=truth[2],
                                  n=60, t_max=7.0)
        for distance in (1.0, 1.5, 2.0):
            for signs in itertools.product((-1.0, 1.0), repeat=3):
                guess = tuple(p * math.exp(distance * s) for p, s in zip(truth, signs))
                result = fit(FitProblem(series, LOGISTIC_FAMILY, guess, alpha=alpha))
                assert result.params == pytest.approx(truth, rel=1e-6), guess

    def test_evaluation_budget(self):
        # one descent, stopped once the cost no longer falls: at most 150
        # model evaluations per fit on 1%-noise logistic data
        t = np.linspace(0.0, 3.0, 90)
        clean = models.eval_logistic_family(
            GeneralizedLogisticParams(a=5.0, b=1.0, alpha=1, phi0=1.0), t)
        rng = np.random.default_rng(7)
        for _ in range(10):
            noisy = clean * (1.0 + 0.01 * rng.standard_normal(t.size))
            result = fit(FitProblem(_series(t, noisy), LOGISTIC_FAMILY, (3.0, 2.0, 0.5)))
            assert result.converged
            assert 0 < result.evaluations <= 150

    def test_alpha0_fits_only_the_rate_difference(self):
        # phi0*exp((a - b) t): a and b alone are not identifiable, a - b is
        series = _logistic_series(a=2.0, b=0.7, alpha=0, phi0=0.5)
        result = fit(FitProblem(series, LOGISTIC_FAMILY, (1.0, 1.0, 0.5), alpha=0))
        a, b, phi0 = result.params
        assert result.converged
        assert a - b == pytest.approx(1.3, rel=1e-6)
        assert phi0 == pytest.approx(0.5, rel=1e-6)


class TestEarlyGrowthClassifier:
    def test_exact_exponential(self):
        t = np.linspace(0.5, 8.0, 40)
        verdict = early_growth_classifier(_series(t, 0.5 * np.exp(0.3 * t)))
        assert verdict.verdict == EXPONENTIAL
        assert verdict.estimate == pytest.approx(0.3, rel=1e-6)
        assert verdict.r2_exponential == pytest.approx(1.0, abs=1e-12)
        assert verdict.n_points == 40

    def test_exact_power_law(self):
        t = np.linspace(0.5, 8.0, 40)
        verdict = early_growth_classifier(_series(t, 2.0 * t ** 1.7))
        assert verdict.verdict == POWER_LAW
        assert verdict.estimate == pytest.approx(1.7, rel=1e-6)
        assert verdict.r2_power_law == pytest.approx(1.0, abs=1e-12)

    def test_saturating_early_window_reads_as_linear_growth(self):
        # keep b*t <= ~0.1 in the window: the local slope of ln(phi) against
        # ln(t) is 1 - b*t/2 + O((b*t)^2), so later windows drift downward
        t = np.linspace(0.01, 2.0, 100)
        y = eval_saturating_linear(SaturatingLinearParams(a=2.0, b=0.5), t)
        verdict = early_growth_classifier(_series(t, y), window=0.1)
        assert verdict.verdict == POWER_LAW
        assert verdict.estimate == pytest.approx(1.0, abs=0.05)

    def test_window_restricts_sample(self):
        t = np.linspace(0.5, 8.0, 40)
        verdict = early_growth_classifier(_series(t, 0.5 * np.exp(0.3 * t)),
                                          window=0.5)
        assert verdict.n_points < 40
        assert verdict.verdict == EXPONENTIAL

    def test_ambiguous_data_is_indeterminate(self):
        t = np.linspace(100.0, 101.0, 12)
        verdict = early_growth_classifier(_series(t, t.copy()))
        assert verdict.verdict == INDETERMINATE

    def test_too_few_points(self):
        t = np.linspace(1.0, 2.0, 5)
        with pytest.raises(ValidationError):
            early_growth_classifier(_series(t, np.exp(t)))

    def test_zero_value_rejected(self):
        t = np.linspace(1.0, 2.0, 10)
        y = np.exp(t)
        y[3] = 0.0
        with pytest.raises(DomainError):
            early_growth_classifier(_series(t, y))

    def test_zero_time_rejected(self):
        t = np.linspace(0.0, 2.0, 10)
        with pytest.raises(DomainError):
            early_growth_classifier(_series(t, np.exp(t) + 1.0))

    def test_bad_window(self):
        t = np.linspace(1.0, 2.0, 10)
        with pytest.raises(ValidationError):
            early_growth_classifier(_series(t, np.exp(t)), window=1.5)


class TestSaturationOnset:
    def test_saturating_closed_form(self):
        t = np.linspace(0.0, 10.0, 60)
        y = eval_saturating_linear(SaturatingLinearParams(a=3.0, b=0.8), t)
        result = fit(FitProblem(_series(t, y), SATURATING_LINEAR, (1.0, 1.0)))
        onset = saturation_onset(None, result)
        assert onset.half_terminal_time == pytest.approx(math.log(2.0) / 0.8, rel=1e-7)
        assert onset.terminal_value == pytest.approx(3.75, rel=1e-7)
        assert onset.crude_scale == pytest.approx(1.25, rel=1e-7)

    def test_logistic_numeric_inversion(self):
        result = fit(FitProblem(_logistic_series(), LOGISTIC_FAMILY,
                                (3.0, 2.0, 0.5), alpha=1))
        onset = saturation_onset(None, result)
        # phi(t) = 5/(1 + 4 e^{-5t}) crosses 2.5 at ln(4)/5
        assert onset.half_terminal_time == pytest.approx(math.log(4.0) / 5.0,
                                                         rel=1e-6)
        assert onset.terminal_value == pytest.approx(5.0, rel=1e-6)
        assert onset.crude_scale is None

    def test_start_above_half_terminal(self):
        fitted = FitResult(params=(5.0, 1.0, 4.0),
                           param_names=("a", "b", "phi0"), rmse=0.0,
                           iterations=1, converged=True, terminal_forecast=5.0,
                           jacobian_condition=1.0, model=LOGISTIC_FAMILY,
                           loss_space=LOSS_LINEAR, alpha=1)
        onset = saturation_onset(None, fitted)
        assert onset.half_terminal_time == 0.0
        assert onset.terminal_value == 5.0

    def test_alpha3_inversion_hits_half_terminal(self):
        # K = (1/(1/27))**(1/3) = 3, phi0 = 0.3 < K/2
        fitted = FitResult(params=(1.0, 1.0 / 27.0, 0.3),
                           param_names=("a", "b", "phi0"), rmse=0.0,
                           iterations=1, converged=True, terminal_forecast=3.0,
                           jacobian_condition=1.0, model=LOGISTIC_FAMILY,
                           loss_space=LOSS_LINEAR, alpha=3)
        onset = saturation_onset(None, fitted)
        record = GeneralizedLogisticParams(a=1.0, b=1.0 / 27.0, alpha=3, phi0=0.3)
        assert onset.half_terminal_time > 0
        assert eval_logistic_family(record, onset.half_terminal_time) \
            == pytest.approx(1.5, rel=1e-12)
        assert onset.terminal_value == pytest.approx(3.0, rel=1e-15)

    def test_huge_alpha_with_subnormal_ratio_stays_finite(self):
        # b*phi0**alpha/a is subnormal and 2**alpha overflows a float: the
        # half time is still finite, and the curve is at K/2 = 0.5 there
        fitted = FitResult(params=(1.0, 1.0, 0.499),
                           param_names=("a", "b", "phi0"), rmse=0.0,
                           iterations=1, converged=True, terminal_forecast=1.0,
                           jacobian_condition=1.0, model=LOGISTIC_FAMILY,
                           loss_space=LOSS_LINEAR, alpha=1030)
        onset = saturation_onset(None, fitted)
        assert onset.half_terminal_time == pytest.approx(-math.log(0.998), rel=1e-9)
        record = GeneralizedLogisticParams(a=1.0, b=1.0, alpha=1030, phi0=0.499)
        assert eval_logistic_family(record, onset.half_terminal_time) \
            == pytest.approx(0.5, rel=1e-12)

    def test_alpha0_constant_solution_onset_is_immediate(self):
        # alpha = 0 with a == b is the constant phi0: its level from the start
        fitted = FitResult(params=(1.5, 1.5, 0.4),
                           param_names=("a", "b", "phi0"), rmse=0.0,
                           iterations=1, converged=True, terminal_forecast=0.4,
                           jacobian_condition=1.0, model=LOGISTIC_FAMILY,
                           loss_space=LOSS_LINEAR, alpha=0)
        onset = saturation_onset(None, fitted)
        assert onset.half_terminal_time == 0.0
        assert onset.terminal_value == 0.4

    def test_zero_start_rejected(self):
        fitted = FitResult(params=(5.0, 1.0, 0.0),
                           param_names=("a", "b", "phi0"), rmse=0.0,
                           iterations=1, converged=True, terminal_forecast=5.0,
                           jacobian_condition=1.0, model=LOGISTIC_FAMILY,
                           loss_space=LOSS_LINEAR, alpha=1)
        with pytest.raises(DomainError):
            saturation_onset(None, fitted)

    def test_unbounded_models_rejected(self):
        power = FitResult(params=(2.0, 0.7), param_names=("a", "beta"),
                          rmse=0.0, iterations=1, converged=True,
                          terminal_forecast=None, jacobian_condition=1.0,
                          model=POWER_LAW, loss_space=LOSS_LINEAR, alpha=None)
        with pytest.raises(DomainError):
            saturation_onset(None, power)
        exponential = FitResult(params=(2.0, 1.0, 1.0),
                                param_names=("a", "b", "phi0"), rmse=0.0,
                                iterations=1, converged=True,
                                terminal_forecast=None, jacobian_condition=1.0,
                                model=LOGISTIC_FAMILY, loss_space=LOSS_LINEAR,
                                alpha=0)
        with pytest.raises(DomainError):
            saturation_onset(None, exponential)
