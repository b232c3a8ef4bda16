"""The Levenberg-Marquardt descent that fits and fixed-point searches share.

A fit's Jacobian comes from closed-form derivatives in the optimized
coordinates (logs of positive parameters, the power-law exponent as it is),
so a fit scores its start lattice in one broadcast pass and then evaluates
the model once for the lattice's best point and once per trial step.  Fixed
points run the same descent on rhs(x).
"""
import itertools
import math
import re

import numpy as np
import pytest

from growthdyn import fitting, models
from growthdyn import (LOGISTIC_FAMILY, LOSS_LINEAR, LOSS_LOG, POWER_LAW,
                       SATURATING_LINEAR, AutonomousSystem, FitProblem,
                       GeneralizedLogisticParams, KIND_GENERIC,
                       NonConvergenceError, TimeSeries, coupled_logistic_demo,
                       find_fixed_point, fit, stability_report)


def _problem(model, params, alpha, loss, t):
    record = models.make_record(model, params, alpha)
    y = np.asarray(models.evaluate(record, t), dtype=float)
    series = TimeSeries(t, y, kind=KIND_GENERIC)
    return FitProblem(series, model, params, loss_space=loss, alpha=alpha)


def _jacobians(model, params, alpha, loss, t, one_sided=None):
    """Analytic and finite-difference Jacobians of the residual in theta.

    Central differences of models.evaluate by default; ``one_sided`` gives a
    direction per coordinate for a second-order one-sided difference where
    one side leaves the model's domain.
    """
    problem = _problem(model, params, alpha, loss, t)
    is_log = fitting._theta_is_log(model)
    residual, jacobian = fitting._residual_fn(problem, is_log)
    theta = fitting._to_theta(params, is_log)
    analytic = jacobian(theta, residual(theta)[1])
    numeric = np.empty_like(analytic)
    for j in range(theta.size):
        h = 1e-5 * (1.0 + abs(theta[j]))
        shift = np.zeros_like(theta)
        shift[j] = h
        if one_sided is None:
            numeric[:, j] = (residual(theta + shift)[0]
                             - residual(theta - shift)[0]) / (2.0 * h)
        else:
            s = one_sided[j] * shift
            numeric[:, j] = one_sided[j] * (
                -3.0 * residual(theta)[0] + 4.0 * residual(theta + s)[0]
                - residual(theta + 2.0 * s)[0]) / (2.0 * h)
    return analytic, numeric


def _assert_close(analytic, numeric):
    scale = np.abs(numeric).max(axis=0)
    assert (np.abs(analytic - numeric) <= 1e-6 * scale).all(), (analytic, numeric)


class TestAnalyticJacobian:
    @pytest.mark.parametrize("loss", [LOSS_LINEAR, LOSS_LOG])
    @pytest.mark.parametrize("alpha", [0, 1, 2, 3])
    def test_logistic_family_from_t0(self, alpha, loss):
        t = np.linspace(0.0, 6.0, 40)
        params = (1.3, 1.3 / 8.0 ** max(alpha, 1), 0.4)
        _assert_close(*_jacobians(LOGISTIC_FAMILY, params, alpha, loss, t))

    @pytest.mark.parametrize("loss", [LOSS_LINEAR, LOSS_LOG])
    def test_power_law(self, loss):
        # t = 0 only in value space: the curve is 0 there
        t = np.linspace(0.0 if loss == LOSS_LINEAR else 0.5, 9.0, 30)
        _assert_close(*_jacobians(POWER_LAW, (2.0, 0.7), 1, loss, t))

    @pytest.mark.parametrize("loss", [LOSS_LINEAR, LOSS_LOG])
    def test_saturating(self, loss):
        t = np.linspace(0.0 if loss == LOSS_LINEAR else 0.1, 5.0, 30)
        _assert_close(*_jacobians(SATURATING_LINEAR, (3.0, 0.8), 1, loss, t))

    @pytest.mark.parametrize("loss", [LOSS_LINEAR, LOSS_LOG])
    def test_saturating_past_the_exponent_cap(self, loss):
        # b t runs to 1,000, past the 700 at which evaluation caps t
        t = np.linspace(0.1, 20.0, 30)
        _assert_close(*_jacobians(SATURATING_LINEAR, (3.0, 50.0), 1, loss, t))

    @pytest.mark.parametrize("loss", [LOSS_LINEAR, LOSS_LOG])
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_fixed_point_start(self, alpha, loss):
        # a == b*phi0**alpha: the curve is constant, and a smaller a, a
        # larger b or a larger phi0 leaves the growth regime
        t = np.linspace(0.0, 4.0, 30)
        params = (2.0, 2.0 / 0.5 ** alpha, 0.5)
        _assert_close(*_jacobians(LOGISTIC_FAMILY, params, alpha, loss, t,
                                  one_sided=(1.0, -1.0, -1.0)))

    def test_random_curves(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            alpha = int(rng.integers(0, 4))
            a = float(np.exp(rng.uniform(-1.0, 1.0)))
            phi0 = float(np.exp(rng.uniform(-2.0, 0.0)))
            b = a / float(np.exp(rng.uniform(0.5, 3.0))) / (phi0 ** alpha if alpha else 1.0)
            t = np.linspace(0.0, float(rng.uniform(1.0, 10.0)), 25)
            loss = (LOSS_LINEAR, LOSS_LOG)[int(rng.integers(0, 2))]
            _assert_close(*_jacobians(LOGISTIC_FAMILY, (a, b, phi0), alpha, loss, t))


class TestEvaluationCount:
    @pytest.mark.parametrize("model, name, params, alpha, loss", [
        (POWER_LAW, "eval_power_law", (2.0, 0.7), 1, LOSS_LOG),
        (SATURATING_LINEAR, "eval_saturating_linear", (3.0, 0.8), 1, LOSS_LINEAR),
        # a/(b phi0**alpha) > e**(3 + 1.5 alpha): every lattice point grows
        (LOGISTIC_FAMILY, "eval_logistic_family", (5.0, 0.05, 0.5), 1, LOSS_LINEAR),
        (LOGISTIC_FAMILY, "eval_logistic_family", (5.0, 0.05, 0.2), 2, LOSS_LOG),
        (LOGISTIC_FAMILY, "eval_logistic_family", (2.0, 0.05, 0.5), 0, LOSS_LINEAR),
    ])
    def test_one_lattice_pass_then_one_per_trial(self, monkeypatch, model, name, params,
                                                 alpha, loss):
        # The log is one broadcast pass over the 3**n lattice ("L") with no
        # evaluator call, one evaluation ("E") of its winner, then per trial
        # step one damped solve ("S") and one evaluation, or none where the
        # step leaves the family's parameter domain; the Jacobian costs nothing.
        t = np.linspace(0.5, 3.0, 60)
        noise = 1.0 + 0.01 * np.random.default_rng(5).standard_normal(t.size)
        y = models.evaluate(models.make_record(model, params, alpha), t) * noise
        guess = tuple(p * 1.3 for p in params)
        problem = FitProblem(TimeSeries(t, y, kind=KIND_GENERIC), model, guess,
                             loss_space=loss, alpha=alpha)
        log = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda *args: (solve(*args), log.append("S"))[0])
        evaluate = getattr(models, name)
        monkeypatch.setattr(models, name,
                            lambda *args: log.append("E") or evaluate(*args))
        costs = fitting._lattice_costs
        monkeypatch.setattr(fitting, "_lattice_costs",
                            lambda *args: log.append("L") or costs(*args))
        result = fit(problem)
        steps = "".join(log[2:])
        assert result.converged
        assert log[:2] == ["L", "E"]
        assert re.fullmatch(r"(SE?)+", steps)
        assert steps.count("S") >= result.iterations
        if model != LOGISTIC_FAMILY:  # no domain edge: one evaluation per step
            assert len(log) == 2 + 2 * steps.count("S")

    def test_median_on_noisy_logistic_data(self, monkeypatch):
        # the problem of acceptance criterion 09: one evaluation of the best
        # lattice point plus the trial steps, none for the Jacobian
        calls = []
        evaluate = models.eval_logistic_family
        monkeypatch.setattr(models, "eval_logistic_family",
                            lambda *args: calls.append(1) or evaluate(*args))
        t = np.linspace(0.0, 3.0, 90)
        clean = evaluate(GeneralizedLogisticParams(a=5.0, b=1.0, alpha=1, phi0=1.0), t)
        rng = np.random.default_rng(7)
        counts = []
        for _ in range(50):
            noisy = clean * (1.0 + 0.01 * rng.standard_normal(t.size))
            calls.clear()
            result = fit(FitProblem(TimeSeries(t, noisy, kind=KIND_GENERIC),
                                    LOGISTIC_FAMILY, (3.0, 2.0, 0.5)))
            assert result.converged
            counts.append(len(calls))
        assert float(np.median(counts)) <= 14


def _lattice_costs_both_ways(model, truth, guess, alpha, loss, t):
    """The start lattice's costs from the one broadcast pass and from the
    scalar residual, point by point.  The data are the truth 0.1 later with
    1% noise, so they are positive even where the fit's times start at 0."""
    y = models.evaluate(models.make_record(model, truth, alpha), t + 0.1)
    y = y * (1.0 + 0.01 * np.random.default_rng(11).standard_normal(t.size))
    problem = FitProblem(TimeSeries(t, y, kind=KIND_GENERIC), model, guess,
                         loss_space=loss, alpha=alpha)
    is_log = fitting._theta_is_log(model)
    residual, _ = fitting._residual_fn(problem, is_log)
    theta0 = fitting._to_theta(problem.initial_guess, is_log)
    thetas = theta0 + fitting._LATTICE_STEP * np.array(
        list(itertools.product((0.0, -1.0, 1.0), repeat=theta0.size)))
    scalar = np.array([fitting._cost(residual(theta)) for theta in thetas])
    return fitting._lattice_costs(problem, is_log, thetas), scalar


def _assert_same_costs(batched, scalar):
    np.testing.assert_array_equal(np.isinf(batched), np.isinf(scalar))
    finite = np.isfinite(scalar)
    np.testing.assert_allclose(batched[finite], scalar[finite], rtol=1e-13, atol=0.0)


class TestLatticeCosts:
    @pytest.mark.parametrize("model, truth, guess, alpha, loss, t0, refused", [
        (POWER_LAW, (2.0, 0.7), (1.5, 1.0), 1, LOSS_LOG, 0.5, 0),
        (POWER_LAW, (2.0, 0.7), (1.5, 1.0), 1, LOSS_LINEAR, 0.5, 0),
        (SATURATING_LINEAR, (3.0, 0.8), (2.0, 1.2), 1, LOSS_LINEAR, 0.0, 0),
        # alpha = 0 grows only where a >= b: 3 of the 9 (a, b) pairs, at each phi0, do not
        (LOGISTIC_FAMILY, (2.0, 0.7, 0.5), (1.5, 0.5, 0.7), 0, LOSS_LINEAR, 0.0, 9),
        (LOGISTIC_FAMILY, (2.0, 0.7, 0.5), (1.5, 0.5, 0.7), 0, LOSS_LOG, 0.0, 9),
        (LOGISTIC_FAMILY, (5.0, 0.05, 0.5), (4.0, 0.08, 0.4), 1, LOSS_LINEAR, 0.0, 0),
        (LOGISTIC_FAMILY, (5.0, 0.05, 0.2), (4.0, 0.08, 0.3), 2, LOSS_LOG, 0.0, 0),
        # only a - 1.5, b + 1.5, phi0 + 1.5 falls below a = b*phi0**3
        (LOGISTIC_FAMILY, (3.0, 0.01, 0.3), (2.0, 0.02, 0.4), 3, LOSS_LINEAR, 0.0, 1),
        # a start near the regime edge a = b*phi0: 10 lattice points lie below it
        (LOGISTIC_FAMILY, (2.0, 1.0, 0.5), (1.0, 1.0, 0.8), 1, LOSS_LINEAR, 0.0, 10),
        # a guess of 1e308: exp overflows at the 3 points a + 1.5, and a/b
        # leaves float64 at a, b - 1.5
        (SATURATING_LINEAR, (3.0, 0.8), (1e308, 0.8), 1, LOSS_LOG, 0.5, 4),
        # where a and b both overflow, a == b*phi0 == inf must not read as
        # a start on the fixed point
        (LOGISTIC_FAMILY, (5.0, 0.05, 0.5), (1e308, 1e308, 0.5), 1, LOSS_LINEAR, 0.0, 19),
        # a guess of 1e-323: a underflows to 0 at its 3 points a - 1.5 ...
        (POWER_LAW, (2.0, 0.7), (1e-323, 0.7), 1, LOSS_LINEAR, 0.5, 3),
        # ... but phi0 = 0 is a valid start, the constant 0
        (LOGISTIC_FAMILY, (5.0, 0.05, 0.5), (4.0, 0.08, 1e-323), 1, LOSS_LINEAR, 0.0, 0),
        # the 3 points beta - 1.5 < 0 diverge at t = 0
        (POWER_LAW, (2.0, 0.7), (2.0, 0.5), 1, LOSS_LINEAR, 0.0, 3),
        # the saturating curve is 0 at t = 0, which log loss cannot take
        (SATURATING_LINEAR, (3.0, 0.8), (2.0, 1.2), 1, LOSS_LOG, 0.0, 9),
    ])
    def test_matches_the_scalar_residual(self, model, truth, guess, alpha, loss, t0,
                                         refused):
        batched, scalar = _lattice_costs_both_ways(model, truth, guess, alpha, loss,
                                                   np.linspace(t0, 6.0, 50))
        _assert_same_costs(batched, scalar)
        assert int(np.isinf(batched).sum()) == refused

    def test_random_guesses(self):
        # guesses up to e**3 off the truth put lattice points across every
        # domain edge the families have
        rng = np.random.default_rng(90210)
        t = np.linspace(0.0, 8.0, 40)
        cases = [(POWER_LAW, (2.0, 0.7), 1), (SATURATING_LINEAR, (3.0, 0.8), 1)] + [
            (LOGISTIC_FAMILY, (1.5, 1.5 / 6.0 ** max(alpha, 1), 0.3), alpha)
            for alpha in range(4)]
        for model, truth, alpha in cases:
            for _ in range(10):
                guess = [p * math.exp(rng.uniform(-3.0, 3.0)) for p in truth]
                if model == POWER_LAW:
                    guess[1] = truth[1] + rng.uniform(-2.0, 2.0)
                for loss in (LOSS_LINEAR, LOSS_LOG):
                    _assert_same_costs(*_lattice_costs_both_ways(
                        model, truth, guess, alpha, loss, t))


def _demo_pair():
    # two uncoupled logistic coordinates, fixed point at (1, 1)
    return AutonomousSystem(2, lambda s: np.array([s[0] * (1.0 - s[0]),
                                                   s[1] * (1.0 - s[1])]))


class TestFixedPointDescent:
    def test_guess_near_a_boundary_saddle(self):
        # 9% off the interior equilibrium, where a full Newton step lands on
        # the boundary saddle (2.99, 0)
        system = coupled_logistic_demo(
            3.273280700992037, 1.094208054568321, -0.3161501872938932,
            2.475409535613883, 0.5192882226339068, -0.7522567436100388)
        report = stability_report(system, (2.536590788808179, 0.7368008869253417))
        fp = report.fixed_point
        assert (fp.s_c, fp.r_c) == pytest.approx((2.7760939505302407,
                                                   0.7453936437633397), abs=1e-9)
        assert report.classification == "stable node"

    def test_root_at_the_guess_is_returned_exactly(self):
        fp = find_fixed_point(_demo_pair(), (1.0, 1.0))
        assert (fp.s_c, fp.r_c, fp.residual_norm) == (1.0, 1.0, 0.0)

    def test_tol_bounds_the_residual(self):
        fp = find_fixed_point(_demo_pair(), (0.7, 1.4), tol=1e-14)
        assert fp.residual_norm <= 1e-14

    def test_no_root_carries_the_lowest_residual_point(self):
        # |rhs|**2 = (x - 1)**2 + (x**2 + 1)**2 is smallest where
        # 4x**3 + 6x - 2 = 0, x = 0.31290841, and |rhs| is 1.295 there
        system = AutonomousSystem(2, lambda s: np.array([s[0] - 1.0, s[0] ** 2 + 1.0]))
        with pytest.raises(NonConvergenceError) as info:
            find_fixed_point(system, (3.0, 0.0))
        best = info.value.best
        assert best[0] == pytest.approx(0.3129084094792333, abs=1e-6)
        assert math.hypot(best[0] - 1.0, best[0] ** 2 + 1.0) > 1.0

    def test_max_iter_bounds_the_descent(self):
        with pytest.raises(NonConvergenceError):
            find_fixed_point(_demo_pair(), (0.3, 3.0), max_iter=1)

    def test_exhausted_damping_is_not_converged(self):
        # every trial point is unevaluable, so the damping climbs past its
        # ceiling on the first iteration and the start comes back unconverged
        start = np.array([1.0, 2.0])

        def residual(theta):
            return (theta - 3.0, None) if np.array_equal(theta, start) else None

        theta, point, iters, converged, jac = fitting._lm_once(
            residual, lambda theta, _: np.eye(2), start, residual(start),
            1e-10, 50)
        assert (iters, converged) == (1, False)
        np.testing.assert_array_equal(theta, start)
        np.testing.assert_array_equal(point[0], [-2.0, -1.0])
        np.testing.assert_array_equal(jac, np.eye(2))
