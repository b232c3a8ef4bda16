"""The Levenberg-Marquardt descent that fits and fixed-point searches share.

A fit's Jacobian comes from closed-form derivatives in the optimized
coordinates (logs of positive parameters, the power-law exponent as it is),
so a fit scores its start lattice in one broadcast pass and then evaluates
the model once for the lattice's best point and once per trial step.  Fixed
points run the same descent on rhs(x).
"""
import collections
import itertools
import math
import re

import numpy as np
import pytest

from growthdyn import dynsys, fitting, models
from growthdyn import (LOGISTIC_FAMILY, LOSS_LINEAR, LOSS_LOG, POWER_LAW,
                       SATURATING_LINEAR, AutonomousSystem, FitProblem,
                       GeneralizedLogisticParams, GrowthDynError, KIND_GENERIC,
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
    _, residual, jacobian, _ = fitting._descent(problem, is_log)
    theta = fitting._to_theta(params, is_log)
    with np.errstate(all="ignore"):
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
    @pytest.mark.parametrize("model, params, alpha, loss", [
        (POWER_LAW, (2.0, 0.7), 1, LOSS_LOG),
        (SATURATING_LINEAR, (3.0, 0.8), 1, LOSS_LINEAR),
        # a/(b phi0**alpha) > e**(3 + 1.5 alpha): every lattice point grows
        (LOGISTIC_FAMILY, (5.0, 0.05, 0.5), 1, LOSS_LINEAR),
        (LOGISTIC_FAMILY, (5.0, 0.05, 0.2), 2, LOSS_LOG),
        (LOGISTIC_FAMILY, (2.0, 0.05, 0.5), 0, LOSS_LINEAR),
    ])
    def test_one_lattice_pass_then_one_per_trial(self, monkeypatch, model, params,
                                                 alpha, loss):
        # The log is one broadcast pass over the 3**n lattice ("L") with no
        # closed-form call of the descent's, one evaluation ("E") of its
        # winner, then per trial step one damped solve ("S") and one
        # evaluation, or none where the step leaves the family's parameter
        # domain; the Jacobian costs nothing.
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
        evaluate = fitting._closed_form_parts
        monkeypatch.setattr(fitting, "_closed_form_parts",
                            lambda *args: log.append("E") or evaluate(*args))
        descent = fitting._descent

        def spied_descent(*args):
            lattice, *rest = descent(*args)
            return (lambda thetas: log.append("L") or lattice(thetas), *rest)
        monkeypatch.setattr(fitting, "_descent", spied_descent)
        result = fit(problem)
        steps = "".join(log[2:])
        assert result.converged
        assert log[:2] == ["L", "E"]
        assert re.fullmatch(r"(SE?)+", steps)
        assert steps.count("S") >= result.iterations
        if model != LOGISTIC_FAMILY:  # no domain edge: one evaluation per step
            assert len(log) == 2 + 2 * steps.count("S")
        assert result.evaluations == log.count("E")

    def test_median_on_noisy_logistic_data(self):
        # the problem of acceptance criterion 09: one evaluation of the best
        # lattice point plus the trial steps, none for the Jacobian
        t = np.linspace(0.0, 3.0, 90)
        clean = models.eval_logistic_family(
            GeneralizedLogisticParams(a=5.0, b=1.0, alpha=1, phi0=1.0), t)
        rng = np.random.default_rng(7)
        counts = []
        for _ in range(50):
            noisy = clean * (1.0 + 0.01 * rng.standard_normal(t.size))
            result = fit(FitProblem(TimeSeries(t, noisy, kind=KIND_GENERIC),
                                    LOGISTIC_FAMILY, (3.0, 2.0, 0.5)))
            assert result.converged
            counts.append(result.evaluations)
        assert float(np.median(counts)) <= 14


def _lattice_costs_both_ways(model, truth, guess, alpha, loss, t):
    """The start lattice's costs from _descent's broadcast lattice and from
    its scalar residual, point by point.  The data are the truth 0.1 later with
    1% noise, so they are positive even where the fit's times start at 0."""
    y = models.evaluate(models.make_record(model, truth, alpha), t + 0.1)
    y = y * (1.0 + 0.01 * np.random.default_rng(11).standard_normal(t.size))
    problem = FitProblem(TimeSeries(t, y, kind=KIND_GENERIC), model, guess,
                         loss_space=loss, alpha=alpha)
    is_log = fitting._theta_is_log(model)
    lattice, residual, _, _ = fitting._descent(problem, is_log)
    theta0 = fitting._to_theta(problem.initial_guess, is_log)
    thetas = theta0 + fitting._LATTICE_STEP * np.array(
        list(itertools.product((0.0, -1.0, 1.0), repeat=theta0.size)))
    with np.errstate(all="ignore"):
        scalar = np.array([fitting._half_sq(residual(theta)) for theta in thetas])
        return lattice(thetas), scalar


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


# ---- the record-based descent as it stood before the residual evaluated the
# closed form directly; the descent must still return its every bit.

def _reference_closed_form(family, p, t, alpha=None):
    with np.errstate(all="ignore"):
        if family == POWER_LAW:
            a, beta = p
            return a * np.power(t, beta)
        if family == SATURATING_LINEAR:
            a, b = p
            return -(a / b) * np.expm1(-b * np.minimum(t, 700.0 / b))
        a, b, phi0 = p
        damping = b * phi0 ** alpha
        if alpha == 0:
            log_phi0 = (np.log(phi0) if np.ndim(phi0) else
                        math.log(phi0) if phi0 > 0 else -math.inf)
            out = np.exp((a - b) * t + log_phi0)
        else:
            r = damping / a
            out = phi0 / (r + (1.0 - r) * np.exp(-alpha * a * t)) ** (1.0 / alpha)
        out = np.where((phi0 == 0) | (a == damping), phi0, out)
        return np.where(a < damping, np.nan, out)


def _reference_evaluate(record, t):
    fields = [getattr(record, name) for name in ("a", "b", "beta", "phi0")
              if hasattr(record, name)]
    if isinstance(record, models.PowerLawParams):
        if record.beta < 0 and (t == 0).any():
            raise models.DomainError("t = 0 with beta < 0 diverges")
        out = _reference_closed_form(POWER_LAW, fields, t)
    elif isinstance(record, models.SaturatingLinearParams):
        out = _reference_closed_form(SATURATING_LINEAR, fields, t)
    else:
        out = _reference_closed_form(LOGISTIC_FAMILY, fields, t, record.alpha)
    if not np.isfinite(out).all():
        raise models.DomainError("leaves float64 range")
    return out


def _reference_dlog_dtheta(params, t):
    one = np.ones_like(t)
    if isinstance(params, models.PowerLawParams):
        return np.column_stack((one, np.log(np.where(t > 0, t, 1.0))))
    if isinstance(params, models.SaturatingLinearParams):
        bt = params.b * np.minimum(t, 700.0 / params.b)
        x = np.where(bt > 0, bt, 1.0)
        return np.column_stack((one, np.where(bt > 0, x / np.expm1(x) - 1.0, 0.0)))
    a, b, al, phi0 = params.a, params.b, params.alpha, params.phi0
    if al == 0:
        return np.column_stack((a * t, -b * t, one))
    r = b * phi0 ** al / a
    e = np.exp(-al * a * t)
    d = r + (1.0 - r) * e
    u = r * (1.0 - e) / d
    return np.column_stack((u / al + (1.0 - r) * a * t * e / d, -u / al, 1.0 - u))


def _reference_residual_fn(problem, is_log, calls):
    t = problem.series.times
    y = problem.series.values
    log_y = np.log(y) if problem.loss_space == LOSS_LOG else None

    def residual(theta):
        try:
            record = models.make_record(
                problem.model, tuple(math.exp(v) if lg else float(v)
                                     for v, lg in zip(theta, is_log)), problem.alpha)
            calls.append(1)
            yhat = _reference_evaluate(record, t)
        except (models.ParameterError, models.DomainError, OverflowError):
            return None
        if log_y is None:
            return yhat - y, (record, yhat)
        if (yhat <= 0).any():
            return None
        return np.log(yhat) - log_y, (record, yhat)

    def jacobian(theta, evaluated):
        record, yhat = evaluated
        jac = _reference_dlog_dtheta(record, t)
        if log_y is None:
            jac *= yhat[:, None]
        return jac if np.isfinite(jac).all() else None

    return residual, jacobian


def _reference_cost(point):
    return math.inf if point is None else 0.5 * float(point[0] @ point[0])


def _reference_lattice_costs(problem, is_log, thetas):
    y = problem.series.values
    p = np.where(is_log, np.exp(thetas), thetas)
    rate = np.array([name in ("a", "b") for name in models.fitted_names(problem.model)])
    ok = np.isfinite(p).all(axis=1) & ~((p <= 0) & rate).any(axis=1)
    yhat = _reference_closed_form(problem.model, p.T[:, :, None], problem.series.times,
                                  problem.alpha)
    ok &= np.isfinite(yhat).all(axis=1)
    r = np.log(yhat) - np.log(y) if problem.loss_space == LOSS_LOG else yhat - y
    return np.where(ok, 0.5 * np.einsum("ij,ij->i", r, r), math.inf)


def _reference_lm_once(residual, jacobian, theta, point, tol, max_iter, trace=None):
    """The descent kernel as it was; trace, if given, collects each accepted
    step's relative size."""
    cost = _reference_cost(point)
    if not math.isfinite(cost):
        return theta, point, 0, False, None
    lam = 1e-3
    for it in range(1, max_iter + 1):
        jac = jacobian(theta, point[1])
        if jac is None:
            return theta, point, it, False, None
        grad = jac.T @ point[0]
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = max(1e-30, float(diag.max(initial=0.0)) * 1e-15)
        while lam <= 1e12:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = theta + step
            point_trial = residual(trial)
            cost_trial = _reference_cost(point_trial)
            if cost_trial <= cost:
                step = trial - theta
                predicted = -float(grad @ step + 0.5 * step @ jtj @ step)
                small = max(cost - cost_trial, predicted) <= max(tol * tol, fitting._EPS) * cost
                step_rel = float(np.linalg.norm(step)) / (1.0 + float(np.linalg.norm(theta)))
                if trace is not None:
                    trace.append(step_rel)
                theta, point, cost = trial, point_trial, cost_trial
                lam = max(lam / 3.0, 1e-14)
                if small or (step_rel <= tol and float(np.abs(jac.T @ point[0]).max())
                             <= tol * max(1.0, cost)):
                    return theta, point, it, True, jac
                break
            lam *= 10.0
        else:
            grad_ok = float(np.abs(grad).max()) <= tol * max(1.0, cost)
            return theta, point, it, grad_ok, jac
    return theta, point, max_iter, False, jac


def _reference_fit(problem, tol, max_iter):
    """fit as it was, with evaluations counted as its record evaluations."""
    is_log = fitting._theta_is_log(problem.model)
    calls = []
    residual, jacobian = _reference_residual_fn(problem, is_log, calls)
    theta0 = fitting._to_theta(problem.initial_guess, is_log)
    lattice = theta0 + 1.5 * np.array(
        list(itertools.product((0.0, -1.0, 1.0), repeat=theta0.size)))
    with np.errstate(all="ignore"):
        theta = lattice[int(np.argmin(_reference_lattice_costs(problem, is_log, lattice)))]
        theta, point, iters, converged, jac = _reference_lm_once(
            residual, jacobian, theta, residual(theta), tol, max_iter)
        rmse = math.sqrt(2.0 * _reference_cost(point) / len(problem.series))
        condition = float(np.linalg.cond(jac)) if jac is not None else math.inf
    result = fitting.FitResult(
        params=tuple(math.exp(v) if lg else float(v) for v, lg in zip(theta, is_log)),
        param_names=models.fitted_names(problem.model),
        rmse=rmse,
        iterations=iters,
        converged=converged and math.isfinite(condition),
        terminal_forecast=models.terminal_value(point[1][0]) if point is not None else None,
        jacobian_condition=condition,
        model=problem.model,
        loss_space=problem.loss_space,
        alpha=problem.alpha if problem.model == LOGISTIC_FAMILY else None,
        evaluations=len(calls),
    )
    if not result.converged:
        why = (": no lattice point could be evaluated" if iters == 0 else
               ": it ended on a singular Jacobian" if converged else
               f": its Jacobian was not finite at iteration {iters}" if jac is None else
               f": the damping ran out at iteration {iters}" if iters < max_iter else
               f" within {max_iter} iterations")
        raise NonConvergenceError(f"fit did not converge{why} (rmse {rmse:.3e})",
                                  best=result)
    return result


def _outcome(run, *args):
    """repr of a run's result, or of its error's type, message and best: repr
    writes each float so that it reads back to the same bits."""
    try:
        return repr(run(*args))
    except GrowthDynError as exc:
        best = exc.best if isinstance(exc, NonConvergenceError) else None
        if isinstance(best, np.ndarray):
            best = [float(v).hex() for v in best]
        return f"{type(exc).__name__}: {exc} best={best!r}"


def _seeded_problem(rng):
    """A noisy curve of a random family, alpha 0-4 and loss, 20-60 points,
    and a guess 0.05-3 off the truth in log distance."""
    model = (POWER_LAW, SATURATING_LINEAR, LOGISTIC_FAMILY)[int(rng.integers(0, 3))]
    alpha = int(rng.integers(0, 5)) if model == LOGISTIC_FAMILY else 1
    loss = (LOSS_LINEAR, LOSS_LOG)[int(rng.integers(0, 2))]
    n = int(rng.integers(20, 61))
    if model == POWER_LAW:
        truth = (float(np.exp(rng.uniform(-1.0, 1.5))), float(rng.uniform(0.3, 2.5)))
        t = np.linspace(float(rng.uniform(0.1, 1.0)), float(rng.uniform(10.0, 50.0)), n)
    elif model == SATURATING_LINEAR:
        truth = (float(np.exp(rng.uniform(0.0, 2.3))), float(np.exp(rng.uniform(-1.6, 0.7))))
        t = np.linspace(0.05, float(rng.uniform(3.0, 6.0)) / truth[1], n)
    else:
        a = float(np.exp(rng.uniform(-0.7, 0.7)))
        level = float(np.exp(rng.uniform(0.7, 3.0)))
        phi0 = level * float(np.exp(rng.uniform(-4.6, -3.0)))
        truth = (a, a / level ** max(alpha, 1) * (1.0 if alpha else 0.5), phi0)
        t = np.linspace(0.0, (math.log(level / phi0) + 3.0) / a, n)
    record = models.make_record(model, truth, alpha)
    y = models.evaluate(record, t) * (1.0 + 0.01 * rng.standard_normal(n))
    distance = float(np.exp(rng.uniform(math.log(0.05), math.log(3.0))))
    guess = tuple(p + 0.5 * distance * s if model == POWER_LAW and i == 1
                  else p * math.exp(distance * s)
                  for i, (p, s) in enumerate(zip(truth, rng.choice((-1.0, 1.0), len(truth)))))
    problem = FitProblem(TimeSeries(t, y, kind=KIND_GENERIC), model, guess,
                         loss_space=loss, alpha=alpha)
    return problem, (1e-6, 1e-10)[int(rng.integers(0, 2))], (4, 8, 40)[int(rng.integers(0, 3))]


class TestDescentAgainstReference:
    def test_fits_match_bit_for_bit(self):
        rng = np.random.default_rng(1)
        kinds = collections.Counter()
        for _ in range(320):
            problem, tol, max_iter = _seeded_problem(rng)
            ref = _outcome(_reference_fit, problem, tol, max_iter)
            assert _outcome(fit, problem, tol, max_iter) == ref, problem
            kinds[problem.model, problem.loss_space] += 1
            kinds[ref.split("(")[0].split(":")[0]] += 1
            kinds.update(why for why in ("singular Jacobian", "damping ran out",
                                         "iterations") if why in ref)
        # every family in both losses, and fits that fail for each reason
        assert all(kinds[m, loss] >= 20 for m in (POWER_LAW, SATURATING_LINEAR,
                                                    LOGISTIC_FAMILY)
                   for loss in (LOSS_LINEAR, LOSS_LOG)), kinds
        assert kinds["FitResult"] >= 100 and kinds["NonConvergenceError"] >= 30, kinds
        assert kinds["singular Jacobian"] >= 1 and kinds["iterations"] >= 30, kinds
        assert kinds["damping ran out"] >= 1, kinds

    def test_damping_stop_is_named(self):
        # seeded problem 153 above: the damping runs out at iteration 3 of 40
        rng = np.random.default_rng(1)
        for _ in range(154):
            problem, tol, max_iter = _seeded_problem(rng)
        with pytest.raises(NonConvergenceError, match=r"^fit did not converge: the "
                           r"damping ran out at iteration 3 \(rmse") as info:
            fit(problem, tol, max_iter)
        assert (info.value.best.iterations, max_iter) == (3, 40)

    def test_stop_on_the_knife_edge(self):
        # r(theta) = theta - c, J = I: after the first damped step the gradient
        # is 1e-3 of the start's, so the stop hangs on step_rel <= tol alone.
        # With tol at the step's relative size, or one float below it, any
        # change in the bits of that size flips the iteration count.
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 4))
            c = rng.standard_normal(n) * float(np.exp(rng.uniform(-3.0, 3.0)))
            start = c + rng.standard_normal(n) * float(np.exp(rng.uniform(-1.0, 1.0)))

            def residual(theta):
                return theta - c, None

            def jacobian(theta, _):
                return np.eye(theta.size)

            trace = []
            _reference_lm_once(residual, jacobian, start, residual(start), 1e-300, 1, trace)
            for tol in (trace[0], math.nextafter(trace[0], 0.0)):
                ref = _reference_lm_once(residual, jacobian, start, residual(start), tol, 3)
                new = fitting._lm_once(residual, jacobian, start, residual(start), tol, 3)
                assert (new[2], new[3]) == (ref[2], ref[3])
                np.testing.assert_array_equal(new[0], ref[0])

    def test_stop_on_the_predicted_reduction_edge(self):
        # r(theta) = (k M (theta - c), b) with J = (M, 0) and k < 1: the
        # linearized reduction outruns the actual one, and the constant b
        # keeps both near tol**2 of the cost while the step stays far above
        # tol, so the first stop hangs on the predicted reduction alone.  tol
        # on the edge (the least that stops there) and one float below it.
        rng = np.random.default_rng(55)
        for _ in range(100):
            n = int(rng.integers(2, 4))
            m = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            k = float(rng.uniform(0.2, 0.8))
            c = rng.standard_normal(n)
            b = rng.standard_normal(4) * float(np.exp(rng.uniform(4.0, 9.0)))
            start = c + rng.standard_normal(n)
            jac = np.vstack((m, np.zeros((b.size, n))))

            def residual(theta):
                return np.concatenate((k * (m @ (theta - c)), b)), None

            def jacobian(theta, _):
                return jac

            def stops(tol):
                return _reference_lm_once(residual, jacobian, start, residual(start),
                                          tol, 1)[3]

            lo, hi = (int(np.float64(v).view(np.int64)) for v in (1e-12, 1.0))
            while hi - lo > 1:  # stops(lo) is False and stops(hi) True
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if stops(float(np.int64(mid).view(np.float64))) else (mid, hi)
            edge = float(np.int64(hi).view(np.float64))
            trace = []
            _reference_lm_once(residual, jacobian, start, residual(start), 1e-300, 1, trace)
            assert edge < trace[0]  # the step-size stop stays out of reach
            for tol, on_edge in ((edge, True), (math.nextafter(edge, 0.0), False)):
                ref = _reference_lm_once(residual, jacobian, start, residual(start), tol, 3)
                new = fitting._lm_once(residual, jacobian, start, residual(start), tol, 3)
                assert (ref[2] == 1) is on_edge
                assert (new[2], new[3]) == (ref[2], ref[3])
                np.testing.assert_array_equal(new[0], ref[0])

    def test_stability_reports_match_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(4242)
        cases = [((3.273280700992037, 1.094208054568321, -0.3161501872938932,
                   2.475409535613883, 0.5192882226339068, -0.7522567436100388),
                  (2.536590788808179, 0.7368008869253417), 1e-10)]  # near the boundary saddle
        for _ in range(119):
            rates = tuple(float(v) for v in rng.uniform((0.2, 0.5, -1.5, 0.2, 0.5, -1.5),
                                                        (4.0, 2.0, 1.5, 4.0, 2.0, 1.5)))
            # a tol of 1e-17 leaves some descents short of it
            cases.append((rates, tuple(float(v) for v in rng.uniform(-0.5, 4.0, 2)),
                          (1e-10, 1e-17)[int(rng.integers(0, 2))]))
        new = [_outcome(stability_report, coupled_logistic_demo(*rates), guess, tol)
               for rates, guess, tol in cases]
        monkeypatch.setattr(dynsys, "_lm_once", _reference_lm_once)
        ref = [_outcome(stability_report, coupled_logistic_demo(*rates), guess, tol)
               for rates, guess, tol in cases]
        assert new == ref
        assert sum(r.startswith("NonConvergenceError") for r in ref) >= 10
