"""Nonlinear least-squares fitting of the growth-model families.

The optimizer is a damped Gauss-Newton (Levenberg-Marquardt) iteration on a
transformed parameter vector: positivity-constrained parameters (rates,
damping coefficients, initial levels) are optimized as their natural logs,
while the power-law exponent stays linear.  Residuals are taken either in
value space or in log space, per the problem's loss_space, and differentiated
in closed form (models).  One descent runs per fit, from the lowest-cost point
of a fixed lattice around the caller's guess, and stops when the parameters
or the cost stop changing, so repeated calls on the same problem return
identical results; dynsys finds fixed points with the same descent.
Parameter names, records and evaluation come from the family table in
models, terminal levels from models.terminal_level.

Alongside the fitter live two diagnostics: a classifier that decides whether
the leading portion of a series looks exponential or power-law (competing
ordinary least squares on (t, ln y) and (ln t, ln y)), and a saturation-onset
estimate (time to half the fitted terminal value).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataio import TimeSeries
from .errors import (DomainError, NonConvergenceError, ParameterError,
                     RankDeficiencyError, ValidationError)
from .models import (FAMILIES, LOGISTIC_FAMILY, POWER_LAW, SATURATING_LINEAR,
                     SaturatingLinearParams, _dlog_dtheta, evaluate,
                     fitted_names, integral_alpha, make_record, terminal_level)

LOSS_LINEAR = "linear"
LOSS_LOG = "log"

EXPONENTIAL = "exponential"
INDETERMINATE = "indeterminate"

_LATTICE_STEP = 1.5  # start lattice spacing, in transformed coordinates
_EPS = float(np.finfo(float).eps)  # smallest relative cost change float64 resolves
_LAMBDA_INIT = 1e-3
_LAMBDA_CEIL = 1e12
_R2_MARGIN = 0.02


@dataclass(frozen=True, eq=False)
class FitProblem:
    """A series, a model family, and everything the optimizer needs."""

    series: TimeSeries
    model: str
    initial_guess: tuple
    loss_space: str = LOSS_LINEAR
    bounds: tuple | None = None
    alpha: int = 1  # logistic-family only: fixed nonlinearity exponent

    def __post_init__(self):
        if self.model not in FAMILIES:
            raise ValidationError(f"model must be one of {tuple(FAMILIES)}, got {self.model!r}")
        if self.loss_space not in (LOSS_LINEAR, LOSS_LOG):
            raise ValidationError(
                f"loss_space must be {LOSS_LINEAR!r} or {LOSS_LOG!r}, "
                f"got {self.loss_space!r}")
        names = fitted_names(self.model)
        guess = tuple(float(g) for g in self.initial_guess)
        object.__setattr__(self, "initial_guess", guess)
        if len(guess) != len(names):
            raise ValidationError(
                f"{self.model} takes {len(names)} parameters {names}, "
                f"got {len(guess)}")
        for name, g, is_log in zip(names, guess, _theta_is_log(self.model)):
            if not math.isfinite(g):
                raise ValidationError(f"initial guess for {name} must be finite")
            if is_log and g <= 0:
                raise ValidationError(
                    f"initial guess for {name} must be > 0, got {g}")
        if len(self.series) < 2 * len(names):
            raise ValidationError(
                f"fitting {len(names)} parameters needs at least "
                f"{2 * len(names)} points, series has {len(self.series)}")
        if self.loss_space == LOSS_LOG and (self.series.values <= 0).any():
            raise ValidationError("log loss requires strictly positive values")
        object.__setattr__(self, "alpha", integral_alpha(self.alpha))
        if self.bounds is not None:
            bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
            object.__setattr__(self, "bounds", bounds)
            if len(bounds) != len(names):
                raise ValidationError("bounds must give one (lo, hi) pair per parameter")
            for name, (lo, hi), g in zip(names, bounds, guess):
                if not lo < hi:
                    raise ValidationError(f"bounds for {name}: need lo < hi, got ({lo}, {hi})")
                if not lo <= g <= hi:
                    raise ValidationError(
                        f"initial guess {g} for {name} outside bounds ({lo}, {hi})")


@dataclass(frozen=True)
class FitResult:
    """Estimated parameters plus convergence and forecast diagnostics."""

    params: tuple
    param_names: tuple
    rmse: float                      # root-mean-square residual in loss space
    iterations: int                  # Levenberg-Marquardt steps of the descent
    converged: bool
    terminal_forecast: float | None  # None when the model is unbounded
    jacobian_condition: float
    model: str
    loss_space: str
    alpha: int | None

    def named_params(self) -> dict:
        return dict(zip(self.param_names, self.params))


@dataclass(frozen=True)
class ClassifierVerdict:
    verdict: str           # EXPONENTIAL, POWER_LAW, or INDETERMINATE
    estimate: float        # growth rate or exponent of the better variant
    r2_exponential: float
    r2_power_law: float
    n_points: int


@dataclass(frozen=True)
class OnsetEstimate:
    half_terminal_time: float
    terminal_value: float
    crude_scale: float | None  # 1/b for the saturating-linear family


def _theta_is_log(model):
    # Which coordinates are optimized as logs (True) vs linearly (False).
    return tuple(name != "beta" for name in fitted_names(model))


def _to_theta(params, is_log):
    return np.array([math.log(p) if lg else p for p, lg in zip(params, is_log)])


def _from_theta(theta, is_log):
    return tuple(math.exp(v) if lg else float(v)
                 for v, lg in zip(theta, is_log))


def _theta_bounds(bounds, is_log):
    lo, hi = np.array(bounds, dtype=float).T
    for i in np.flatnonzero(is_log):
        lo[i] = math.log(lo[i]) if lo[i] > 0 else -math.inf
        hi[i] = math.log(hi[i])  # inf stays inf
    return lo, hi


def _residual_fn(problem, is_log):
    """residual(theta) -> (r, (record, yhat)), None at an invalid point, and
    jacobian(theta, (record, yhat)) -> dr/dtheta from the closed form."""
    t = problem.series.times
    model, alpha = problem.model, problem.alpha
    y = problem.series.values
    log_y = np.log(y) if problem.loss_space == LOSS_LOG else None

    def residual(theta):
        try:
            record = make_record(model, _from_theta(theta, is_log), alpha)
            yhat = np.asarray(evaluate(record, t), dtype=float)
        except (ParameterError, DomainError, OverflowError):
            return None  # invalid or overflowing trial point: reject the step
        if not np.isfinite(yhat).all():
            return None
        if log_y is None:
            return yhat - y, (record, yhat)
        if (yhat <= 0).any():
            return None
        return np.log(yhat) - log_y, (record, yhat)

    def jacobian(theta, evaluated):
        record, yhat = evaluated
        with np.errstate(over="ignore", invalid="ignore"):
            jac = _dlog_dtheta(record, t)
            if log_y is None:
                jac *= yhat[:, None]  # d yhat = yhat d ln yhat
        return jac if np.isfinite(jac).all() else None

    return residual, jacobian


def _cost(point):
    """Half the squared residual norm; inf for an unevaluable or overflowing point."""
    if point is None:
        return math.inf
    with np.errstate(over="ignore"):
        return 0.5 * float(point[0] @ point[0])


def _lm_once(residual, jacobian, theta, point, t_bounds, tol, max_iter):
    """Levenberg-Marquardt from theta, where point = residual(theta).

    residual(theta) is None where it cannot evaluate, else (r, aux), and
    jacobian(theta, aux) is dr/dtheta or None.  Returns (theta, point,
    iterations, converged, jac at the iterate before the last step).
    """
    cost = _cost(point)
    if not math.isfinite(cost):
        return theta, point, 0, False, None
    lam = _LAMBDA_INIT
    for it in range(1, max_iter + 1):
        jac = jacobian(theta, point[1])
        if jac is None:
            return theta, point, it, False, None
        grad = jac.T @ point[0]
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = max(1e-30, float(diag.max(initial=0.0)) * 1e-15)
        while lam <= _LAMBDA_CEIL:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = np.clip(theta + step, t_bounds[0], t_bounds[1])
            point_trial = residual(trial)
            cost_trial = _cost(point_trial)
            if cost_trial <= cost:
                step = trial - theta
                # Moré's stop: actual and predicted cost reductions both within
                # tol**2 of the cost (it is quadratic in the parameter error), or
                # within float64 resolution where tol**2 is below it.
                predicted = -float(grad @ step + 0.5 * step @ jtj @ step)
                small = max(cost - cost_trial, predicted) <= max(tol * tol, _EPS) * cost
                step_rel = float(np.linalg.norm(step)) / (1.0 + float(np.linalg.norm(theta)))
                theta, point, cost = trial, point_trial, cost_trial
                lam = max(lam / 3.0, 1e-14)
                if small or (step_rel <= tol and float(np.abs(jac.T @ point[0]).max())
                             <= tol * max(1.0, cost)):
                    return theta, point, it, True, jac
                break
            lam *= 10.0
        else:
            # Damping exhausted: the iterate is a stationary point within
            # floating-point resolution.  Call it converged if the gradient
            # agrees, otherwise report failure.
            grad_ok = float(np.abs(grad).max()) <= tol * max(1.0, cost)
            return theta, point, it, grad_ok, jac
    return theta, point, max_iter, False, jac


def fit(problem: FitProblem, tol: float = 1e-10, max_iter: int = 200) -> FitResult:
    """Estimate model parameters by one Levenberg-Marquardt descent.

    The descent starts from the lowest-cost point of the lattice
    guess + 1.5*{0, -1, 1}^n in the optimized coordinates (logs of positive
    parameters), clipped to the bounds; the guess itself wins ties.  The
    Jacobian is analytic, so the model is evaluated 3^n times for the
    lattice, then once per trial step.  The descent converges when the
    relative parameter update and the gradient both fall below tol, or when
    an accepted step cuts the cost by at most max(tol**2, float64 epsilon)
    relative, both actually and as linearized (the stop for data at its
    noise floor), and the last Jacobian it used is not singular.  Otherwise
    NonConvergenceError carries the last iterate as ``best``; a constant
    series raises RankDeficiencyError up front.  For the logistic family
    with alpha = 0 the model is phi0*exp((a - b) t): only a - b and phi0
    are identifiable.
    """
    if not tol > 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    values = problem.series.values
    if float(np.ptp(values)) <= 1e-12 * max(1.0, float(np.max(np.abs(values)))):
        raise RankDeficiencyError(
            "constant series carries no information about growth rates")

    is_log = _theta_is_log(problem.model)
    residual, jacobian = _residual_fn(problem, is_log)
    t_bounds = _theta_bounds(problem.bounds or [(-math.inf, math.inf)] * len(is_log), is_log)
    theta0 = _to_theta(problem.initial_guess, is_log)
    lattice = []  # (cost, theta, point); the zero offset first, so min keeps the guess on ties
    for offset in itertools.product((0.0, -1.0, 1.0), repeat=theta0.size):
        theta = np.clip(theta0 + _LATTICE_STEP * np.array(offset), t_bounds[0], t_bounds[1])
        point = residual(theta)
        lattice.append((_cost(point), theta, point))
    _, theta, point = min(lattice, key=lambda entry: entry[0])
    theta, point, iters, converged, jac = _lm_once(
        residual, jacobian, theta, point, t_bounds, tol, max_iter)
    rmse = math.sqrt(2.0 * _cost(point) / len(problem.series))  # inf stays inf
    condition = float(np.linalg.cond(jac)) if jac is not None else math.inf
    result = FitResult(
        params=_from_theta(theta, is_log),
        param_names=fitted_names(problem.model),
        rmse=rmse,
        iterations=iters,
        # a singular Jacobian leaves a parameter undetermined: not converged
        converged=converged and math.isfinite(condition),
        terminal_forecast=terminal_level(point[1][0]) if point is not None else None,
        jacobian_condition=condition,
        model=problem.model,
        loss_space=problem.loss_space,
        alpha=problem.alpha if problem.model == LOGISTIC_FAMILY else None,
    )
    if not result.converged:
        why = (": no lattice point could be evaluated" if iters == 0 else
               ": it ended on a singular Jacobian" if converged else
               f" within {max_iter} iterations")
        raise NonConvergenceError(f"fit did not converge{why} (rmse {rmse:.3e})",
                                  best=result)
    return result


def _ols_r2(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 0.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
    return float(slope), r2


def early_growth_classifier(series: TimeSeries, window: float = 1.0) -> ClassifierVerdict:
    """Decide whether the leading portion of a series grows like e^{rt} or t^k.

    The window is a fraction of the time span measured from the first sample;
    ordinary least squares on (t, ln y) and (ln t, ln y) compete by
    coefficient of determination, with verdicts closer than 0.02 declared
    indeterminate.  All windowed samples must have positive t and y.
    """
    if not 0 < window <= 1:
        raise ValidationError(f"window must lie in (0, 1], got {window}")
    t = series.times
    y = series.values
    t_cut = t[0] + window * (t[-1] - t[0])
    mask = t <= t_cut * (1.0 + 1e-12)
    t_w, y_w = t[mask], y[mask]
    if t_w.size < 8:
        raise ValidationError(
            f"need at least 8 points in the window, got {t_w.size}")
    if (y_w <= 0).any():
        raise DomainError(
            f"non-positive value {float(y_w[np.argmax(y_w <= 0)])!r} in window: "
            "cannot take logs")
    if (t_w <= 0).any():
        raise DomainError("non-positive time in window: cannot take log t")

    ln_y = np.log(y_w)
    rate, r2_exp = _ols_r2(t_w, ln_y)
    exponent, r2_pow = _ols_r2(np.log(t_w), ln_y)
    if abs(r2_exp - r2_pow) < _R2_MARGIN:
        verdict = INDETERMINATE
        estimate = rate if r2_exp >= r2_pow else exponent
    elif r2_exp > r2_pow:
        verdict, estimate = EXPONENTIAL, rate
    else:
        verdict, estimate = POWER_LAW, exponent
    return ClassifierVerdict(verdict=verdict, estimate=float(estimate),
                             r2_exponential=r2_exp, r2_power_law=r2_pow,
                             n_points=int(t_w.size))


def saturation_onset(series: TimeSeries | None, fitted: FitResult) -> OnsetEstimate:
    """Time for the fitted model to reach half its terminal value.

    For the saturating-linear family this is ln 2 / b, reported alongside the
    crude scale 1/b.  For the logistic family, inverting the closed form
    phi = phi0 / (r + (1 - r) e^{-alpha a t})**(1/alpha), r = b*phi0**alpha/a,
    at phi = K/2 gives ln((1 - r) / ((2**alpha - 1) r)) / (alpha a); a start
    at or above K/2 reports 0.  The estimate depends only on the fitted
    parameters — the series argument is accepted for interface symmetry.
    Unbounded models (power law, alpha = 0 with a > b) have no terminal value
    to approach, nor does a start at phi0 = 0 ever leave it.
    """
    record = make_record(fitted.model, fitted.params, fitted.alpha)
    terminal = terminal_level(record)
    if terminal is None:
        raise DomainError(
            "not applicable: an unbounded model never saturates")
    if isinstance(record, SaturatingLinearParams):
        return OnsetEstimate(half_terminal_time=math.log(2.0) / record.b,
                             terminal_value=terminal, crude_scale=1.0 / record.b)

    a, b, al, phi0 = record.a, record.b, record.alpha, record.phi0
    if phi0 >= 0.5 * terminal:
        return OnsetEstimate(half_terminal_time=0.0, terminal_value=terminal,
                             crude_scale=None)
    r = b * phi0 ** al / a
    if r == 0:
        raise DomainError(
            f"b*phi0**alpha/a is 0 (phi0 = {phi0!r}): the curve never leaves its start")
    half = (math.log1p(-r) - math.log((2.0 ** al - 1.0) * r)) / (al * a)
    return OnsetEstimate(half_terminal_time=half, terminal_value=terminal,
                         crude_scale=None)
