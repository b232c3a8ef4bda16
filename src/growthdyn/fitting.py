"""Nonlinear least-squares fitting of the growth-model families.

The optimizer is a damped Gauss-Newton (Levenberg-Marquardt) iteration on a
transformed parameter vector: positivity-constrained parameters (rates,
damping coefficients, initial levels) are optimized as their natural logs,
while the power-law exponent stays linear.  Residuals are taken either in
value space or in log space, per the problem's loss_space.  One descent runs
per fit, from the lowest-cost point of a fixed lattice around the caller's
guess (scored in one broadcast evaluation), and stops when the parameters or
the cost stop changing, so repeated calls on the same problem return
identical results; dynsys finds fixed points with the same descent.
One closure set (_descent) holds the fit's refusal rule in both forms: the
lattice's broadcast score and the descent's residual, which evaluates the
family's closed form (models._closed_form_parts) on each trial point directly
and hands the parts of that evaluation to the closed-form Jacobian
(models._dlog_dtheta); no record is built until the fit's terminal level
(models.terminal_value) is.  Parameter names come from the family table.

Alongside the fitter live two diagnostics: a classifier that decides whether
the leading portion of a series looks exponential or power-law (competing
ordinary least squares on (t, ln y) and (ln t, ln y)), and a saturation-onset
estimate (time to half the fitted terminal value).
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataio import TimeSeries
from .errors import (DomainError, NonConvergenceError, RankDeficiencyError,
                     ValidationError, check_number, check_record)
from .models import (FAMILIES, LOGISTIC_FAMILY, POWER_LAW, SATURATING_LINEAR,
                     SaturatingLinearParams, _as_times, _closed_form,
                     _closed_form_parts, _damping, _dlog_dtheta, fitted_names,
                     make_record, terminal_value)

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
    """A series (times >= 0), a model family, the descent's starting guess (finite
    reals, those optimized as logs > 0) and its loss space."""

    series: TimeSeries
    model: str
    initial_guess: tuple
    loss_space: str = LOSS_LINEAR
    alpha: int = 1  # logistic-family only: fixed nonlinearity exponent

    def __post_init__(self):
        if self.model not in FAMILIES:
            raise ValidationError(f"model must be one of {tuple(FAMILIES)}, got {self.model!r}")
        if self.loss_space not in (LOSS_LINEAR, LOSS_LOG):
            raise ValidationError(
                f"loss_space must be {LOSS_LINEAR!r} or {LOSS_LOG!r}, "
                f"got {self.loss_space!r}")
        names = fitted_names(self.model)
        guess = tuple(self.initial_guess)
        if len(guess) != len(names):
            raise ValidationError(
                f"{self.model} takes {len(names)} parameters {names}, "
                f"got {len(guess)}")
        object.__setattr__(self, "initial_guess", tuple(
            check_number(f"initial guess for {name}", g, float, ">" if is_log else "")
            for name, g, is_log in zip(names, guess, _theta_is_log(self.model))))
        if len(self.series) < 2 * len(names):
            raise ValidationError(
                f"fitting {len(names)} parameters needs at least "
                f"{2 * len(names)} points, series has {len(self.series)}")
        _as_times(self.series.times)  # every family is defined for t >= 0 only
        if self.loss_space == LOSS_LOG and (self.series.values <= 0).any():
            raise ValidationError("log loss requires strictly positive values")
        check_record(self, non_negative=("alpha",))


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
    evaluations: int = 0             # closed-form evaluations of the descent

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
    return tuple(math.exp(v) if lg else v for v, lg in zip(theta.tolist(), is_log))


def _descent(problem, is_log):
    """(lattice, residual, jacobian, evaluations) of one fit, run under the
    caller's errstate, with one rule for refusing a point: a parameter not
    finite, a rate a or b at or below 0 (phi0 may underflow to 0), a value
    outside float64 range or below the logistic growth regime, or a value <= 0
    under log loss.  lattice(thetas) is the cost (half the squared residual,
    inf where refused) of every row of thetas in one broadcast evaluation;
    residual(theta) is (r, (yhat, p, parts)) of one point in float arithmetic,
    or None where refused; jacobian(theta, (yhat, p, parts)) is dr/dtheta
    from those parts, or None where not finite; evaluations() counts the
    residual calls that reached the closed form.  The rule keeps both forms
    because each is the fast one for its caller: scoring the lattice point by
    point adds a third to half of a fit's time, and the descent on (1, 1)
    columns would make each evaluation 2.3 times as slow."""
    t = problem.series.times
    model, alpha = problem.model, problem.alpha
    y = problem.series.values
    log_y = np.log(y) if problem.loss_space == LOSS_LOG else None
    # the rates a and b lead fitted_names in every family
    n_rates = sum(name in ("a", "b") for name in fitted_names(model))
    logistic = model == LOGISTIC_FAMILY
    fixed = None
    if model == POWER_LAW:  # its columns do not depend on its parameters
        fixed = _dlog_dtheta(model, None, t, alpha, None)
        fixed.flags.writeable = False
    count = 0

    def lattice(thetas):
        p = np.where(is_log, np.exp(thetas), thetas)
        ok = np.isfinite(p).all(axis=1) & (p[:, :n_rates] > 0).all(axis=1)
        yhat = _closed_form(model, p.T[:, :, None], t, alpha)  # NaN below the regime
        ok &= np.isfinite(yhat).all(axis=1)
        # no family takes a negative value, and the log of a 0 makes the cost inf
        r = yhat - y if log_y is None else np.log(yhat) - log_y
        return np.where(ok, 0.5 * np.einsum("ij,ij->i", r, r), math.inf)

    def residual(theta):
        nonlocal count
        try:
            p = _from_theta(theta, is_log)
        except OverflowError:
            return None
        if not (all(map(math.isfinite, p)) and min(p[:n_rates]) > 0) or (
                logistic and p[0] < _damping(p[1], p[2], alpha)):
            return None
        count += 1
        yhat, parts = _closed_form_parts(model, p, t, alpha)
        if not np.isfinite(yhat).all():
            return None
        if log_y is None:
            return yhat - y, (yhat, p, parts)
        if (yhat <= 0).any():
            return None
        return np.log(yhat) - log_y, (yhat, p, parts)

    def jacobian(theta, evaluated):
        yhat, p, parts = evaluated
        jac = fixed if fixed is not None else _dlog_dtheta(model, p, t, alpha, parts)
        if log_y is None:
            jac = jac * yhat[:, None]  # d yhat = yhat d ln yhat
        return jac if np.isfinite(jac).all() else None

    return lattice, residual, jacobian, lambda: count


def _half_sq(point):
    return math.inf if point is None else 0.5 * float(point[0] @ point[0])


@functools.cache
def _lattice_offsets(n):
    """_LATTICE_STEP*{0, -1, 1}**n, zero first so argmin keeps the guess on ties."""
    offsets = _LATTICE_STEP * np.array(list(itertools.product((0.0, -1.0, 1.0), repeat=n)))
    offsets.flags.writeable = False
    return offsets


def _lm_once(residual, jacobian, theta, point, tol, max_iter):
    """Levenberg-Marquardt from theta, where point = residual(theta).

    residual(theta) is None where it cannot evaluate, else (r, aux), and
    jacobian(theta, aux) is dr/dtheta or None.  Returns (theta, point,
    iterations, converged, jac at the iterate before the last step).  Runs
    under the caller's numpy errstate.
    """
    cost = _half_sq(point)
    if not math.isfinite(cost):
        return theta, point, 0, False, None
    lam = _LAMBDA_INIT
    small_rel = max(tol * tol, _EPS)
    for it in range(1, max_iter + 1):
        jac = jacobian(theta, point[1])
        if jac is None:
            return theta, point, it, False, None
        grad = jac.T @ point[0]
        neg_grad = -grad
        jtj = jac.T @ jac
        jtj_diag = jtj.diagonal()
        diag = jtj_diag.copy()
        if min(diag.tolist()) <= 0:
            diag[diag <= 0] = max(1e-30, float(diag.max(initial=0.0)) * 1e-15)
        damped = jtj.copy()
        damped_diag = damped.reshape(-1)[::theta.size + 1]  # a view of its diagonal
        while lam <= _LAMBDA_CEIL:
            np.add(jtj_diag, lam * diag, out=damped_diag)
            try:
                step = np.linalg.solve(damped, neg_grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = theta + step
            point_trial = residual(trial)
            cost_trial = _half_sq(point_trial)
            if cost_trial <= cost:
                step = trial - theta  # the step as taken, rounded like trial
                # Moré's stop: actual and predicted cost reductions both within
                # tol**2 of the cost (it is quadratic in the parameter error), or
                # within float64 resolution where tol**2 is below it.
                predicted = -float(grad @ step + 0.5 * step @ jtj @ step)
                small = max(cost - cost_trial, predicted) <= small_rel * cost
                step_rel = math.sqrt(step @ step) / (1.0 + math.sqrt(theta @ theta))
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


def _condition(jac):
    """np.linalg.cond of a finite jac (0/0 read as inf), inf for None."""
    if jac is None:
        return math.inf
    s = np.linalg.svd(jac, compute_uv=False)
    ratio = float(s[0] / s[-1])
    return math.inf if math.isnan(ratio) else ratio


def fit(problem: FitProblem, tol: float = 1e-10, max_iter: int = 200) -> FitResult:
    """Estimate model parameters by one Levenberg-Marquardt descent.

    The descent starts from the lowest-cost point of the lattice
    guess + 1.5*{0, -1, 1}^n in the optimized coordinates (logs of positive
    parameters); the guess itself wins ties.  The lattice is scored in one
    broadcast evaluation of the family's closed form.  The descent then
    evaluates that closed form directly, once at the lattice's best point
    and once per trial step that passes the lattice's refusal rule, and
    takes its analytic Jacobian from the parts of the residual's evaluation;
    FitResult.evaluations counts those evaluations.  The descent converges
    when the relative parameter update and the gradient both fall below tol,
    or when an accepted step cuts the cost by at most max(tol**2, float64
    epsilon) relative, both actually and as linearized (the stop for data at
    its noise floor), and the last Jacobian it used is not singular.
    Otherwise NonConvergenceError carries the last iterate as ``best``; a
    constant series (range at most 1e-12 times its largest magnitude) raises
    RankDeficiencyError up front.  For the logistic family with alpha = 0
    the model is phi0*exp((a - b) t): only a - b and phi0 are identifiable.
    """
    tol = check_number("tol", tol, float, ">")
    max_iter = check_number("max_iter", max_iter, int, ">")
    values = problem.series.values
    if float(np.ptp(values)) <= 1e-12 * float(np.max(np.abs(values))):
        raise RankDeficiencyError(
            "constant series carries no information about growth rates")

    is_log = _theta_is_log(problem.model)
    theta0 = _to_theta(problem.initial_guess, is_log)
    starts = theta0 + _lattice_offsets(theta0.size)
    lattice, residual, jacobian, evaluations = _descent(problem, is_log)
    with np.errstate(all="ignore"):
        theta = starts[int(np.argmin(lattice(starts)))]
        theta, point, iters, converged, jac = _lm_once(
            residual, jacobian, theta, residual(theta), tol, max_iter)
        rmse = math.sqrt(2.0 * _half_sq(point) / len(problem.series))  # inf stays inf
        condition = _condition(jac)
    params = _from_theta(theta, is_log)
    result = FitResult(
        params=params,
        param_names=fitted_names(problem.model),
        rmse=rmse,
        iterations=iters,
        # a singular Jacobian leaves a parameter undetermined: not converged
        converged=converged and math.isfinite(condition),
        terminal_forecast=(terminal_value(make_record(problem.model, params, problem.alpha))
                           if point is not None else None),
        jacobian_condition=condition,
        model=problem.model,
        loss_space=problem.loss_space,
        alpha=problem.alpha if problem.model == LOGISTIC_FAMILY else None,
        evaluations=evaluations(),
    )
    if not result.converged:
        # the stop that ended the descent (damping out on the last iteration used the budget)
        why = (": no lattice point could be evaluated" if iters == 0 else
               ": it ended on a singular Jacobian" if converged else
               f": its Jacobian was not finite at iteration {iters}" if jac is None else
               f": the damping ran out at iteration {iters}" if iters < max_iter else
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
    window = check_number("window", window)
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
    terminal = terminal_value(record)
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
    # (2**alpha - 1)*r as (1 - 2**-alpha)*(r*2**alpha): the same rounded
    # product, but 2**alpha cannot overflow where r is subnormal
    half = (math.log1p(-r) - math.log((1.0 - 0.5 ** al) * math.ldexp(r, al))) / (al * a)
    return OnsetEstimate(half_terminal_time=half, terminal_value=terminal,
                         crude_scale=None)
