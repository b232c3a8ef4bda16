"""Nonlinear least-squares fitting of the growth-model families.

The optimizer is a damped Gauss-Newton (Levenberg-Marquardt) iteration on a
transformed parameter vector: positivity-constrained parameters (rates,
damping coefficients, initial levels) are optimized as their natural logs,
while the power-law exponent stays linear.  Residuals are taken either in
value space or in log space, per the problem's loss_space.  Eight starts are
run — the caller's guess plus seven perturbations drawn from a fixed-seed
generator — and the best converged final residual wins, so repeated calls on
the same problem return identical results.

Alongside the fitter live two diagnostics: a classifier that decides whether
the leading portion of a series looks exponential or power-law (competing
ordinary least squares on (t, ln y) and (ln t, ln y)), and a saturation-onset
estimate (time to half the fitted terminal value).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import TimeSeries
from .errors import (DomainError, NonConvergenceError, ParameterError,
                     RankDeficiencyError, ValidationError)
from .models import (GeneralizedLogisticParams, PowerLawParams,
                     SaturatingLinearParams, eval_logistic_family,
                     eval_power_law, eval_saturating_linear)

POWER_LAW = "power-law"
SATURATING_LINEAR = "saturating-linear"
LOGISTIC_FAMILY = "logistic-family"
_MODELS = (POWER_LAW, SATURATING_LINEAR, LOGISTIC_FAMILY)

LOSS_LINEAR = "linear"
LOSS_LOG = "log"

EXPONENTIAL = "exponential"
INDETERMINATE = "indeterminate"

_PARAM_NAMES = {
    POWER_LAW: ("a", "beta"),
    SATURATING_LINEAR: ("a", "b"),
    LOGISTIC_FAMILY: ("a", "b", "phi0"),
}
_N_STARTS = 8
_START_SEED = 12345
_PERTURB_SCALE = 0.3
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
        if self.model not in _MODELS:
            raise ValidationError(f"model must be one of {_MODELS}, got {self.model!r}")
        if self.loss_space not in (LOSS_LINEAR, LOSS_LOG):
            raise ValidationError(
                f"loss_space must be {LOSS_LINEAR!r} or {LOSS_LOG!r}, "
                f"got {self.loss_space!r}")
        names = _PARAM_NAMES[self.model]
        guess = tuple(float(g) for g in self.initial_guess)
        object.__setattr__(self, "initial_guess", guess)
        if len(guess) != len(names):
            raise ValidationError(
                f"{self.model} takes {len(names)} parameters {names}, "
                f"got {len(guess)}")
        for name, g in zip(names, guess):
            if not math.isfinite(g):
                raise ValidationError(f"initial guess for {name} must be finite")
            if name != "beta" and g <= 0:
                raise ValidationError(
                    f"initial guess for {name} must be > 0, got {g}")
        if len(self.series) < 2 * len(names):
            raise ValidationError(
                f"fitting {len(names)} parameters needs at least "
                f"{2 * len(names)} points, series has {len(self.series)}")
        if self.loss_space == LOSS_LOG and np.any(self.series.values <= 0):
            raise ValidationError("log loss requires strictly positive values")
        alpha = self.alpha
        if isinstance(alpha, float) and alpha.is_integer():
            alpha = int(alpha)
            object.__setattr__(self, "alpha", alpha)
        if not (isinstance(alpha, int) and alpha >= 0):
            raise ValidationError(f"alpha must be a non-negative integer, got {self.alpha!r}")
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
    iterations: int                  # Gauss-Newton steps of the winning start
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
    return tuple(name != "beta" for name in _PARAM_NAMES[model])


def _to_theta(params, is_log):
    return np.array([math.log(p) if lg else p for p, lg in zip(params, is_log)])


def _from_theta(theta, is_log):
    return tuple(math.exp(v) if lg else float(v)
                 for v, lg in zip(theta, is_log))


def _theta_bounds(bounds, is_log):
    if bounds is None:
        return None
    lo = np.empty(len(bounds))
    hi = np.empty(len(bounds))
    for i, ((b_lo, b_hi), lg) in enumerate(zip(bounds, is_log)):
        if lg:
            lo[i] = math.log(b_lo) if b_lo > 0 else -math.inf
            hi[i] = math.log(b_hi) if math.isfinite(b_hi) else math.inf
        else:
            lo[i], hi[i] = b_lo, b_hi
    return lo, hi


def _predictor(problem):
    t = problem.series.times
    if problem.model == POWER_LAW:
        return lambda p: eval_power_law(PowerLawParams(a=p[0], beta=p[1]), t)
    if problem.model == SATURATING_LINEAR:
        return lambda p: eval_saturating_linear(SaturatingLinearParams(a=p[0], b=p[1]), t)
    alpha = problem.alpha

    def predict(p):
        record = GeneralizedLogisticParams(a=p[0], b=p[1], alpha=alpha, phi0=p[2])
        return eval_logistic_family(record, t)

    return predict


def _residual_fn(problem):
    predict = _predictor(problem)
    y = problem.series.values
    log_loss = problem.loss_space == LOSS_LOG
    log_y = np.log(y) if log_loss else None

    def residual(theta, is_log):
        try:
            yhat = predict(_from_theta(theta, is_log))
        except (ParameterError, DomainError, OverflowError):
            return None  # invalid or overflowing trial point: reject the step
        yhat = np.asarray(yhat, dtype=float)
        if not np.all(np.isfinite(yhat)):
            return None
        if log_loss:
            if np.any(yhat <= 0):
                return None
            return np.log(yhat) - log_y
        return yhat - y

    return residual


def _fd_jacobian(residual, theta, is_log, r0):
    m, n = r0.size, theta.size
    jac = np.empty((m, n))
    for j in range(n):
        h = 1e-6 * (1.0 + abs(theta[j]))
        tp = theta.copy(); tp[j] += h
        tm = theta.copy(); tm[j] -= h
        rp = residual(tp, is_log)
        rm = residual(tm, is_log)
        if rp is None or rm is None:
            return None
        jac[:, j] = (rp - rm) / (2.0 * h)
    return jac


def _lm_once(residual, theta0, is_log, t_bounds, tol, max_iter):
    """One Levenberg-Marquardt run; returns (theta, cost, iters, converged, jac)."""
    theta = theta0.copy()
    if t_bounds is not None:
        theta = np.clip(theta, t_bounds[0], t_bounds[1])
    r = residual(theta, is_log)
    if r is None:
        return theta, math.inf, 0, False, None
    cost = 0.5 * float(r @ r)
    lam = _LAMBDA_INIT
    jac = None
    for it in range(1, max_iter + 1):
        jac = _fd_jacobian(residual, theta, is_log, r)
        if jac is None:
            return theta, cost, it, False, None
        grad = jac.T @ r
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = max(1e-30, float(diag.max(initial=0.0)) * 1e-15)
        accepted = False
        while lam <= _LAMBDA_CEIL:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = theta + step
            if t_bounds is not None:
                trial = np.clip(trial, t_bounds[0], t_bounds[1])
            r_trial = residual(trial, is_log)
            if r_trial is not None:
                cost_trial = 0.5 * float(r_trial @ r_trial)
                if math.isfinite(cost_trial) and cost_trial <= cost:
                    step_rel = float(np.linalg.norm(trial - theta)) / (
                        1.0 + float(np.linalg.norm(theta)))
                    theta, r, cost = trial, r_trial, cost_trial
                    lam = max(lam / 3.0, 1e-14)
                    accepted = True
                    grad_new = jac.T @ r
                    if (step_rel <= tol
                            and float(np.max(np.abs(grad_new))) <= tol * max(1.0, cost)):
                        return theta, cost, it, True, jac
                    break
            lam *= 10.0
        if not accepted:
            # Damping exhausted: the iterate is a stationary point within
            # floating-point resolution.  Call it converged if the gradient
            # agrees, otherwise report failure.
            grad_ok = float(np.max(np.abs(grad))) <= tol * max(1.0, cost)
            return theta, cost, it, grad_ok, jac
    return theta, cost, max_iter, False, jac


def fit(problem: FitProblem, tol: float = 1e-10, max_iter: int = 200) -> FitResult:
    """Estimate model parameters by multi-start damped Gauss-Newton.

    Convergence requires both the relative parameter update and the gradient
    norm to fall below tol.  All starts failing raises NonConvergenceError
    whose ``best`` attribute carries the lowest-cost attempt; a constant
    series raises RankDeficiencyError up front.
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
    residual = _residual_fn(problem)
    t_bounds = _theta_bounds(problem.bounds, is_log)
    theta0 = _to_theta(problem.initial_guess, is_log)
    rng = np.random.default_rng(_START_SEED)

    best = None  # (cost, theta, iters, converged, jac)
    best_any = None
    for start in range(_N_STARTS):
        theta_start = theta0 if start == 0 else theta0 + rng.normal(
            0.0, _PERTURB_SCALE, size=theta0.size)
        theta, cost, iters, converged, jac = _lm_once(
            residual, theta_start, is_log, t_bounds, tol, max_iter)
        candidate = (cost, theta, iters, converged, jac)
        if best_any is None or cost < best_any[0] - 1e-12 * max(1.0, best_any[0]):
            best_any = candidate
        if converged and (best is None
                          or cost < best[0] - 1e-12 * max(1.0, best[0])):
            best = candidate

    chosen = best if best is not None else best_any
    cost, theta, iters, converged, jac = chosen
    params = _from_theta(theta, is_log)
    n_res = len(problem.series)
    rmse = math.sqrt(2.0 * cost / n_res) if math.isfinite(cost) else math.inf
    if jac is not None and np.all(np.isfinite(jac)):
        condition = float(np.linalg.cond(jac))
    else:
        condition = math.inf
    result = FitResult(
        params=params,
        param_names=_PARAM_NAMES[problem.model],
        rmse=rmse,
        iterations=iters,
        converged=converged,
        terminal_forecast=_terminal_forecast(problem, params),
        jacobian_condition=condition,
        model=problem.model,
        loss_space=problem.loss_space,
        alpha=problem.alpha if problem.model == LOGISTIC_FAMILY else None,
    )
    if best is None:
        raise NonConvergenceError(
            f"no start converged within {max_iter} iterations "
            f"(best rmse {rmse:.3e})", best=result)
    return result


def _terminal_forecast(problem, params):
    if problem.model == SATURATING_LINEAR:
        return params[0] / params[1]
    if problem.model == LOGISTIC_FAMILY and problem.alpha >= 1:
        return (params[0] / params[1]) ** (1.0 / problem.alpha)
    return None  # power law and alpha = 0 grow without bound


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
    if np.any(y_w <= 0):
        raise DomainError(
            f"non-positive value {float(y_w[np.argmax(y_w <= 0)])!r} in window: "
            "cannot take logs")
    if np.any(t_w <= 0):
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
    Unbounded models (power law, alpha = 0) have no terminal value to
    approach, nor does a start at phi0 = 0 ever leave it.
    """
    if fitted.model == POWER_LAW or (fitted.model == LOGISTIC_FAMILY
                                     and fitted.alpha == 0):
        raise DomainError(
            "not applicable: an unbounded model never saturates")
    p = fitted.named_params()
    if fitted.model == SATURATING_LINEAR:
        b = p["b"]
        return OnsetEstimate(half_terminal_time=math.log(2.0) / b,
                             terminal_value=p["a"] / b,
                             crude_scale=1.0 / b)

    record = GeneralizedLogisticParams(a=p["a"], b=p["b"], alpha=fitted.alpha,
                                       phi0=p["phi0"])
    a, b, al, phi0 = record.a, record.b, record.alpha, record.phi0
    terminal = (a / b) ** (1.0 / al)
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
