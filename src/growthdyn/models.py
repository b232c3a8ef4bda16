"""Closed-form growth laws and their terminal values.

Three families, in increasing order of structure:

* power law             phi(t) = a * t**beta
* saturating linear     dphi/dt = a - b*phi      ->  phi = (a/b)(1 - exp(-b t))
* generalized logistic  dphi/dt = phi*(a - b*phi**alpha), alpha a non-negative
  integer.  alpha = 0 is pure exponential growth at rate (a - b); alpha = 1 is
  the classic logistic; alpha = 2 saturates at sqrt(a/b).  For alpha >= 1 the
  terminal level is (a/b)**(1/alpha); for alpha = 0 with a > b there is none.

Every member has a closed form: for alpha >= 1 the growth law is a Bernoulli
equation, linear in u = phi**-alpha, so one expression covers every alpha.

FAMILIES maps a family name to its record class, whose fields in order are the
parameter names; fitting and the CLI build records and evaluate through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, ParameterError, check_array, check_record

POWER_LAW = "power-law"
SATURATING_LINEAR = "saturating-linear"
LOGISTIC_FAMILY = "logistic-family"

# b t past which exp(-b t) is below float64 resolution
_EXP_MAX = 700.0


@dataclass(frozen=True)
class PowerLawParams:
    """Power-law growth phi = a * t**beta."""

    a: float      # amplitude, > 0
    beta: float   # growth exponent, any finite real

    def __post_init__(self):
        check_record(self, positive=("a",))


@dataclass(frozen=True)
class SaturatingLinearParams:
    """Linearly damped growth dphi/dt = a - b*phi, started at phi = 0."""

    a: float  # drive, > 0 (value-units per time)
    b: float  # relaxation rate, > 0 (per time)

    def __post_init__(self):
        check_record(self, positive=("a", "b"))


@dataclass(frozen=True)
class GeneralizedLogisticParams:
    """Nonlinear growth dphi/dt = phi*(a - b*phi**alpha).

    Constraints: a > 0, b > 0, phi0 >= 0, alpha a non-negative integer, and
    a >= b*phi0**alpha.  Equality a == b*phi0**alpha means the run starts on
    the fixed point and the solution is the constant phi0; a below that
    threshold is rejected because the closed-form constants become undefined.
    """

    a: float
    b: float
    alpha: int
    phi0: float

    def __post_init__(self):
        check_record(self, positive=("a", "b"), non_negative=("alpha", "phi0"))
        damping = _damping(self.b, self.phi0, self.alpha)
        if self.a < damping:
            raise ParameterError(
                f"growth regime requires a >= b*phi0**alpha; got a={self.a}, "
                f"b*phi0**alpha={damping}")


def _damping(b, phi0, alpha):
    """b*phi0**alpha for floats; inf where phi0**alpha passes float64, which
    puts it above any finite a."""
    try:
        return b * phi0 ** alpha
    except OverflowError:
        return math.inf


FAMILIES = {POWER_LAW: PowerLawParams, SATURATING_LINEAR: SaturatingLinearParams,
            LOGISTIC_FAMILY: GeneralizedLogisticParams}
# A fit estimates every field but the logistic exponent, which it holds fixed.
_FITTED_NAMES = {family: tuple(f.name for f in fields(cls) if f.name != "alpha")
                 for family, cls in FAMILIES.items()}


def fitted_names(family):
    """Names of the parameters a fit estimates, in record-field order."""
    return _FITTED_NAMES[family]


def make_record(family, params, alpha=None):
    """A family's record from fitted params plus the logistic exponent alpha."""
    if family == LOGISTIC_FAMILY:  # alpha sits between b and phi0 in field order
        a, b, phi0 = params
        return GeneralizedLogisticParams(a, b, alpha, phi0)
    return FAMILIES[family](*params)


def _as_times(t):
    """Validate t >= 0 and return (array, was_scalar)."""
    arr = check_array("t", t, finite=False)
    negative = ~(arr >= 0)  # NaN too
    if negative.any():
        i = int(np.argmax(negative))  # the first, in flat order
        where = f" at index {i}" if arr.ndim else ""
        raise DomainError(f"time must be >= 0, got {float(arr.flat[i])!r}{where}")
    return arr, arr.ndim == 0


def _in_range(params, out, scalar):
    """out as a float for a scalar t, else the array; DomainError where a
    value is not finite, i.e. lies outside float64 range."""
    if not np.isfinite(out).all():
        raise DomainError(f"{params!r} leaves float64 range")
    return float(out) if scalar else out


def _closed_form_parts(family, p, t, alpha=None):
    """(value, parts): a family's closed form at times t (an array), and what
    _dlog_dtheta reuses of it, b*min(t, 700/b) for the saturating law and
    (r, e, d) = (b*phi0**alpha/a, exp(-alpha a t), r + (1 - r) e) for the
    logistic family with alpha >= 1 (else None).  p holds the fitted
    parameters in fitted_names order, floats or (m, 1) columns of m sets;
    alpha is a Python int.  A column set below the growth regime (a <
    b*phi0**alpha) reads NaN, and float parameters must lie in it (_damping).
    A value outside float64 range comes back non-finite, under the caller's
    errstate."""
    if family == POWER_LAW:
        a, beta = p
        return a * np.power(t, beta), None
    if family == SATURATING_LINEAR:
        a, b = p
        bt = b * np.minimum(t, _EXP_MAX / b)
        return -(a / b) * np.expm1(-bt), bt
    a, b, phi0 = p
    damping = b * phi0 ** alpha
    if alpha == 0:  # a float takes math.log, whose bits np.log does not always match
        log_phi0 = (np.log(phi0) if np.ndim(phi0) else
                    math.log(phi0) if phi0 > 0 else -math.inf)
        out, parts = np.exp((a - b) * t + log_phi0), None
    else:
        r = damping / a
        e = np.exp(-alpha * a * t)
        d = r + (1.0 - r) * e
        out, parts = phi0 / d ** (1.0 / alpha), (r, e, d)
    # a start on a fixed point (phi0 = 0, or a == b*phi0**alpha) stays there;
    # the value is replaced only where some start is on one
    if np.ndim(phi0):
        fixed, below = (phi0 == 0) | (a == damping), a < damping
        out = np.where(fixed, phi0, out) if fixed.any() else out
        return (np.where(below, np.nan, out) if below.any() else out), parts
    return (np.full_like(out, phi0) if phi0 == 0 or a == damping else out), parts


def _closed_form(family, p, t, alpha=None):
    """_closed_form_parts's value alone, without a numpy warning."""
    with np.errstate(all="ignore"):
        return _closed_form_parts(family, p, t, alpha)[0]


def _dlog_dtheta(family, p, t, alpha, parts):
    """Columns of d ln(phi)/d theta at times t (an array) in a fit's coordinates
    (ln p, beta as it is), from float parameters p and the parts that
    _closed_form_parts gave with their value; a column in ln t or b t is 0 at
    t = 0."""
    jac = np.empty((t.size, len(_FITTED_NAMES[family])))
    if family != LOGISTIC_FAMILY:
        jac[:, 0] = 1.0
    if family == POWER_LAW:
        jac[:, 1] = np.log(np.where(t > 0, t, 1.0))
    elif family == SATURATING_LINEAR:  # parts: b t, with t capped at 700/b as evaluated
        x = np.where(parts > 0, parts, 1.0)
        jac[:, 1] = np.where(parts > 0, x / np.expm1(x) - 1.0, 0.0)
    elif alpha == 0:  # ln phi = ln phi0 + (a - b) t
        a, b, _ = p
        jac[:, 0] = a * t
        jac[:, 1] = -b * t
        jac[:, 2] = 1.0
    else:  # ln phi = ln phi0 - ln(d)/alpha, d = r + (1 - r) e, e = exp(-alpha a t)
        a = p[0]
        r, e, d = parts
        u = r * (1.0 - e) / d
        u_alpha = u / alpha
        np.add(u_alpha, (1.0 - r) * a * t * e / d, out=jac[:, 0])
        np.negative(u_alpha, out=jac[:, 1])
        np.subtract(1.0, u, out=jac[:, 2])
    return jac


def eval_power_law(params: PowerLawParams, t):
    """Evaluate a*t**beta.  t may be a scalar or an array, t >= 0.

    t = 0 with beta < 0 is rejected (the value would diverge), and so is a
    value outside float64 range.
    """
    arr, scalar = _as_times(t)
    if params.beta < 0 and (arr == 0).any():
        raise DomainError("t = 0 with beta < 0 diverges")
    return _in_range(params, _closed_form(POWER_LAW, (params.a, params.beta), arr), scalar)


def eval_saturating_linear(params: SaturatingLinearParams, t):
    """Evaluate (a/b)*(1 - exp(-b t)); monotone, bounded above by a/b.

    A level a/b outside float64 range raises DomainError.  Past b t = 700 the
    exponential is below float64 resolution, so t is capped there and b t
    cannot overflow.
    """
    arr, scalar = _as_times(t)
    return _in_range(params, _closed_form(SATURATING_LINEAR, (params.a, params.b), arr),
                     scalar)


def eval_logistic_family(params: GeneralizedLogisticParams, t):
    """Evaluate the generalized logistic family at time(s) t >= 0.

    Closed forms:

        alpha = 0:   phi = phi0 * exp((a - b) t)
        alpha >= 1:  phi = phi0 / (r + (1 - r)*exp(-alpha a t))**(1/alpha),
                     r = b*phi0**alpha / a = (phi0/K)**alpha,  K = (a/b)**(1/alpha)

    The alpha >= 1 form solves the linear equation obeyed by u = phi**-alpha.
    Its denominator lies in [r**(1/alpha), 1], so the value never exceeds K.
    A start on a fixed point (phi0 = 0, or a == b*phi0**alpha) stays there.
    A value outside float64 range raises DomainError: alpha = 0 growth past
    about t = (709.78 - ln phi0)/(a - b), or for alpha >= 1 a level K that
    overflows (or r underflows, and the exponential with it).
    """
    arr, scalar = _as_times(t)
    out = _closed_form(LOGISTIC_FAMILY, (params.a, params.b, params.phi0), arr, params.alpha)
    return _in_range(params, out, scalar)


def evaluate(params, t):
    """Evaluate any family's record at time(s) t, dispatching on its type."""
    # Named at call time, so a wrapper bound over the module attribute sees it.
    if isinstance(params, GeneralizedLogisticParams):
        return eval_logistic_family(params, t)
    if isinstance(params, SaturatingLinearParams):
        return eval_saturating_linear(params, t)
    if isinstance(params, PowerLawParams):
        return eval_power_law(params, t)
    raise ParameterError(f"no growth law for {type(params).__name__}")


def terminal_value(params):
    """Limiting value of the growth law as t -> infinity, or None where growth
    has no finite level.

    SaturatingLinearParams: a/b.  GeneralizedLogisticParams: (a/b)**(1/alpha)
    for alpha >= 1; for alpha = 0, None when a > b and phi0 when a == b (the
    constant solution).  PowerLawParams: None.  A level outside float64 range
    raises DomainError, as the evaluators do; any other object raises
    ParameterError.
    """
    if isinstance(params, SaturatingLinearParams):
        level = params.a / params.b
    elif isinstance(params, GeneralizedLogisticParams):
        if params.alpha == 0:
            return params.phi0 if params.a == params.b else None
        level = (params.a / params.b) ** (1.0 / params.alpha)
    elif isinstance(params, PowerLawParams):
        return None
    else:
        raise ParameterError(f"no terminal value defined for {type(params).__name__}")
    return _in_range(params, level, True)
