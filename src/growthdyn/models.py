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

from .errors import DomainError, ParameterError

POWER_LAW = "power-law"
SATURATING_LINEAR = "saturating-linear"
LOGISTIC_FAMILY = "logistic-family"

# exp() overflow threshold for float64, with headroom
_EXP_MAX = 700.0
_FLOAT_MAX = float(np.finfo(float).max)


class Unbounded:
    """Singleton marker for growth without a finite terminal value.

    Returned instead of ``float('inf')`` so that unbounded results cannot
    silently flow into downstream arithmetic.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "unbounded"


UNBOUNDED = Unbounded()


def _require(cond, message):
    if not cond:
        raise ParameterError(message)


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def integral_alpha(alpha):
    """alpha as an int (from an integral float too); else ParameterError."""
    al = int(alpha) if isinstance(alpha, float) and alpha.is_integer() else alpha
    _require(isinstance(al, int) and al >= 0,
             f"unsupported alpha: {al!r} (must be a non-negative integer)")
    return al


@dataclass(frozen=True)
class PowerLawParams:
    """Power-law growth phi = a * t**beta."""

    a: float      # amplitude, > 0
    beta: float   # growth exponent, any finite real

    def __post_init__(self):
        _require(_finite(self.a) and self.a > 0, f"power law needs a > 0, got a={self.a}")
        _require(_finite(self.beta), f"power law exponent must be finite, got beta={self.beta}")


@dataclass(frozen=True)
class SaturatingLinearParams:
    """Linearly damped growth dphi/dt = a - b*phi, started at phi = 0."""

    a: float  # drive, > 0 (value-units per time)
    b: float  # relaxation rate, > 0 (per time)

    def __post_init__(self):
        _require(_finite(self.a) and self.a > 0, f"need a > 0, got a={self.a}")
        _require(_finite(self.b) and self.b > 0, f"need b > 0, got b={self.b}")


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
        _require(_finite(self.a) and self.a > 0, f"need a > 0, got a={self.a}")
        _require(_finite(self.b) and self.b > 0, f"need b > 0, got b={self.b}")
        _require(_finite(self.phi0) and self.phi0 >= 0,
                 f"need phi0 >= 0, got phi0={self.phi0}")
        object.__setattr__(self, "alpha", integral_alpha(self.alpha))
        if self.a < self.b * self.phi0 ** self.alpha:
            raise ParameterError(
                f"growth regime requires a >= b*phi0**alpha; got a={self.a}, "
                f"b*phi0**alpha={self.b * self.phi0 ** self.alpha}")


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


def _dlog_dtheta(params, t):
    """Columns of d ln(phi)/d theta at times t (an array) in a fit's coordinates
    (ln p, beta as it is); a column in ln t or b t is 0 at t = 0."""
    one = np.ones_like(t)
    if isinstance(params, PowerLawParams):
        return np.column_stack((one, np.log(np.where(t > 0, t, 1.0))))
    if isinstance(params, SaturatingLinearParams):  # t capped at 700/b as evaluated
        bt = params.b * np.minimum(t, _EXP_MAX / params.b)
        x = np.where(bt > 0, bt, 1.0)
        return np.column_stack((one, np.where(bt > 0, x / np.expm1(x) - 1.0, 0.0)))
    a, b, al, phi0 = params.a, params.b, params.alpha, params.phi0
    if al == 0:  # ln phi = ln phi0 + (a - b) t
        return np.column_stack((a * t, -b * t, one))
    # ln phi = ln phi0 - ln(D)/alpha, D = r + (1 - r) E, E = exp(-alpha a t)
    r = b * phi0 ** al / a
    e = np.exp(-al * a * t)
    d = r + (1.0 - r) * e
    u = r * (1.0 - e) / d
    return np.column_stack((u / al + (1.0 - r) * a * t * e / d, -u / al, 1.0 - u))


def _as_times(t):
    """Validate t >= 0 and return (array, was_scalar)."""
    arr = np.asarray(t, dtype=float)
    if (arr < 0).any():
        raise DomainError(f"time must be >= 0, got {t!r}")
    return arr, arr.ndim == 0


def eval_power_law(params: PowerLawParams, t):
    """Evaluate a*t**beta.  t may be a scalar or an array, t >= 0.

    t = 0 with beta < 0 is rejected (the value would diverge), and so is a
    value outside float64 range.
    """
    arr, scalar = _as_times(t)
    if params.beta < 0 and (arr == 0).any():
        raise DomainError("t = 0 with beta < 0 diverges")
    with np.errstate(over="ignore"):
        out = params.a * np.power(arr, params.beta)
    if np.isinf(out).any():
        raise DomainError(
            f"power law leaves float64 range: a={params.a!r}, beta={params.beta!r}")
    return float(out) if scalar else out


def eval_saturating_linear(params: SaturatingLinearParams, t):
    """Evaluate (a/b)*(1 - exp(-b t)); monotone, bounded above by a/b.

    A level a/b outside float64 range raises DomainError.  Past b t = 700 the
    exponential is below float64 resolution, so t is capped there and b t
    cannot overflow.
    """
    arr, scalar = _as_times(t)
    a, b = params.a, params.b
    if not a / b <= _FLOAT_MAX:
        raise DomainError(f"saturating level a/b leaves float64 range: a={a!r}, b={b!r}")
    out = -(a / b) * np.expm1(-b * np.minimum(arr, _EXP_MAX / b))
    return float(out) if scalar else out


def eval_logistic_family(params: GeneralizedLogisticParams, t):
    """Evaluate the generalized logistic family at time(s) t >= 0.

    Closed forms:

        alpha = 0:   phi = phi0 * exp((a - b) t)
        alpha >= 1:  phi = phi0 / (r + (1 - r)*exp(-alpha a t))**(1/alpha),
                     r = b*phi0**alpha / a = (phi0/K)**alpha,  K = (a/b)**(1/alpha)

    The alpha >= 1 form solves the linear equation obeyed by u = phi**-alpha.
    Its denominator lies in [r**(1/alpha), 1], so the value never exceeds K;
    a value outside float64 range (K overflows, or r underflows and the
    exponential with it) raises DomainError.

    For alpha = 0 a scalar evaluation whose exponent would overflow float64
    returns the UNBOUNDED marker; an array evaluation raises DomainError so
    that infinities never leak into vectorized math.
    """
    arr, scalar = _as_times(t)
    a, b, al, phi0 = params.a, params.b, params.alpha, params.phi0

    # fixed-point starts: the solution is constant
    if a == b * phi0 ** al:
        out = np.full_like(arr, phi0)
        return float(out) if scalar else out
    if phi0 == 0:  # phi = 0 is a fixed point of every member
        out = np.zeros_like(arr)
        return float(out) if scalar else out

    if al == 0:
        log_phi0 = math.log(phi0)  # phi0 > 0 here: phi0 == 0 is the constant case
        exponent = (a - b) * arr + log_phi0
        if (exponent > _EXP_MAX).any():
            if scalar:
                return UNBOUNDED
            raise DomainError(
                f"alpha = 0 growth overflows beyond t = "
                f"{(_EXP_MAX - log_phi0) / (a - b):.6g}; evaluate scalars to get "
                f"the unbounded marker")
        out = np.exp(exponent)
    else:
        r = b * phi0 ** al / a
        scale = (r + (1.0 - r) * np.exp(-al * a * arr)) ** (1.0 / al)
        if (scale * _FLOAT_MAX < phi0).any():
            raise DomainError(
                f"alpha = {al} value leaves float64 range: terminal level "
                f"(a/b)**(1/alpha) = {(a / b) ** (1.0 / al):.6g}, "
                f"b*phi0**alpha/a = {r:.3g}")
        out = phi0 / scale
    return float(out) if scalar else out


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
    """Limiting value of the growth law as t -> infinity.

    GeneralizedLogisticParams: (a/b)**(1/alpha) for alpha >= 1; for alpha = 0
    the UNBOUNDED marker when a > b, or phi0 when a == b (constant solution).
    SaturatingLinearParams: a/b.
    """
    if isinstance(params, SaturatingLinearParams):
        return params.a / params.b
    if not isinstance(params, GeneralizedLogisticParams):
        raise ParameterError(f"no terminal value defined for {type(params).__name__}")
    if params.alpha == 0:
        if params.a > params.b:
            return UNBOUNDED
        return params.phi0  # a == b: constant solution
    return (params.a / params.b) ** (1.0 / params.alpha)


def terminal_level(params):
    """terminal_value, or None where growth is unbounded (power law, UNBOUNDED)."""
    if isinstance(params, PowerLawParams):
        return None
    level = terminal_value(params)
    return None if level is UNBOUNDED else level


def early_time_approx(params: SaturatingLinearParams, t):
    """Small-t linear regime of the saturating law: phi ~ a*t.

    The full curve satisfies |eval_saturating_linear - a*t| <= (a*b/2)*t**2
    for every t >= 0, so the approximation is good while b*t stays small.
    """
    arr, scalar = _as_times(t)
    out = params.a * arr
    return float(out) if scalar else out
