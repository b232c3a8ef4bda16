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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

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
        al = self.alpha
        if isinstance(al, float):
            if not (math.isfinite(al) and al == int(al)):
                raise ParameterError(f"unsupported alpha: {al!r} (must be a non-negative integer)")
            al = int(al)
            object.__setattr__(self, "alpha", al)
        _require(isinstance(al, int) and al >= 0,
                 f"unsupported alpha: {self.alpha!r} (must be a non-negative integer)")
        if self.a < self.b * self.phi0 ** al:
            raise ParameterError(
                f"growth regime requires a >= b*phi0**alpha; got a={self.a}, "
                f"b*phi0**alpha={self.b * self.phi0 ** al}")


def _as_times(t):
    """Validate t >= 0 and return (array, was_scalar)."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise DomainError(f"time must be >= 0, got {t!r}")
    return arr, arr.ndim == 0


def eval_power_law(params: PowerLawParams, t):
    """Evaluate a*t**beta.  t may be a scalar or an array, t >= 0.

    t = 0 with beta < 0 is rejected (the value would diverge).
    """
    arr, scalar = _as_times(t)
    if params.beta < 0 and np.any(arr == 0):
        raise DomainError("t = 0 with beta < 0 diverges")
    out = params.a * np.power(arr, params.beta)
    return float(out) if scalar else out


def eval_saturating_linear(params: SaturatingLinearParams, t):
    """Evaluate (a/b)*(1 - exp(-b t)); monotone, bounded above by a/b."""
    arr, scalar = _as_times(t)
    out = -(params.a / params.b) * np.expm1(-params.b * arr)
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
    if phi0 == 0 and al >= 1:
        out = np.zeros_like(arr)
        return float(out) if scalar else out

    if al == 0:
        log_phi0 = math.log(phi0)  # phi0 > 0 here: phi0 == 0 is the constant case
        exponent = (a - b) * arr + log_phi0
        if np.any(exponent > _EXP_MAX):
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
        if np.any(scale * _FLOAT_MAX < phi0):
            raise DomainError(
                f"alpha = {al} value leaves float64 range: terminal level "
                f"(a/b)**(1/alpha) = {(a / b) ** (1.0 / al):.6g}, "
                f"b*phi0**alpha/a = {r:.3g}")
        out = phi0 / scale
    return float(out) if scalar else out


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


def early_time_approx(params: SaturatingLinearParams, t):
    """Small-t linear regime of the saturating law: phi ~ a*t.

    The full curve satisfies |eval_saturating_linear - a*t| <= (a*b/2)*t**2
    for every t >= 0, so the approximation is good while b*t stays small.
    """
    arr, scalar = _as_times(t)
    out = params.a * arr
    return float(out) if scalar else out
