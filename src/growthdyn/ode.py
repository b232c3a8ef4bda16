"""Runge--Kutta integration for autonomous first-order systems.

Two drivers: a classical fixed-step RK4 (`integrate_fixed`) and an embedded
Dormand--Prince 5(4) pair with proportional step control
(`integrate_adaptive`).  Both return a `Trajectory` whose first state is the
initial condition unchanged and whose final grid point lands on t1 exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (NumericalError, StiffnessError, ValidationError, check_array,
                     check_number, check_record)

# Dormand--Prince 5(4) tableau; the last row of _DP_A is the 5th-order
# solution, whose derivative is the 7th stage (first-same-as-last).
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    _DP_B5[:6],
)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)

_UNDERFLOW_FRACTION = 1e-14  # dt below this fraction of the span is a stiffness failure
_MAX_STEPS = 10_000_000      # step budget of both integrators and the field march


@dataclass(frozen=True)
class AutonomousSystem:
    """A first-order system dy/dt = rhs(y) with no explicit time dependence."""

    dimension: int
    rhs: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        check_record(self, positive=("dimension",))


@dataclass
class Trajectory:
    """Integration output: strictly increasing times, one state row per time.

    times, shape (n,) with n >= 1, and states, shape (n, dimension), follow
    the array rule (errors.check_array): they are stored as float64 arrays
    (a float64 array as given, without a copy) of finite values.
    """

    times: np.ndarray            # shape (n,)
    states: np.ndarray           # shape (n, dimension)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = t = check_array("times", self.times, (None,))
        self.states = check_array("states", self.states, (t.size, None))
        if not (t.size and (t[1:] > t[:-1]).all()):
            raise ValidationError("times must be non-empty and strictly increasing")


def _check_span(t0, t1, **positive):
    t0, t1 = check_number("t0", t0), check_number("t1", t1)
    if not t1 > t0:
        raise ValidationError(f"need t1 > t0, got t0={t0}, t1={t1}")
    return t0, t1, *(check_number(name, v, float, ">") for name, v in positive.items())


def _eval_rhs(system, y, t):
    dy = check_array("rhs output", system.rhs(y), y.shape, finite=False)
    if not np.isfinite(dy).all():
        raise NumericalError(
            f"non-finite derivative at t={t!r}, state={y.tolist()!r}")
    return dy


def integrate_fixed(system: AutonomousSystem, y0, t0: float, t1: float, dt: float) -> Trajectory:
    """Classical RK4 with a fixed step.

    The last step is shortened so the final grid point equals t1 exactly.
    Global error is O(dt**4) on smooth systems.  The rhs shape is checked on
    the first call and the state's finiteness once per step; a march of more
    than _MAX_STEPS steps is refused before anything is allocated, and a
    grid t0 + i*dt that does not increase (dt below the float spacing of t)
    before the first step.
    """
    t0, t1, dt = _check_span(t0, t1, dt=dt)
    span = t1 - t0
    if not dt <= span * (1 + 1e-12):
        raise ValidationError(f"need dt <= t1 - t0, got dt={dt}")
    y = check_array("y0", y0, (system.dimension,))
    if span / dt > _MAX_STEPS:
        raise NumericalError(
            f"dt={dt!r} over [{t0!r}, {t1!r}] needs {span / dt:.4g} steps, "
            f"over the budget of {_MAX_STEPS}")
    n_steps = max(1, int(math.ceil(span / dt - 1e-9)))
    times = t0 + np.arange(n_steps + 1) * dt
    times[0] = t0  # exact: -0.0 + 0.0 would read +0.0
    times[-1] = t1
    if not (times[1:] > times[:-1]).all():
        raise ValidationError(
            f"dt={dt!r} is below the resolution of t near t0={t0!r} "
            f"(math.ulp(t0)={math.ulp(t0)!r}): the time grid does not increase")
    states = np.empty((n_steps + 1, system.dimension))
    states[0] = y
    rhs = system.rhs
    with np.errstate(all="ignore"):  # the checks below catch inf/NaN
        k1 = _eval_rhs(system, y, t0)
        for i in range(n_steps):
            t = t0 + i * dt
            h = dt if i < n_steps - 1 else t1 - t
            if i:
                k1 = np.asarray(rhs(y), dtype=float)
            k2 = np.asarray(rhs(y + 0.5 * h * k1), dtype=float)
            k3 = np.asarray(rhs(y + 0.5 * h * k2), dtype=float)
            k4 = np.asarray(rhs(y + h * k3), dtype=float)
            y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(y_new).all():
                raise NumericalError(
                    f"non-finite state after the step from t={t!r}, state={y.tolist()!r}")
            y = y_new
            states[i + 1] = y
    return Trajectory(times=times, states=states,
                      meta={"method": "rk4", "dt": dt, "n_steps": n_steps})


def integrate_adaptive(system: AutonomousSystem, y0, t0: float, t1: float,
                       rel_tol: float = 1e-8, abs_tol: float = 1e-10) -> Trajectory:
    """Embedded Dormand--Prince 5(4) pair with proportional step control.

    A step is accepted when its RMS error relative to abs_tol + rel_tol*|state|
    is err <= 1; accepted or not, h then scales by min(5, max(0.2, 0.9*err**-0.2))
    (5 at err = 0), so a non-finite trial stage or state, whose err is not
    finite, is rejected and shrinks h by 5.  A non-finite initial derivative
    aborts, a step below 1e-14*(t1 - t0) raises StiffnessError, and more than
    _MAX_STEPS tried steps, accepted or rejected, raise NumericalError, as
    does a step h below the resolution of t (t + h == t, where |t| is some
    hundred spans or more).
    """
    t0, t1, rel_tol, abs_tol = _check_span(t0, t1, rel_tol=rel_tol, abs_tol=abs_tol)
    y = check_array("y0", y0, (system.dimension,))
    span = t1 - t0
    times = [t0]
    states = [y.copy()]
    t = t0
    h = span / 100.0
    h_min = _UNDERFLOW_FRACTION * span
    with np.errstate(all="ignore"):  # the checks below catch inf/NaN
        k1 = _eval_rhs(system, y, t)  # FSAL: reused across accepted steps
        n_accept = n_reject = 0
        while t < t1:
            if n_accept + n_reject == _MAX_STEPS:
                raise NumericalError(
                    f"adaptive integration used its budget of {_MAX_STEPS} steps "
                    f"at t={t!r} of t1={t1!r}")
            h = min(h, t1 - t)
            if h < h_min:
                raise StiffnessError(
                    f"step size underflow at t={t!r} (h={h!r} < {h_min!r}); "
                    f"{n_accept} accepted / {n_reject} rejected steps so far")
            if t + h == t:
                raise NumericalError(
                    f"step h={h!r} is below the resolution of t={t!r} (t + h == t); "
                    f"{n_accept} accepted / {n_reject} rejected steps so far")
            ks = [k1]
            err = math.inf
            for row in _DP_A[1:]:
                y5 = y + h * sum(a_ij * k for a_ij, k in zip(row, ks))
                k7 = np.asarray(system.rhs(y5), dtype=float)
                if not np.isfinite(k7).all():
                    break
                ks.append(k7)
            else:  # y5 and k7 now hold the last row's stage
                if np.isfinite(y5).all():
                    err_vec = h * sum((b5 - b4) * k for b5, b4, k in zip(_DP_B5, _DP_B4, ks))
                    scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))
                    err = math.sqrt(float(np.mean((err_vec / scale) ** 2)))
            if err <= 1.0:
                t = t1 if (t1 - t - h) <= 1e-15 * span else t + h
                y = y5  # a fresh array that nothing writes
                k1 = k7  # first-same-as-last
                times.append(t)
                states.append(y)
                n_accept += 1
            else:
                n_reject += 1
            h *= min(5.0, max(0.2, 0.9 * err ** -0.2)) if err else 5.0
    times_arr = np.array(times)
    times_arr[-1] = t1
    return Trajectory(times=times_arr, states=np.array(states),
                      meta={"method": "rk45", "rel_tol": rel_tol, "abs_tol": abs_tol,
                            "n_accepted": n_accept, "n_rejected": n_reject})


def interp_states(trajectory: Trajectory, times) -> np.ndarray:
    """Sample a trajectory at arbitrary times by linear interpolation.

    First-order accurate between grid points; exact on the grid itself.
    Requested times (flattened, one output row each) must lie within
    [times[0], times[-1]]; NaN does not.
    """
    query = check_array("times", times, finite=False).reshape(-1)
    grid = trajectory.times
    if not ((query >= grid[0]) & (query <= grid[-1])).all():  # NaN fails both
        raise ValidationError("interpolation times outside the integrated span")
    out = np.empty((query.size, trajectory.states.shape[1]))
    for j in range(trajectory.states.shape[1]):
        out[:, j] = np.interp(query, grid, trajectory.states[:, j])
    return out
