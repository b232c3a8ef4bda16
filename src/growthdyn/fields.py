"""Spatial field models: diffusion point source and forced advection.

Two one-dimensional problems live here.  The first is the classic diffusion
point-source profile

    phi(x, t) = (4*pi*delta*t)**(-1/2) * exp(-x**2 / (4*delta*t)),

normalized to unit integral for every t > 0.  The second is the pressure-free
advection equation with an attractive inverse-distance potential,

    dphi/dt + phi * dphi/dx = -1/x**2,

which is the conservation law dphi/dt + d(phi**2/2 - 1/x)/dx = 0, solved two
ways: exactly along characteristics through a scalar implicit relation, and
numerically with a first-order upwind march of the conservation form.  From
a flat level the field magnitude at fixed x grows monotonically toward its
steady state phi**2 - 2/x = phi0**2, the terminal profile sqrt(phi0**2 + 2/x).

Sign convention: the force -1/x**2 is negative, so the signed field evolves
negative from a flat start, never turns positive, and transport runs toward
small x; the march therefore upwinds from the large-x side only.  The solver
tracks the signed field; magnitude comparisons are the caller's job (the CLI
plots absolute values).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, NumericalError, ParameterError,
                     ValidationError, check_array, check_number, check_record)
from .ode import _MAX_STEPS, AutonomousSystem

_CFL = 0.9                # the march's Courant number (see evolve_advection_fd)
_VEL_FLOOR = 1e-12        # guards the CFL division on a flat (zero) field
_EXP_OVERFLOW = 700.0     # exp() argument ceiling before float64 overflow


@dataclass(frozen=True)
class DiffusionParams:
    """Diffusion coefficient delta > 0 for the point-source solution."""

    delta: float

    def __post_init__(self):
        check_record(self, positive=("delta",))


@dataclass(frozen=True)
class AdvectionSetup:
    """Domain, resolution, and initial level for the forced advection problem.

    c is the characteristic energy constant of the implicit exact solution
    (fixed per query); phi0 is the flat initial field magnitude.  x_min stays
    strictly positive to keep the potential's singularity off the grid.
    x_min < x_max, n_cells >= 16, and phi0**2, 1/x_min**2 and x_max**2 stay
    finite.
    """

    c: float = 1.0
    phi0: float = 0.0
    x_min: float = 1.0
    x_max: float = 200.0
    n_cells: int = 1024

    def __post_init__(self):
        check_record(self, positive=("c", "x_min", "x_max", "n_cells"),
                     non_negative=("phi0",))
        if not math.isfinite(self.phi0 * self.phi0):
            raise ParameterError(f"phi0={self.phi0!r} is too large: phi0**2 overflows")
        if not self.x_min < self.x_max:
            raise ParameterError(f"need x_min < x_max, got ({self.x_min!r}, {self.x_max!r})")
        if not (self.x_min * self.x_min > 0 and math.isfinite(1.0 / (self.x_min * self.x_min))):
            raise ParameterError(f"x_min={self.x_min!r} is too small: 1/x_min**2 overflows")
        if not math.isfinite(self.x_max * self.x_max):
            raise ParameterError(f"x_max={self.x_max!r} is too large: x_max**2 overflows")
        if self.n_cells < 16:
            raise ParameterError(f"n_cells must be an integer >= 16, got {self.n_cells!r}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def cell_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True, eq=False)
class FieldSnapshot:
    """The field on its grid at one instant t (any finite real).

    x_grid (non-empty, strictly increasing) and phi, of the same shape (n,),
    follow the array rule (errors.check_array): they are stored as float64
    arrays (a float64 array as given, without a copy) of finite values.
    """

    t: float
    x_grid: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        check_record(self)
        x = check_array("x_grid", self.x_grid, (None,))
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "phi", check_array("phi", self.phi, x.shape))
        if not (x.size and (x[1:] > x[:-1]).all()):
            raise ValidationError("x_grid must be non-empty and strictly increasing")

    @classmethod
    def _unchecked(cls, t, x_grid, phi):
        """A snapshot of values that already follow the rules above (the
        march's float t, its own read-only grid and a fresh finite field),
        built without checking them again."""
        snap = object.__new__(cls)
        snap.__dict__.update(t=t, x_grid=x_grid, phi=phi)
        return snap


def diffusion_point_source(p: DiffusionParams, x, t: float):
    """Point-source diffusion profile at position x and time t > 0.

    Even in x; the integral over all x is 1 for every t.
    """
    t = check_number("t", t)
    if not t > 0:
        raise DomainError(f"point-source profile requires t > 0, got t={t}")
    x_arr = check_array("x", x, finite=False)
    four_dt = 4.0 * p.delta * t
    if not 2.0 ** -1022 <= four_dt <= 2.0 ** 1021:  # normal, and pi*four_dt finite
        raise DomainError(f"4*delta*t={four_dt!r} leaves the normal float64 range")
    with np.errstate(over="ignore"):  # x**2/(4 delta t) past float64 gives exp(-inf) = 0
        out = np.exp(-x_arr * x_arr / four_dt) / math.sqrt(math.pi * four_dt)
    return float(out) if x_arr.ndim == 0 else out


def _char_residual(phi: float, c: float, x: float, t: float) -> float:
    # Implicit relation g(phi) = phi^2 - (2/x)*[1 - (phi/c + 1)^-2 * exp(c*phi*x - c^3 t)]
    # rewritten with a single guarded exponent to survive large c*phi*x.  Where
    # c**3 leaves the normal float64 range, c*(phi*x - c*(c*t)) neither reads
    # inf - inf nor loses c^3 t to underflow.
    expo = (c * phi * x - c ** 3 * t if 2.0 ** -340 <= c <= 2.0 ** 341
            else c * (phi * x - c * (c * t))) - 2.0 * math.log1p(phi / c)
    if expo > _EXP_OVERFLOW:
        return math.inf
    return phi * phi - (2.0 / x) + (2.0 / x) * math.exp(expo)


def euler_characteristic_phi(setup: AdvectionSetup, x: float, t: float) -> float:
    """Root of the characteristic implicit relation g(phi) = 0 (_char_residual).

    Solves g(phi) = phi**2 - (2/x)*[1 - (phi/c + 1)**-2 * exp(c*phi*x - c**3*t)]
    on the branch [0, sqrt(2/x)] by bisection down to adjacent floats, so the
    root and one of its neighbours bracket the sign change of the computed g.
    It is not the field that grows from the flat zero start: at c = 1 and
    (x, t) = (50, 50) it reads 0.2000, where free fall from rest and the march
    read 0.0197.  Where c**2*x >= 2 the root is 0 at t = 0 and rises
    monotonically toward sqrt(2/x); elsewhere g'(0) = (2/x)(c*x - 2/c) < 0, so
    for t > 0 the only sign change is the far root and the value jumps at
    t = 0 (to 0.79 at x = c = 1).  Every c the setup accepts gives a root.
    t = inf gives the late-time limit; a negative or NaN t raises DomainError.
    """
    x = check_number("x", x)
    t = check_number("t", t) if t == t != math.inf else t  # inf passes; NaN fails t >= 0
    if not setup.x_min <= x <= setup.x_max:
        raise DomainError(
            f"x={x} outside the solver domain [{setup.x_min}, {setup.x_max}]")
    if not t >= 0:
        raise DomainError(f"t must be >= 0, got {t}")
    if t == 0:
        return 0.0
    c = setup.c
    lo, hi = 0.0, math.sqrt(2.0 / x)
    # g(0) = (2/x)(exp(-c**3 t) - 1) <= 0 always, and g(hi) is hi*hi - 2/x plus
    # a non-negative exponential term: below 0 it is only the rounding of
    # hi*hi - 2/x (late times, the term underflowed), and the root is hi.
    if _char_residual(hi, c, x, t) < 0.0:
        return hi
    # Halve [lo, hi] until the midpoint rounds to one end: lo and hi are then
    # adjacent floats.  Each pass about halves the width, which starts below
    # 2**1024 and cannot fall below the smallest subnormal, 2**-1074, so a
    # float64 bracket ends within about 2,100 passes.
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if _char_residual(mid, c, x, t) <= 0.0:
            lo = mid
        else:
            hi = mid


def euler_terminal_profile(setup: AdvectionSetup, x):
    """Long-time field magnitude sqrt(phi0**2 + 2/x); sqrt(2/x) for a zero start."""
    x_arr = check_array("x", x, finite=False)
    if not (x_arr > 0).all():  # NaN too
        raise DomainError(f"terminal profile requires x > 0, got {x!r}")
    with np.errstate(over="ignore"):  # refused below
        out = np.sqrt(setup.phi0 ** 2 + 2.0 / x_arr)
    if not np.isfinite(out).all():
        raise DomainError(f"terminal profile leaves float64 range: 2/x overflows, x={x!r}")
    return float(out) if x_arr.ndim == 0 else out


def evolve_advection_fd(setup: AdvectionSetup, t_end: float,
                        snapshot_times) -> list:
    """March the forced advection equation in conservation form, upwinded.

    The signed field starts flat at -phi0 and moves toward small x while the
    force, folded into the flux G = phi**2 - 2/x, pumps it: a step is
    new_i = phi_i - dt/(2*dx)*(G_{i+1} - G_i), with dt within both the CFL
    bound 0.9*dx/max|phi| and an acceleration bound 0.9*sqrt(dx)*x_min (a
    cell starting from rest must not overshoot its neighbour in one step).
    The Courant number nu = 0.9 is fixed: upwind's numerical diffusion,
    |phi|*dx*(1 - nu)/2, falls as nu rises, so a smaller nu costs accuracy
    as well as steps.

    The field never turns positive: with c_i = -dt*(phi_i + phi_{i+1})/(2*dx)
    in [0, 0.9] (the ghost counts in max|phi|), a step is (1 - c_i)*phi_i +
    c_i*phi_{i+1} + (dt/dx)*(1/x_{i+1} - 1/x_i), a convex combination of
    non-positive values plus a negative term.  So the upwind neighbour is
    always the right (large-x) one, and the only boundary the march reads is
    the inflow ghost past x_max.  It holds the local terminal level, minus
    euler_terminal_profile at x_ghost, and so fixes the conserved level
    G = phi0**2 that the steady state carries inward to every cell.

    A step allocates nothing.  Two padded buffers (the field, then the
    ghost) trade roles as the current and the next field, and the update is
    five ufuncs through one padded flux array.  One abs-max pass over the
    next padded field then serves twice: max|phi| is the next step's speed,
    and since NaN and inf propagate through abs and max, a non-finite max is
    the finiteness check.

    Snapshots are linearly interpolated in time between march steps and share
    one read-only grid, which the first snapshot checks for all; one within
    1e-12*t_end of 0 or of t_end is the initial or the final field, a slack
    relative to t_end, so the march is scale-free.
    A march past _MAX_STEPS steps raises NumericalError: before it starts when
    the acceleration bound or the advective bound at phi0 implies that many,
    else when the budget runs out.
    """
    t_end = check_number("t_end", t_end, float, ">=")
    tol = 1e-12 * t_end  # the one round-off slack in time
    req = [check_number("snapshot time", s) for s in snapshot_times]
    if any(b < a for a, b in zip(req, req[1:])):
        raise ValidationError("snapshot_times must be sorted ascending")
    if req and (req[0] < 0 or req[-1] > t_end + tol):
        raise ValidationError(
            f"snapshot_times must lie within [0, {t_end}], got {req[0]}..{req[-1]}")

    dx = setup.dx
    x = setup.cell_centers()
    x.flags.writeable = False
    x_ghost = setup.x_max + 0.5 * dx
    two_over_x = 2.0 / np.append(x, x_ghost)  # over the padded grid
    dt_accel = _CFL * math.sqrt(dx) * setup.x_min
    # max|phi| >= phi0 throughout (the field deepens), so no step exceeds dt_max.
    dt_max = min(dt_accel, _CFL * dx / max(setup.phi0, _VEL_FLOOR))
    if t_end / dt_max > _MAX_STEPS:
        raise NumericalError(
            f"t_end={t_end!r} needs at least {t_end / dt_max:.4g} steps of at "
            f"most {dt_max:.4g}, over the budget of {_MAX_STEPS} steps")

    # phi and new view the field part of cur and nxt; flux holds G, then |nxt|.
    cur = np.full(setup.n_cells + 1, -setup.phi0)
    cur[-1] = -euler_terminal_profile(setup, x_ghost)
    nxt = cur.copy()
    phi, new = cur[:-1], nxt[:-1]
    flux, ratio = np.empty(setup.n_cells + 1), np.empty(())  # ratio: dt/(2*dx)
    g_ahead, g_here = flux[1:], flux[:-1]
    square, subtract, multiply, absolute = np.square, np.subtract, np.multiply, np.absolute
    max_reduce, isfinite = np.maximum.reduce, math.isfinite
    cfl_dx, two_dx = _CFL * dx, 2.0 * dx
    speed = float(max_reduce(absolute(cur)))  # the flat start or the ghost
    t = 0.0
    snapshots = []

    def take(s, field):
        # The first snapshot checks the shared grid; the later ones reuse it,
        # and the march has checked that every field it takes is finite.
        snapshots.append(FieldSnapshot._unchecked(s, x, field) if snapshots
                         else FieldSnapshot(t=s, x_grid=x, phi=field))

    # Snapshots at t = 0 (within round-off) are the initial field.
    for s in itertools.takewhile(lambda s: s <= tol, req):
        take(s, phi.copy())
    next_snap = len(snapshots)
    n_steps = 0
    with np.errstate(over="ignore", invalid="ignore"):  # the check below catches inf/NaN
        while t < t_end:
            if n_steps == _MAX_STEPS:
                raise NumericalError(
                    f"march used its budget of {_MAX_STEPS} steps at t={t!r} of {t_end!r}")
            n_steps += 1
            # speed*dt <= cfl*dx < dx, so the step never breaks the CFL bound.
            dt = min(cfl_dx / max(speed, _VEL_FLOOR), dt_accel, t_end - t)
            ratio[()] = dt / two_dx
            # new = phi - dt/(2*dx)*(G_ahead - G), G = phi**2 - 2/x on the padded grid
            square(cur, flux)
            subtract(flux, two_over_x, flux)
            subtract(g_ahead, g_here, new)
            multiply(new, ratio, new)
            subtract(phi, new, new)
            # max|next| is the next step's speed; NaN and inf propagate into it.
            speed = float(max_reduce(absolute(nxt, flux)))
            if not isfinite(speed):
                bad = int(np.argmax(~np.isfinite(new)))
                raise NumericalError(
                    f"non-finite field at t={t + dt:.6g}, x={x[bad]:.6g}; "
                    "refine the grid")
            t_new = t + dt
            # The last step (t_new >= t_end) takes the rest: past t_new, w = 1.
            while next_snap < len(req) and req[next_snap] <= t_new + tol:
                w = min(max((req[next_snap] - t) / (t_new - t), 0.0), 1.0)
                take(req[next_snap], (1.0 - w) * phi + w * new)
                next_snap += 1
            cur, nxt, phi, new = nxt, cur, new, phi
            t = t_new
    return snapshots


def probe_series(snapshots, x_probe: float):
    """Signed field at a fixed position across snapshots (linear in x).

    snapshots is any iterable of FieldSnapshot records, read once.  Returns
    (times, values) arrays; handy for terminal-approach plots.
    """
    snapshots = list(snapshots) if hasattr(snapshots, "__iter__") else []
    if not (snapshots and all(isinstance(snap, FieldSnapshot) for snap in snapshots)):
        raise ValidationError("no snapshots to probe: need a list of FieldSnapshot records")
    x_probe = check_number("x_probe", x_probe)
    times = np.array([snap.t for snap in snapshots])
    values = np.empty(times.size)
    for i, snap in enumerate(snapshots):
        _check_probe(snap.x_grid, x_probe)
        values[i] = np.interp(x_probe, snap.x_grid, snap.phi)
    return times, values


def _check_probe(x_grid, x_probe):
    """DomainError unless x_probe lies on the span of x_grid."""
    if not x_grid[0] <= x_probe <= x_grid[-1]:
        raise DomainError(f"probe x={x_probe} outside grid [{x_grid[0]}, {x_grid[-1]}]")


def characteristic_particle_system() -> AutonomousSystem:
    """Characteristic equations dx/dt = phi, dphi/dt = -1/x**2 as a system.

    Along any solution the energy phi**2/2 - 1/x is conserved.
    """
    def rhs(state):
        return np.array([state[1], -1.0 / (state[0] * state[0])])

    return AutonomousSystem(dimension=2, rhs=rhs)


def characteristic_energy(state) -> float:
    """Conserved quantity phi**2/2 - 1/x of the characteristic equations at
    state (x, phi), a finite 2-vector; DomainError where it leaves float64."""
    x, phi = check_array("state", state, (2,))
    with np.errstate(all="ignore"):  # refused below
        energy = float(0.5 * phi ** 2 - 1.0 / x)
    if not math.isfinite(energy):
        raise DomainError(f"energy at state {[float(x), float(phi)]} is not a finite float64")
    return energy
