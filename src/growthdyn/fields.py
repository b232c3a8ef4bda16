"""Spatial field models: diffusion point source and forced advection.

Two one-dimensional problems live here.  The first is the classic diffusion
point-source profile

    phi(x, t) = (4*pi*delta*t)**(-1/2) * exp(-x**2 / (4*delta*t)),

normalized to unit integral for every t > 0.  The second is the pressure-free
advection equation with an attractive inverse-distance potential,

    dphi/dt + phi * dphi/dx = -1/x**2,

solved two ways: exactly along characteristics through a scalar implicit
relation, and numerically with a first-order upwind finite-difference march.
Starting from a flat level the field magnitude at fixed x grows monotonically
toward the terminal profile sqrt(phi0**2 + 2/x).

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
                     RootNotFoundError, ValidationError)
from .ode import _MAX_STEPS, AutonomousSystem

_VEL_FLOOR = 1e-12        # guards the CFL division on a flat (zero) field
_BISECT_ITERS = 48
_NEWTON_ITERS = 8
_EXP_OVERFLOW = 700.0     # exp() argument ceiling before float64 overflow


@dataclass(frozen=True)
class DiffusionParams:
    """Diffusion coefficient for the point-source solution."""

    delta: float

    def __post_init__(self):
        if not (isinstance(self.delta, (int, float)) and math.isfinite(self.delta)
                and self.delta > 0):
            raise ParameterError(f"delta must be > 0, got {self.delta!r}")


@dataclass(frozen=True)
class AdvectionSetup:
    """Domain, resolution, and initial level for the forced advection problem.

    c is the characteristic energy constant of the implicit exact solution
    (fixed per query); phi0 is the flat initial field magnitude.  x_min stays
    strictly positive to keep the potential's singularity off the grid.
    """

    c: float = 1.0
    phi0: float = 0.0
    x_min: float = 1.0
    x_max: float = 200.0
    n_cells: int = 1024
    cfl: float = 0.9

    def __post_init__(self):
        if not (math.isfinite(self.c) and self.c > 0):
            raise ParameterError(f"c must be > 0, got {self.c!r}")
        if not (math.isfinite(self.phi0) and self.phi0 >= 0):
            raise ParameterError(f"phi0 must be >= 0, got {self.phi0!r}")
        if not math.isfinite(self.phi0 * self.phi0):
            raise ParameterError(f"phi0={self.phi0!r} is too large: phi0**2 overflows")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)
                and 0 < self.x_min < self.x_max):
            raise ParameterError(
                f"need 0 < x_min < x_max, got ({self.x_min!r}, {self.x_max!r})")
        if not (self.x_min * self.x_min > 0 and math.isfinite(1.0 / (self.x_min * self.x_min))):
            raise ParameterError(f"x_min={self.x_min!r} is too small: 1/x_min**2 overflows")
        if not (isinstance(self.n_cells, int) and self.n_cells >= 16):
            raise ParameterError(f"n_cells must be an integer >= 16, got {self.n_cells!r}")
        if not (math.isfinite(self.cfl) and 0 < self.cfl <= 0.9):
            raise ParameterError(f"cfl must lie in (0, 0.9], got {self.cfl!r}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def cell_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx


@dataclass(frozen=True, eq=False)
class FieldSnapshot:
    """The field on its grid at one instant."""

    t: float
    x_grid: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        if self.x_grid.shape != self.phi.shape or self.x_grid.ndim != 1:
            raise ValidationError("x_grid and phi must be 1-D arrays of equal length")
        if not (np.diff(self.x_grid) > 0).all():
            raise ValidationError("x_grid must be strictly increasing")


def diffusion_point_source(p: DiffusionParams, x, t: float):
    """Point-source diffusion profile at position x and time t > 0.

    Even in x; the integral over all x is 1 for every t.
    """
    if not t > 0:
        raise DomainError(f"point-source profile requires t > 0, got t={t}")
    x_arr = np.asarray(x, dtype=float)
    four_dt = 4.0 * p.delta * t
    out = np.exp(-x_arr * x_arr / four_dt) / math.sqrt(math.pi * four_dt)
    return float(out) if x_arr.ndim == 0 else out


def _char_residual(phi: float, c: float, x: float, t: float) -> float:
    # Implicit relation g(phi) = phi^2 - (2/x)*[1 - (phi/c + 1)^-2 * exp(c*phi*x - c^3 t)]
    # rewritten with a single guarded exponent to survive large c*phi*x.
    expo = c * phi * x - c ** 3 * t - 2.0 * math.log1p(phi / c)
    if expo > _EXP_OVERFLOW:
        return math.inf
    return phi * phi - (2.0 / x) + (2.0 / x) * math.exp(expo)


def _char_residual_prime(phi: float, c: float, x: float, t: float) -> float:
    expo = c * phi * x - c ** 3 * t - 2.0 * math.log1p(phi / c)
    if expo > _EXP_OVERFLOW:
        return math.inf
    return 2.0 * phi + (2.0 / x) * math.exp(expo) * (c * x - 2.0 / (c + phi))


def euler_characteristic_phi(setup: AdvectionSetup, x: float, t: float) -> float:
    """Exact field value from the characteristic implicit relation.

    Solves g(phi) = 0 on the physical branch [0, sqrt(2/x)] by bisection
    refined with Newton steps.  The relation describes growth from the
    globally flat zero start; at t = 0 the root is exactly 0 and as t grows
    it rises monotonically toward sqrt(2/x), independently of c.
    """
    if not setup.x_min <= x <= setup.x_max:
        raise DomainError(
            f"x={x} outside the solver domain [{setup.x_min}, {setup.x_max}]")
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    if t == 0:
        return 0.0
    c = setup.c
    lo, hi = 0.0, math.sqrt(2.0 / x)
    g_lo = _char_residual(lo, c, x, t)
    g_hi = _char_residual(hi, c, x, t)
    if g_hi < 0.0 and abs(g_hi) <= 1e-9 * (2.0 / x):
        # Late times: the exponential term underflows and hi*hi - 2/x leaves
        # only rounding noise, so the root coincides with the bracket end.
        return hi
    if not (g_lo <= 0.0 <= g_hi):
        raise RootNotFoundError(
            f"no sign change on [0, sqrt(2/x)] at x={x}, t={t}: "
            f"g(0)={g_lo:.6e}, g(hi)={g_hi:.6e}; parameters lie outside "
            "the solution branch")
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        g_mid = _char_residual(mid, c, x, t)
        if g_mid <= 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    for _ in range(_NEWTON_ITERS):
        g = _char_residual(root, c, x, t)
        gp = _char_residual_prime(root, c, x, t)
        if not (math.isfinite(g) and math.isfinite(gp)) or gp == 0.0:
            break
        step = g / gp
        candidate = root - step
        if not lo <= candidate <= hi:
            break
        root = candidate
        if abs(step) <= 1e-16 * (1.0 + root):
            break
    return root


def euler_terminal_profile(setup: AdvectionSetup, x):
    """Long-time field magnitude sqrt(phi0**2 + 2/x); sqrt(2/x) for a zero start."""
    x_arr = np.asarray(x, dtype=float)
    if (x_arr <= 0).any():
        raise DomainError(f"terminal profile requires x > 0, got {x!r}")
    out = np.sqrt(setup.phi0 ** 2 + 2.0 / x_arr)
    return float(out) if x_arr.ndim == 0 else out


def evolve_advection_fd(setup: AdvectionSetup, t_end: float,
                        snapshot_times) -> list:
    """March the forced advection equation with first-order upwinding.

    The signed field starts flat at -phi0 and is transported toward small x
    while the source -1/x**2 pumps it.  The time step obeys both the
    advective CFL bound cfl*dx/max|phi| and an acceleration bound
    cfl*sqrt(dx)*x_min (a cell starting from rest must not overshoot its
    neighbour within one step).

    The field never turns positive: with c = -dt*phi_i/dx in [0, cfl], each
    step is (1 - c)*phi_i + c*phi_{i+1} + dt*source_i, a convex combination
    of non-positive values plus a negative source.  So the upwind neighbour
    is always the right (large-x) one, and the only boundary the march reads
    is the inflow ghost past x_max.  That ghost holds the local terminal
    level -sqrt(phi0**2 + 2/x_ghost): characteristics enter from the outer
    boundary, and a parcel admitted at the initial level instead of the
    terminal one carries too little energy ever to reach the interior
    asymptote sqrt(phi0**2 + 2/x) — holding the inflow at the initial level
    undershoots the x = 50 terminal magnitude by ~13% on the default domain.

    Snapshots are linearly interpolated in time between march steps and share
    one read-only grid.  A march past _MAX_STEPS steps raises NumericalError:
    before it starts when the acceleration bound or the advective bound at
    phi0 implies that many, else when the budget runs out.
    """
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValidationError(f"t_end must be >= 0, got {t_end!r}")
    req = [float(s) for s in snapshot_times]
    if not all(map(math.isfinite, req)):
        raise ValidationError(f"snapshot_times must be finite, got {req}")
    if any(b < a for a, b in zip(req, req[1:])):
        raise ValidationError("snapshot_times must be sorted ascending")
    if req and (req[0] < 0 or req[-1] > t_end * (1.0 + 1e-12) + 1e-30):
        raise ValidationError(
            f"snapshot_times must lie within [0, {t_end}], got {req[0]}..{req[-1]}")

    dx = setup.dx
    x = setup.cell_centers()
    x.flags.writeable = False
    source = -1.0 / (x * x)
    dt_accel = setup.cfl * math.sqrt(dx) * setup.x_min
    # max|phi| >= phi0 throughout (the field deepens), so no step exceeds dt_max.
    dt_max = min(dt_accel, setup.cfl * dx / max(setup.phi0, _VEL_FLOOR))
    if t_end / dt_max > _MAX_STEPS:
        raise NumericalError(
            f"t_end={t_end!r} needs at least {t_end / dt_max:.4g} steps of at "
            f"most {dt_max:.4g}, over the budget of {_MAX_STEPS} steps")

    # The field followed by the inflow ghost; phi is a view of the field part.
    padded = np.full(setup.n_cells + 1, -setup.phi0)
    padded[-1] = -math.sqrt(setup.phi0 ** 2 + 2.0 / (setup.x_max + 0.5 * dx))
    phi = padded[:-1]
    t = 0.0
    # Snapshots at t = 0 (within round-off) are the initial field.
    snapshots = [FieldSnapshot(t=s, x_grid=x, phi=phi.copy())
                 for s in itertools.takewhile(lambda s: s <= 1e-12, req)]
    next_snap = len(snapshots)
    n_steps = 0
    while t < t_end:
        if n_steps == _MAX_STEPS:
            raise NumericalError(
                f"march used its budget of {_MAX_STEPS} steps at t={t!r} of {t_end!r}")
        n_steps += 1
        # speed*dt <= cfl*dx < dx, so the step never breaks the CFL bound.
        dt = setup.cfl * dx / max(float(np.abs(phi).max()), _VEL_FLOOR)
        dt = min(dt, dt_accel, t_end - t)
        grad = (padded[1:] - phi) / dx
        phi_new = phi + dt * (source - phi * grad)
        if not np.isfinite(phi_new).all():
            bad = int(np.argmax(~np.isfinite(phi_new)))
            raise NumericalError(
                f"non-finite field at t={t + dt:.6g}, x={x[bad]:.6g}; "
                "reduce cfl or refine the grid")
        t_new = t + dt
        while next_snap < len(req) and req[next_snap] <= t_new + 1e-12 * max(1.0, t_new):
            w = min(max((req[next_snap] - t) / (t_new - t), 0.0), 1.0)
            snapshots.append(FieldSnapshot(t=req[next_snap], x_grid=x,
                                           phi=(1.0 - w) * phi + w * phi_new))
            next_snap += 1
        phi[:] = phi_new
        t = t_new
    # Anything still pending sits at t_end within round-off.
    snapshots.extend(FieldSnapshot(t=s, x_grid=x, phi=phi.copy())
                     for s in req[next_snap:])
    return snapshots


def probe_series(snapshots, x_probe: float):
    """Signed field at a fixed position across snapshots (linear in x).

    Returns (times, values) arrays; handy for terminal-approach plots.
    """
    if not snapshots:
        raise ValidationError("no snapshots to probe")
    times = np.array([snap.t for snap in snapshots])
    values = np.empty(times.size)
    for i, snap in enumerate(snapshots):
        if not snap.x_grid[0] <= x_probe <= snap.x_grid[-1]:
            raise DomainError(
                f"probe x={x_probe} outside grid [{snap.x_grid[0]}, {snap.x_grid[-1]}]")
        values[i] = np.interp(x_probe, snap.x_grid, snap.phi)
    return times, values


def characteristic_particle_system() -> AutonomousSystem:
    """Characteristic equations dx/dt = phi, dphi/dt = -1/x**2 as a system.

    Along any solution the energy phi**2/2 - 1/x is conserved.
    """
    def rhs(state):
        return np.array([state[1], -1.0 / (state[0] * state[0])])

    return AutonomousSystem(dimension=2, rhs=rhs)


def characteristic_energy(state) -> float:
    """Conserved quantity phi**2/2 - 1/x of the characteristic equations."""
    arr = np.asarray(state, dtype=float)
    return float(0.5 * arr[1] ** 2 - 1.0 / arr[0])
