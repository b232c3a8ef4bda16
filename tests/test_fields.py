"""Spatial field solvers: diffusion kernel, characteristic solution, conservative march.

The cross-check numbers (probe levels, grid-refinement ratios) were frozen
from prototype runs of an independent characteristic-tracing script before
the finite-difference code was written.
"""
import itertools
import math
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from growthdyn import fields

from growthdyn import (AdvectionSetup, DiffusionParams, DomainError,
                       FieldSnapshot, GrowthDynError, NumericalError, ParameterError,
                       ValidationError,
                       characteristic_energy, characteristic_particle_system,
                       diffusion_point_source, euler_characteristic_phi,
                       euler_terminal_profile, evolve_advection_fd,
                       integrate_adaptive, probe_series)


class TestDiffusion:
    def test_peak_value_frozen(self):
        # (4*pi)**-0.5 at the origin for delta = 1, t = 1
        val = diffusion_point_source(DiffusionParams(delta=1.0), 0.0, 1.0)
        assert val == pytest.approx(0.28209479177387814, rel=1e-14)

    def test_symmetry(self):
        p = DiffusionParams(delta=0.5)
        x = np.linspace(0.0, 5.0, 40)
        np.testing.assert_array_equal(diffusion_point_source(p, x, 2.0),
                                      diffusion_point_source(p, -x, 2.0))

    @pytest.mark.parametrize("delta, t", [(0.5, 0.1), (1.0, 1.0), (2.0, 10.0)])
    def test_moments(self, delta, t):
        p = DiffusionParams(delta=delta)
        width = math.sqrt(2.0 * delta * t)
        span = 20.0 * width
        mass, _ = quad(lambda x: diffusion_point_source(p, x, t),
                       -span, span, epsabs=1e-13, epsrel=1e-13, limit=300)
        var, _ = quad(lambda x: x * x * diffusion_point_source(p, x, t),
                      -span, span, epsabs=1e-13, epsrel=1e-13, limit=300)
        assert mass == pytest.approx(1.0, abs=1e-9)
        assert var == pytest.approx(2.0 * delta * t, abs=1e-6 * max(1.0, 2.0 * delta * t))

    def test_spreading_lowers_peak(self):
        p = DiffusionParams(delta=1.0)
        peaks = [diffusion_point_source(p, 0.0, t) for t in (0.1, 1.0, 10.0)]
        assert peaks[0] > peaks[1] > peaks[2]

    def test_zero_time_rejected(self):
        with pytest.raises(DomainError):
            diffusion_point_source(DiffusionParams(delta=1.0), 0.0, 0.0)

    def test_bad_coefficient(self):
        with pytest.raises(ParameterError):
            DiffusionParams(delta=0.0)

    def test_far_field_is_zero_without_a_warning(self):
        # x**2 overflows; the profile underflows to 0 there
        p = DiffusionParams(delta=1.0)
        assert diffusion_point_source(p, 1e300, 1.0) == 0.0
        np.testing.assert_array_equal(diffusion_point_source(p, [1e300, -1e300], 1.0), [0, 0])

    @pytest.mark.parametrize("small", [1e-170, 1e-320])
    def test_underflowing_width_refused(self, small):
        # 4*delta*t underflows: this used to divide by zero with a warning
        with pytest.raises(DomainError, match=r"4\*delta\*t=0\.0 leaves the normal"):
            diffusion_point_source(DiffusionParams(delta=small), 0.0, small)


class TestCharacteristicSolution:
    def setup_method(self):
        self.setup = AdvectionSetup()

    def test_frozen_reference_point(self):
        val = euler_characteristic_phi(self.setup, 50.0, 10.0)
        assert val == pytest.approx(0.17640207051116233, rel=1e-12)

    def test_zero_time_is_zero(self):
        assert euler_characteristic_phi(self.setup, 50.0, 0.0) == 0.0

    def test_late_time_reaches_terminal(self):
        for x in (2.0, 50.0, 150.0):
            val = euler_characteristic_phi(self.setup, x, 1.0e7)
            assert val == pytest.approx(math.sqrt(2.0 / x), rel=1e-12)

    def test_monotone_in_time(self):
        t_grid = np.geomspace(0.01, 1.0e5, 60)
        vals = [euler_characteristic_phi(self.setup, 30.0, t) for t in t_grid]
        assert np.all(np.diff(vals) >= -1e-15)

    def test_monotone_in_position(self):
        x_grid = np.linspace(1.0, 200.0, 50)
        vals = [euler_characteristic_phi(self.setup, x, 100.0) for x in x_grid]
        assert np.all(np.diff(vals) <= 1e-15)

    def test_early_growth_is_linear_in_time(self):
        t_grid = np.geomspace(0.025, 0.25, 8)
        vals = np.array([euler_characteristic_phi(self.setup, 50.0, t)
                         for t in t_grid])
        slope, _ = np.polyfit(np.log(t_grid), np.log(vals), 1)
        assert slope == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("c,x,t", [(1.0, 200.0, 1e-8), (1.0, 200.0, 1e-300),
                                       (1.0, 50.0, 10.0), (2.0, 1.0, 0.3),
                                       (0.5, 120.0, 2500.0), (1.0, 2.0, 1.0e7)])
    def test_root_brackets_a_sign_change_with_a_neighbour(self, c, x, t):
        # The returned root and one adjacent float straddle the sign change of
        # the computed residual, unless the root is the bracket end sqrt(2/x).
        # At tiny t the residual's rounding floor (~1e-16 * 2/x) swamps roots
        # of order t/x**2, so only the bracket, not a value, is checked there.
        def g(phi):
            return fields._char_residual(phi, c, x, t)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = time.perf_counter()
            root = euler_characteristic_phi(AdvectionSetup(c=c), x, t)
            elapsed = time.perf_counter() - start
        assert elapsed < 0.1
        assert 0.0 < root <= math.sqrt(2.0 / x)
        up, down = math.nextafter(root, math.inf), math.nextafter(root, -math.inf)
        assert (root == math.sqrt(2.0 / x) or g(root) <= 0.0 < g(up)
                or g(down) <= 0.0 < g(root))

    @pytest.mark.parametrize("c", [1e-110, 1e-60, 1.0, 1e60, 1e103, 1e300])
    def test_every_accepted_c_gives_a_root_or_a_typed_error(self, c):
        # c**3 leaves the normal float64 range above c ~ 5.6e102 and below
        # c ~ 2.8e-103; a t = inf root is sqrt(2/x) there all the same
        setup = AdvectionSetup(c=c)
        for t, x in itertools.product([0.0, 1e-300, 1.0, 1e300, math.inf],
                                      [setup.x_min, 50.0]):
            try:
                root = euler_characteristic_phi(setup, x, t)
            except GrowthDynError:
                continue
            assert isinstance(root, float) and 0.0 <= root <= math.sqrt(2.0 / x), (t, x)
        assert euler_characteristic_phi(setup, 50.0, math.inf) == math.sqrt(2.0 / 50.0)

    def test_both_exponent_terms_past_float64_give_the_terminal_root(self):
        # c*phi*x and c**3 t both overflow here, but c**2 t >> phi*x, so the
        # exponential term vanishes and the root is sqrt(2/x)
        setup = AdvectionSetup(c=1e300, x_min=1e150, x_max=1e153)
        assert euler_characteristic_phi(setup, 1e152, 1.0) \
            == pytest.approx(math.sqrt(2e-152), rel=1e-15)

    def test_position_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            euler_characteristic_phi(self.setup, 0.5, 1.0)
        with pytest.raises(DomainError):
            euler_characteristic_phi(self.setup, 500.0, 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            euler_characteristic_phi(self.setup, 50.0, -1.0)

    def test_terminal_profile(self):
        assert euler_terminal_profile(self.setup, 50.0) \
            == pytest.approx(math.sqrt(2.0 / 50.0), rel=1e-15)
        setup3 = AdvectionSetup(phi0=3.0)
        assert euler_terminal_profile(setup3, 50.0) \
            == pytest.approx(math.sqrt(9.0 + 2.0 / 50.0), rel=1e-15)

    def test_terminal_profile_domain(self):
        with pytest.raises(DomainError):
            euler_terminal_profile(self.setup, 0.0)

    @pytest.mark.parametrize("x", [math.nan, None, [50.0, math.nan]])
    def test_terminal_profile_refuses_nan_positions(self, x):
        # NaN (None reads as NaN) fails x > 0 instead of returning nan
        with pytest.raises(DomainError, match="terminal profile requires x > 0"):
            euler_terminal_profile(self.setup, x)

    def test_terminal_profile_refuses_an_overflowing_level(self):
        # sqrt(2/x) is 1.4e160 at x = 1e-320, but 2/x overflows on the way
        with pytest.raises(DomainError, match="2/x overflows"):
            euler_terminal_profile(self.setup, [1.0, 1e-320])


class TestCharacteristicParticles:
    def test_energy_conserved_outbound(self):
        system = characteristic_particle_system()
        traj = integrate_adaptive(system, np.array([10.0, 0.5]), 0.0, 5.0,
                                  rel_tol=1e-11, abs_tol=1e-13)
        energies = np.array([characteristic_energy(s) for s in traj.states])
        assert np.max(np.abs(energies - energies[0])) < 1e-8

    def test_energy_conserved_infalling(self):
        system = characteristic_particle_system()
        traj = integrate_adaptive(system, np.array([10.0, -0.3]), 0.0, 5.0,
                                  rel_tol=1e-11, abs_tol=1e-13)
        energies = np.array([characteristic_energy(s) for s in traj.states])
        assert np.max(np.abs(energies - energies[0])) < 1e-8
        assert traj.states[-1, 0] < 10.0  # moved inward

    def test_energy_value(self):
        assert characteristic_energy(np.array([2.0, 1.0])) == pytest.approx(0.0)

    @pytest.mark.parametrize("state", [[0.0, 1.0], [-0.0, 1.0], [1e-320, 1.0], [1.0, 1e300]])
    def test_energy_beyond_float64_refused(self, state):
        # 1/x or phi**2 leaves float64: this used to warn and return inf or NaN
        with pytest.raises(DomainError, match="is not a finite float64"):
            characteristic_energy(state)


class TestAdvectionSetup:
    def test_grid_geometry(self):
        setup = AdvectionSetup(x_min=1.0, x_max=9.0, n_cells=16)
        assert setup.dx == pytest.approx(0.5)
        centers = setup.cell_centers()
        assert centers[0] == pytest.approx(1.25)
        assert centers[-1] == pytest.approx(8.75)
        assert len(centers) == 16

    @pytest.mark.parametrize("kwargs", [
        {"x_min": 0.0}, {"x_min": -1.0}, {"x_max": 0.5},
        {"n_cells": 8}, {"cfl": 0.0}, {"cfl": 1.2},
    ])
    def test_bad_setup_rejected(self, kwargs):
        with pytest.raises((ParameterError, ValidationError)):
            AdvectionSetup(**kwargs)

    @pytest.mark.parametrize("kwargs,message", [
        ({"phi0": 1e300}, "phi0**2 overflows"),
        ({"x_min": 1e-170, "x_max": 2e-170}, "1/x_min**2 overflows"),  # x_min**2 is 0
        ({"x_min": 1e-160, "x_max": 2e-160}, "1/x_min**2 overflows"),  # subnormal
        ({"x_max": 1e300}, "x_max**2 overflows"),
    ])
    def test_setup_outside_float64_rejected(self, kwargs, message):
        with pytest.raises(ParameterError, match=message.replace("*", "[*]")):
            AdvectionSetup(**kwargs)


class TestUpwindScheme:
    def test_step_budget_refused_before_marching(self):
        # every step is at most cfl*sqrt(dx)*x_min ~ 3.2, so 1e9 needs ~3e8 steps
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="budget"):
            evolve_advection_fd(AdvectionSetup(n_cells=16), 1e9, [])
        assert time.perf_counter() - start < 0.1

    def test_step_budget_ends_a_cfl_limited_march(self, monkeypatch):
        # phi0 = 10 makes the CFL step ~10x shorter than the acceleration
        # bound, so the march needs ~100 steps against a budget of 50
        monkeypatch.setattr(fields, "_MAX_STEPS", 50)
        setup = AdvectionSetup(x_min=1.0, x_max=17.0, n_cells=16, phi0=10.0)
        with pytest.raises(NumericalError, match="budget of 50 steps"):
            evolve_advection_fd(setup, 9.0, [])

    def test_advective_bound_refused_before_marching(self):
        # max|phi| >= phi0 = 1e150 throughout, so every step is below 1e-150
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="over the budget"):
            evolve_advection_fd(AdvectionSetup(n_cells=64, phi0=1e150), 2500.0, [])
        assert time.perf_counter() - start < 0.1

    def test_step_budget_ends_a_deepening_march(self, monkeypatch):
        # from a zero start the field deepens toward sqrt(2/x), so the CFL step
        # falls under the acceleration bound (0.9 here): 44 / 0.9 ~ 49 steps
        # pass the up-front check, and the march itself runs out of 50
        monkeypatch.setattr(fields, "_MAX_STEPS", 50)
        setup = AdvectionSetup(x_min=1.0, x_max=17.0, n_cells=16)
        with pytest.raises(NumericalError, match="march used its budget of 50 steps"):
            evolve_advection_fd(setup, 44.0, [])

    def test_overflowing_step_is_a_numerical_error(self):
        # a CFL number past the record's bound of 0.9 (set behind its check)
        # blows the field up, and the march's own check reports it without a
        # RuntimeWarning
        for cfl in (3.0, 20.0, 200.0):
            setup = AdvectionSetup(x_min=1e-154, x_max=2e-154, n_cells=16)
            object.__setattr__(setup, "cfl", cfl)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalError, match="non-finite field at t="):
                    evolve_advection_fd(setup, 1e-229, [1e-229])

    @pytest.mark.parametrize("times", [[0.0, math.nan, 5.0], [math.nan], [0.0, 5.0, math.nan]])
    def test_non_finite_snapshot_times_rejected(self, times):
        setup = AdvectionSetup(x_min=1.0, x_max=20.0, n_cells=32)
        with pytest.raises(ValidationError, match="finite"):
            evolve_advection_fd(setup, 10.0, times)

    def test_field_stays_non_positive_on_one_shared_grid(self):
        # each step is a convex combination of non-positive values plus a
        # negative source, so the march never needs a left-hand upwind side
        rng = np.random.default_rng(20261018)
        for phi0 in (0.0, *rng.uniform(0.05, 2.0, 5)):
            setup = AdvectionSetup(x_min=float(rng.uniform(0.5, 2.0)),
                                   x_max=float(rng.uniform(15.0, 60.0)),
                                   n_cells=int(rng.integers(16, 129)),
                                   phi0=float(phi0), cfl=float(rng.uniform(0.1, 0.9)))
            t_end = float(rng.uniform(5.0, 60.0))
            snaps = evolve_advection_fd(setup, t_end, np.linspace(0.0, t_end, 9))
            assert all(np.all(s.phi <= 0.0) for s in snaps)
            assert all(s.x_grid is snaps[0].x_grid for s in snaps)
            with pytest.raises(ValueError):
                snaps[-1].x_grid[0] = 0.0

    def test_field_never_passes_the_terminal_level(self):
        # |phi| <= sqrt(phi0**2 + 2/x) throughout.  On [100, 120] the ghost
        # (-0.129) is deeper than the flat zero start, and the first step is
        # long: only because the ghost counts in max|phi| does the last cell
        # not overshoot it (to -0.335).
        rng = np.random.default_rng(20261021)
        setups = [AdvectionSetup(x_min=100.0, x_max=120.0, n_cells=16)]
        for _ in range(12):
            x_min = float(10.0 ** rng.uniform(-1.0, 2.0))
            setups.append(AdvectionSetup(
                x_min=x_min, x_max=x_min * float(10.0 ** rng.uniform(0.05, 1.0)),
                n_cells=int(rng.integers(16, 129)),
                phi0=0.0 if rng.random() < 0.5 else float(10.0 ** rng.uniform(-2.0, 0.5)),
                cfl=float(rng.uniform(0.1, 0.9))))
        for setup in setups:
            t_end = 3.0 * setup.x_max ** 1.5
            terminal = euler_terminal_profile(setup, setup.cell_centers())
            for snap in evolve_advection_fd(setup, t_end, np.geomspace(1e-3, 1.0, 25) * t_end):
                assert np.all(-snap.phi <= terminal * (1.0 + 1e-12)), (setup, snap.t)

    def test_snapshot_contract(self):
        setup = AdvectionSetup(x_min=1.0, x_max=20.0, n_cells=64, phi0=0.3)
        times = [0.0, 10.0, 20.0]
        snaps = evolve_advection_fd(setup, 20.0, times)
        assert len(snaps) == 3
        assert all(isinstance(s, FieldSnapshot) for s in snaps)
        assert [s.t for s in snaps] == times
        np.testing.assert_array_equal(snaps[0].x_grid, setup.cell_centers())
        np.testing.assert_allclose(snaps[0].phi, -0.3)

    def test_march_checks_its_grid_once(self, monkeypatch):
        # the first of 41 snapshots checks the shared grid and its field; the
        # rest take the grid and the march's finite fields as they are.  The
        # "x" before them is euler_terminal_profile's, for the inflow ghost.
        names = []
        check = fields.check_array
        monkeypatch.setattr(fields, "check_array", lambda name, *args, **kwargs:
                            names.append(name) or check(name, *args, **kwargs))
        setup = AdvectionSetup(x_min=1.0, x_max=20.0, n_cells=64, phi0=0.3)
        snaps = evolve_advection_fd(setup, 20.0, np.linspace(0.0, 20.0, 41))
        assert len(snaps) == 41
        assert names == ["x", "x_grid", "phi"]

    def test_march_refuses_a_grid_below_the_resolution_of_x(self):
        # cells 1/16 wide near 1e15, where floats lie 1/8 apart
        setup = AdvectionSetup(x_min=1e15, x_max=1e15 + 64.0, n_cells=1024)
        with pytest.raises(ValidationError, match="strictly increasing"):
            evolve_advection_fd(setup, 1.0, [0.5, 1.0])

    def test_field_deepens_toward_terminal(self):
        setup = AdvectionSetup(x_min=1.0, x_max=20.0, n_cells=64, phi0=0.3)
        snaps = evolve_advection_fd(setup, 20.0, [0.0, 10.0, 20.0])
        times, vals = probe_series(snaps, 10.0)
        np.testing.assert_array_equal(times, [0.0, 10.0, 20.0])
        assert np.all(vals <= -0.3 + 1e-9)   # inward-directed throughout
        assert vals[-1] < vals[0] - 0.05     # and strengthening
        terminal = -math.sqrt(0.09 + 2.0 / 10.0)
        assert vals[-1] > terminal - 0.05    # without overshooting the limit

    def test_probe_reads_an_iterator_once(self):
        setup = AdvectionSetup(x_min=1.0, x_max=20.0, n_cells=64, phi0=0.3)
        snaps = evolve_advection_fd(setup, 20.0, [0.0, 10.0, 20.0])
        want_t, want_v = probe_series(snaps, 10.0)
        assert want_t.size == 3
        for once in (iter(snaps), (snap for snap in snaps)):
            got_t, got_v = probe_series(once, 10.0)
            np.testing.assert_array_equal(got_t, want_t)
            np.testing.assert_array_equal(got_v.view(np.uint64), want_v.view(np.uint64))

    def test_converges_to_characteristic_solution(self):
        # small domain run to ~100 * x_max**1.5: the conservative march holds
        # the steady state phi**2 - 2/x = 0 to round-off on the whole grid
        x_max = 20.0
        t_end = 100.0 * x_max ** 1.5
        for n in (256, 512):
            setup = AdvectionSetup(x_min=1.0, x_max=x_max, n_cells=n)
            snap = evolve_advection_fd(setup, t_end, [t_end])[0]
            exact = euler_terminal_profile(setup, snap.x_grid)
            assert np.max(np.abs(np.abs(snap.phi) - exact) / exact) <= 1e-12

    def test_probe_interpolates_between_cells(self):
        setup = AdvectionSetup(x_min=1.0, x_max=20.0, n_cells=64, phi0=0.5)
        snaps = evolve_advection_fd(setup, 1.0, [1.0])
        _, at_center = probe_series(snaps, float(snaps[0].x_grid[10]))
        _, between = probe_series(snaps, float(0.5 * (snaps[0].x_grid[10]
                                                      + snaps[0].x_grid[11])))
        lo = min(snaps[0].phi[10], snaps[0].phi[11])
        hi = max(snaps[0].phi[10], snaps[0].phi[11])
        assert lo - 1e-12 <= between[0] <= hi + 1e-12
        assert at_center[0] == pytest.approx(float(snaps[0].phi[10]))


def _reference_march(setup, t_end, req):
    """The conservative step of evolve_advection_fd in fresh-array form: the
    padded flux G = phi**2 - 2/x, the update phi - dt/(2*dx)*(G_ahead - G)
    and a finiteness mask are new arrays every step, with no buffers.
    Returns ([(t, phi), ...], steps); raises the same NumericalErrors."""
    tol = 1e-12 * t_end
    dx = setup.dx
    x = setup.cell_centers()
    x_pad = np.append(x, setup.x_max + 0.5 * dx)
    dt_accel = setup.cfl * math.sqrt(dx) * setup.x_min
    dt_max = min(dt_accel, setup.cfl * dx / max(setup.phi0, fields._VEL_FLOOR))
    if t_end / dt_max > fields._MAX_STEPS:
        raise NumericalError(
            f"t_end={t_end!r} needs at least {t_end / dt_max:.4g} steps of at "
            f"most {dt_max:.4g}, over the budget of {fields._MAX_STEPS} steps")
    padded = np.full(setup.n_cells + 1, -setup.phi0)
    padded[-1] = -math.sqrt(setup.phi0 ** 2 + 2.0 / x_pad[-1])
    phi = padded[:-1]
    t = 0.0
    snapshots = [(s, phi.copy()) for s in itertools.takewhile(lambda s: s <= tol, req)]
    next_snap = len(snapshots)
    n_steps = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end:
            if n_steps == fields._MAX_STEPS:
                raise NumericalError(
                    f"march used its budget of {fields._MAX_STEPS} steps at t={t!r} of {t_end!r}")
            n_steps += 1
            # the ghost counts in the CFL speed
            dt = setup.cfl * dx / max(float(np.abs(padded).max()), fields._VEL_FLOOR)
            dt = min(dt, dt_accel, t_end - t)
            G = padded ** 2 - 2.0 / x_pad
            phi_new = phi - (dt / (2 * dx)) * (G[1:] - G[:-1])
            if not np.isfinite(phi_new).all():
                bad = int(np.argmax(~np.isfinite(phi_new)))
                raise NumericalError(
                    f"non-finite field at t={t + dt:.6g}, x={x[bad]:.6g}; "
                    "reduce cfl or refine the grid")
            t_new = t + dt
            while next_snap < len(req) and req[next_snap] <= t_new + tol:
                w = min(max((req[next_snap] - t) / (t_new - t), 0.0), 1.0)
                snapshots.append((req[next_snap], (1.0 - w) * phi + w * phi_new))
                next_snap += 1
            phi[:] = phi_new
            t = t_new
    return snapshots, n_steps


def _outcome(march, *args):
    try:
        return march(*args)
    except NumericalError as exc:
        return str(exc)


def _random_march(rng, steps):
    """A seeded setup, a t_end of about `steps` steps, and a snapshot list."""
    x_min = float(10.0 ** rng.uniform(-3.0, 3.0))
    setup = AdvectionSetup(x_min=x_min, x_max=x_min * float(10.0 ** rng.uniform(0.2, 3.0)),
                           n_cells=int(rng.integers(16, 301)),
                           phi0=0.0 if rng.random() < 0.4 else float(10.0 ** rng.uniform(-3, 1)),
                           cfl=float(rng.uniform(0.05, 0.9)))
    speed = math.sqrt(setup.phi0 ** 2 + 2.0 / setup.x_min)  # the deepest terminal level
    dt = min(setup.cfl * math.sqrt(setup.dx) * setup.x_min, setup.cfl * setup.dx / speed)
    t_end = steps * dt
    shape = rng.integers(5)
    if shape == 0:
        times = []
    elif shape == 1:
        times = [0.0, t_end]
    elif shape == 2:  # repeats at both ends, and ends within the round-off slack
        times = [0.0, 0.0, 1e-13 * t_end, t_end * (1.0 - 1e-13), t_end, t_end * (1.0 + 5e-13)]
    else:
        times = sorted(rng.uniform(0.0, t_end, int(rng.integers(1, 30))))
        if shape == 4:
            times = sorted(times + times[::3] + [t_end])
    return setup, t_end, [float(s) for s in times]


class TestMarchAgainstReference:
    """evolve_advection_fd gives the reference loop's bits, steps and errors."""

    @staticmethod
    def _assert_same(setup, t_end, times, monkeypatch=None, budget=None):
        if budget is not None:
            monkeypatch.setattr(fields, "_MAX_STEPS", budget)
        ref = _outcome(_reference_march, setup, t_end, times)
        got = _outcome(evolve_advection_fd, setup, t_end, times)
        if isinstance(ref, str):
            assert got == ref
            return None
        snapshots, n_steps = ref
        assert [s.t for s in got] == [t for t, _ in snapshots]
        for snap, (_, phi) in zip(got, snapshots):
            assert snap.phi.tobytes() == phi.tobytes()
            assert snap.x_grid.tobytes() == setup.cell_centers().tobytes()
        return n_steps

    def test_random_setups_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(20261020)
        for case in range(240):
            steps = float(10.0 ** rng.uniform(0.0, 3.3))
            setup, t_end, times = _random_march(rng, steps)
            n_steps = self._assert_same(setup, t_end, times)
            assert n_steps is not None, (case, setup)
            if case % 8 == 0:  # the same step count: one step short of it runs out
                self._assert_same(setup, t_end, times, monkeypatch, n_steps - 1)
                assert self._assert_same(setup, t_end, times, monkeypatch, n_steps) == n_steps
                monkeypatch.undo()

    def test_long_marches_bit_for_bit(self):
        rng = np.random.default_rng(101)
        for _ in range(4):
            setup, t_end, times = _random_march(rng, 2.5e4)
            assert self._assert_same(setup, t_end, times) > 1e4

    _TINY_GRIDS = [(1e-154, 16, 1e-229), (1e-154, 300, 1e-229), (1.5e-154, 64, 1e-228),
                   (1e-154, 40, 5e-230)]

    @pytest.mark.parametrize("x_min, n_cells, t_end", _TINY_GRIDS)
    def test_tiny_grids_end_at_the_terminal_level(self, x_min, n_cells, t_end):
        # 2/x ~ 1e154 here, but the flux phi**2 - 2/x never forms 1/x**2 ~ 1e308:
        # the march ends finite, non-positive and at the terminal profile
        setup = AdvectionSetup(x_min=x_min, x_max=2.0 * x_min, n_cells=n_cells)
        assert self._assert_same(setup, t_end, [t_end]) is not None
        phi = evolve_advection_fd(setup, t_end, [t_end])[0].phi
        assert np.isfinite(phi).all() and (phi <= 0.0).all()
        np.testing.assert_allclose(-phi, euler_terminal_profile(setup, setup.cell_centers()),
                                   rtol=1e-13)

    @pytest.mark.parametrize("x_min, n_cells, t_end", _TINY_GRIDS)
    def test_same_overflow_message(self, x_min, n_cells, t_end):
        # a CFL number past the record's bound of 0.9 blows the field up
        for cfl in (3.0, 20.0, 200.0):
            setup = AdvectionSetup(x_min=x_min, x_max=2.0 * x_min, n_cells=n_cells)
            object.__setattr__(setup, "cfl", cfl)
            ref = _outcome(_reference_march, setup, t_end, [t_end])
            assert ref.startswith("non-finite field at t=")
            assert _outcome(evolve_advection_fd, setup, t_end, [t_end]) == ref

    def test_same_budget_messages(self, monkeypatch):
        # up front (the advective bound at phi0) and in the march (deepening)
        up_front = (AdvectionSetup(n_cells=64, phi0=1e150), 2500.0, [])
        assert self._assert_same(*up_front) is None
        monkeypatch.setattr(fields, "_MAX_STEPS", 50)
        deepening = AdvectionSetup(x_min=1.0, x_max=17.0, n_cells=16)
        assert "march used its budget" in _outcome(_reference_march, deepening, 44.0, [])
        assert self._assert_same(deepening, 44.0, [44.0]) is None


def _fall_time(x0, x, lib=np):
    """Time of free fall from rest at x0 down to x <= x0 under x'' = -1/x**2
    (lib: numpy for arrays, math for floats)."""
    u = x / x0
    return lib.sqrt(0.5 * x0 ** 3) * (lib.sqrt(u * (1.0 - u)) + lib.acos(lib.sqrt(u)))


def _free_fall_field(x, t, x_max):
    """The field at t of a zero start that has met no shock: the parcel at x
    fell from rest at x0 in [x, x_max], found by bisection (the fall time
    rises with x0), and moves at -sqrt(2/x - 2/x0)."""
    lo, hi = x, np.full_like(x, x_max)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        early = _fall_time(mid, x) < t
        lo, hi = np.where(early, mid, lo), np.where(early, hi, mid)
    return -np.sqrt(np.maximum(2.0 / x - 2.0 / (0.5 * (lo + hi)), 0.0))


def _shock_path(x_max, times, steps_per_unit=1.5):
    """The shock s(t) at the ascending `times` (RK4, about 900 steps to 600).

    It starts at x_max, where the inflow at the terminal level -sqrt(2/s)
    meets the field at rest, and moves at the mean of the two sides,
    s' = (phi_ahead - sqrt(2/s))/2.  phi_ahead takes 30 halvings of the fall
    start, a bracket below x_max*1e-9."""
    def speed(s, t):
        lo, hi = s, x_max
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _fall_time(mid, s, math) < t else (lo, mid)
        ahead = math.sqrt(max(2.0 / s - 2.0 / (0.5 * (lo + hi)), 0.0))
        return -0.5 * (ahead + math.sqrt(2.0 / s))

    s, t, path = x_max, 0.0, {}
    for t_out in times:
        n = round((t_out - t) * steps_per_unit)
        h = (t_out - t) / n
        for k in range(n):
            tk = t + k * h
            k1 = speed(s, tk)
            k2 = speed(s + 0.5 * h * k1, tk + 0.5 * h)
            k3 = speed(s + 0.5 * h * k2, tk + 0.5 * h)
            k4 = speed(s + h * k3, tk + h)
            s += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        t, path[t_out] = t_out, s
    return path


class TestConservativeMarch:
    def test_l1_error_against_the_exact_flat_start_field(self):
        # default domain [1, 200] from a zero start: ahead of the shock the
        # field is free fall from rest, behind it the terminal profile.  A
        # conservative march moves the shock at the right speed, so its L1
        # error falls about 4x per 4x refinement; the non-conservative update
        # phi - dt*phi*(phi_ahead - phi)/dx stalls near 3e-3, its shock at
        # t = 600 about 13 units of x too far out.
        times = [200.0, 600.0]
        shock = _shock_path(200.0, times)
        assert shock[600.0] == pytest.approx(165.871, abs=1e-3)
        errors = {t: [] for t in times}
        for n in (256, 1024, 4096):
            for snap in evolve_advection_fd(AdvectionSetup(n_cells=n), times[-1], times):
                x = snap.x_grid
                exact = np.where(x < shock[snap.t], _free_fall_field(x, snap.t, 200.0),
                                 -np.sqrt(2.0 / x))
                errors[snap.t].append(float(np.mean(np.abs(snap.phi - exact))))
        for t, (coarse, mid, fine) in errors.items():
            assert coarse / mid >= 3.5 and mid / fine >= 3.5, (t, errors[t])
