"""Spatial field solvers: diffusion kernel, characteristic solution, upwind scheme.

The cross-check numbers (probe levels, grid-refinement ratios) were frozen
from prototype runs of an independent characteristic-tracing script before
the finite-difference code was written.
"""
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from growthdyn import fields

from growthdyn import (AdvectionSetup, DiffusionParams, DomainError,
                       FieldSnapshot, NumericalError, ParameterError,
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

    def test_snapshot_contract(self):
        setup = AdvectionSetup(x_min=1.0, x_max=20.0, n_cells=64, phi0=0.3)
        times = [0.0, 10.0, 20.0]
        snaps = evolve_advection_fd(setup, 20.0, times)
        assert len(snaps) == 3
        assert all(isinstance(s, FieldSnapshot) for s in snaps)
        assert [s.t for s in snaps] == times
        np.testing.assert_array_equal(snaps[0].x_grid, setup.cell_centers())
        np.testing.assert_allclose(snaps[0].phi, -0.3)

    def test_field_deepens_toward_terminal(self):
        setup = AdvectionSetup(x_min=1.0, x_max=20.0, n_cells=64, phi0=0.3)
        snaps = evolve_advection_fd(setup, 20.0, [0.0, 10.0, 20.0])
        times, vals = probe_series(snaps, 10.0)
        np.testing.assert_array_equal(times, [0.0, 10.0, 20.0])
        assert np.all(vals <= -0.3 + 1e-9)   # inward-directed throughout
        assert vals[-1] < vals[0] - 0.05     # and strengthening
        terminal = -math.sqrt(0.09 + 2.0 / 10.0)
        assert vals[-1] > terminal - 0.05    # without overshooting the limit

    def test_converges_to_characteristic_solution(self):
        # small domain run to ~100 * x_max**1.5: the late profile sits within
        # 1% of the analytic limit and halving dx shrinks the gap by >= 1.5x
        x_max = 20.0
        t_end = 100.0 * x_max ** 1.5
        errors = {}
        for n in (256, 512):
            setup = AdvectionSetup(x_min=1.0, x_max=x_max, n_cells=n)
            snap = evolve_advection_fd(setup, t_end, [t_end])[0]
            interior = slice(n // 16, -1)
            x = snap.x_grid[interior]
            exact = np.array([euler_terminal_profile(setup, xi) for xi in x])
            errors[n] = np.max(np.abs(np.abs(snap.phi[interior]) - exact) / exact)
        assert errors[256] < 0.01
        assert errors[256] / errors[512] >= 1.5

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
