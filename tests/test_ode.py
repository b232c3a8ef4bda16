"""Integrator engine: fixed-step RK4 and the embedded adaptive pair.

Reference trajectories use analytically solvable right-hand sides so no
third-party solver is needed as an oracle.
"""
import math
import re
import time

import numpy as np
import pytest

from growthdyn import ode
from growthdyn import (AutonomousSystem, NumericalError, StiffnessError,
                       Trajectory, ValidationError, integrate_adaptive,
                       integrate_fixed, interp_states)

DECAY = AutonomousSystem(1, lambda s: -s)


def _logistic_system(a, b):
    return AutonomousSystem(1, lambda s: np.array([s[0] * (a - b * s[0])]))


def _logistic_exact(a, b, phi0, t):
    t = np.asarray(t, dtype=float)
    return a * phi0 / (b * phi0 + (a - b * phi0) * np.exp(-a * t))


class TestFixedStep:
    def test_exponential_decay_accuracy(self):
        traj = integrate_fixed(DECAY, np.array([1.0]), 0.0, 1.0, 0.001)
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 1e-10

    def test_logistic_twelve_units(self):
        a, b, phi0 = 5.0, 1.0, 1.0
        traj = integrate_fixed(_logistic_system(a, b), np.array([phi0]), 0.0, 12.0, 0.001)
        exact = _logistic_exact(a, b, phi0, traj.times)
        np.testing.assert_allclose(traj.states[:, 0], exact, rtol=1e-6)

    def test_zero_rhs_is_exactly_constant(self):
        system = AutonomousSystem(1, lambda s: np.zeros(1))
        traj = integrate_fixed(system, np.array([7.0]), 0.0, 5.0, 0.1)
        assert np.all(traj.states[:, 0] == 7.0)

    def test_endpoints_exact(self):
        traj = integrate_fixed(DECAY, np.array([2.0]), 0.0, 0.95, 0.1)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 0.95
        assert traj.states[0, 0] == 2.0

    def test_meta_records_method(self):
        traj = integrate_fixed(DECAY, np.array([1.0]), 0.0, 1.0, 0.25)
        assert traj.meta["method"] == "rk4"
        assert traj.meta["dt"] == 0.25
        assert traj.meta["n_steps"] == len(traj.times) - 1

    def test_fourth_order_convergence(self):
        # halving dt must shrink the endpoint error by at least 12x
        def end_err(dt):
            traj = integrate_fixed(DECAY, np.array([1.0]), 0.0, 2.0, dt)
            return abs(traj.states[-1, 0] - math.exp(-2.0))

        assert end_err(0.05) / end_err(0.025) >= 12.0

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_bad_step_rejected(self, dt):
        with pytest.raises(ValidationError):
            integrate_fixed(DECAY, np.array([1.0]), 0.0, 1.0, dt)

    def test_reversed_span_rejected(self):
        with pytest.raises(ValidationError):
            integrate_fixed(DECAY, np.array([1.0]), 1.0, 0.0, 0.1)

    def test_wrong_rhs_shape_rejected(self):
        system = AutonomousSystem(1, lambda s: np.array([1.0, 2.0]))
        with pytest.raises(ValidationError, match="shape"):
            integrate_fixed(system, np.array([1.0]), 0.0, 1.0, 0.1)

    @pytest.mark.parametrize("nan_below", [2.0, 1.5])
    def test_nan_derivative_reported(self, nan_below):
        # NaN at the initial state (2.0) or after the state has decayed (1.5)
        system = AutonomousSystem(
            1, lambda s: np.array([math.nan if s[0] < nan_below else -s[0]]))
        with pytest.raises(NumericalError, match=r"t=.*state="):
            integrate_fixed(system, np.array([1.9]), 0.0, 1.0, 0.01)

    def test_step_budget_refused_before_allocating(self):
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="budget"):
            integrate_fixed(DECAY, np.array([1.0]), 0.0, 1e3, 1e-9)
        assert time.perf_counter() - start < 0.1

    def test_two_dimensional_rotation(self):
        system = AutonomousSystem(2, lambda s: np.array([-s[1], s[0]]))
        traj = integrate_fixed(system, np.array([1.0, 0.0]), 0.0, 2.0 * math.pi, 0.001)
        np.testing.assert_allclose(traj.states[-1], [1.0, 0.0], atol=1e-9)


class TestAdaptive:
    def test_decay_tight_tolerance(self):
        traj = integrate_adaptive(DECAY, np.array([1.0]), 0.0, 1.0,
                                  rel_tol=1e-10, abs_tol=1e-12)
        assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 1e-9

    def test_stiff_transient_resolved(self):
        # fast relaxation onto a fixed level: y' = -50 (y - 1), y(0) = 10
        system = AutonomousSystem(1, lambda s: np.array([-50.0 * (s[0] - 1.0)]))
        traj = integrate_adaptive(system, np.array([10.0]), 0.0, 0.1,
                                  rel_tol=1e-8, abs_tol=1e-10)
        exact = 1.0 + 9.0 * math.exp(-50.0 * 0.1)
        assert abs(traj.states[-1, 0] - exact) < 1e-6

    def test_logistic_matches_closed_form(self):
        a, b, phi0 = 5.0, 1.0, 0.1
        traj = integrate_adaptive(_logistic_system(a, b), np.array([phi0]),
                                  0.0, 12.0, rel_tol=1e-10, abs_tol=1e-12)
        exact = _logistic_exact(a, b, phi0, traj.times)
        np.testing.assert_allclose(traj.states[:, 0], exact, rtol=1e-8)

    def test_competition_loser_collapses(self):
        a1, a2, d1, d2, b, c = 2.0, 1.0, 1.0, 1.0, 1.0, 1.0

        def rhs(s):
            crowd1 = b * s[0] + c * s[1]
            return np.array([(a1 - d1 * crowd1) * s[0],
                             (a2 - d2 * crowd1) * s[1]])

        traj = integrate_adaptive(AutonomousSystem(2, rhs),
                                  np.array([0.1, 0.1]), 0.0, 50.0)
        assert traj.states[-1, 1] < 1e-3
        assert traj.states[-1, 0] == pytest.approx(2.0, rel=1e-4)

    def test_meta_counts_steps(self):
        traj = integrate_adaptive(DECAY, np.array([1.0]), 0.0, 1.0)
        assert traj.meta["method"] == "rk45"
        assert traj.meta["n_accepted"] == len(traj.times) - 1
        assert traj.meta["n_rejected"] >= 0

    def test_equilibrium_preserved(self):
        system = _logistic_system(5.0, 1.0)
        traj = integrate_adaptive(system, np.array([5.0]), 0.0, 20.0)
        np.testing.assert_allclose(traj.states[:, 0], 5.0, rtol=1e-12)

    def test_blow_up_reported_as_stiffness(self):
        # finite-time singularity: y' = y^2, y(0)=1 explodes at t=1
        system = AutonomousSystem(1, lambda s: s * s)
        with pytest.raises(StiffnessError):
            integrate_adaptive(system, np.array([1.0]), 0.0, 2.0)

    def test_non_finite_stage_is_retried_smaller(self):
        # y' = 1 below a wall at y = 1 and inf from it on: each step whose
        # stages reach the wall is rejected and retried at a fifth of its size
        # until the step underflows
        system = AutonomousSystem(1, lambda s: np.array([1.0 if s[0] < 1.0 else math.inf]))
        with pytest.raises(StiffnessError) as info:
            integrate_adaptive(system, np.array([0.0]), 0.0, 2.0)
        match = re.search(r"at t=(\S+) .* (\d+) rejected", str(info.value))
        assert 1.0 - 1e-12 < float(match.group(1)) < 1.0
        assert int(match.group(2)) > 0

    def test_step_budget_ends_a_long_run(self, monkeypatch):
        # a rotation held to 1e-10 over ten periods takes hundreds of steps
        monkeypatch.setattr(ode, "_MAX_STEPS", 50)
        system = AutonomousSystem(2, lambda s: np.array([-s[1], s[0]]))
        start = time.perf_counter()
        with pytest.raises(NumericalError, match="budget of 50 steps") as info:
            integrate_adaptive(system, np.array([1.0, 0.0]), 0.0, 20 * math.pi,
                               rel_tol=1e-10, abs_tol=1e-12)
        assert time.perf_counter() - start < 0.1
        assert not isinstance(info.value, StiffnessError)
        assert "t1=" in str(info.value)

    def test_endpoint_is_exact(self):
        traj = integrate_adaptive(DECAY, np.array([1.0]), 0.0, 0.7345)
        assert traj.times[-1] == 0.7345

    @pytest.mark.parametrize("seed", range(4))
    def test_tolerance_scaling(self, seed):
        rng = np.random.default_rng(seed)
        rate = rng.uniform(0.5, 3.0)
        system = AutonomousSystem(1, lambda s, r=rate: -r * s)
        loose = integrate_adaptive(system, np.array([1.0]), 0.0, 2.0,
                                   rel_tol=1e-5, abs_tol=1e-7)
        tight = integrate_adaptive(system, np.array([1.0]), 0.0, 2.0,
                                   rel_tol=1e-11, abs_tol=1e-13)
        exact = math.exp(-2.0 * rate)
        assert abs(tight.states[-1, 0] - exact) <= abs(loose.states[-1, 0] - exact) + 1e-13
        assert abs(tight.states[-1, 0] - exact) < 1e-9


class TestTrajectoryContract:
    def test_invariants(self):
        traj = integrate_adaptive(DECAY, np.array([3.0]), 0.0, 4.0)
        assert isinstance(traj, Trajectory)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.states.shape == (len(traj.times), 1)
        assert traj.states[0, 0] == 3.0
        assert np.all(np.isfinite(traj.states))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValidationError):
            integrate_fixed(DECAY, np.array([1.0, 2.0]), 0.0, 1.0, 0.1)


class TestInterpolation:
    def test_linear_reconstruction(self):
        traj = integrate_fixed(DECAY, np.array([1.0]), 0.0, 1.0, 0.001)
        query = np.array([0.1234, 0.5, 0.9871])
        out = interp_states(traj, query)
        np.testing.assert_allclose(out[:, 0], np.exp(-query), rtol=1e-6)

    def test_grid_points_exact(self):
        traj = integrate_fixed(DECAY, np.array([1.0]), 0.0, 1.0, 0.1)
        out = interp_states(traj, traj.times)
        np.testing.assert_array_equal(out, traj.states)

    def test_outside_span_rejected(self):
        traj = integrate_fixed(DECAY, np.array([1.0]), 0.0, 1.0, 0.1)
        with pytest.raises(ValidationError):
            interp_states(traj, np.array([1.5]))

    def test_multicolumn(self):
        system = AutonomousSystem(2, lambda s: np.array([-s[0], -2.0 * s[1]]))
        traj = integrate_fixed(system, np.array([1.0, 1.0]), 0.0, 1.0, 0.001)
        out = interp_states(traj, np.array([0.25, 0.75]))
        np.testing.assert_allclose(out[:, 0], np.exp([-0.25, -0.75]), rtol=1e-6)
        np.testing.assert_allclose(out[:, 1], np.exp([-0.5, -1.5]), rtol=1e-6)
