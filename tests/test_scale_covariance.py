"""Scale covariance: the paper's equations have power-law symmetries, and
the solvers must keep them.

* The advection equation phi_t + phi*phi_x = -1/x**2 and its characteristic
  system x' = phi, phi' = -1/x**2 are invariant under x -> lam*x,
  t -> lam**1.5*t, phi -> phi/sqrt(lam).
* Competition is invariant under phi -> 2*phi with b, c -> b/2, c/2.
* The logistic family (alpha >= 1) is invariant under phi0 -> 2*phi0 with
  b -> b/2**alpha.

With lam = 4**k every factor is a power of two, and scaling by a power of
two commutes exactly with rounded +, -, *, / and sqrt (barring over- or
underflow), so these identities hold bit for bit.  Fits are compared to a
tolerance instead, since the cost they minimise is not scale-exact.
"""
import math

import numpy as np
import pytest

from growthdyn import (LOGISTIC_FAMILY, LOSS_LINEAR, LOSS_LOG, POWER_LAW,
                       SATURATING_LINEAR, AdvectionSetup, CompetitionParams,
                       FitProblem, GeneralizedLogisticParams, TimeSeries, classify,
                       competition_system, characteristic_particle_system,
                       eval_logistic_family, evolve_advection_fd, fit,
                       integrate_adaptive, integrate_fixed)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _scaled_setup(setup, k):
    # x -> 4**k x, phi -> phi / 2**k; c is an energy-like constant, phi-scaled
    return AdvectionSetup(c=setup.c / 2.0 ** k, phi0=setup.phi0 / 2.0 ** k,
                          x_min=setup.x_min * 4.0 ** k, x_max=setup.x_max * 4.0 ** k,
                          n_cells=setup.n_cells, cfl=setup.cfl)


MARCHES = [
    (AdvectionSetup(phi0=0.0, x_max=40.0, n_cells=64), 20.0,
     [0.0, 0.01, 0.3, 2.5, 5.0, 12.5, 20.0]),
    (AdvectionSetup(phi0=0.3, x_min=0.5, x_max=30.0, n_cells=128, cfl=0.45), 12.0,
     [0.0, 0.7, 5.0, 5.0, 12.0]),
    (AdvectionSetup(phi0=1.5, x_min=2.0, x_max=60.0, n_cells=256), 8.0,
     [0.05, 1.0, 5.0, 8.0]),
]


@pytest.fixture(scope="module")
def march_refs():
    return [evolve_advection_fd(setup, t_end, times) for setup, t_end, times in MARCHES]


@pytest.mark.parametrize("k", range(-17, 9))
def test_march_is_covariant(march_refs, k):
    for (setup, t_end, times), ref in zip(MARCHES, march_refs):
        out = evolve_advection_fd(_scaled_setup(setup, k), t_end * 8.0 ** k,
                                  [s * 8.0 ** k for s in times])
        assert len(out) == len(ref)
        for snap, r in zip(out, ref):
            assert snap.t == r.t * 8.0 ** k
            assert _same_bits(snap.x_grid, r.x_grid * 4.0 ** k)
            assert _same_bits(snap.phi, r.phi / 2.0 ** k), (setup, snap.t)


# (x0, phi0, t1): an escaping orbit, a bound one, an infall
ORBITS = [(1.0, 1.6, 6.0), (2.0, 0.3, 3.0), (5.0, -0.2, 7.5)]


@pytest.mark.parametrize("k", range(-12, 13, 3))
@pytest.mark.parametrize("x0, phi0, t1", ORBITS)
def test_rk4_particles_are_covariant(k, x0, phi0, t1):
    system = characteristic_particle_system()
    ref = integrate_fixed(system, [x0, phi0], 0.0, t1, 0.01)
    out = integrate_fixed(system, [x0 * 4.0 ** k, phi0 / 2.0 ** k], 0.0,
                          t1 * 8.0 ** k, 0.01 * 8.0 ** k)
    assert _same_bits(out.times, ref.times * 8.0 ** k)
    assert _same_bits(out.states, ref.states * [4.0 ** k, 2.0 ** -k])


@pytest.mark.parametrize("k", range(-12, 13, 3))
@pytest.mark.parametrize("x0, phi0, t1", ORBITS)
def test_adaptive_particles_are_covariant(k, x0, phi0, t1):
    # abs_tol is one scalar for every component, so it must be negligible
    system = characteristic_particle_system()
    ref = integrate_adaptive(system, [x0, phi0], 0.0, t1, rel_tol=1e-9, abs_tol=1e-300)
    out = integrate_adaptive(system, [x0 * 4.0 ** k, phi0 / 2.0 ** k], 0.0,
                             t1 * 8.0 ** k, rel_tol=1e-9, abs_tol=1e-300)
    assert _same_bits(out.times, ref.times * 8.0 ** k)
    assert _same_bits(out.states, ref.states * [4.0 ** k, 2.0 ** -k])
    assert out.meta == ref.meta


@pytest.mark.parametrize("m", [-40, -3, 1, 5, 60])
def test_adaptive_competition_is_covariant(m):
    base = CompetitionParams(a1=1.3, a2=0.8, d1=0.7, d2=1.1, b=2.0, c=0.5)
    scaled = CompetitionParams(a1=1.3, a2=0.8, d1=0.7, d2=1.1,
                               b=2.0 / 2.0 ** m, c=0.5 / 2.0 ** m)
    y0 = np.array([0.4, 1.7])
    ref = integrate_adaptive(competition_system(base), y0, 0.0, 40.0,
                             rel_tol=1e-10, abs_tol=1e-300)
    out = integrate_adaptive(competition_system(scaled), y0 * 2.0 ** m, 0.0, 40.0,
                             rel_tol=1e-10, abs_tol=1e-300)
    assert _same_bits(out.times, ref.times)
    assert _same_bits(out.states, ref.states * 2.0 ** m)


@pytest.mark.parametrize("alpha", [1, 2, 3, 7])
@pytest.mark.parametrize("m", [-20, -1, 1, 12])
def test_logistic_family_is_covariant(alpha, m):
    t = np.linspace(0.0, 12.0, 97)
    ref = eval_logistic_family(GeneralizedLogisticParams(a=1.1, b=0.4, alpha=alpha,
                                                         phi0=0.05), t)
    out = eval_logistic_family(
        GeneralizedLogisticParams(a=1.1, b=0.4 / 2.0 ** (alpha * m), alpha=alpha,
                                  phi0=0.05 * 2.0 ** m), t)
    assert _same_bits(out, ref * 2.0 ** m)


# Fits: t -> 2t halves every rate; y -> 2y doubles the level parameters.
FITS = [
    (POWER_LAW, lambda t: 2.0 * t ** 0.7, (1.0, 1.0), 1, LOSS_LINEAR,
     lambda p: (p[0] / 2.0 ** p[1], p[1]), lambda p: (2.0 * p[0], p[1])),
    (SATURATING_LINEAR, lambda t: 3.0 / 0.4 * -np.expm1(-0.4 * t), (1.0, 1.0), 1,
     LOSS_LINEAR, lambda p: (p[0] / 2.0, p[1] / 2.0), lambda p: (2.0 * p[0], p[1])),
    (LOGISTIC_FAMILY, lambda t: 10.0 / (1.0 + 9.0 * np.exp(-t)), (1.0, 1.0, 1.0), 1,
     LOSS_LINEAR, lambda p: (p[0] / 2.0, p[1] / 2.0, p[2]),
     lambda p: (p[0], p[1] / 2.0, 2.0 * p[2])),
    (LOGISTIC_FAMILY, lambda t: 4.0 / np.sqrt(1.0 + 15.0 * np.exp(-2.0 * 0.8 * t)),
     (1.0, 0.1, 1.0), 2, LOSS_LOG, lambda p: (p[0] / 2.0, p[1] / 2.0, p[2]),
     lambda p: (p[0], p[1] / 4.0, 2.0 * p[2])),
]


@pytest.mark.parametrize("model, curve, guess, alpha, loss, time2, value2", FITS)
def test_fits_are_covariant(model, curve, guess, alpha, loss, time2, value2):
    t = np.linspace(0.5, 9.0, 50)
    noise = 1.0 + 0.01 * np.random.default_rng(3).standard_normal(t.size)
    y = curve(t) * noise

    def solve(tt, yy, g):
        return fit(FitProblem(TimeSeries(tt, yy), model, g, loss, alpha)).params

    ref = solve(t, y, guess)
    np.testing.assert_allclose(solve(2.0 * t, y, time2(guess)), time2(ref), rtol=1e-6)
    np.testing.assert_allclose(solve(t, 2.0 * y, value2(guess)), value2(ref), rtol=1e-6)


JACOBIANS = [(-1.0, 0.0, 0.0, -2.0), (-1.0, 0.5, 0.0, -1.2),
             (0.1, -1.0, 1.0, 0.1), (-1.0, -3.0, 1.0, -1.0)]


def test_classify_labels_are_scale_free():
    for jac in JACOBIANS:
        label = classify(jac).classification
        for k in range(-1000, 1001):
            scaled = [math.ldexp(v, k) for v in jac]
            assert classify(scaled).classification == label, (jac, k)
