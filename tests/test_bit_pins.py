"""Bit-identity pins for the fixed-step RK4 driver and the conservative field march.

Each case hashes the full output (float64, little-endian) with sha256.  Both
paths use only IEEE +, -, *, /, sqrt, abs and max, which are correctly
rounded, so the hashes hold on any host.  A rewrite of either loop that is
meant to change no result must keep these hashes; one that changes a single
bit of a time, grid point, state or field value fails here.
``integrate_adaptive`` (its step control calls pow) and
``euler_characteristic_phi`` (exp, log1p) are deliberately not pinned.
"""
import hashlib

import numpy as np
import pytest

from growthdyn import (AdvectionSetup, characteristic_particle_system,
                       evolve_advection_fd, integrate_fixed)


def _digest(arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("y0, t0, t1, dt, expected", [
    # escaping orbit, steps that divide the span exactly
    ((1.5, 1.4), 0.0, 20.0, 0.01,
     "6a0a76281422850036dbb481b2fbad8975f843fb61eb0a2d01e6c9129a08ef6c"),
    # bound orbit, shortened last step, nonzero t0
    ((2.2, 0.6), 0.25, 7.3, 0.013,
     "cae8551fa3ee812680e58ff7d0dc2334bb6db932f3bb058b0e56650617ae1b6b"),
    # infall toward small x
    ((3.0, -0.5), 0.0, 1.5, 1e-3,
     "2ac1193f1ba5e4724611341d03c94d7db2f44fc1be24ceb2f1c2921162bcf28d"),
])
def test_integrate_fixed_particle_bits(y0, t0, t1, dt, expected):
    traj = integrate_fixed(characteristic_particle_system(), np.array(y0), t0, t1, dt)
    assert _digest([traj.times, traj.states]) == expected


@pytest.mark.parametrize("setup, t_end, snap_times, expected", [
    # zero start: a flat field of 0 that the force pumps negative
    (AdvectionSetup(c=1.0, phi0=0.0, x_max=50.0, n_cells=64), 200.0,
     [0.0, 0.5, 3.0, 10.0, 47.25, 120.0, 200.0],
     "cf9272eb4b9883d677593c147b14db0eaf815bc679fc31daabef6b811c31ee70"),
    # snapshots at and just after t = 0, a repeated time, a half CFL number
    (AdvectionSetup(c=0.7, phi0=0.3, x_min=0.5, x_max=40.0, n_cells=128, cfl=0.45),
     60.0, [0.0, 1e-13, 2.5, 2.5, 30.0, 60.0],
     "7a136ef610b6c6ad435263722059dcc45117e09784e2c265792fb556d4a2eaeb"),
    # no t = 0 snapshot; the last lies past t_end within round-off
    (AdvectionSetup(c=1.8, phi0=1.2, x_min=2.0, x_max=120.0, n_cells=200), 300.0,
     [5.0, 77.7, 150.0, 300.0 * (1.0 + 5e-13)],
     "b7e755eea42682e95a53f3b7157d48fcebc7106927f87e805d64769c299c7798"),
])
def test_evolve_advection_fd_bits(setup, t_end, snap_times, expected):
    snapshots = evolve_advection_fd(setup, t_end, snap_times)
    assert len(snapshots) == len(snap_times)
    arrays = []
    for snap in snapshots:
        arrays += [[snap.t], snap.x_grid, snap.phi]
    assert _digest(arrays) == expected
