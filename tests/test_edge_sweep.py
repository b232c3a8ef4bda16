"""Edge sweep: each array-taking function at the edges of float64.

Every argument below gets the edge values one at a time, arrays that place
them in each slot, seeded random arrays drawn from them, and complex,
string and wrong-shape arrays.  Each call must return a value or raise a
GrowthDynError, with every warning an error, within one second.
"""
import io
import math
import time
import warnings

import numpy as np
import pytest

from growthdyn import (AdvectionSetup, CompetitionParams, DiffusionParams, FieldSnapshot,
                       GeneralizedLogisticParams, GrowthDynError, PowerLawParams,
                       SaturatingLinearParams, TimeSeries, Trajectory,
                       characteristic_energy, characteristic_particle_system,
                       competition_system, coupled_logistic_demo, cumulate,
                       diffusion_point_source, emit_plot_series, euler_terminal_profile,
                       evolve_advection_fd, exclusion_verdict, find_fixed_point,
                       integrate_adaptive, integrate_fixed, interp_states, linearize,
                       models, probe_series, stability_report)
from growthdyn.errors import check_array

EDGES = (0.0, -0.0, 1e-320, 1e-170, 1e-12, 0.5, 1.0, 3.0, 1e12, 1e154, 1e300,
         -1.0, math.nan, math.inf, -math.inf)
SEED = 20261020
DRAWS = 30  # seeded random arrays per argument
LIMIT_S = 1.0

DEMO = coupled_logistic_demo()
PARTICLE = characteristic_particle_system()
COMPETITION = competition_system(CompetitionParams(2.0, 1.0, 1.0, 1.0, 1.0, 1.0))
SETUP = AdvectionSetup(x_max=20.0, n_cells=16)
TRAJECTORY = integrate_fixed(DEMO, [1.0, 1.0], 0.0, 1.0, 0.25)
SNAPSHOTS = evolve_advection_fd(SETUP, 1.0, [0.0, 1.0])
RECORDS = (PowerLawParams(1.0, 0.5), SaturatingLinearParams(2.0, 0.5),
           GeneralizedLogisticParams(1.0, 0.2, 2.0, 0.5))
TIMES = [0.0, 1.0, 2.0]


def _plot(x, y):
    emit_plot_series([("a", x, y)], "linear", io.StringIO())


# (function, array argument): (a call that passes the array, a valid array)
ARRAY_ARGUMENTS = {
    ("check_array", "values"): (lambda v: check_array("values", v, (3,)), TIMES),
    ("TimeSeries", "times"): (lambda v: TimeSeries(v, [1.0, 2.0, 3.0]), TIMES),
    ("TimeSeries", "values"): (lambda v: TimeSeries(TIMES, v), [1.0, 2.0, 3.0]),
    ("cumulate", "values"): (lambda v: cumulate(TimeSeries(TIMES, v)), [1.0, 2.0, 3.0]),
    ("FieldSnapshot", "x_grid"): (lambda v: FieldSnapshot(0.0, v, [0.0, -1.0, -2.0]), TIMES),
    ("FieldSnapshot", "phi"): (lambda v: FieldSnapshot(0.0, TIMES, v), [0.0, -1.0, -2.0]),
    ("emit_plot_series", "x"): (lambda v: _plot(v, [1.0, 2.0, 3.0]), TIMES),
    ("emit_plot_series", "y"): (lambda v: _plot(TIMES, v), [1.0, 2.0, 3.0]),
    ("Trajectory", "times"): (lambda v: Trajectory(v, np.ones((3, 2))), TIMES),
    ("Trajectory", "states"): (lambda v: Trajectory(TIMES, v), np.ones((3, 2))),
    ("interp_states", "times"): (lambda v: interp_states(TRAJECTORY, v), [0.0, 0.5, 1.0]),
    **{(f"integrate_{kind} {name}", "y0"): (
        lambda v, integrate=integrate, system=system, dt=dt: integrate(system, v, 0.0, 1.0, *dt),
        [1.0, 1.0])
       for kind, integrate, dt in (("fixed", integrate_fixed, (0.25,)),
                                   ("adaptive", integrate_adaptive, ()))
       for name, system in (("demo", DEMO), ("particle", PARTICLE),
                            ("competition", COMPETITION))},
    **{(f"{function.__name__} {name}", "guess"): (
        lambda v, function=function, system=system: function(system, v), [2.0, 2.0])
       for function in (find_fixed_point, linearize, stability_report)
       for name, system in (("demo", DEMO), ("competition", COMPETITION))},
    ("diffusion_point_source", "x"):
        (lambda v: diffusion_point_source(DiffusionParams(1.0), v, 1.0), TIMES),
    ("euler_terminal_profile", "x"): (lambda v: euler_terminal_profile(SETUP, v), [1.0, 2.0]),
    ("characteristic_energy", "state"): (characteristic_energy, [1.0, 1.0]),
    **{(f"evaluate {type(record).__name__}", "t"):
       (lambda v, record=record: models.evaluate(record, v), TIMES) for record in RECORDS},
}

# (function, scalar argument): a call that passes the value as that argument
SCALAR_ARGUMENTS = {
    ("diffusion_point_source", "t"):
        lambda v: diffusion_point_source(DiffusionParams(1.0), 1.0, v),
    ("diffusion_point_source", "delta and t"):
        lambda v: diffusion_point_source(DiffusionParams(v), 0.0, v),
    ("diffusion_point_source", "x at delta = t = 1e-170"):
        lambda v: diffusion_point_source(DiffusionParams(1e-170), v, 1e-170),
    ("probe_series", "x_probe"): lambda v: probe_series(SNAPSHOTS, v),
    ("euler_terminal_profile", "phi0"):
        lambda v: euler_terminal_profile(AdvectionSetup(phi0=v), [1e-320, 1.0]),
    **{("exclusion_verdict", name): lambda v, i=i: exclusion_verdict(
        CompetitionParams(*(v if j in i else 1.0 for j in range(6))))
       for name, i in (("a1", (0,)), ("a1 and d2", (0, 3)), ("a2 and d1", (1, 2)),
                       ("d1 and b", (2, 4)), ("all rates", range(6)))},
}


def _arrays(valid, seed):
    """valid, each edge value filling it and in each of its slots, seeded
    draws from the edges, then complex, string and wrong-shape arrays."""
    valid = np.asarray(valid, dtype=float)
    rng = np.random.default_rng(seed)
    for v in EDGES:
        yield v
        yield np.full(valid.shape, v)
        for i in np.ndindex(valid.shape):
            one = valid.copy()
            one[i] = v
            yield one
    for _ in range(DRAWS):
        yield rng.choice(EDGES, size=valid.shape)
    yield valid + 1j
    yield valid.astype(str)
    yield valid.tolist() + ["1"]
    yield np.append(valid, 1.0)
    yield valid[None]
    yield [valid.tolist(), [1.0]]  # ragged


def _outcome(call, value):
    """None for a value or a GrowthDynError within LIMIT_S, else what went wrong."""
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(value)
    except GrowthDynError:
        pass
    except Exception as exc:  # an untyped outcome is what the sweep looks for
        return f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return f"took {elapsed:.2f} s" if elapsed > LIMIT_S else None


def _report(outcomes):
    bad = [f"{value!r}: {what}" for value, what in outcomes if what]
    assert not bad, f"{len(bad)} untyped or slow outcomes:\n" + "\n".join(bad[:10])


@pytest.mark.parametrize("function, argument", list(ARRAY_ARGUMENTS))
def test_array_argument(function, argument):
    call, valid = ARRAY_ARGUMENTS[function, argument]
    seed = SEED + list(ARRAY_ARGUMENTS).index((function, argument))
    _report((value, _outcome(call, value)) for value in _arrays(valid, seed))


@pytest.mark.parametrize("function, argument", list(SCALAR_ARGUMENTS))
def test_scalar_argument(function, argument):
    call = SCALAR_ARGUMENTS[function, argument]
    _report((value, _outcome(call, value)) for value in EDGES)


def test_competition_rates_drawn_from_the_edges():
    rng = np.random.default_rng(SEED)
    rates = [tuple(rng.choice(EDGES, size=6)) for _ in range(200)]
    _report((r, _outcome(lambda r: exclusion_verdict(CompetitionParams(*r)), r))
            for r in rates)
