"""Input guards: each refusal the library states, reached by an input."""
import io
import math
import re

import numpy as np
import pytest

from growthdyn import (LOGISTIC_FAMILY, POWER_LAW, SATURATING_LINEAR, AdvectionSetup,
                       AutonomousSystem, DiffusionParams, DomainError, FieldSnapshot,
                       FitProblem, NumericalError, ParameterError, TimeSeries, Trajectory,
                       ValidationError, characteristic_energy, classify,
                       coupled_logistic_demo, diffusion_point_source,
                       early_growth_classifier, emit_plot_series, euler_characteristic_phi,
                       euler_terminal_profile, evolve_advection_fd, find_fixed_point, fit,
                       integrate_adaptive, integrate_fixed, interp_states, linearize,
                       models, probe_series, read_csv, stability_report)
from growthdyn.errors import check_array

SMALL = AdvectionSetup(x_max=20.0, n_cells=16)
DECAY = AutonomousSystem(1, lambda y: -y)


def _series(t0=0.0):
    t = np.linspace(t0, t0 + 6.0, 30)
    return TimeSeries(t, 5.0 / (1.0 + 4.0 * np.exp(-np.abs(t))))


class TestDynsys:
    def test_point_must_be_a_2_vector(self):
        with pytest.raises(ValidationError, match=re.escape("point must have shape (2,), got (3,)")):
            linearize(coupled_logistic_demo(), [1.0, 2.0, 3.0])

    def test_non_finite_rhs_while_differencing(self):
        # finite up to the wall at y0 = 1, which the forward step 2e-6 crosses
        system = AutonomousSystem(2, lambda y: np.array([y[0] if y[0] <= 1.0 else math.inf,
                                                         y[1]]))
        with pytest.raises(NumericalError, match="while differencing"):
            linearize(system, [1.0 - 5e-7, 0.0])

    def test_fixed_point_search_is_planar(self):
        system = AutonomousSystem(3, lambda y: -y)
        with pytest.raises(ValidationError, match="planar"):
            find_fixed_point(system, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
    def test_fixed_point_tol_must_be_positive(self, tol):
        with pytest.raises(ValidationError, match="tol must be > 0"):
            find_fixed_point(coupled_logistic_demo(), [2.0, 2.0], tol=tol)

    @pytest.mark.parametrize("max_iter", [2.5, True, "3"])
    def test_fixed_point_max_iter_is_an_integer(self, max_iter):
        with pytest.raises(ValidationError, match="max_iter must be > 0"):
            find_fixed_point(coupled_logistic_demo(), [2.0, 2.0], max_iter=max_iter)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_classify_needs_finite_entries(self, bad):
        with pytest.raises(ValidationError, match="must be a finite real"):
            classify([-1.0, 0.0, bad, -2.0])


class TestFields:
    @pytest.mark.parametrize("kwargs, message", [
        ({"c": 0.0}, "c must be > 0"), ({"c": -1.0}, "c must be > 0"),
        ({"c": math.nan}, "c must be > 0"), ({"phi0": -0.1}, "phi0 must be >= 0"),
    ])
    def test_setup_constants(self, kwargs, message):
        with pytest.raises(ParameterError, match=message):
            AdvectionSetup(**kwargs)

    def test_snapshot_shapes_must_match(self):
        with pytest.raises(ValidationError, match=re.escape("phi must have shape (3,), got (4,)")):
            FieldSnapshot(t=0.0, x_grid=np.arange(3.0), phi=np.zeros(4))

    def test_snapshot_grid_must_increase(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            FieldSnapshot(t=0.0, x_grid=np.array([1.0, 1.0, 2.0]), phi=np.zeros(3))

    def test_snapshot_lists_become_float_arrays(self):
        snap = FieldSnapshot(t=0.0, x_grid=[1, 2, 3], phi=[0, -0.5, -1])
        assert snap.x_grid.dtype == snap.phi.dtype == np.float64
        np.testing.assert_array_equal(snap.phi, [0.0, -0.5, -1.0])

    def test_snapshot_needs_real_numbers(self):
        with pytest.raises(ValidationError, match="x_grid must be an array of reals"):
            FieldSnapshot(t=0.0, x_grid=np.array(["a", "b"]), phi=np.zeros(2))

    @pytest.mark.parametrize("x_grid, phi, name", [
        ([0.0, 1.0, 2.0], [0.0, -math.inf, 0.0], "phi"),
        ([1.0, math.inf], [0.0, 0.0], "x_grid")])
    def test_snapshot_values_must_be_finite(self, x_grid, phi, name):
        with pytest.raises(ValidationError, match=f"{name} must hold finite values only"):
            FieldSnapshot(t=0.0, x_grid=np.array(x_grid), phi=np.array(phi))

    def test_march_snapshots_keep_their_arrays(self):
        snaps = evolve_advection_fd(SMALL, 1.0, [0.0, 1.0])
        again = FieldSnapshot(t=1.0, x_grid=snaps[0].x_grid, phi=snaps[1].phi)
        assert again.x_grid is snaps[0].x_grid and again.phi is snaps[1].phi

    @pytest.mark.parametrize("t_end", [-1.0, math.inf, math.nan])
    def test_march_end_time(self, t_end):
        with pytest.raises(ValidationError, match="t_end must be >= 0"):
            evolve_advection_fd(SMALL, t_end, [])

    def test_march_snapshots_sorted(self):
        with pytest.raises(ValidationError, match="sorted ascending"):
            evolve_advection_fd(SMALL, 5.0, [0.0, 3.0, 1.0])

    @pytest.mark.parametrize("times", [[-1e-3, 1.0], [0.0, 5.0 * (1.0 + 1e-11)]])
    def test_march_snapshots_within_span(self, times):
        with pytest.raises(ValidationError, match="must lie within"):
            evolve_advection_fd(SMALL, 5.0, times)

    def test_probe_needs_snapshots(self):
        with pytest.raises(ValidationError, match="no snapshots"):
            probe_series([], 5.0)

    def test_probe_needs_snapshot_records(self):
        # this used to raise a bare AttributeError
        with pytest.raises(ValidationError, match="need a list of FieldSnapshot records"):
            probe_series([1, 2], 3.0)

    @pytest.mark.parametrize("snapshots", [None, 0, 3, [1, 2], iter([1, 2])])
    def test_probe_refuses_anything_but_snapshots_alike(self, snapshots):
        # a non-iterable such as 3 used to raise a bare TypeError
        with pytest.raises(ValidationError) as info:
            probe_series(snapshots, 3.0)
        assert str(info.value) == \
            "no snapshots to probe: need a list of FieldSnapshot records"

    def test_snapshot_grid_is_not_empty(self):
        # probe_series on an empty snapshot used to raise a bare IndexError
        with pytest.raises(ValidationError, match="x_grid must be non-empty"):
            FieldSnapshot(t=0.0, x_grid=[], phi=[])

    def test_probe_inside_grid(self):
        snaps = evolve_advection_fd(SMALL, 1.0, [0.0, 1.0])
        with pytest.raises(DomainError, match="outside grid"):
            probe_series(snaps, 25.0)

    def test_nan_time_refused(self):
        # a NaN t used to fall through to the bracket test
        with pytest.raises(DomainError, match="t must be >= 0"):
            euler_characteristic_phi(AdvectionSetup(), 50.0, math.nan)


class TestFitting:
    def test_unknown_loss(self):
        with pytest.raises(ValidationError, match="loss_space"):
            FitProblem(_series(), POWER_LAW, (1.0, 1.0), loss_space="huber")

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_guess_must_be_finite(self, bad):
        with pytest.raises(ValidationError, match="must be a finite real"):
            FitProblem(_series(0.5), POWER_LAW, (1.0, bad))

    def test_max_iter_at_least_one(self):
        problem = FitProblem(_series(), LOGISTIC_FAMILY, (1.0, 0.2, 1.0))
        with pytest.raises(ValidationError, match="max_iter must be > 0"):
            fit(problem, max_iter=0)

    @pytest.mark.parametrize("max_iter", [2.5, True, "3"])
    def test_max_iter_is_an_integer(self, max_iter):
        # 2.5 used to reach range() as a bare TypeError, and True ran one step
        problem = FitProblem(_series(), LOGISTIC_FAMILY, (1.0, 0.2, 1.0))
        with pytest.raises(ValidationError, match="max_iter must be > 0"):
            fit(problem, max_iter=max_iter)

    @pytest.mark.parametrize("tol", [math.inf, True, None])
    def test_tol_is_a_finite_real(self, tol):
        problem = FitProblem(_series(), LOGISTIC_FAMILY, (1.0, 0.2, 1.0))
        with pytest.raises(ValidationError, match="tol must be > 0"):
            fit(problem, tol=tol)

    @pytest.mark.parametrize("model, guess", [(POWER_LAW, (1.0, 1.0)),
                                              (SATURATING_LINEAR, (1.0, 1.0)),
                                              (LOGISTIC_FAMILY, (1.0, 1.0, 1.0))])
    def test_negative_times_refused_up_front(self, model, guess):
        # every family is defined for t >= 0; the first negative time is named
        with pytest.raises(ValidationError, match=r"got -2\.0 at index 0"):
            FitProblem(_series(-2.0), model, guess)


class TestMisc:
    def test_evaluate_needs_a_family_record(self):
        with pytest.raises(ParameterError, match="no growth law for tuple"):
            models.evaluate((1.0, 0.5), 1.0)

    @pytest.mark.parametrize("dimension", [0, -1, 2.5])
    def test_system_dimension(self, dimension):
        with pytest.raises(ValidationError, match=r"dimension must be > 0 \(an integer\)"):
            AutonomousSystem(dimension, lambda y: y)

    @pytest.mark.parametrize("rel_tol, abs_tol", [(0.0, 1e-10), (1e-8, 0.0),
                                                  (-1e-8, 1e-10), (math.nan, 1e-10)])
    def test_adaptive_tolerances_positive(self, rel_tol, abs_tol):
        name, value = ("rel_tol", rel_tol) if not rel_tol > 0 else ("abs_tol", abs_tol)
        with pytest.raises(ValidationError,
                           match=re.escape(f"{name} must be > 0 (a finite real), got {value!r}")):
            integrate_adaptive(DECAY, [1.0], 0.0, 1.0, rel_tol=rel_tol, abs_tol=abs_tol)

    def test_plot_series_lengths_match(self, tmp_path):
        with pytest.raises(ValidationError, match=re.escape("entry 1: y must have shape (2,), got (1,)")):
            emit_plot_series([("a", [0.0, 1.0], [1.0, 2.0]), ("b", [0.0, 1.0], [1.0])],
                             "linear", str(tmp_path / "out.csv"))
        assert list(tmp_path.iterdir()) == []


_SNAPSHOTS = [FieldSnapshot(t=0.0, x_grid=np.arange(3.0), phi=np.zeros(3))]
_RATES = ("a_r", "b_r", "e_rs", "a_s", "b_s", "e_sr")

# (function, scalar argument): a call that passes the value as that argument
_SCALAR_ARGUMENTS = {
    ("integrate_fixed", "t0"): lambda v: integrate_fixed(DECAY, [1.0], v, 1.0, 0.1),
    ("integrate_fixed", "t1"): lambda v: integrate_fixed(DECAY, [1.0], 0.0, v, 0.1),
    ("integrate_fixed", "dt"): lambda v: integrate_fixed(DECAY, [1.0], 0.0, 1.0, v),
    ("integrate_adaptive", "t0"): lambda v: integrate_adaptive(DECAY, [1.0], v, 1.0),
    ("integrate_adaptive", "t1"): lambda v: integrate_adaptive(DECAY, [1.0], 0.0, v),
    ("integrate_adaptive", "rel_tol"):
        lambda v: integrate_adaptive(DECAY, [1.0], 0.0, 1.0, rel_tol=v),
    ("integrate_adaptive", "abs_tol"):
        lambda v: integrate_adaptive(DECAY, [1.0], 0.0, 1.0, abs_tol=v),
    ("early_growth_classifier", "window"):
        lambda v: early_growth_classifier(_series(0.5), window=v),
    ("diffusion_point_source", "t"):
        lambda v: diffusion_point_source(DiffusionParams(1.0), 0.0, v),
    ("euler_characteristic_phi", "x"):
        lambda v: euler_characteristic_phi(AdvectionSetup(), v, 1.0),
    ("probe_series", "x_probe"): lambda v: probe_series(_SNAPSHOTS, v),
    ("read_csv", "time_col"): lambda v: read_csv(io.StringIO("0,1\n1,2\n"), time_col=v),
    ("read_csv", "value_col"): lambda v: read_csv(io.StringIO("0,1\n1,2\n"), value_col=v),
    **{("coupled_logistic_demo", rate): lambda v, rate=rate: coupled_logistic_demo(**{rate: v})
       for rate in _RATES},
}


class TestScalarArguments:
    """Every public scalar argument follows the number rule before its own checks."""

    @pytest.mark.parametrize("bad", ["1", None, True, math.nan, math.inf])
    @pytest.mark.parametrize("function, argument", list(_SCALAR_ARGUMENTS))
    def test_refused_with_the_argument_named(self, function, argument, bad):
        # the parent leaked bare TypeErrors here, and let True or inf run
        with pytest.raises(ParameterError,
                           match=rf"^{argument} must be .*, got {re.escape(repr(bad))}$"):
            _SCALAR_ARGUMENTS[function, argument](bad)

    @pytest.mark.parametrize("bad", ["1", None, True, -math.inf])
    def test_characteristic_time_follows_the_rule(self, bad):
        # t = inf is the late-time limit, and a NaN t fails t >= 0 (DomainError)
        with pytest.raises(ParameterError,
                           match=rf"^t must be .*, got {re.escape(repr(bad))}$"):
            euler_characteristic_phi(AdvectionSetup(), 50.0, bad)

    def test_integral_floats_index_columns(self):
        text = "t,a,b\n1,2,3\n2,4,6\n"
        by_float = read_csv(io.StringIO(text), time_col=0.0, value_col=2.0)
        by_numpy = read_csv(io.StringIO(text), time_col=np.int64(0), value_col=np.int8(2))
        assert by_float.values.tolist() == by_numpy.values.tolist() == [3.0, 6.0]

    def test_range_checks_follow_the_rule(self):
        # a number the rule takes still meets the function's own range check
        with pytest.raises(DomainError, match="x=0.5 outside the solver domain"):
            euler_characteristic_phi(AdvectionSetup(), np.float32(0.5), 1.0)
        with pytest.raises(ValidationError, match="need dt <= t1 - t0, got dt=2.0"):
            integrate_fixed(DECAY, [1.0], 0.0, 1.0, 2)


_DEMO = coupled_logistic_demo()
_TRAJECTORY = integrate_fixed(DECAY, [1.0], 0.0, 1.0, 0.25)
_LEVEL = [1.0, 2.0, 3.0]

# (function, array argument): a call that passes the array, shaped like _LEVEL
# where it is 1-D and cut to its first two entries where it is a 2-vector
_ARRAY_ARGUMENTS = {
    ("TimeSeries", "times"): lambda v: TimeSeries(v, _LEVEL),
    ("TimeSeries", "values"): lambda v: TimeSeries(_LEVEL, v),
    ("FieldSnapshot", "x_grid"): lambda v: FieldSnapshot(0.0, v, _LEVEL),
    ("FieldSnapshot", "phi"): lambda v: FieldSnapshot(0.0, _LEVEL, v),
    ("integrate_fixed", "y0"): lambda v: integrate_fixed(_DEMO, v[:2], 0.0, 1.0, 0.5),
    ("integrate_adaptive", "y0"): lambda v: integrate_adaptive(_DEMO, v[:2], 0.0, 1.0),
    ("stability_report", "guess"): lambda v: stability_report(_DEMO, v[:2]),
    ("find_fixed_point", "guess"): lambda v: find_fixed_point(_DEMO, v[:2]),
    ("linearize", "point"): lambda v: linearize(_DEMO, v[:2]),
    ("interp_states", "times"): lambda v: interp_states(_TRAJECTORY, v),
    ("emit_plot_series", "entry 0: x"):
        lambda v: emit_plot_series([("a", v, _LEVEL)], "linear", io.StringIO()),
    ("emit_plot_series", "entry 0: y"):
        lambda v: emit_plot_series([("a", _LEVEL, v)], "linear", io.StringIO()),
    ("eval_power_law", "t"): lambda v: models.eval_power_law(models.PowerLawParams(1, 1), v),
    ("eval_saturating_linear", "t"):
        lambda v: models.eval_saturating_linear(models.SaturatingLinearParams(1, 1), v),
    ("eval_logistic_family", "t"): lambda v: models.eval_logistic_family(
        models.GeneralizedLogisticParams(1, 0.5, 1, 0.5), v),
    ("diffusion_point_source", "x"):
        lambda v: diffusion_point_source(DiffusionParams(1.0), v, 1.0),
    ("euler_terminal_profile", "x"): lambda v: euler_terminal_profile(SMALL, v),
    ("characteristic_energy", "state"): lambda v: characteristic_energy(v[:2]),
    ("Trajectory", "times"): lambda v: Trajectory(v, np.zeros((3, 1))),
    ("Trajectory", "states"): lambda v: Trajectory(_LEVEL, np.reshape(v, (3, 1))),
}


class TestArrayArguments:
    """Every public array argument follows the array rule before its own checks."""

    @pytest.mark.parametrize("bad", [np.array(_LEVEL) + 1j, np.array(_LEVEL).astype(str),
                                     [1.0, "2", 3.0], np.array(_LEVEL) > 1, [1j, 2.0, 3.0]])
    @pytest.mark.parametrize("function, argument", list(_ARRAY_ARGUMENTS))
    def test_non_real_arrays_refused_with_the_argument_named(self, function, argument, bad):
        # complex used to lose its imaginary part (TimeSeries, FieldSnapshot)
        # or raise a bare TypeError (a guess), and strings a bare ValueError
        with pytest.raises(ValidationError, match=rf"^{argument} must be an array of reals: "):
            _ARRAY_ARGUMENTS[function, argument](bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("function, argument", [
        ("integrate_fixed", "y0"), ("integrate_adaptive", "y0"), ("stability_report", "guess"),
        ("find_fixed_point", "guess"), ("linearize", "point"), ("TimeSeries", "values"),
        ("FieldSnapshot", "phi"), ("characteristic_energy", "state")])
    def test_non_finite_states_refused(self, function, argument, bad):
        # a non-finite y0 used to reach the solver: a NumericalError, or a
        # misleading StiffnessError where the rhs stays finite (tanh, say)
        with pytest.raises(ValidationError, match=f"^{argument} must hold finite values only$"):
            _ARRAY_ARGUMENTS[function, argument]([1.0, bad, 3.0])

    @pytest.mark.parametrize("function, argument", [
        ("interp_states", "times"), ("emit_plot_series", "entry 0: y"), ("eval_power_law", "t"),
        ("diffusion_point_source", "x"), ("euler_terminal_profile", "x")])
    def test_evaluation_points_keep_nan_and_inf(self, function, argument):
        # they reach the function's own domain check, or its output, unchanged
        for bad in (math.nan, math.inf, -math.inf):
            try:
                _ARRAY_ARGUMENTS[function, argument]([1.0, bad, 3.0])
            except ValidationError as exc:
                assert not str(exc).startswith(f"{argument} must"), exc

    @pytest.mark.parametrize("call, message, bad", [
        (call, message, bad) for call, message, bads in (
            (lambda v: stability_report(_DEMO, v), "guess must have shape (2,)",
             ([1.0, 2.0, 3.0], [[1.0, 2.0]], 1.0)),
            # characteristic_energy used to take a 3-vector and fail on a scalar
            (characteristic_energy, "state must have shape (2,)", ([1.0, 2.0, 3.0], 1.0)),
            (lambda v: TimeSeries(v, v), "times must have shape (n,)", ([[1.0, 2.0]], 1.0)),
            (lambda v: FieldSnapshot(0.0, v, v), "x_grid must have shape (n,)",
             ([[1.0, 2.0]], 1.0)))
        for bad in bads])
    def test_wrong_shapes_refused(self, call, message, bad):
        with pytest.raises(ValidationError, match=re.escape(message + ", got")):
            call(bad)

    def test_float64_arrays_are_not_copied(self):
        values = np.array(_LEVEL)
        assert check_array("v", values) is values
        assert check_array("v", values[::2], (2,)).base is values

    @pytest.mark.parametrize("values, expected", [
        ([1, 2], [1.0, 2.0]), (np.arange(2, dtype=np.int8), [0.0, 1.0]),
        (np.float32(0.5), 0.5), ([1.0, None], [1.0, math.nan]),
        (np.array([1, 2.5], dtype=object), [1.0, 2.5])])
    def test_reals_convert_to_float64(self, values, expected):
        out = check_array("v", values, finite=False)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("values", [
        True, [True, False], np.array([1, "2"], dtype=object), [1.0, [2.0]],
        np.array([1, 1j], dtype=object), [10 ** 400], np.array(["2020-01-01"], dtype="M8[D]")])
    def test_anything_else_is_refused(self, values):
        with pytest.raises(ValidationError, match="^v must be an array of reals: "):
            check_array("v", values, finite=False)

    def test_shape_entries(self):
        assert check_array("v", np.zeros((3, 2)), (None, 2)).shape == (3, 2)
        with pytest.raises(ValidationError, match=re.escape("v must have shape (n, 3), got (3, 2)")):
            check_array("v", np.zeros((3, 2)), (None, 3))
