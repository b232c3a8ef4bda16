"""Package surface: the derived ``__all__`` lists every public object,
numpy is the only runtime dependency, and every number field of a parameter
record follows one rule."""
import ast
import dataclasses
import inspect
import math
import pathlib
import sys
import types
import typing

import numpy as np
import pytest

import growthdyn
from growthdyn import ParameterError

# sorted growthdyn.__all__
PUBLIC_NAMES = [
    "AXES_LINEAR", "AXES_LOG_LOG", "AXES_LOG_X", "AXES_LOG_Y", "AdvectionSetup",
    "AutonomousSystem", "CENTER", "ClassifierVerdict", "CompetitionParams",
    "DEGENERATE", "DataIOError", "DiffusionParams", "DomainError",
    "EXPONENTIAL", "EigenClassification", "ExclusionVerdict", "FORMAT_CSV",
    "FORMAT_JSON", "FieldSnapshot", "FitProblem", "FitResult", "FixedPoint2D",
    "GeneralizedLogisticParams", "GrowthDynError", "INDETERMINATE",
    "KIND_ANNUAL", "KIND_CUMULATIVE", "KIND_GENERIC", "LOGISTIC_FAMILY",
    "LOSS_LINEAR", "LOSS_LOG", "LogAxisError", "MARGINAL",
    "NonConvergenceError", "NumericalError", "OnsetEstimate", "POWER_LAW",
    "ParameterError", "PowerLawParams", "RankDeficiencyError",
    "SADDLE", "SATURATING_LINEAR", "SPECIES_1_SURVIVES",
    "SPECIES_2_SURVIVES", "STABLE_FOCUS", "STABLE_NODE",
    "SaturatingLinearParams", "StabilityReport", "StiffnessError", "TimeSeries",
    "Trajectory", "UNSTABLE_FOCUS", "UNSTABLE_NODE", "ValidationError",
    "__version__", "characteristic_energy", "characteristic_particle_system",
    "classify", "competition_system", "coupled_logistic_demo", "cumulate",
    "diffusion_point_source", "early_growth_classifier", "emit_plot_series",
    "euler_characteristic_phi", "euler_terminal_profile",
    "eval_logistic_family", "eval_power_law", "eval_saturating_linear",
    "evolve_advection_fd", "exclusion_verdict", "find_fixed_point", "fit",
    "integrate_adaptive", "integrate_fixed", "interp_states", "linearize",
    "probe_series", "read_csv", "saturation_onset", "stability_report",
    "terminal_value",
]

# parameter names of every public function, field names of every public record
PUBLIC_PARAMETERS = {
    "AdvectionSetup": ("c", "phi0", "x_min", "x_max", "n_cells"),
    "AutonomousSystem": ("dimension", "rhs"),
    "ClassifierVerdict": ("verdict", "estimate", "r2_exponential", "r2_power_law",
                          "n_points"),
    "CompetitionParams": ("a1", "a2", "d1", "d2", "b", "c"),
    "DiffusionParams": ("delta",),
    "EigenClassification": ("eigenvalues", "classification", "trace", "determinant"),
    "ExclusionVerdict": ("verdict", "survivor_limit", "ratio"),
    "FieldSnapshot": ("t", "x_grid", "phi"),
    "FitProblem": ("series", "model", "initial_guess", "loss_space", "alpha"),
    "FitResult": ("params", "param_names", "rmse", "iterations", "converged",
                  "terminal_forecast", "jacobian_condition", "model", "loss_space",
                  "alpha", "evaluations"),
    "FixedPoint2D": ("s_c", "r_c", "residual_norm"),
    "GeneralizedLogisticParams": ("a", "b", "alpha", "phi0"),
    "OnsetEstimate": ("half_terminal_time", "terminal_value", "crude_scale"),
    "PowerLawParams": ("a", "beta"),
    "SaturatingLinearParams": ("a", "b"),
    "StabilityReport": ("fixed_point", "jacobian", "eigenvalues", "classification",
                        "trace", "determinant"),
    "TimeSeries": ("times", "values", "label", "kind"),
    "Trajectory": ("times", "states", "meta"),
    "characteristic_energy": ("state",),
    "characteristic_particle_system": (),
    "classify": ("jacobian",),
    "competition_system": ("params",),
    "coupled_logistic_demo": ("a_r", "b_r", "e_rs", "a_s", "b_s", "e_sr"),
    "cumulate": ("s",),
    "diffusion_point_source": ("p", "x", "t"),
    "early_growth_classifier": ("series", "window"),
    "emit_plot_series": ("series", "axes", "out", "format"),
    "euler_characteristic_phi": ("setup", "x", "t"),
    "euler_terminal_profile": ("setup", "x"),
    "eval_logistic_family": ("params", "t"),
    "eval_power_law": ("params", "t"),
    "eval_saturating_linear": ("params", "t"),
    "evolve_advection_fd": ("setup", "t_end", "snapshot_times"),
    "exclusion_verdict": ("params",),
    "find_fixed_point": ("system", "guess", "tol"),
    "fit": ("problem", "tol", "max_iter"),
    "integrate_adaptive": ("system", "y0", "t0", "t1", "rel_tol", "abs_tol"),
    "integrate_fixed": ("system", "y0", "t0", "t1", "dt"),
    "interp_states": ("trajectory", "times"),
    "linearize": ("system", "point"),
    "probe_series": ("snapshots", "x_probe"),
    "read_csv": ("source", "time_col", "value_col", "label", "kind"),
    "saturation_onset": ("series", "fitted"),
    "stability_report": ("system", "guess", "tol"),
    "terminal_value": ("params",),
}


def test_all_names_resolve_and_none_is_a_module():
    assert "__version__" in growthdyn.__all__
    assert len(set(growthdyn.__all__)) == len(growthdyn.__all__)
    for name in growthdyn.__all__:
        assert not isinstance(getattr(growthdyn, name), types.ModuleType), name


def test_public_surface_is_pinned():
    # Adding or removing a public name shows up as an edit here.
    assert sorted(growthdyn.__all__) == PUBLIC_NAMES


def test_public_parameters_are_pinned():
    # Adding or removing an option or a record field shows up as an edit here.
    found = {}
    for name in growthdyn.__all__:
        obj = getattr(growthdyn, name)
        if dataclasses.is_dataclass(obj):
            found[name] = tuple(f.name for f in dataclasses.fields(obj))
        elif inspect.isfunction(obj):
            found[name] = tuple(inspect.signature(obj).parameters)
    assert found == PUBLIC_PARAMETERS


def test_numpy_is_the_only_runtime_dependency():
    # Relative imports stay inside the package; every absolute one must be
    # the standard library or numpy.
    src = pathlib.Path(growthdyn.__file__).parent
    foreign = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert foreign == []



def _names(node):
    """Every name, attribute and imported name that the code under node uses."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            | {n.name for n in ast.walk(node) if isinstance(n, ast.alias)})


def _private_helpers(src):
    """(module file, name) of every module-level private function or class in
    src, and whether code elsewhere in src names it: as a name, an attribute
    or an import.  Docstrings and a helper's own body do not count."""
    defs, named = [], []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None)
            named.append((own, _names(node)))
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and own.startswith("_")
                    and not own.startswith("__")):
                defs.append((path.name, own))
    return [(where, name, any(name in names for own, names in named if own != name))
            for where, name in defs]


def test_every_private_helper_has_a_caller_in_the_package():
    # a helper that only tests call is a second copy of the behaviour the
    # package runs; the tests should drive the one the package uses
    helpers = _private_helpers(pathlib.Path(growthdyn.__file__).parent)
    assert len(helpers) >= 40
    assert [f"{where}: {name}" for where, name, used in helpers if not used] == []


# Public functions that no code in the repository calls, each kept for a reason.
UNCALLED_PUBLIC = {
    "characteristic_energy": "the paper's invariant phi**2/2 - 1/x of the characteristics",
    "diffusion_point_source": "the paper's diffusion kernel",
}


def test_every_public_function_has_a_caller_or_a_reason():
    # a public function that only tests call is surface without a user: it
    # goes, or says here why it stays.  The package's own re-export in
    # __init__ does not count as a caller.
    src = pathlib.Path(growthdyn.__file__).parent
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = [path for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    assert len(paths) >= 15
    named = set().union(*(_names(ast.parse(path.read_text(encoding="utf-8")))
                          for path in paths))
    functions = {name for name in growthdyn.__all__
                 if inspect.isfunction(getattr(growthdyn, name))}
    assert sorted(functions - named) == sorted(UNCALLED_PUBLIC)


def test_every_public_error_is_raised_or_a_base_of_one_that_is():
    # an error class that no raise in the package names, and that no raised
    # class derives from, is surface no input can reach
    src = pathlib.Path(growthdyn.__file__).parent
    raised = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised |= _names(exc)
    errors = {name: getattr(growthdyn, name) for name in growthdyn.__all__
              if isinstance(getattr(growthdyn, name), type)
              and issubclass(getattr(growthdyn, name), BaseException)}
    assert len(errors) >= 10
    unreached = [name for name, cls in errors.items()
                 if not any(issubclass(errors[r], cls) for r in raised & errors.keys())]
    assert unreached == []


# A valid build of every public record that takes numbers as input.
RECORDS = {
    "PowerLawParams": {"a": 2.0, "beta": 0.5},
    "SaturatingLinearParams": {"a": 2.0, "b": 0.5},
    "GeneralizedLogisticParams": {"a": 5.0, "b": 1.0, "alpha": 1, "phi0": 0.5},
    "DiffusionParams": {"delta": 0.5},
    "AdvectionSetup": {"c": 1.5, "phi0": 0.5, "x_min": 1.0, "x_max": 200.0,
                       "n_cells": 64},
    "CompetitionParams": {"a1": 1.0, "a2": 1.5, "d1": 1.0, "d2": 1.0, "b": 1.0, "c": 2.0},
    "FitProblem": {"series": growthdyn.TimeSeries(np.linspace(0.0, 1.0, 8),
                                                  np.linspace(1.0, 2.0, 8)),
                   "model": growthdyn.LOGISTIC_FAMILY, "initial_guess": (1.0, 1.0, 1.0),
                   "alpha": 1},
    "AutonomousSystem": {"dimension": 2, "rhs": lambda y: -y},
    "FieldSnapshot": {"t": 0.5, "x_grid": np.arange(3.0), "phi": np.zeros(3)},
}
# Records the library fills in with what a computation gave, inf and NaN
# included; they take no input and check nothing.
RESULT_RECORDS = {"ClassifierVerdict", "EigenClassification", "ExclusionVerdict",
                  "FitResult", "FixedPoint2D", "OnsetEstimate", "StabilityReport"}


def _build(name, **override):
    return getattr(growthdyn, name)(**{**RECORDS[name], **override})


def _number_fields(cls):
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)
            if hints[f.name] in (float, int)}


def test_every_number_field_follows_the_rule():
    # A new record with a float or int field fails here until it is listed
    # above, and then unless its fields refuse a bool and store a numpy
    # value as the Python number it equals.
    records = {name for name in growthdyn.__all__
               if dataclasses.is_dataclass(getattr(growthdyn, name))
               and _number_fields(getattr(growthdyn, name))}
    assert records - RESULT_RECORDS == set(RECORDS)
    for name in RECORDS:
        for field, kind in _number_fields(getattr(growthdyn, name)).items():
            with pytest.raises(ParameterError, match=rf"\b{field} must be"):
                _build(name, **{field: True})
            value = RECORDS[name][field]
            stored = getattr(_build(name, **{field: (np.int64 if kind is int
                                                     else np.float32)(value)}), field)
            assert type(stored) is kind and stored == value, (name, field)


# (record, field, an integral value it accepts, a value out of its bounds)
_RULE_FIELDS = [
    ("PowerLawParams", "a", 2, 0), ("SaturatingLinearParams", "b", 2, 0),
    ("GeneralizedLogisticParams", "alpha", 2, -1), ("DiffusionParams", "delta", 2, 0),
    ("AdvectionSetup", "c", 2, 0), ("AdvectionSetup", "n_cells", 64, 8),
    ("CompetitionParams", "a1", 2, 0), ("FitProblem", "alpha", 2, -1),
    ("AutonomousSystem", "dimension", 2, 0), ("FieldSnapshot", "t", 2, None),
]
_ACCEPTED = {"int": int, "integral float": float, "np.int64": np.int64,
             "np.float32": np.float32, "np.float64": np.float64}
_REFUSED = {"bool": lambda g: True, "str": str, "None": lambda g: None,
            "nan": lambda g: math.nan, "inf": lambda g: math.inf,
            "10**400": lambda g: 10 ** 400}


def _rule_cases():
    for name, field, good, out in _RULE_FIELDS:
        is_float = _number_fields(getattr(growthdyn, name))[field] is float
        cases = [(case, make(good), True) for case, make in _ACCEPTED.items()]
        cases += [(case, make(good), False) for case, make in _REFUSED.items()]
        cases += [("fraction", good + 0.5, is_float)]  # an int field takes none
        cases += [("out of bounds", out, False)] if out is not None else []
        for case, value, accepted in cases:
            yield pytest.param(name, field, value, accepted, id=f"{name}.{field}-{case}")


@pytest.mark.parametrize("name, field, value, accepted", _rule_cases())
def test_number_rule(name, field, value, accepted):
    # accepted and stored as the Python float or int it equals, or refused
    if accepted:
        stored = getattr(_build(name, **{field: value}), field)
        assert type(stored) is _number_fields(getattr(growthdyn, name))[field]
        assert stored == value
    else:
        with pytest.raises(ParameterError, match=rf"\b{field} must be"):
            _build(name, **{field: value})
