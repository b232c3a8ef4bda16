"""Package surface: the derived ``__all__`` lists every public object."""
import types

import growthdyn

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
    "RootNotFoundError", "SADDLE", "SATURATING_LINEAR", "SPECIES_1_SURVIVES",
    "SPECIES_2_SURVIVES", "STABLE_FOCUS", "STABLE_NODE",
    "SaturatingLinearParams", "StabilityReport", "StiffnessError", "TimeSeries",
    "Trajectory", "UNSTABLE_FOCUS", "UNSTABLE_NODE", "ValidationError",
    "__version__", "characteristic_energy", "characteristic_particle_system",
    "classify", "competition_system", "coupled_logistic_demo", "cumulate",
    "diffusion_point_source", "early_growth_classifier", "early_time_approx",
    "emit_plot_series", "euler_characteristic_phi", "euler_terminal_profile",
    "eval_logistic_family", "eval_power_law", "eval_saturating_linear",
    "evolve_advection_fd", "exclusion_verdict", "find_fixed_point", "fit",
    "integrate_adaptive", "integrate_fixed", "interp_states", "linearize",
    "probe_series", "read_csv", "saturation_onset", "stability_report",
    "terminal_value",
]


def test_all_names_resolve_and_none_is_a_module():
    assert "__version__" in growthdyn.__all__
    assert len(set(growthdyn.__all__)) == len(growthdyn.__all__)
    for name in growthdyn.__all__:
        assert not isinstance(getattr(growthdyn, name), types.ModuleType), name


def test_public_surface_is_pinned():
    # Adding or removing a public name shows up as an edit here.
    assert sorted(growthdyn.__all__) == PUBLIC_NAMES
