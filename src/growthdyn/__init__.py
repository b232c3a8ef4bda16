"""growthdyn: growth laws, stability analysis, competition, and field models.

The package splits into closed-form growth models (models), a small ODE
engine (ode), planar fixed-point and competition analysis (dynsys), spatial
field solvers (fields), nonlinear least-squares fitting (fitting), and
time-series I/O (dataio), with a command-line front end (cli).
"""

from types import ModuleType as _ModuleType

from .dataio import (AXES_LINEAR, AXES_LOG_LOG, AXES_LOG_X, AXES_LOG_Y,
                     FORMAT_CSV, FORMAT_JSON, KIND_ANNUAL, KIND_CUMULATIVE,
                     KIND_GENERIC, TimeSeries, cumulate, emit_plot_series,
                     read_csv)
from .dynsys import (CENTER, DEGENERATE, MARGINAL, SADDLE, SPECIES_1_SURVIVES,
                     SPECIES_2_SURVIVES, STABLE_FOCUS, STABLE_NODE,
                     UNSTABLE_FOCUS, UNSTABLE_NODE, CompetitionParams,
                     EigenClassification, ExclusionVerdict, FixedPoint2D,
                     StabilityReport, classify, competition_system,
                     coupled_logistic_demo, exclusion_verdict,
                     find_fixed_point, linearize, stability_report)
from .errors import (DataIOError, DomainError, GrowthDynError, LogAxisError,
                     NonConvergenceError, NumericalError, ParameterError,
                     RankDeficiencyError, RootNotFoundError, StiffnessError,
                     ValidationError)
from .fields import (AdvectionSetup, DiffusionParams, FieldSnapshot,
                     characteristic_energy, characteristic_particle_system,
                     diffusion_point_source, euler_characteristic_phi,
                     euler_terminal_profile, evolve_advection_fd,
                     probe_series)
from .fitting import (EXPONENTIAL, INDETERMINATE, LOGISTIC_FAMILY, LOSS_LINEAR,
                      LOSS_LOG, POWER_LAW, SATURATING_LINEAR,
                      ClassifierVerdict, FitProblem, FitResult, OnsetEstimate,
                      early_growth_classifier, fit, saturation_onset)
from .models import (GeneralizedLogisticParams, PowerLawParams,
                     SaturatingLinearParams, eval_logistic_family,
                     eval_power_law, eval_saturating_linear, terminal_value)
from .ode import (AutonomousSystem, Trajectory, integrate_adaptive,
                  integrate_fixed, interp_states)

__version__ = "0.1.0"

# Every public name bound above, submodules aside.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
__all__.append("__version__")
