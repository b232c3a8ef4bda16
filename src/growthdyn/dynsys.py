"""Fixed points, linear stability, and two-species competition.

The analysis pipeline is: locate an equilibrium of a planar autonomous system
(Levenberg-Marquardt), linearize around it (central finite differences), and
classify the linearization by its eigenvalue pair

    lambda = 0.5 * [(A + D) +/- sqrt((A + D)**2 - 4*(A*D - B*C))]

using the standard trace/determinant taxonomy.  The module also ships the
shared-resource competition system

    dphi1/dt = [a1 - d1*(b*phi1 + c*phi2)] * phi1
    dphi2/dt = [a2 - d2*(b*phi1 + c*phi2)] * phi2

whose outcome is decided by the sign of a1*d2 - a2*d1: the species with the
larger rate-to-coupling ratio excludes the other and settles at a_i/(d_i*w),
w being its own resource weight.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (NonConvergenceError, NumericalError, ParameterError,
                     ValidationError)
from .fitting import _lm_once
from .ode import AutonomousSystem

STABLE_NODE = "stable node"
UNSTABLE_NODE = "unstable node"
SADDLE = "saddle"
STABLE_FOCUS = "stable focus"
UNSTABLE_FOCUS = "unstable focus"
CENTER = "center"
DEGENERATE = "degenerate"

SPECIES_1_SURVIVES = "species-1-survives"
SPECIES_2_SURVIVES = "species-2-survives"
MARGINAL = "marginal"

_DET_TOL = 1e-12     # |det| below this is treated as singular
_DESCENT_TOL = 1e-12  # fixed-point descent stop; tol itself bounds |rhs| afterwards
_REPEAT_TOL = 1e-9   # eigenvalue gap below this counts as repeated


@dataclass(frozen=True)
class FixedPoint2D:
    """An equilibrium of a planar system."""

    s_c: float             # first state coordinate at the equilibrium
    r_c: float             # second state coordinate at the equilibrium
    residual_norm: float   # |rhs| at the point (Euclidean)

    def as_array(self):
        return np.array([self.s_c, self.r_c])


@dataclass(frozen=True)
class EigenClassification:
    """Eigenvalue pair and taxonomy label for a 2x2 Jacobian."""

    eigenvalues: tuple
    classification: str
    trace: float
    determinant: float


@dataclass(frozen=True)
class StabilityReport:
    fixed_point: FixedPoint2D
    jacobian: tuple          # (A, B, C, D), row-major
    eigenvalues: tuple       # (lambda1, lambda2), complex
    classification: str
    trace: float
    determinant: float


@dataclass(frozen=True)
class CompetitionParams:
    """Two species competing for one shared resource, all rates positive."""

    a1: float  # intrinsic rate of species 1
    a2: float  # intrinsic rate of species 2
    d1: float  # coupling of species 1 to the resource level
    d2: float  # coupling of species 2 to the resource level
    b: float   # resource weight of species 1
    c: float   # resource weight of species 2

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ParameterError(f"competition parameter {f.name} must be > 0, got {v!r}")


@dataclass(frozen=True)
class ExclusionVerdict:
    verdict: str                  # SPECIES_1_SURVIVES / SPECIES_2_SURVIVES / MARGINAL
    survivor_limit: float | None  # a_i/(d_i*w) for the survivor; None when marginal
    ratio: float                  # a1*d2 / (a2*d1)


def _as_point(point):
    if isinstance(point, FixedPoint2D):
        return point.as_array()
    arr = np.asarray(point, dtype=float)
    if arr.shape != (2,):
        raise ValidationError(f"expected a 2-vector, got shape {arr.shape}")
    return arr


def _fd_jacobian(rhs, x, h=None):
    """Central-difference Jacobian, O(h^2), default h_i = 1e-6*(1 + |x_i|)."""
    n = x.size
    jac = np.empty((n, n))
    for j in range(n):
        hj = h if h is not None else 1e-6 * (1.0 + abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += hj
        xm[j] -= hj
        fp = np.asarray(rhs(xp), dtype=float)
        fm = np.asarray(rhs(xm), dtype=float)
        if not (np.isfinite(fp).all() and np.isfinite(fm).all()):
            raise NumericalError(f"non-finite rhs near {x.tolist()} while differencing")
        jac[:, j] = (fp - fm) / (2.0 * hj)
    return jac


def find_fixed_point(system: AutonomousSystem, guess, tol: float = 1e-10,
                     max_iter: int = 100) -> FixedPoint2D:
    """Levenberg-Marquardt search for rhs(x) = 0 near the guess.

    The fits' descent runs on rhs(x) in the state's own coordinates, with
    linearize's central differences as its Jacobian, until its steps stop
    reducing |rhs|.  Its last iterate is the equilibrium if |rhs| <= tol
    there, else NonConvergenceError carries it as ``best``.
    """
    if system.dimension != 2:
        raise ValidationError("fixed-point search is implemented for planar systems")
    if not tol > 0:
        raise ValidationError(f"tol must be positive, got {tol}")

    def residual(x):
        f = np.asarray(system.rhs(x), dtype=float)
        return (f, None) if np.isfinite(f).all() else None

    x = _as_point(guess)
    x, point, iters, _, _ = _lm_once(
        residual, lambda x, _: _fd_jacobian(system.rhs, x), x, residual(x),
        (-math.inf, math.inf), _DESCENT_TOL, max_iter)
    norm = float(np.linalg.norm(point[0])) if point is not None else math.inf
    if norm <= tol:
        return FixedPoint2D(float(x[0]), float(x[1]), norm)
    raise NonConvergenceError(
        f"no root within tol {tol:.1e} after {iters} iterations "
        f"(best residual {norm:.3e} at {x.tolist()})", best=x)


def linearize(system: AutonomousSystem, point, h: float | None = None) -> tuple:
    """Jacobian entries (A, B, C, D) at a point by central differences.

    A = d(rhs_1)/dx_1, B = d(rhs_1)/dx_2, C = d(rhs_2)/dx_1, D = d(rhs_2)/dx_2,
    each with O(h^2) truncation error; h defaults to 1e-6*(1 + |coordinate|).
    """
    if h is not None and not h > 0:
        raise ValidationError(f"h must be positive, got {h}")
    x = _as_point(point)
    jac = _fd_jacobian(system.rhs, x, h)
    return (float(jac[0, 0]), float(jac[0, 1]), float(jac[1, 0]), float(jac[1, 1]))


def classify(jacobian) -> EigenClassification:
    """Eigenvalues and stability label of a 2x2 Jacobian (A, B, C, D).

    Labels follow the trace/determinant taxonomy.  "degenerate" covers a
    determinant that vanishes within 1e-12 and repeated eigenvalues (within
    1e-9) on a defective matrix; a scalar matrix (B = C = 0, A = D) is a
    proper star and keeps its node label.
    """
    a, b, c, d = (float(v) for v in jacobian)
    for v in (a, b, c, d):
        if not math.isfinite(v):
            raise ValidationError(f"Jacobian entries must be finite, got {jacobian!r}")
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4.0 * det
    root = cmath.sqrt(complex(disc, 0.0))
    lam1 = 0.5 * (tr + root)
    lam2 = 0.5 * (tr - root)

    if abs(det) <= _DET_TOL:
        label = DEGENERATE
    elif det < 0:
        label = SADDLE
    elif abs(lam1 - lam2) <= _REPEAT_TOL:
        # Repeated eigenvalues: a (near-)scalar matrix is a proper star node;
        # anything else is defective and lands in the degenerate bucket.
        scale = max(abs(a), abs(b), abs(c), abs(d))
        near_scalar = (abs(b) <= _REPEAT_TOL * scale
                       and abs(c) <= _REPEAT_TOL * scale
                       and abs(a - d) <= _REPEAT_TOL * scale)
        if near_scalar:
            label = STABLE_NODE if tr < 0 else UNSTABLE_NODE
        else:
            label = DEGENERATE
    elif disc < 0:
        if abs(tr) <= _REPEAT_TOL:
            label = CENTER
        elif tr < 0:
            label = STABLE_FOCUS
        else:
            label = UNSTABLE_FOCUS
    else:
        label = STABLE_NODE if tr < 0 else UNSTABLE_NODE
    return EigenClassification(eigenvalues=(lam1, lam2), classification=label,
                               trace=tr, determinant=det)


def stability_report(system: AutonomousSystem, guess, tol: float = 1e-10,
                     h: float | None = None) -> StabilityReport:
    """Locate, linearize, and classify an equilibrium in one call."""
    fp = find_fixed_point(system, guess, tol=tol)
    jac = linearize(system, fp, h=h)
    eig = classify(jac)
    return StabilityReport(fixed_point=fp, jacobian=jac,
                           eigenvalues=eig.eigenvalues,
                           classification=eig.classification,
                           trace=eig.trace, determinant=eig.determinant)


def competition_system(params: CompetitionParams) -> AutonomousSystem:
    """The two-species shared-resource competition equations as a system."""
    a1, a2, d1, d2, b, c = (params.a1, params.a2, params.d1, params.d2,
                            params.b, params.c)

    def rhs(state):
        resource = b * state[0] + c * state[1]
        return np.array([(a1 - d1 * resource) * state[0],
                         (a2 - d2 * resource) * state[1]])

    return AutonomousSystem(dimension=2, rhs=rhs)


def exclusion_verdict(params: CompetitionParams) -> ExclusionVerdict:
    """Predict the competition outcome without integrating.

    Species 1 survives iff a1*d2 > a2*d1 (ties within 1e-12 relative are
    marginal); the survivor settles at a_i/(d_i * w) with w its own resource
    weight (b for species 1, c for species 2).
    """
    lhs = params.a1 * params.d2
    rhs = params.a2 * params.d1
    if abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs)):
        return ExclusionVerdict(MARGINAL, None, lhs / rhs)
    if lhs > rhs:
        return ExclusionVerdict(SPECIES_1_SURVIVES, params.a1 / (params.d1 * params.b),
                                lhs / rhs)
    return ExclusionVerdict(SPECIES_2_SURVIVES, params.a2 / (params.d2 * params.c),
                            lhs / rhs)


def coupled_logistic_demo(a_r: float = 1.0, b_r: float = 1.0, e_rs: float = 0.5,
                          a_s: float = 1.0, b_s: float = 1.0,
                          e_sr: float = 0.5) -> AutonomousSystem:
    """Demo system for exercising the analysis pipeline.

        dR/dt = R * (a_r - b_r*R + e_rs*S)
        dS/dt = S * (a_s - b_s*S + e_sr*R)

    With the default parameters the interior equilibrium sits at (2, 2) and is
    a stable node (eigenvalues -1 and -3).
    """
    def rhs(state):
        r, s = state
        return np.array([r * (a_r - b_r * r + e_rs * s),
                         s * (a_s - b_s * s + e_sr * r)])

    return AutonomousSystem(dimension=2, rhs=rhs)
