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
from dataclasses import dataclass

import numpy as np

from .errors import (NonConvergenceError, NumericalError, ValidationError,
                     check_array, check_number, check_record)
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

_DET_TOL = 1e-12     # |det| below this times s**2 is singular (s: largest |entry|)
_DESCENT_TOL = 1e-12  # fixed-point descent stop; tol itself bounds |rhs| afterwards
_REPEAT_TOL = 1e-9   # an eigenvalue gap below this times s counts as repeated


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
        check_record(self, positive=("a1", "a2", "d1", "d2", "b", "c"))


@dataclass(frozen=True)
class ExclusionVerdict:
    verdict: str                  # SPECIES_1_SURVIVES / SPECIES_2_SURVIVES / MARGINAL
    survivor_limit: float | None  # a_i/(d_i*w) for the survivor; None when marginal
    ratio: float                  # a1*d2 / (a2*d1)


def _as_point(name, point):
    return point.as_array() if isinstance(point, FixedPoint2D) else check_array(name, point, (2,))


def _fd_jacobian(rhs, x):
    """Central-difference Jacobian, O(h^2) in the step h_j = 1e-6*(1 + |x_j|)."""
    n = x.size
    jac = np.empty((n, n))
    for j in range(n):
        hj = 1e-6 * (1.0 + abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += hj
        xm[j] -= hj
        fp, fm = (check_array("rhs output", rhs(v), x.shape, finite=False) for v in (xp, xm))
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
    tol = check_number("tol", tol, float, ">")
    max_iter = check_number("max_iter", max_iter, int, ">")

    def residual(x):
        f = check_array("rhs output", system.rhs(x), x.shape, finite=False)
        return (f, None) if np.isfinite(f).all() else None

    x = _as_point("guess", guess)
    with np.errstate(all="ignore"):  # as in the integrators: inf/NaN stop the descent
        x, point, iters, _, _ = _lm_once(
            residual, lambda x, _: _fd_jacobian(system.rhs, x), x, residual(x),
            _DESCENT_TOL, max_iter)
        norm = float(np.linalg.norm(point[0])) if point is not None else math.inf
    if norm <= tol:
        return FixedPoint2D(float(x[0]), float(x[1]), norm)
    raise NonConvergenceError(
        f"no root within tol {tol:.1e} after {iters} iterations "
        f"(best residual {norm:.3e} at {x.tolist()})", best=x)


def linearize(system: AutonomousSystem, point) -> tuple:
    """Jacobian entries (A, B, C, D) at a point by central differences.

    A = d(rhs_1)/dx_1, B = d(rhs_1)/dx_2, C = d(rhs_2)/dx_1, D = d(rhs_2)/dx_2,
    each with O(h^2) truncation error in the step h = 1e-6*(1 + |coordinate|).
    """
    x = _as_point("point", point)
    with np.errstate(all="ignore"):  # as in the integrators: the check catches inf/NaN
        jac = _fd_jacobian(system.rhs, x)
    return (float(jac[0, 0]), float(jac[0, 1]), float(jac[1, 0]), float(jac[1, 1]))


def _spectrum(a, b, c, d):
    """Trace, determinant, discriminant and eigenvalue pair of (A, B, C, D)."""
    tr = a + d
    det = a * d - b * c
    disc = tr * tr - 4.0 * det
    root = cmath.sqrt(complex(disc, 0.0))
    return tr, det, disc, 0.5 * (tr + root), 0.5 * (tr - root)


def _label(a, b, c, d):
    """Taxonomy label, with tolerances relative to the largest |entry|."""
    tr, det, disc, lam1, lam2 = _spectrum(a, b, c, d)
    scale = max(abs(a), abs(b), abs(c), abs(d))
    close = _REPEAT_TOL * scale
    if abs(det) <= _DET_TOL * scale * scale:
        return DEGENERATE
    if det < 0:
        return SADDLE
    if abs(lam1 - lam2) <= close:
        # Repeated eigenvalues: a (near-)scalar matrix is a proper star node;
        # anything else is defective and lands in the degenerate bucket.
        if abs(b) <= close and abs(c) <= close and abs(a - d) <= close:
            return STABLE_NODE if tr < 0 else UNSTABLE_NODE
        return DEGENERATE
    if disc < 0:
        if abs(tr) <= close:
            return CENTER
        return STABLE_FOCUS if tr < 0 else UNSTABLE_FOCUS
    return STABLE_NODE if tr < 0 else UNSTABLE_NODE


def classify(jacobian) -> EigenClassification:
    """Eigenvalues and stability label of a 2x2 Jacobian (A, B, C, D).

    Labels follow the trace/determinant taxonomy, with tolerances relative
    to the largest entry magnitude s.  "degenerate" covers a determinant
    within 1e-12*s**2 of 0 and repeated eigenvalues (within 1e-9*s) on a
    defective matrix; a scalar matrix (B = C = 0, A = D) is a proper star
    and keeps its node label.  A focus whose trace is within 1e-9*s of 0 is
    a center.  The label is scale-free over the whole float range: it is
    taken from the entries scaled by the power of two that brings s into
    [0.5, 1), which is exact, so a system's label does not depend on its
    time unit.  Trace, determinant and eigenvalues are reported unscaled,
    and read inf, NaN or 0 where they leave float64.
    """
    a, b, c, d = (check_number("Jacobian entry", v) for v in jacobian)
    tr, det, _, lam1, lam2 = _spectrum(a, b, c, d)
    e = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
    label = _label(*(math.ldexp(v, -e) for v in (a, b, c, d)))
    return EigenClassification(eigenvalues=(lam1, lam2), classification=label,
                               trace=tr, determinant=det)


def stability_report(system: AutonomousSystem, guess, tol: float = 1e-10) -> StabilityReport:
    """Locate, linearize, and classify an equilibrium in one call."""
    fp = find_fixed_point(system, guess, tol=tol)
    jac = linearize(system, fp)
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
    weight (b for species 1, c for species 2).  Where a product leaves the
    normal float64 range, both are compared as their mantissa products times
    powers of two, scaled by one power of two so the larger lies in
    [0.25, 1).  The ratio and the limit read inf or 0 where they leave float64.
    """
    lhs, rhs = params.a1 * params.d2, params.a2 * params.d1
    if not (2.0 ** -1022 <= min(lhs, rhs) and max(lhs, rhs) < math.inf):
        (m1, e1), (m2, e2) = ((u * v, i + j) for (u, i), (v, j) in (
            (math.frexp(params.a1), math.frexp(params.d2)),
            (math.frexp(params.a2), math.frexp(params.d1))))
        e = max(e1, e2)
        lhs, rhs = math.ldexp(m1, e1 - e), math.ldexp(m2, e2 - e)
    ratio = lhs / rhs if rhs else math.inf
    if abs(lhs - rhs) <= 1e-12 * max(lhs, rhs):
        return ExclusionVerdict(MARGINAL, None, ratio)
    if lhs > rhs:
        return ExclusionVerdict(SPECIES_1_SURVIVES, _limit(params.a1, params.d1, params.b),
                                ratio)
    return ExclusionVerdict(SPECIES_2_SURVIVES, _limit(params.a2, params.d2, params.c),
                            ratio)


def _limit(a, d, w):
    """a/(d*w), dividing in turn where d*w leaves the normal float64 range."""
    return a / (d * w) if 2.0 ** -1022 <= d * w < math.inf else a / d / w


def coupled_logistic_demo(a_r: float = 1.0, b_r: float = 1.0, e_rs: float = 0.5,
                          a_s: float = 1.0, b_s: float = 1.0,
                          e_sr: float = 0.5) -> AutonomousSystem:
    """Demo system for exercising the analysis pipeline.

        dR/dt = R * (a_r - b_r*R + e_rs*S)
        dS/dt = S * (a_s - b_s*S + e_sr*R)

    With the default parameters the interior equilibrium sits at (2, 2) and is
    a stable node (eigenvalues -1 and -3).
    """
    a_r, b_r, e_rs, a_s, b_s, e_sr = (check_number(name, v) for name, v in zip(
        ("a_r", "b_r", "e_rs", "a_s", "b_s", "e_sr"), (a_r, b_r, e_rs, a_s, b_s, e_sr)))
    def rhs(state):
        r, s = state
        return np.array([r * (a_r - b_r * r + e_rs * s),
                         s * (a_s - b_s * s + e_sr * r)])

    return AutonomousSystem(dimension=2, rhs=rhs)
