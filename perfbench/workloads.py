"""Seeded job lists, job runners and the correctness oracle.

A workload is a fixed list of jobs drawn from ``--seed``.  Every job is a
``Job(kind, args)``: ``args`` holds only generated numbers, arrays and file
paths, and ``RUNNERS[kind](args)`` turns them into calls on the public
``growthdyn`` API or the in-process CLI.  ``CHECKS[kind](args, output)``
is the oracle: it runs after the timed loop, compares the output with the
generating truth or with an independent closed form, and returns ``None``
when the output is right or a one-line reason when it is not.

Two workloads split the package's modules between them: ``fit-io`` mixes
closed-form fits with in-process CLI runs (fitting, closed-form models,
dataio, cli) and ``ode-field`` mixes the ODE-backed, competition, particle
and stability jobs with field marches and root grids (ode, dynsys,
ODE-backed models, fields).  Each module that one workload exercises, the
other leaves alone, except ``models`` (both) and ``dynsys`` (``analyze``).

The cost-driving sizes (series length, grid size, integration span) are
stratified over their ranges and each job type appears a fixed number of
times per list, so two seeds give job lists of nearly the same total cost.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import growthdyn as gd
import growthdyn.cli  # noqa: F401  (binds gd.cli for the CLI jobs)

WORKLOADS = ("fit-io", "ode-field")

# Oracle tolerances, stated once.
FIT_PARAM_RTOL = 0.10       # fitted parameter vs generating truth, 1% noise
FIT_BETA_ATOL = 0.05        # power-law exponent (optimized linearly)
FIT_ONSET_RTOL = 0.10       # half-terminal time vs truth
ODE_EVAL_RTOL = 1e-7        # alpha >= 3 curve vs the Bernoulli closed form
COMPETE_RTOL = 1e-6         # survivor vs a_i/(d_i w); loser below this share
ENERGY_RTOL = 1e-6          # RK4 drift of phi**2/2 - 1/x
FIXED_POINT_ATOL = 1e-8     # located equilibrium vs the closed form
ROOT_RESIDUAL_RTOL = 1e-9   # |g(root)| relative to 2/x
MARCH_TERMINAL_RTOL = 0.10  # probed |phi| at t_end vs sqrt(2/x), coarsest grid
MARCH_MONOTONE_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class Job:
    kind: str
    args: dict


def _strata(rng, n, lo, hi, pairing, integer=False, log=False):
    """n values, one drawn in each equal-width stratum of [lo, hi].

    The seed moves each value within its stratum only.  Which stratum the
    k-th job of a kind gets is a fixed permutation named by ``pairing``,
    the same for every seed, so two sizes of one job (cells and span, say)
    pair up the same way for every seed and the cost of a list hardly
    changes between seeds.  ``log`` spaces the strata evenly in log(value).
    """
    u = (np.arange(n) + rng.uniform(size=n)) / n
    u = u[np.random.default_rng(pairing).permutation(n)]
    if log:
        vals = lo * (hi / lo) ** u
    else:
        vals = lo + u * (hi - lo)
    return [int(round(v)) for v in vals] if integer else [float(v) for v in vals]


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _interleave(groups, rng):
    """Flatten per-kind job lists into one seeded order."""
    jobs = [job for group in groups for job in group]
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


# ------------------------------------------------------------------- fits

FIT_KINDS = (
    # (model, alpha, loss space, jobs per list)
    (gd.POWER_LAW, 1, gd.LOSS_LOG, 50),
    (gd.SATURATING_LINEAR, 1, gd.LOSS_LINEAR, 50),
    (gd.LOGISTIC_FAMILY, 1, gd.LOSS_LINEAR, 50),
    (gd.LOGISTIC_FAMILY, 2, gd.LOSS_LINEAR, 50),
)
# At the defaults (tol=1e-10, max_iter=200) about 30% of the eight starts
# stall at the noise floor until the cap, so a fit's cost is a binomial
# count of stalled starts (20-350 ms) and ~100 fits per run cannot average
# it out.  A tolerance matched to 1%-noise data and a cap of 40 (converging
# starts need 5-25 steps) make fits ten times cheaper and far less erratic.
FIT_TOL = 1e-6
FIT_MAX_ITER = 40


def _logistic_curve(a, b, alpha, phi0, t):
    """Closed form of dphi/dt = phi*(a - b*phi**alpha) for any alpha >= 1.

    u = phi**-alpha obeys du/dt = -alpha*a*u + alpha*b (a Bernoulli
    equation), so u relaxes exponentially to b/a.
    """
    u = b / a + (phi0 ** -alpha - b / a) * np.exp(-alpha * a * np.asarray(t, dtype=float))
    return u ** (-1.0 / alpha)


def _logistic_half_time(a, b, alpha, phi0):
    """Time for the closed-form curve to reach half its terminal level."""
    k = b / a
    return math.log((phi0 ** -alpha - k) / ((2.0 ** alpha - 1.0) * k)) / (alpha * a)


def _fit_job(rng, model, alpha, loss, n, distance):
    if model == gd.POWER_LAW:
        truth = (_log_uniform(rng, 0.5, 5.0), float(rng.uniform(0.5, 2.5)))
        t = np.linspace(float(rng.uniform(0.2, 1.0)), float(rng.uniform(30.0, 60.0)), n)
        clean = truth[0] * t ** truth[1]
    elif model == gd.SATURATING_LINEAR:
        truth = (_log_uniform(rng, 1.0, 10.0), _log_uniform(rng, 0.2, 2.0))
        t = np.linspace(0.0, float(rng.uniform(3.0, 6.0)) / truth[1], n)
        clean = (truth[0] / truth[1]) * (1.0 - np.exp(-truth[1] * t))
    else:
        a = _log_uniform(rng, 0.5, 2.0)
        level = _log_uniform(rng, 2.0, 20.0)
        phi0 = level * _log_uniform(rng, 0.01, 0.05)
        b = a / level ** alpha
        truth = (a, b, phi0)
        span = (math.log(level / phi0) + float(rng.uniform(2.0, 4.0))) / a
        t = np.linspace(0.0, span, n)
        clean = _logistic_curve(a, b, alpha, phi0, t)
    values = clean * (1.0 + 0.01 * rng.standard_normal(n))
    # Start at a seeded distance from the truth: log-space for positive
    # parameters, linear for the power-law exponent.
    signs = rng.choice((-1.0, 1.0), size=len(truth))
    guess = []
    for i, (p, s) in enumerate(zip(truth, signs)):
        if model == gd.POWER_LAW and i == 1:
            guess.append(p + 0.5 * distance * s)
        else:
            guess.append(p * math.exp(distance * s))
    return Job("fit", {"model": model, "alpha": alpha, "loss": loss,
                       "times": t, "values": values, "truth": truth,
                       "guess": tuple(guess)})


def _gen_fits(rng, scale):
    groups = []
    for model, alpha, loss, count in FIT_KINDS:
        count = max(1, round(count * scale))
        sizes = _strata(rng, count, 40, 400, 1, integer=True)
        distances = _strata(rng, count, 0.05, 0.4, 2)
        groups.append([_fit_job(rng, model, alpha, loss, n, d)
                       for n, d in zip(sizes, distances)])
    return groups


def run_fit(a):
    series = gd.TimeSeries(a["times"], a["values"], kind=gd.KIND_GENERIC)
    problem = gd.FitProblem(series, a["model"], a["guess"],
                            loss_space=a["loss"], alpha=a["alpha"])
    result = gd.fit(problem, tol=FIT_TOL, max_iter=FIT_MAX_ITER)
    onset = None
    if a["model"] != gd.POWER_LAW:
        onset = gd.saturation_onset(series, result)
    return result, onset


def check_fit(a, out):
    result, onset = out
    if not result.converged:
        return "fit did not converge"
    truth = a["truth"]
    for i, (name, got, want) in enumerate(zip(result.param_names, result.params, truth)):
        if a["model"] == gd.POWER_LAW and i == 1:
            if abs(got - want) > FIT_BETA_ATOL:
                return f"beta {got:.6g} vs truth {want:.6g}"
        elif abs(got - want) > FIT_PARAM_RTOL * abs(want):
            return f"{name} {got:.6g} vs truth {want:.6g}"
    if a["model"] == gd.SATURATING_LINEAR:
        want_onset = math.log(2.0) / truth[1]
    elif a["model"] == gd.LOGISTIC_FAMILY:
        want_onset = _logistic_half_time(truth[0], truth[1], a["alpha"], truth[2])
    else:
        return None
    if abs(onset.half_terminal_time - want_onset) > FIT_ONSET_RTOL * want_onset:
        return f"half-terminal time {onset.half_terminal_time:.6g} vs {want_onset:.6g}"
    return None


# -------------------------------------------------------------------- ode

# With the field jobs below, these shares put p50 among the compete,
# alpha >= 3 and march costs and p90 among the particle runs, the largest
# marches and the longest alpha >= 3 curves, never on a gap between kinds.
ODE_COUNTS = {"logistic-ode": 40, "compete": 28, "particle": 28, "stability": 20}


def _gen_ode(rng, scale):
    counts = {k: max(1, round(v * scale)) for k, v in ODE_COUNTS.items()}
    groups = []

    n = counts["logistic-ode"]
    jobs = []
    for i, (points, start) in enumerate(zip(_strata(rng, n, 20, 120, 1, integer=True),
                                            _strata(rng, n, 0.02, 0.2, 2, log=True))):
        a = _log_uniform(rng, 0.5, 2.0)
        level = _log_uniform(rng, 1.5, 5.0)
        alpha = 3 + i % 2
        phi0 = level * start
        span = (math.log(level / phi0) + 3.0) / a
        # One sample time per equal slice of the span.
        times = span * (np.arange(points) + rng.uniform(size=points)) / points
        jobs.append(Job("logistic-ode", {"a": a, "b": a / level ** alpha,
                                         "alpha": alpha, "phi0": phi0,
                                         "times": times}))
    groups.append(jobs)

    n = counts["compete"]
    jobs = []
    # The run lasts 60 time units of the slower species, so its step count
    # grows with the ratio of the two growth rates: stratify that ratio.
    for points, spread in zip(_strata(rng, n, 200, 1000, 1, integer=True),
                              _strata(rng, n, 1.0, 3.5, 2, log=True)):
        slow = _log_uniform(rng, 0.5, 2.0 / spread)
        a1, a2 = (slow, slow * spread) if rng.uniform() < 0.5 else (slow * spread, slow)
        while True:
            d1, d2, b, c = (_log_uniform(rng, 0.5, 2.0) for _ in range(4))
            ratio = a1 * d2 / (a2 * d1)
            if ratio > 1.5 or ratio < 1 / 1.5:
                break
        init = tuple(float(v) for v in rng.uniform(0.1, 1.0, 2))
        jobs.append(Job("compete", {"params": (a1, a2, d1, d2, b, c), "init": init,
                                    "t_end": 60.0 / min(a1, a2), "points": points}))
    groups.append(jobs)

    n = counts["particle"]
    jobs = []
    for steps in _strata(rng, n, 1000, 4000, 1, integer=True):
        x0 = float(rng.uniform(1.0, 4.0))
        v0 = math.sqrt(2.0 / x0) * float(rng.uniform(1.05, 1.5))
        jobs.append(Job("particle", {"state": (x0, v0),
                                     "t_end": float(rng.uniform(20.0, 60.0)),
                                     "steps": steps}))
    groups.append(jobs)

    n = counts["stability"]
    groups.append([_stability_job(rng) for _ in range(n)])
    return groups


def _stability_label(tr, det):
    if det < 0:
        return gd.SADDLE
    if tr * tr - 4.0 * det < 0:
        return gd.STABLE_FOCUS if tr < 0 else gd.UNSTABLE_FOCUS
    return gd.STABLE_NODE if tr < 0 else gd.UNSTABLE_NODE


def _stability_job(rng):
    """Coupled logistic system with a chosen interior equilibrium (R, S).

    The rates are solved from the equilibrium, and the draw is repeated
    until the determinant and discriminant are clear of zero, so the
    analytic label is unambiguous.
    """
    while True:
        r_eq, s_eq = (float(v) for v in rng.uniform(0.5, 3.0, 2))
        b_r, b_s = (float(v) for v in rng.uniform(0.5, 2.0, 2))
        e_rs, e_sr = (float(v) for v in rng.uniform(-1.5, 1.5, 2))
        jac = np.array([[-b_r * r_eq, e_rs * r_eq], [e_sr * s_eq, -b_s * s_eq]])
        tr = float(np.trace(jac))
        det = float(np.linalg.det(jac))
        if abs(b_r * b_s - e_rs * e_sr) > 0.2 and abs(tr * tr - 4 * det) > 0.05 * tr * tr:
            break
    rates = (b_r * r_eq - e_rs * s_eq, b_r, e_rs, b_s * s_eq - e_sr * r_eq, b_s, e_sr)
    guess = (r_eq * (1 + float(rng.uniform(-0.1, 0.1))),
             s_eq * (1 + float(rng.uniform(-0.1, 0.1))))
    return Job("stability", {"rates": rates, "guess": guess,
                             "equilibrium": (r_eq, s_eq),
                             "label": _stability_label(tr, det)})


def run_logistic_ode(a):
    record = gd.GeneralizedLogisticParams(a=a["a"], b=a["b"], alpha=a["alpha"],
                                          phi0=a["phi0"])
    return gd.eval_logistic_family(record, a["times"])


def check_logistic_ode(a, out):
    want = _logistic_curve(a["a"], a["b"], a["alpha"], a["phi0"], a["times"])
    err = float(np.max(np.abs(out - want) / want))
    return None if err <= ODE_EVAL_RTOL else f"max rel error {err:.3e}"


def run_compete(a):
    params = gd.CompetitionParams(*a["params"])
    traj = gd.integrate_adaptive(gd.competition_system(params), np.array(a["init"]),
                                 0.0, a["t_end"], rel_tol=1e-10, abs_tol=1e-12)
    states = gd.interp_states(traj, np.linspace(0.0, a["t_end"], a["points"]))
    return states, gd.exclusion_verdict(params)


def check_compete(a, out):
    states, verdict = out
    a1, a2, d1, d2, b, c = a["params"]
    if a1 * d2 > a2 * d1:
        want, survivor, limit = gd.SPECIES_1_SURVIVES, 0, a1 / (d1 * b)
    else:
        want, survivor, limit = gd.SPECIES_2_SURVIVES, 1, a2 / (d2 * c)
    if verdict.verdict != want:
        return f"verdict {verdict.verdict} vs analytic {want}"
    if abs(verdict.survivor_limit - limit) > 1e-12 * limit:
        return "survivor limit disagrees with a_i/(d_i w)"
    final = states[-1]
    if abs(final[survivor] - limit) > COMPETE_RTOL * limit:
        return f"survivor settles at {final[survivor]:.9g}, limit {limit:.9g}"
    if final[1 - survivor] > COMPETE_RTOL * limit:
        return f"loser still at {final[1 - survivor]:.3e}"
    return None


def run_particle(a):
    return gd.integrate_fixed(gd.characteristic_particle_system(), np.array(a["state"]),
                              0.0, a["t_end"], a["t_end"] / a["steps"])


def _energy(state):
    return 0.5 * state[1] ** 2 - 1.0 / state[0]


def check_particle(a, traj):
    e0 = _energy(traj.states[0])
    e1 = _energy(traj.states[-1])
    scale = abs(e0) + 1.0 / traj.states[0][0]
    if abs(e1 - e0) > ENERGY_RTOL * scale:
        return f"energy drift {abs(e1 - e0) / scale:.3e}"
    if traj.times[-1] != a["t_end"] or len(traj.times) != a["steps"] + 1:
        return "grid does not end on t_end"
    return None


def counted_system(system, counter):
    """Same system with every rhs call tallied in counter[0]."""
    rhs = system.rhs

    def counting_rhs(state):
        counter[0] += 1
        return rhs(state)

    return gd.AutonomousSystem(dimension=system.dimension, rhs=counting_rhs)


def run_stability(a, rhs_counter=None):
    system = gd.coupled_logistic_demo(*a["rates"])
    if rhs_counter is not None:
        system = counted_system(system, rhs_counter)
    return gd.stability_report(system, a["guess"])


def check_stability(a, report):
    fp = report.fixed_point
    r_eq, s_eq = a["equilibrium"]
    if abs(fp.s_c - r_eq) > FIXED_POINT_ATOL or abs(fp.r_c - s_eq) > FIXED_POINT_ATOL:
        return f"fixed point ({fp.s_c:.9g}, {fp.r_c:.9g}) vs ({r_eq:.9g}, {s_eq:.9g})"
    if report.classification != a["label"]:
        return f"label {report.classification!r} vs analytic {a['label']!r}"
    return None


# ----------------------------------------------------------------- fields

MARCH_COUNT = 60
ROOT_COUNT = 40
ROOT_GRID = (12, 12)


def _gen_fields(rng, scale):
    groups = []
    n = max(1, round(MARCH_COUNT * scale))
    jobs = []
    for cells, t_end, c in zip(_strata(rng, n, 128, 512, 1, integer=True),
                               _strata(rng, n, 200.0, 1500.0, 2),
                               _strata(rng, n, 0.5, 2.0, 3, log=True)):
        jobs.append(Job("march", {"c": c, "cells": cells,
                                  "t_end": t_end,
                                  "probe_x": float(rng.uniform(4.0, 5.5)),
                                  "snapshots": 40}))
    groups.append(jobs)
    n = max(1, round(ROOT_COUNT * scale))
    jobs = []
    for _ in range(n):
        xs = np.sort(rng.uniform(1.0, 200.0, ROOT_GRID[0]))
        ts = np.sort(np.exp(rng.uniform(math.log(0.1), math.log(3000.0), ROOT_GRID[1])))
        jobs.append(Job("roots", {"c": _log_uniform(rng, 0.5, 2.0), "xs": xs, "ts": ts}))
    groups.append(jobs)
    return groups


def run_march(a):
    setup = gd.AdvectionSetup(c=a["c"], n_cells=a["cells"])
    snap_times = np.concatenate(([0.0], np.geomspace(a["t_end"] * 1e-3, a["t_end"],
                                                     a["snapshots"])))
    snapshots = gd.evolve_advection_fd(setup, a["t_end"], snap_times)
    return gd.probe_series(snapshots, a["probe_x"])


def check_march(a, out):
    times, values = out
    magnitude = np.abs(values)
    if len(times) != a["snapshots"] + 1:
        return f"{len(times)} snapshots, expected {a['snapshots'] + 1}"
    if np.any(np.diff(magnitude) < -MARCH_MONOTONE_SLACK):
        return "probed magnitude decreases"
    terminal = math.sqrt(2.0 / a["probe_x"])
    err = abs(magnitude[-1] - terminal) / terminal
    if err > MARCH_TERMINAL_RTOL:
        return f"final |phi| {magnitude[-1]:.6g} vs terminal {terminal:.6g}"
    return None


def run_roots(a):
    setup = gd.AdvectionSetup(c=a["c"])
    return np.array([[gd.euler_characteristic_phi(setup, float(x), float(t))
                      for t in a["ts"]] for x in a["xs"]])


def _char_residual(phi, c, x, t):
    expo = c * phi * x - c ** 3 * t - 2.0 * math.log1p(phi / c)
    return phi * phi - 2.0 / x + (2.0 / x) * math.exp(min(expo, 700.0))


def check_roots(a, roots):
    c = a["c"]
    for i, x in enumerate(a["xs"]):
        hi = math.sqrt(2.0 / x)
        for j, t in enumerate(a["ts"]):
            root = roots[i, j]
            if not 0.0 <= root <= hi:
                return f"root {root!r} outside [0, {hi!r}] at x={x}, t={t}"
            if abs(_char_residual(root, c, x, t)) > ROOT_RESIDUAL_RTOL * (2.0 / x):
                return f"residual too large at x={x}, t={t}"
    return None


# -------------------------------------------------------------------- cli

# With the 200 fits, these shares put p50 among the fits and p90 among the
# classify-early and simulate runs, above the slowest fits.
CLI_COUNTS = {"classify": 40, "simulate": 40, "analyze": 20}
_SIM_MODELS = ("power", "saturating", "logistic")


def _gen_cli(rng, scale, work_dir):
    """Draw the CLI jobs and write their input CSVs and config files."""
    counts = {k: max(1, round(v * scale)) for k, v in CLI_COUNTS.items()}
    groups = []
    jobs = []
    n = counts["classify"]
    for i, (rows, window) in enumerate(zip(_strata(rng, n, 5000, 30000, 1, integer=True),
                                           _strata(rng, n, 0.4, 1.0, 2))):
        job_dir = os.path.join(work_dir, f"classify{i:03d}")
        os.makedirs(job_dir, exist_ok=True)
        family = gd.EXPONENTIAL if i % 2 == 0 else gd.POWER_LAW
        t = np.linspace(1.0, float(rng.uniform(20.0, 40.0)), rows)
        if family == gd.EXPONENTIAL:
            clean = np.exp(float(rng.uniform(0.2, 0.5)) * t)
        else:
            clean = t ** float(rng.uniform(1.0, 3.0))
        values = clean * (1.0 + 0.01 * rng.standard_normal(rows))
        path = os.path.join(job_dir, "series.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,value\n")
            fh.writelines(f"{ti!r},{vi!r}\n" for ti, vi in zip(t.tolist(), values.tolist()))
        window = round(window, 3)
        argv = ["classify-early", path, "--out-dir", job_dir]
        if i % 3 == 0:
            # Half the window comes from a config file that overrides the flag.
            config = os.path.join(job_dir, "run.cfg")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(f"# classify settings\nwindow = {window}\n")
            argv += ["--window", "1.0", "--config", config]
        else:
            argv += ["--window", str(window)]
        cumulative = i % 4 == 1
        if cumulative:
            argv.append("--cumulative")
        t_cut = t[0] + window * (t[-1] - t[0])
        jobs.append(Job("cli", {"argv": argv, "check": "classify", "family": family,
                                "n_points": int(np.sum(t <= t_cut * (1.0 + 1e-12))),
                                "out_dir": job_dir}))
    groups.append(jobs)

    jobs = []
    n = counts["simulate"]
    for i, (points, curves) in enumerate(zip(_strata(rng, n, 1000, 5000, 1, integer=True),
                                             _strata(rng, n, 1, 12, 2, integer=True))):
        job_dir = os.path.join(work_dir, f"simulate{i:03d}")
        model = _SIM_MODELS[i % 3]
        fmt = ("csv", "json")[(i // 3) % 2]
        axes = ("linear", "log-log")[(i // 6) % 2]
        n_a = max(d for d in (1, 2, 3) if curves % d == 0)
        n_b = curves // n_a
        values = {"a": [round(_log_uniform(rng, 0.5, 3.0), 4) for _ in range(n_a)],
                  "b": [round(_log_uniform(rng, 0.2, 2.0), 4) for _ in range(n_b)]}
        argv = ["simulate", "--model", model, "--out-dir", job_dir,
                "--plot-format", fmt, "--axes", axes, "--points", str(points),
                "--t-max", str(round(float(rng.uniform(10.0, 30.0)), 3)),
                "--a", ",".join(map(repr, values["a"]))]
        if model == "power":
            argv += ["--beta", ",".join(map(repr, values["b"]))]
        else:
            argv += ["--b", ",".join(map(repr, values["b"]))]
        if model == "logistic":
            argv += ["--alpha", str(1 + i % 2), "--phi0", "0.05"]
        jobs.append(Job("cli", {"argv": argv, "check": "simulate", "format": fmt,
                                "axes": axes, "curves": n_a * n_b, "out_dir": job_dir}))
    groups.append(jobs)

    jobs = []
    for i in range(counts["analyze"]):
        job_dir = os.path.join(work_dir, f"analyze{i:03d}")
        stab = _stability_job(rng)
        # "=" keeps a leading minus sign from reading as a flag.
        argv = ["analyze", "--out-dir", job_dir,
                "--rates=" + ",".join(map(repr, stab.args["rates"])),
                "--guess=" + ",".join(map(repr, stab.args["guess"]))]
        jobs.append(Job("cli", {"argv": argv, "check": "analyze",
                                "label": stab.args["label"],
                                "equilibrium": stab.args["equilibrium"],
                                "out_dir": job_dir}))
    groups.append(jobs)
    return groups


class CliExit(Exception):
    """The CLI returned a non-zero exit code."""


def run_cli(a):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = gd.cli.main(list(a["argv"]))
        except SystemExit as exc:  # argparse rejects bad flags by exiting
            code = exc.code
    if code != 0:
        raise CliExit(f"exit {code}: {err.getvalue().strip()}")
    return code


def output_digest(out_dir):
    """SHA-256 over every file the CLI wrote into a job directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name.endswith((".csv", ".json")) and name != "series.csv":
            h.update(name.encode())
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _load_report(a, subcommand):
    with open(os.path.join(a["out_dir"], f"{subcommand}_report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("schema") != 1 or report.get("subcommand") != subcommand:
        raise ValueError(f"report lacks schema 1 / subcommand {subcommand}")
    return report


def _simulate_expected(a, report):
    """Recompute the emitted columns from the report's own grid and params."""
    grid = report["grid"]
    if a["axes"] == "log-log":
        times = np.geomspace(grid["t_min"], grid["t_max"], grid["points"])
    else:
        times = np.linspace(grid["t_min"], grid["t_max"], grid["points"])
    curves = []
    for curve in report["curves"]:
        p = curve["params"]
        if report["model"] == "power":
            y = gd.eval_power_law(gd.PowerLawParams(a=p["a"], beta=p["beta"]), times)
        elif report["model"] == "saturating":
            y = gd.eval_saturating_linear(gd.SaturatingLinearParams(a=p["a"], b=p["b"]), times)
        else:
            record = gd.GeneralizedLogisticParams(a=p["a"], b=p["b"], alpha=int(p["alpha"]),
                                                  phi0=p["phi0"])
            y = gd.eval_logistic_family(record, times)
        x = times
        if a["axes"] == "log-log":
            x, y = np.log10(times), np.log10(y)
        curves.append((curve["label"], x, y))
    return curves


def _check_simulate(a, report):
    if len(report["curves"]) != a["curves"]:
        return f"{len(report['curves'])} curves, expected {a['curves']}"
    expected = _simulate_expected(a, report)
    path = os.path.join(a["out_dir"], report["plot_file"])
    if a["format"] == "json":
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("schema") != 1:
            return "plot file lacks schema 1"
        got = [(s["label"], s["x"], s["y"]) for s in payload["series"]]
    else:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        columns = [[float(r[k]) for r in body] for k in range(len(header))]
        got = [(label, columns[0], columns[k + 1]) for k, label in enumerate(header[1:])]
    if len(got) != len(expected):
        return "series count differs from the report"
    for (label, x, y), (want_label, want_x, want_y) in zip(got, expected):
        if label != want_label:
            return f"series label {label!r} vs {want_label!r}"
        if list(x) != want_x.tolist() or list(y) != want_y.tolist():
            return f"series {label!r} does not re-read losslessly"
    return None


def check_cli(a, _code):
    try:
        if a["check"] == "classify":
            report = _load_report(a, "classify-early")
            if report["verdict"] != a["family"]:
                return f"verdict {report['verdict']} vs generating {a['family']}"
            if report["n_points"] != a["n_points"]:
                return f"n_points {report['n_points']} vs {a['n_points']}"
            return None
        if a["check"] == "simulate":
            return _check_simulate(a, _load_report(a, "simulate"))
        report = _load_report(a, "analyze")
        r_eq, s_eq = a["equilibrium"]
        fp = report["fixed_point"]
        if abs(fp["s_c"] - r_eq) > FIXED_POINT_ATOL or abs(fp["r_c"] - s_eq) > FIXED_POINT_ATOL:
            return "analyze located the wrong equilibrium"
        if report["classification"] != a["label"]:
            return f"label {report['classification']!r} vs analytic {a['label']!r}"
        return None
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc}"


# ---------------------------------------------------------------- registry

RUNNERS = {
    "fit": run_fit,
    "logistic-ode": run_logistic_ode,
    "compete": run_compete,
    "particle": run_particle,
    "stability": run_stability,
    "march": run_march,
    "roots": run_roots,
    "cli": run_cli,
}

CHECKS = {
    "fit": check_fit,
    "logistic-ode": check_logistic_ode,
    "compete": check_compete,
    "particle": check_particle,
    "stability": check_stability,
    "march": check_march,
    "roots": check_roots,
    "cli": check_cli,
}


def generate(workload, seed, work_dir, scale=1.0):
    """The seeded job list of a workload; fit-io also writes its input files.

    ``scale`` shrinks every per-kind count (the self-tests use a tiny one).
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "fit-io":
        os.makedirs(work_dir, exist_ok=True)
        return _interleave(_gen_fits(rng, scale) + _gen_cli(rng, scale, work_dir), rng)
    if workload == "ode-field":
        return _interleave(_gen_ode(rng, scale) + _gen_fields(rng, scale), rng)
    raise ValueError(f"unknown workload {workload!r}")


def fingerprint(jobs):
    """Digest of a job list's kinds and arguments, for same-seed checks."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.kind.encode())
        for key in sorted(job.args):
            value = job.args[key]
            h.update(key.encode())
            h.update(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
    return h.hexdigest()


def warmup_job(workload):
    """One small job for the set-up probe: a fit, or an ODE-backed curve so
    that the lazy import of ``ode`` lands in set-up time."""
    rng = np.random.default_rng(0)
    if workload == "fit-io":
        return _fit_job(rng, gd.LOGISTIC_FAMILY, 1, gd.LOSS_LINEAR, 40, 0.3)
    return Job("logistic-ode", {"a": 1.0, "b": 1.0 / 27.0, "alpha": 3, "phi0": 0.3,
                                "times": np.linspace(0.0, 5.0, 20)})
