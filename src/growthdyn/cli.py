"""Command-line front end: simulate, fit, analyze, compete, pde, classify-early.

Every subcommand is a ``cmd_*(args)`` that validates its parameters,
computes, and returns its plot-ready tables, each ``(name, curves, axes)``,
plus a report dict whose values may be result records.  ``_run`` then
writes table ``name`` to ``PREFIX.FMT`` when the name is ``"plot"`` and to
``PREFIX_name.FMT`` otherwise, adds ``"<name>_file"`` to the report, writes
the versioned JSON report ``PREFIX_report.json`` (``"schema": 1``, records
serialized field by field) and prints the paths, so a failed command leaves
no partial files.  Output is data only — CSV/JSON columns for external
plotting tools, no rendering.

Conventions shared by all subcommands:

* comma-separated values on model-parameter flags fan out into one curve per
  combination (``--b 1,2,3`` gives three curves);
* ``--config FILE`` reads ``key = value`` lines (keys are long flag names
  without the dashes) that override anything given on the command line;
* the output directory is ``--out-dir`` if given, else the GROWTHDYN_OUT
  environment variable, else the current directory;
* identical invocations produce byte-identical files.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 4 I/O error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import itertools
import json
import math
import os
import sys

import numpy as np

from . import dataio, dynsys, fields, fitting, models
from .errors import (DataIOError, NumericalError, ParameterError, ValidationError,
                     _number_fields, check_number)
from .ode import integrate_adaptive, interp_states

OUT_DIR_ENV = "GROWTHDYN_OUT"
_SCHEMA = 1

_GRID_AUTO = "auto"
_GRID_LINEAR = "linear"
_GRID_LOG = "log"


def _numbers(kind=float, sign="", many=False):
    """argparse type: errors.check_number(kind, sign) on the flag's value or,
    if many, on each of its comma-separated values: one or more if many is
    True, else exactly many."""
    def parse(text: str):
        tokens = [tok for tok in text.split(",") if tok.strip()] if many else [text]
        try:  # a list with no values fails as float(text)
            out = [check_number("value", float(tok), kind, sign) for tok in tokens or [text]]
        except ParameterError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        except ValueError:
            what = "comma-separated numbers" if many else "a number"
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None
        if many and many is not True and len(out) != many:
            raise argparse.ArgumentTypeError(f"expected {many} comma-separated numbers, "
                                             f"got {text!r}")
        return out if many else out[0]
    return parse


def _fmt(v: float) -> str:
    return f"{v:g}"


def _jsonable(v):
    # records as dicts; a type json.dump does not take fails there
    if isinstance(v, float):
        return v if math.isfinite(v) else repr(v)
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if dataclasses.is_dataclass(v):
        return _jsonable(dataclasses.asdict(v))
    return v


def _run(args) -> int:
    """Compute a subcommand, then write its tables and report and print their paths."""
    out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, args.prefix or args.subcommand)

    def artifact(name, ext):
        return f"{stem}.{ext}" if name == "plot" else f"{stem}_{name}.{ext}"

    tables, report = args.func(args)
    paths = []
    for name, curves, axes in tables:
        paths.append(artifact(name, args.plot_format))
        dataio.emit_plot_series(curves, axes, paths[-1], format=args.plot_format)
        report[name + "_file"] = os.path.basename(paths[-1])
    paths.append(artifact("report", "json"))
    body = _jsonable({"schema": _SCHEMA, "subcommand": args.subcommand, **report})
    with open(paths[-1], "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for path in paths:
        print(path)
    return 0


def _time_grid(args) -> np.ndarray:
    spacing = args.grid
    if spacing == _GRID_AUTO:
        spacing = _GRID_LOG if args.axes in (dataio.AXES_LOG_X, dataio.AXES_LOG_LOG) \
            else _GRID_LINEAR
    t_max = args.t_max
    t_min = args.t_min
    if t_min is None:
        t_min = t_max * 1e-4 if spacing == _GRID_LOG else 0.0
    if args.points < 2:
        raise ValidationError(f"--points must be >= 2, got {args.points}")
    if not t_min < t_max:
        raise ValidationError(f"need --t-min < --t-max, got {t_min} >= {t_max}")
    if spacing == _GRID_LOG and t_min <= 0:
        raise ValidationError(
            "log-spaced grid needs --t-min > 0 (log axes default to "
            "t_max/10^4; pass --t-min explicitly to change it)")
    if not math.isfinite(t_max - t_min):
        raise ValidationError(f"need a finite span --t-max - --t-min, got {t_max} - {t_min}")
    grid = np.geomspace if spacing == _GRID_LOG else np.linspace
    return grid(t_min, t_max, args.points)


# --model name -> family: the first word of the family's name
_FAMILY = {family.split("-")[0]: family for family in models.FAMILIES}


# ---------------------------------------------------------------- simulate

def _simulate_combos(args, family):
    """Cartesian fan-out over list-valued model parameters: (label, record)."""
    names = [f.name for f in dataclasses.fields(models.FAMILIES[family])]
    pools = [getattr(args, name) for name in names]
    varying = [name for name, pool in zip(names, pools) if len(pool) > 1]
    for combo in itertools.product(*pools):
        named = dict(zip(names, combo))
        if varying:
            label = ",".join(f"{n}={_fmt(named[n])}" for n in varying)
        else:
            label = args.model
        yield label, models.FAMILIES[family](**named)


def cmd_simulate(args):
    family = _FAMILY[args.model]
    times = _time_grid(args)
    curves = []
    summary = []
    for label, record in _simulate_combos(args, family):
        curves.append((label, times, models.evaluate(record, times)))
        summary.append({"label": label, "params": record,
                        "terminal_value": models.terminal_value(record)})
    return [("plot", curves, args.axes)], {
        "model": args.model,
        "axes": args.axes,
        "grid": {"t_min": float(times[0]), "t_max": float(times[-1]),
                 "points": int(times.size)},
        "curves": summary,
    }


# --------------------------------------------------------------------- fit

def _load_series(args) -> dataio.TimeSeries:
    series = dataio.read_csv(args.input, time_col=args.time_col, value_col=args.value_col)
    if args.accumulation_start is not None:
        keep = series.times >= args.accumulation_start
        if not keep.any():
            raise ValidationError(
                f"--accumulation-start {args.accumulation_start} leaves no samples")
        series = dataio.TimeSeries(series.times[keep], series.values[keep],
                                   label=series.label, kind=series.kind)
    if args.cumulative:
        series = dataio.cumulate(series)
    return series


def _default_guess(model: str, series: dataio.TimeSeries):
    first_positive = next((v for v in series.values if v > 0), 1.0)
    return tuple(float(first_positive) if name == "phi0" else 1.0
                 for name in models.fitted_names(model))


def cmd_fit(args):
    if args.points < 2:
        raise ValidationError(f"--points must be >= 2, got {args.points}")
    series = _load_series(args)
    # Fail on incompatible log axes before any fitting work happens.
    dataio.check_log_axes(args.label or "data", series.times, series.values, args.axes)
    model = _FAMILY[args.model]
    guess = tuple(args.guess) if args.guess else _default_guess(model, series)
    problem = fitting.FitProblem(series=series, model=model,
                                 initial_guess=guess, loss_space=args.loss,
                                 alpha=args.alpha)
    result = fitting.fit(problem, tol=args.tol, max_iter=args.max_iter)
    dense_t = np.linspace(float(series.times[0]), float(series.times[-1]),
                          args.points)
    record = models.make_record(model, result.params, result.alpha)
    curves = [(args.label or "data", series.times, series.values),
              ("fitted", dense_t, models.evaluate(record, dense_t))]
    onset = None
    if result.terminal_forecast is not None:  # none for unbounded models
        onset = fitting.saturation_onset(series, result)
    fit_block = {**dataclasses.asdict(result), "params": result.named_params()}
    del fit_block["param_names"]  # the params are reported by name
    return [("plot", curves, args.axes)], {
        "input": os.path.basename(str(args.input)),
        "cumulative": bool(args.cumulative),
        "fit": fit_block,
        "saturation_onset": onset,
    }


# ----------------------------------------------------------------- analyze

def cmd_analyze(args):
    system = dynsys.coupled_logistic_demo(*args.rates)
    report = dynsys.stability_report(system, args.guess, tol=args.tol)
    return [], {
        "demo": "coupled-logistic",
        "rates": dict(zip(("aR", "bR", "eRS", "aS", "bS", "eSR"), args.rates)),
        **dataclasses.asdict(report),
    }


# ----------------------------------------------------------------- compete

def cmd_compete(args):
    params = _record(dynsys.CompetitionParams, args)
    verdict = dynsys.exclusion_verdict(params)
    init = args.init
    # The table starts at t = 0: fail on an impossible log axis before integrating.
    dataio.check_log_axes("phi1", np.zeros(1), np.array(init[:1]), args.axes)
    t_end = args.t_end if args.t_end is not None else 50.0 / min(args.a1, args.a2)
    system = dynsys.competition_system(params)
    traj = integrate_adaptive(system, np.array(init), 0.0, t_end,
                              rel_tol=1e-10, abs_tol=1e-12)
    grid = np.linspace(0.0, t_end, args.points)
    states = interp_states(traj, grid)
    curves = [("phi1", grid, states[:, 0]), ("phi2", grid, states[:, 1])]
    return [("plot", curves, args.axes)], {
        "params": params,
        **dataclasses.asdict(verdict),
        "t_end": t_end,
        "final_state": {"phi1": float(traj.states[-1, 0]),  # at t_end, whatever the grid
                        "phi2": float(traj.states[-1, 1])},
    }


# --------------------------------------------------------------------- pde

def cmd_pde(args):
    setup = _record(fields.AdvectionSetup, args)
    # The snapshot grid is geometric from t_end*1e-5, which must not underflow.
    if not args.t_end * 1e-5 > 0:
        raise ValidationError(f"--t-end must have t_end*1e-5 > 0, got {args.t_end}")
    # The probe table starts at t = 0 with |phi| = phi0: fail on an impossible
    # log axis before marching.
    dataio.check_log_axes(f"abs_phi_x={_fmt(args.probe_x[0])}", np.zeros(1),
                          np.array([setup.phi0]), args.axes)
    grid = setup.cell_centers()  # probe_series' rule on the march's grid, before it
    for x_probe in args.probe_x:
        fields._check_probe(grid, x_probe)
    # geomspace ends on t_end for n >= 2; for n = 0 or 1 t_end is appended.
    snap_times = np.concatenate(
        ([0.0], np.geomspace(args.t_end * 1e-5, args.t_end, args.n_snapshots)[:-1],
         [args.t_end]))
    snapshots = fields.evolve_advection_fd(setup, args.t_end, snap_times)

    probe_curves = []
    probe_summaries = []
    for x_probe in args.probe_x:
        times, signed = fields.probe_series(snapshots, x_probe)
        magnitude = np.abs(signed)
        asymptote = fields.euler_terminal_profile(setup, x_probe)
        probe_curves.append((f"abs_phi_x={_fmt(x_probe)}", times, magnitude))
        probe_curves.append((f"asymptote_x={_fmt(x_probe)}", times,
                             np.full_like(times, asymptote)))
        final = float(magnitude[-1])
        probe_summaries.append({
            "x": x_probe,
            "final_abs_phi": final,
            "terminal_profile": asymptote,
            "rel_err": abs(final - asymptote) / asymptote,
        })

    last = snapshots[-1]
    exact = fields.euler_terminal_profile(setup, last.x_grid)
    numeric = np.abs(last.phi)
    rel = np.abs(numeric - exact) / exact
    profile_curves = [("abs_phi_fd", last.x_grid, numeric),
                      ("terminal_profile", last.x_grid, exact)]
    return [("probe", probe_curves, args.axes),
            ("profile", profile_curves, dataio.AXES_LINEAR)], {
        "setup": setup,
        "t_end": args.t_end,
        "probes": probe_summaries,
        "profile_max_rel_err": float(np.max(rel)),
    }


# ------------------------------------------------------------ classify-early

def cmd_classify_early(args):
    series = _load_series(args)
    verdict = fitting.early_growth_classifier(series, window=args.window)
    return [], {
        "input": os.path.basename(str(args.input)),
        "window": args.window,
        **dataclasses.asdict(verdict),
    }


# ----------------------------------------------------------------- parsing

def _add_common(parser: argparse.ArgumentParser, tables: bool):
    parser.add_argument("--out-dir", default=None,
                        help=f"output directory (default: ${OUT_DIR_ENV} or .)")
    parser.add_argument("--prefix", default=None,
                        help="output filename prefix (default: subcommand name)")
    if tables:  # a subcommand that writes no table reads neither flag
        parser.add_argument("--axes", default=dataio.AXES_LINEAR,
                            choices=[dataio.AXES_LINEAR, dataio.AXES_LOG_X,
                                     dataio.AXES_LOG_Y, dataio.AXES_LOG_LOG],
                            help="axis transform applied to emitted plot data")
        parser.add_argument("--plot-format", default=dataio.FORMAT_CSV,
                            choices=[dataio.FORMAT_CSV, dataio.FORMAT_JSON])
    parser.add_argument("--config", default=None,
                        help="key=value file whose entries override flags")


def _record(record, args):
    """A record class built from the parsed flags named after its fields."""
    return record(**{f.name: getattr(args, f.name) for f in dataclasses.fields(record)})


def _add_input_flags(parser: argparse.ArgumentParser):
    parser.add_argument("input", help="CSV file with time,value rows")
    parser.add_argument("--cumulative", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="apply the running-sum transform before using the series")
    parser.add_argument("--accumulation-start", type=_numbers(), default=None,
                        help="drop samples before this time prior to accumulating")


def build_parser() -> argparse.ArgumentParser:
    # Abbreviation matching is disabled everywhere: with single-letter flags
    # like --a/--b/--c in play, a prefix match (e.g. --c for --config) would
    # silently swallow arguments.
    parser = argparse.ArgumentParser(
        prog="growthdyn",
        allow_abbrev=False,
        description="Growth-dynamics toolkit: closed-form growth laws, ODE "
                    "integration, stability analysis, competition, and "
                    "field evolution.")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    def sub(name, func, *sources, tables=True, **kwargs):
        # The common flags (--axes and --plot-format only if it writes tables),
        # then one flag per float or int parameter of each source (a record class
        # or a function), typed and defaulted by it (required where it has none).
        p = subparsers.add_parser(name, allow_abbrev=False, **kwargs)
        _add_common(p, tables)
        p.set_defaults(func=func)
        for source in sources:
            for field, _, kind, default in _number_fields(source):
                required = default is inspect.Parameter.empty
                p.add_argument("--" + field.replace("_", "-"), type=_numbers(kind),
                               required=required, default=None if required else default)
        return p

    p = sub("simulate", cmd_simulate, help="evaluate growth curves on a grid")
    p.add_argument("--model", required=True, choices=list(_FAMILY))
    for field, kind in {name: kind for family in models.FAMILIES.values()
                        for name, _, kind, _ in _number_fields(family)}.items():
        p.add_argument("--" + field, type=_numbers(kind, many=True), default=[kind(1)])
    p.add_argument("--t-min", type=_numbers(), default=None)
    p.add_argument("--t-max", type=_numbers(float, ">"), default=20.0)
    p.add_argument("--points", type=_numbers(int), default=201)
    p.add_argument("--grid", default=_GRID_AUTO,
                   choices=[_GRID_AUTO, _GRID_LINEAR, _GRID_LOG])

    p = sub("fit", cmd_fit, dataio.read_csv, fitting.FitProblem, fitting.fit,
            help="fit a growth model to a CSV series")
    p.add_argument("--label", default="data")  # the data curve's name
    _add_input_flags(p)
    p.add_argument("--model", required=True, choices=list(_FAMILY))
    p.add_argument("--loss", default=fitting.LOSS_LINEAR,
                   choices=[fitting.LOSS_LINEAR, fitting.LOSS_LOG])
    p.add_argument("--guess", type=_numbers(many=True), default=None,
                   help="comma-separated initial parameter guess")
    p.add_argument("--points", type=_numbers(int), default=200,
                   help="grid size for the fitted overlay curve")

    p = sub("analyze", cmd_analyze, dynsys.stability_report, tables=False,
            help="fixed-point stability report")
    p.add_argument("--rates", type=_numbers(many=6),
                   default=[rate for *_, rate in _number_fields(dynsys.coupled_logistic_demo)],
                   help="aR,bR,eRS,aS,bS,eSR for the demo system")
    p.add_argument("--guess", type=_numbers(many=2), default=[2.0, 2.0])

    p = sub("compete", cmd_compete, dynsys.CompetitionParams,
            help="two-species shared-resource competition")
    p.add_argument("--init", type=_numbers(float, ">", many=2), default=[1.0, 1.0],
                   help="phi1,phi2, each > 0: an extinct species stays extinct")
    p.add_argument("--t-end", type=_numbers(), default=None,
                   help="default: 50 / min(a1, a2)")
    p.add_argument("--points", type=_numbers(int, ">"), default=501)

    # --c changes no table, only the report's setup.c: the march never reads it
    p = sub("pde", cmd_pde, fields.AdvectionSetup, help="forced advection field evolution")
    p.add_argument("--t-end", type=_numbers(), default=2500.0)
    p.add_argument("--probe-x", type=_numbers(many=True), default=[50.0])
    p.add_argument("--n-snapshots", type=_numbers(int, ">="), default=200)

    p = sub("classify-early", cmd_classify_early, dataio.read_csv,
            fitting.early_growth_classifier, tables=False,
            help="exponential-vs-power-law verdict on a CSV series")
    _add_input_flags(p)
    return parser


def _read_config_tokens(path: str) -> list:
    """Turn a key = value file into override argv tokens."""
    tokens = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataIOError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(
                f"{path}, line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValidationError(f"{path}, line {lineno}: empty key")
        flag = "--" + key.lstrip("-")
        if value.lower() in ("true", "yes", "on"):
            tokens.append(flag)
        elif value.lower() in ("false", "no", "off"):
            tokens.append("--no-" + key.lstrip("-"))
        else:
            tokens.extend([flag, value])
    return tokens


@functools.cache
def _config_probe() -> argparse.ArgumentParser:
    probe = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    probe.add_argument("--config", default=None)
    return probe


def _apply_config(argv: list) -> list:
    known, _ = _config_probe().parse_known_args(argv)
    if known.config is None:
        return argv
    return list(argv) + _read_config_tokens(known.config)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing leaves the parser as it was, so one build serves every main().
    return build_parser()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(_apply_config(argv))
        return _run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (DataIOError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
