"""Span tracer for the traced run, applied to growthdyn from outside.

``Tracer.install()`` replaces each traced public function with a wrapper
in every ``growthdyn`` module namespace that binds it (``fit`` lives in
both ``growthdyn`` and ``growthdyn.fitting``; ``models`` imports
``ode.integrate_adaptive`` lazily, so patching ``growthdyn.ode`` reaches
it).  Each call records a span ``[name, start, end, parent, job]`` in
memory, and a per-function hook adds the work counts read from the call's
arguments and result.  ``uninstall()`` puts the originals back.  Self time
and call counts are derived from the spans after the run; ``write_spans``
dumps them as CSV.
"""
from __future__ import annotations

import csv
import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Per-layer metrics of the traced run, with their units.  Names follow the
# package's modules; "computed" counts are derived from a call's result
# rather than counted inside the program.
LAYER_METRICS = {
    "fitting.fit.calls": "count",
    "fitting.fit.busy_s": "s",
    "fitting.fit.self_s": "s",
    "fitting.fit.iterations": "count",
    "fitting.fit.converged_ratio": "ratio",
    "fitting.model_evals": "count",
    "fitting.model_evals_per_fit": "count",
    "fitting.trial_reject_ratio": "ratio",
    "fitting.early_growth_classifier.busy_s": "s",
    "fitting.saturation_onset.busy_s": "s",
    "models.eval_closed.calls": "count",
    "models.eval_closed.busy_s": "s",
    "models.eval_closed.points": "count",
    "models.eval_ode_backed.calls": "count",
    "models.eval_ode_backed.busy_s": "s",
    "models.eval_ode_backed.points": "count",
    "models.runtime_warnings": "count",
    "ode.integrate_adaptive.calls": "count",
    "ode.integrate_adaptive.busy_s": "s",
    "ode.integrate_adaptive.self_s": "s",
    "ode.steps_accepted": "count",
    "ode.steps_rejected": "count",
    "ode.step_accept_ratio": "ratio",
    "ode.rhs_evals_computed": "count",
    "ode.adaptive_calls_per_model_eval": "count",
    "ode.integrate_fixed.calls": "count",
    "ode.integrate_fixed.steps": "count",
    "ode.integrate_fixed.busy_s": "s",
    "ode.interp_states.calls": "count",
    "ode.interp_states.busy_s": "s",
    "dynsys.stability_report.calls": "count",
    "dynsys.stability_report.busy_s": "s",
    "dynsys.find_fixed_point.busy_s": "s",
    "dynsys.rhs_evals": "count",
    "fields.evolve_advection_fd.calls": "count",
    "fields.evolve_advection_fd.busy_s": "s",
    "fields.evolve_advection_fd.cells": "count",
    "fields.snapshot_bytes": "bytes",
    "fields.euler_characteristic_phi.calls": "count",
    "fields.euler_characteristic_phi.busy_s": "s",
    "fields.probe_series.calls": "count",
    "fields.probe_series.busy_s": "s",
    "dataio.read_csv.calls": "count",
    "dataio.read_csv.busy_s": "s",
    "dataio.read_csv.rows": "count",
    "dataio.emit_plot_series.calls": "count",
    "dataio.emit_plot_series.busy_s": "s",
    "dataio.emit_plot_series.values": "count",
    "dataio.bytes_written": "bytes",
    "dataio.cumulate.busy_s": "s",
    "cli.main.calls": "count",
    "cli.main.busy_s": "s",
    "cli.main.self_s": "s",
    "trace.untraced_jobs_per_s": "1/s",
    "trace.traced_jobs_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


def _eval_name(params, *_args, **_kwargs):
    return "models.eval_ode_backed" if getattr(params, "alpha", 0) >= 3 else "models.eval_closed"


def _model_eval_hook(tracer, name, args, kwargs, result, error):
    times = args[1] if len(args) > 1 else kwargs.get("t")
    tracer.counts[name + ".points"] += np.size(times)
    if "fitting.fit" in tracer.open_names:
        tracer.counts["fitting.model_evals"] += 1
        if error is not None or not np.all(np.isfinite(result)):
            tracer.counts["fitting.model_evals_rejected"] += 1


def _fit_hook(tracer, _name, _args, _kwargs, result, error):
    if result is None:
        result = getattr(error, "best", None)
    if result is not None:
        tracer.counts["fitting.fit.iterations"] += result.iterations
        tracer.counts["fitting.fit.converged"] += bool(result.converged)


def _adaptive_hook(tracer, _name, _args, _kwargs, result, _error):
    if "models.eval_ode_backed" in tracer.open_names:
        tracer.counts["ode.adaptive_calls_in_model_eval"] += 1
    if result is not None:
        tracer.counts["ode.steps_accepted"] += result.meta["n_accepted"]
        tracer.counts["ode.steps_rejected"] += result.meta["n_rejected"]


def _fixed_hook(tracer, _name, _args, _kwargs, result, _error):
    if result is not None:
        tracer.counts["ode.integrate_fixed.steps"] += result.meta["n_steps"]


def _march_hook(tracer, _name, args, kwargs, result, _error):
    setup = args[0] if args else kwargs["setup"]
    tracer.counts["fields.evolve_advection_fd.cells"] += setup.n_cells
    if result is not None:
        tracer.counts["fields.snapshot_bytes"] += sum(s.x_grid.nbytes + s.phi.nbytes
                                                      for s in result)


def _read_csv_hook(tracer, _name, _args, _kwargs, result, _error):
    if result is not None:
        tracer.counts["dataio.read_csv.rows"] += len(result)


def _emit_hook(tracer, _name, args, kwargs, result, error):
    series = args[0] if args else kwargs["series"]
    out = args[2] if len(args) > 2 else kwargs.get("out")
    for entry in series:
        values = entry.values if hasattr(entry, "values") else entry[2]
        tracer.counts["dataio.emit_plot_series.values"] += np.size(values)
    if error is None and isinstance(out, (str, os.PathLike)):
        tracer.counts["dataio.bytes_written"] += os.path.getsize(out)


# (module, function, span name or namer, hook)
TARGETS = (
    ("models", "eval_power_law", "models.eval_closed", _model_eval_hook),
    ("models", "eval_saturating_linear", "models.eval_closed", _model_eval_hook),
    ("models", "eval_logistic_family", _eval_name, _model_eval_hook),
    ("ode", "integrate_adaptive", "ode.integrate_adaptive", _adaptive_hook),
    ("ode", "integrate_fixed", "ode.integrate_fixed", _fixed_hook),
    ("ode", "interp_states", "ode.interp_states", None),
    ("dynsys", "stability_report", "dynsys.stability_report", None),
    ("dynsys", "find_fixed_point", "dynsys.find_fixed_point", None),
    ("fields", "evolve_advection_fd", "fields.evolve_advection_fd", _march_hook),
    ("fields", "euler_characteristic_phi", "fields.euler_characteristic_phi", None),
    ("fields", "probe_series", "fields.probe_series", None),
    ("fitting", "fit", "fitting.fit", _fit_hook),
    ("fitting", "early_growth_classifier", "fitting.early_growth_classifier", None),
    ("fitting", "saturation_onset", "fitting.saturation_onset", None),
    ("dataio", "read_csv", "dataio.read_csv", _read_csv_hook),
    ("dataio", "emit_plot_series", "dataio.emit_plot_series", _emit_hook),
    ("dataio", "cumulate", "dataio.cumulate", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory span recorder plus per-boundary counters."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job index]
        self.counts = defaultdict(float)
        self.open_names = []     # names of the spans currently open, outermost first
        self.rhs_counter = [0]   # rhs calls of the benchmark's own dynsys systems
        self._open = []          # indices of the spans currently open
        self._job = -1
        self._patched = []       # (module, attribute, original)
        self._t0 = time.perf_counter()

    def _call(self, name, fn, hook, args, kwargs):
        idx = len(self.spans)
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self._job]
        self.spans.append(span)
        self._open.append(idx)
        self.open_names.append(name)
        result = error = None
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as exc:
            error = exc
            raise
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
            self.open_names.pop()
            if hook is not None:
                hook(self, name, args, kwargs, result, error)

    def _wrap(self, fn, namer, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = namer(*args, **kwargs) if callable(namer) else namer
            return self._call(name, fn, hook, args, kwargs)
        return wrapper

    def install(self):
        """Wrap every target in each growthdyn namespace that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "growthdyn" or n.startswith("growthdyn."))]
        for mod_name, fn_name, namer, hook in TARGETS:
            original = getattr(sys.modules["growthdyn." + mod_name], fn_name)
            wrapper = self._wrap(original, namer, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def run_job(self, index, kind, fn, args):
        """Run one job under a root span that names it."""
        self._job = index
        try:
            return self._call("job." + kind, fn, None, (args,), {})
        finally:
            self._job = -1

    def layer_metrics(self):
        """Calls, busy and self time per span name, plus the derived ratios."""
        calls = defaultdict(int)
        busy = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        for (name, start, end, _parent, _job), inner in zip(self.spans, child):
            own[name] += (end - start) - inner

        c = self.counts
        out = {}
        for metric in LAYER_METRICS:
            base, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls[base]
            elif field == "busy_s":
                out[metric] = busy[base]
            elif field == "self_s":
                out[metric] = own[base]
            else:  # counted by a hook; 0 if the boundary was never crossed
                out[metric] = c[metric]
        fits = calls["fitting.fit"]
        evals = c["fitting.model_evals"]
        accepted, rejected = c["ode.steps_accepted"], c["ode.steps_rejected"]
        ode_evals = calls["models.eval_ode_backed"]
        out.update({
            "fitting.fit.converged_ratio": c["fitting.fit.converged"] / fits if fits else 0.0,
            "fitting.model_evals_per_fit": evals / fits if fits else 0.0,
            "fitting.trial_reject_ratio": (c["fitting.model_evals_rejected"] / evals
                                           if evals else 0.0),
            "ode.step_accept_ratio": (accepted / (accepted + rejected)
                                      if accepted + rejected else 0.0),
            # Dormand-Prince: one initial derivative per call, six per step tried.
            "ode.rhs_evals_computed": calls["ode.integrate_adaptive"] + 6 * (accepted + rejected),
            "ode.adaptive_calls_per_model_eval": (c["ode.adaptive_calls_in_model_eval"]
                                                  / ode_evals if ode_evals else 0.0),
            "dynsys.rhs_evals": self.rhs_counter[0],
        })
        return out

    def write_spans(self, path):
        """Dump every span as CSV: job, name, start_s, end_s, parent."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("job", "name", "start_s", "end_s", "parent"))
            for name, start, end, parent, job in self.spans:
                writer.writerow((job, name, f"{start - self._t0:.9f}",
                                 f"{end - self._t0:.9f}", parent))
