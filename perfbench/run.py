"""growthdyn job benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
Load is a closed loop: one process, one thread, one client that starts the
next job when the previous one returns.  The job list is fixed by the seed
(see ``workloads.py``).  One job of each kind runs untimed first, so
first-call costs stay out of latency; then a run repeats the whole list
while another full pass fits in ``--seconds`` (at least one pass), so the
job mix never changes with the time budget.  Throughput and latency are
the medians over the passes of each pass's figure.

``--trace 0`` prints the end-to-end metrics: throughput, p50/p90 latency,
set-up time (median of fresh processes that import growthdyn and run one
warm-up job) and peak RSS.  ``failed_frac`` and ``wrong_frac`` are printed
in the table above the result line; a correct program reads 0 on both, so
the result line carries them as ``attempted``/``failed``/``correct``.
``--trace 1`` runs an untraced, a traced and another untraced pass and
prints the per-module metrics of ``tracer.py`` plus the tracing overhead.

Every job output is checked by the oracle after the timed loop.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  Spans and the full result are written under ``perfbench/_out``.
"""
import os

# One thread everywhere: pin the BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")

SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "throughput_jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed with the end-to-end metrics; a correct program reads 0 on both.
OUTCOME_METRICS = {"failed_frac": "ratio", "wrong_frac": "ratio"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["fit-io", "ode-field"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every per-kind job count (self-tests only)")
    return parser.parse_args(argv)


def import_program():
    """Import growthdyn from this checkout's src/; exit non-zero if it is absent."""
    sys.path.insert(0, SRC)
    try:
        import growthdyn
    except ImportError as exc:
        sys.exit(f"cannot import growthdyn from {SRC}: {exc}")
    if not os.path.abspath(growthdyn.__file__).startswith(SRC + os.sep):
        sys.exit(f"growthdyn resolved outside {SRC}: {growthdyn.__file__}")
    return growthdyn


class WarningTally:
    """Counts warnings per emitting file instead of printing them."""

    def __init__(self):
        self.by_file = {}

    def __call__(self, message, category, filename, lineno, file=None, line=None):
        key = os.path.basename(filename)
        self.by_file[key] = self.by_file.get(key, 0) + 1


def measure_setup(workload):
    """Median seconds of fresh-process import plus one warm-up job."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
            env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def warm_up(jobs, runners):
    """Run the first job of each kind once, untimed and unchecked."""
    seen = set()
    for job in jobs:
        if job.kind not in seen:
            seen.add(job.kind)
            try:
                runners[job.kind](job.args)
            except Exception:  # the timed passes count a failing job
                pass


def run_pass(jobs, runners, tracer=None):
    """Run every job once; returns ([(index, seconds, output, error)], seconds)."""
    outcomes = []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = runners[job.kind](job.args)
            else:
                out = tracer.run_job(index, job.kind, runners[job.kind], job.args)
            err = None
        except Exception as exc:  # a failed job is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        outcomes.append((index, time.perf_counter() - t0, out, err))
    return outcomes, time.perf_counter() - start


def run_passes(jobs, runners, budget_s):
    """Whole passes while another one fits in the budget; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, runners))
        if time.perf_counter() - start + passes[-1][1] > budget_s:
            return passes


def check_outcomes(workloads, jobs, outcomes):
    """Oracle pass after the timed loop: returns (failed, wrong, reasons).

    CLI jobs are checked once each, on the files their last run left; every
    third one is then run again to confirm its outputs are byte-identical.
    """
    failed = wrong = 0
    reasons = []
    cli_verdicts = {}
    for index, _sec, out, err in outcomes:
        job = jobs[index]
        if err is not None:
            failed += 1
            reasons.append(f"job {index} ({job.kind}) failed: {err}")
            continue
        if job.kind == "cli":
            if index not in cli_verdicts:
                cli_verdicts[index] = _check_cli_job(workloads, job, index % 3 == 0)
            problem = cli_verdicts[index]
        else:
            problem = workloads.CHECKS[job.kind](job.args, out)
        if problem:
            wrong += 1
            reasons.append(f"job {index} ({job.kind}) wrong: {problem}")
    return failed, wrong, reasons


def _check_cli_job(workloads, job, repeat):
    problem = workloads.CHECKS["cli"](job.args, 0)
    if problem or not repeat:
        return problem
    before = workloads.output_digest(job.args["out_dir"])
    try:
        workloads.run_cli(job.args)
    except workloads.CliExit as exc:
        return f"repeat invocation failed: {exc}"
    if workloads.output_digest(job.args["out_dir"]) != before:
        return "repeat invocation is not byte-identical"
    return None


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_figures(outcomes, seconds):
    """Throughput, p50 and p90 latency (ms) of one pass over the job list."""
    latencies = [sec for _i, sec, _o, _e in outcomes]
    completed = sum(1 for *_rest, err in outcomes if err is None)
    return (completed / seconds, 1e3 * statistics.median(latencies),
            1e3 * _percentile(latencies, 90))


def measure_end_to_end(args, workloads, jobs):
    """Timed passes with tracing off; returns (outcomes, metrics, printed-only).

    Throughput, p50 and p90 are each the median over the passes of that
    figure for one pass.  Every pass runs the same jobs, so the passes are
    repeated measurements; the median drops a pass that a burst of load from
    other tenants of the host slowed down.
    """
    warm_up(jobs, workloads.RUNNERS)
    passes = run_passes(jobs, workloads.RUNNERS, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = [o for pass_outcomes, _sec in passes for o in pass_outcomes]
    failed, wrong, reasons = check_outcomes(workloads, jobs, outcomes)
    tput, p50, p90 = zip(*(pass_figures(*p) for p in passes))
    metrics = {
        "throughput_jobs_per_s": statistics.median(tput),
        "latency_p50_ms": statistics.median(p50),
        "latency_p90_ms": statistics.median(p90),
        "setup_s": measure_setup(args.workload),
        "peak_rss_mb": peak_rss_mb,
    }
    shown = {"failed_frac": failed / len(outcomes), "wrong_frac": wrong / len(outcomes)}
    return outcomes, (failed, wrong, reasons), metrics, shown


def measure_layers(workloads, tracing, jobs, tally, spans_path):
    """Untraced, traced, untraced pass; returns (outcomes, per-layer metrics).

    The overhead compares the traced pass with the mean of the two untraced
    passes around it, which cancels slow drift in machine speed.
    """
    tracer = tracing.Tracer()
    runners = dict(workloads.RUNNERS)
    runners["stability"] = lambda a: workloads.run_stability(a, tracer.rhs_counter)
    warm_up(jobs, workloads.RUNNERS)
    before, before_s = run_pass(jobs, workloads.RUNNERS)
    tally.by_file.clear()
    tracer.install()
    try:
        traced, traced_s = run_pass(jobs, runners, tracer)
    finally:
        tracer.uninstall()
    warnings_from_models = tally.by_file.get("models.py", 0)
    after, after_s = run_pass(jobs, workloads.RUNNERS)

    layer = tracer.layer_metrics()
    plain_tput = 0.5 * (len(before) / before_s + len(after) / after_s)
    traced_tput = len(traced) / traced_s
    layer.update({
        "models.runtime_warnings": warnings_from_models,
        "trace.untraced_jobs_per_s": plain_tput,
        "trace.traced_jobs_per_s": traced_tput,
        "trace.overhead_frac": 1.0 - traced_tput / plain_tput,
    })
    tracer.write_spans(spans_path)
    metrics = {name: (int(layer[name]) if unit in ("count", "bytes")
                      and float(layer[name]).is_integer() else layer[name])
               for name, unit in tracing.LAYER_METRICS.items()}
    outcomes = before + traced + after
    return outcomes, check_outcomes(workloads, jobs, outcomes), metrics


def main(argv=None):
    args = parse_args(argv)
    growthdyn = import_program()
    import numpy as np

    sys.path.insert(0, HERE)
    import tracer as tracing
    import workloads

    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, "work", args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    jobs = workloads.generate(args.workload, args.seed, work_dir, args.scale)

    tally = WarningTally()
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = tally
        if args.trace:
            outcomes, verdict, metrics = measure_layers(
                workloads, tracing, jobs, tally,
                os.path.join(OUT, f"spans-{args.workload}.csv"))
            units = tracing.LAYER_METRICS
            shown = {}
        else:
            outcomes, verdict, metrics, shown = measure_end_to_end(args, workloads, jobs)
            units = dict(END_TO_END, **OUTCOME_METRICS)
    failed, wrong, reasons = verdict

    result = {
        "correct": failed == 0 and wrong == 0,
        "attempted": len(outcomes),
        "failed": failed + wrong,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "growthdyn": growthdyn.__version__,
           "workload": args.workload, "seed": args.seed, "trace": args.trace,
           "jobs_per_pass": len(jobs), "attempted": len(outcomes),
           "runtime_warnings": tally.by_file}
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "printed": shown, "problems": reasons},
                  fh, indent=2)

    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in dict(metrics, **shown).items():
        print(f"{name:42s} {value:>16.6g} {units[name]}")
    for reason in reasons[:20]:
        print(reason)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
