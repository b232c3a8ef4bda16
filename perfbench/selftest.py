"""Self-tests of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a seed fixes its job list, and that the zero-share predictions hold:
no ode, fields or ODE-backed model calls outside ode-field, and no fits,
CSV reads or CLI runs outside fit-io.
"""
import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

TINY = 0.05
SEED = 7


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                  "--trace", str(trace), "--scale", str(TINY)])
    lines = buf.getvalue().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _workloads():
    return [w["name"] for w in _spec()["workloads"]]


def test_every_metric_printed_with_unit():
    spec = _spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in _workloads():
            table, result = _run(workload, trace)
            assert result["correct"], (workload, table)
            assert result["attempted"] >= 1 and result["failed"] == 0
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace, set(got) ^ set(want))
            printed = {line.split()[0]: line.split()[-1] for line in table
                       if line and not line.startswith("env:")}
            extra = run.OUTCOME_METRICS if trace == 0 else {}
            for name, unit in dict(want, **extra).items():
                assert printed.get(name) == unit, (workload, name)


def test_same_seed_same_jobs():
    run.import_program()
    import workloads
    for workload in _workloads():
        work_dir = os.path.join(run.OUT, "selftest", workload)
        first = workloads.fingerprint(workloads.generate(workload, 11, work_dir, TINY))
        again = workloads.fingerprint(workloads.generate(workload, 11, work_dir, TINY))
        other = workloads.fingerprint(workloads.generate(workload, 12, work_dir, TINY))
        assert first == again, workload
        assert first != other, workload


def test_zero_share_predictions():
    """Each module runs on exactly one workload and reads 0 on the other."""
    for workload in _workloads():
        _table, result = _run(workload, 1)
        m = {name: v["value"] for name, v in result["metrics"].items()}
        numeric = [v for k, v in m.items() if k.endswith(".calls")
                   and k.startswith(("ode.", "fields.", "models.eval_ode_backed."))]
        fit_io = [m["fitting.fit.calls"], m["dataio.read_csv.calls"], m["cli.main.calls"]]
        if workload == "ode-field":
            assert all(v > 0 for v in numeric), m
            assert all(v == 0 for v in fit_io), (workload, fit_io)
        else:
            assert all(v == 0 for v in numeric), (workload, numeric)
            assert all(v > 0 for v in fit_io), m


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
