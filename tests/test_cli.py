"""Command-line driver: subcommands, exit codes, config files, artifacts."""
import argparse
import csv
import inspect
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from growthdyn import cli, models
from growthdyn.cli import OUT_DIR_ENV, main


def _read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_table(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _write_power_csv(path, a=2.0, beta=0.7, n=40):
    t = np.linspace(0.2, 6.0, n)
    lines = [f"{float(ti)!r},{float(a * ti ** beta)!r}" for ti in t]
    path.write_text("\n".join(lines) + "\n")


def _write_saturating_csv(path, a=3.0, b=0.8, n=60):
    t = np.linspace(0.0, 10.0, n)
    y = (a / b) * -np.expm1(-b * t)
    lines = [f"{float(ti)!r},{float(yi)!r}" for ti, yi in zip(t, y)]
    path.write_text("\n".join(lines) + "\n")


_FIT_KEYS = {"model", "loss_space", "alpha", "params", "rmse", "iterations",
             "converged", "terminal_forecast", "jacobian_condition", "evaluations"}
_ONSET_KEYS = {"half_terminal_time", "terminal_value", "crude_scale"}


class TestDriverContract:
    # keys: every top-level report key besides schema and subcommand, mapped
    # to the keys of its nested block (None where the value is not pinned)
    @pytest.mark.parametrize("subcommand, argv, suffixes, keys", [
        ("simulate", ["--model", "logistic", "--alpha", "1,2"], [".csv"],
         {"model": None, "axes": None, "grid": {"t_min", "t_max", "points"},
          "curves": None, "plot_file": None}),
        ("fit", ["{data}", "--model", "power"], [".csv"],
         {"input": None, "cumulative": None, "fit": _FIT_KEYS,
          "saturation_onset": None, "plot_file": None}),
        ("analyze", [], [],
         {"demo": None, "rates": {"aR", "bR", "eRS", "aS", "bS", "eSR"},
          "fixed_point": {"s_c", "r_c", "residual_norm"}, "jacobian": None,
          "trace": None, "determinant": None, "eigenvalues": None,
          "classification": None}),
        ("compete", ["--a1", "2", "--a2", "1", "--d1", "1", "--d2", "1",
                     "--b", "1", "--c", "1", "--points", "11"], [".csv"],
         {"params": {"a1", "a2", "d1", "d2", "b", "c"}, "verdict": None,
          "survivor_limit": None, "ratio": None, "t_end": None,
          "final_state": {"phi1", "phi2"}, "plot_file": None}),
        ("pde", ["--x-max", "20", "--n-cells", "32", "--t-end", "5",
                 "--n-snapshots", "4", "--probe-x", "10"],
         ["_probe.csv", "_profile.csv"],
         {"setup": {"c", "phi0", "x_min", "x_max", "n_cells", "cfl"},
          "t_end": None, "probes": None, "profile_max_rel_err": None,
          "probe_file": None, "profile_file": None}),
        ("classify-early", ["{data}"], [],
         {"input": None, "window": None, "verdict": None, "estimate": None,
          "r2_exponential": None, "r2_power_law": None, "n_points": None}),
        ("fit", ["{saturating}", "--model", "saturating"], [".csv"],
         {"input": None, "cumulative": None, "fit": _FIT_KEYS,
          "saturation_onset": _ONSET_KEYS, "plot_file": None}),
    ])
    def test_prints_tables_then_report_and_writes_only_those(
            self, tmp_path, capsys, subcommand, argv, suffixes, keys):
        data = tmp_path / "data.csv"
        _write_power_csv(data)
        saturating = tmp_path / "saturating.csv"
        _write_saturating_csv(saturating)
        out_dir = tmp_path / "out"
        argv = [a.format(data=data, saturating=saturating) for a in argv]
        assert main([subcommand, *argv, "--out-dir", str(out_dir)]) == 0
        expected = [str(out_dir / (subcommand + s)) for s in suffixes + ["_report.json"]]
        assert capsys.readouterr().out.splitlines() == expected
        assert sorted(p.name for p in out_dir.iterdir()) == \
            sorted(subcommand + s for s in suffixes + ["_report.json"])

        report = _read_report(expected[-1])
        assert set(report) == {"schema", "subcommand", *keys}
        for key, nested in keys.items():
            if nested is not None:
                assert set(report[key]) == nested, key
        # every *_file entry names one of the printed tables, and each table
        # has one
        named = [v for k, v in report.items() if k.endswith("_file")]
        assert sorted(named) == sorted(subcommand + s for s in suffixes)


class TestSimulate:
    def test_creates_plot_and_report(self, tmp_path, capsys):
        code = main(["simulate", "--model", "power", "--points", "11",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        plot_line, report_line = capsys.readouterr().out.splitlines()
        header, rows = _read_table(plot_line)
        assert header == ["t", "power"]
        assert len(rows) == 11
        report = _read_report(report_line)
        assert report["schema"] == 1
        assert report["subcommand"] == "simulate"
        assert report["model"] == "power"
        assert report["grid"]["points"] == 11
        assert report["curves"][0]["label"] == "power"

    def test_fan_out_labels_and_ordering(self, tmp_path, capsys):
        code = main(["simulate", "--model", "saturating", "--b", "1,2,3",
                     "--points", "9", "--t-max", "6",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        plot_line = capsys.readouterr().out.splitlines()[0]
        header, rows = _read_table(plot_line)
        assert header == ["t", "b=1", "b=2", "b=3"]
        for row in rows[1:]:  # skip t = 0 where all three coincide
            b1, b2, b3 = map(float, row[1:])
            assert b1 > b2 > b3

    def test_log_log_uses_geometric_grid(self, tmp_path, capsys):
        code = main(["simulate", "--model", "power", "--axes", "log-log",
                     "--points", "21", "--t-max", "20",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        plot_line = capsys.readouterr().out.splitlines()[0]
        header, rows = _read_table(plot_line)
        assert header[0] == "log10_t"
        log_t = [float(r[0]) for r in rows]
        assert log_t[0] == pytest.approx(math.log10(20.0 * 1e-4), abs=1e-12)
        assert log_t[-1] == pytest.approx(math.log10(20.0), abs=1e-12)
        steps = np.diff(log_t)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-9)

    def test_logistic_fan_out_reports_terminals(self, tmp_path, capsys):
        code = main(["simulate", "--model", "logistic", "--a", "5",
                     "--alpha", "1,2", "--points", "5",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = _read_report(capsys.readouterr().out.splitlines()[1])
        terminals = {c["label"]: c["terminal_value"] for c in report["curves"]}
        assert terminals["alpha=1"] == pytest.approx(5.0)
        assert terminals["alpha=2"] == pytest.approx(math.sqrt(5.0))

    def test_alpha0_zero_start_is_a_zero_curve(self, tmp_path, capsys):
        code = main(["simulate", "--model", "logistic", "--alpha", "0", "--phi0", "0",
                     "--a", "2", "--b", "1", "--points", "5", "--out-dir", str(tmp_path)])
        assert code == 0
        plot_line, report_line = capsys.readouterr().out.splitlines()
        _, rows = _read_table(plot_line)
        assert [row[1] for row in rows] == ["0.0"] * 5
        # a > b with alpha = 0: unbounded growth has no terminal level
        assert _read_report(report_line)["curves"][0]["terminal_value"] is None

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        code = main(["simulate", "--model", "logistic", "--a", "1", "--b", "2",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flags,message", [
        # the default start t_max*1e-4 underflows to 0
        (["--model", "power", "--grid", "log", "--t-max", "1e-320"],
         "log-spaced grid needs --t-min > 0"),
        (["--model", "power", "--beta", "1e308", "--t-max", "10"], "leaves float64 range"),
        (["--model", "power", "--t-min=-1e308", "--t-max", "1e308"],
         "got 1e+308 - -1e+308"),  # both finite, but the span overflows
        (["--model", "logistic", "--alpha", "3", "--phi0", "1e200"], "b*phi0**alpha=inf"),
        # the level (a/b)**(1/alpha) overflows though every value is finite
        (["--model", "logistic", "--a", "1", "--b", "1e-310", "--phi0", "0.03",
          "--t-max", "5", "--points", "3"], "leaves float64 range"),
        (["--model", "power", "--t-min=-1"], "got -1.0 at index 0"),
    ])
    def test_out_of_range_inputs_exit_2(self, tmp_path, capsys, flags, message):
        assert main(["simulate", *flags, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_byte_determinism(self, tmp_path, capsys):
        outputs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            code = main(["simulate", "--model", "logistic", "--a", "5",
                         "--b", "1,2", "--points", "31", "--out-dir", str(out)])
            assert code == 0
            plot_line, report_line = capsys.readouterr().out.splitlines()
            outputs.append((Path(plot_line).read_bytes(),
                            Path(report_line).read_bytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("plot_format, axes", [("csv", "linear"),
                                                   ("json", "log-log")])
    def test_plot_file_rereads_as_model_values(self, tmp_path, capsys,
                                               plot_format, axes):
        # The benchmark oracle's check: re-read columns equal the model bit
        # for bit, over more rows than one write block.
        code = main(["simulate", "--model", "saturating", "--a", "1.5,2",
                     "--b", "0.3", "--points", "2500", "--t-max", "25",
                     "--axes", axes, "--plot-format", plot_format,
                     "--out-dir", str(tmp_path)])
        assert code == 0
        plot_line, report_line = capsys.readouterr().out.splitlines()
        grid = _read_report(report_line)["grid"]
        if axes == "log-log":
            times = np.geomspace(grid["t_min"], grid["t_max"], grid["points"])
        else:
            times = np.linspace(grid["t_min"], grid["t_max"], grid["points"])
        expected = []
        for a in (1.5, 2.0):
            y = models.evaluate(models.SaturatingLinearParams(a=a, b=0.3), times)
            x = times
            if axes == "log-log":
                x, y = np.log10(times), np.log10(y)
            expected.append((f"a={a:g}", x.tolist(), y.tolist()))
        if plot_format == "json":
            payload = _read_report(plot_line)
            got = [(s["label"], s["x"], s["y"]) for s in payload["series"]]
        else:
            header, rows = _read_table(plot_line)
            columns = [[float(r[k]) for r in rows] for k in range(len(header))]
            got = [(label, columns[0], columns[k + 1])
                   for k, label in enumerate(header[1:])]
        assert got == expected

    def test_interleaved_runs_match_fresh_processes(self, tmp_path, capsys):
        # main() reuses one parser; a run must not see an earlier run's flags.
        runs = {"plain": ["simulate", "--model", "logistic", "--points", "7"],
                "fanned": ["simulate", "--model", "logistic", "--a", "2,3",
                           "--alpha", "1,2", "--points", "7"],
                "analyze": ["analyze"],
                "rates": ["analyze", "--rates=1.5,1,0.5,1,1.2,0.4",
                          "--guess=1.5,1.5"]}

        def outputs(out):
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        for name in ["plain", "fanned", "analyze", "rates", "plain", "analyze"]:
            assert main(runs[name] + ["--out-dir", str(tmp_path / "in" / name),
                                      "--prefix", name]) == 0
        capsys.readouterr()
        for name, argv in runs.items():
            fresh = tmp_path / "fresh" / name
            subprocess.run([sys.executable, "-m", "growthdyn", *argv,
                            "--out-dir", str(fresh), "--prefix", name],
                           check=True, capture_output=True)
            assert outputs(tmp_path / "in" / name) == outputs(fresh)

    def test_prefix_names_files(self, tmp_path, capsys):
        code = main(["simulate", "--model", "power", "--points", "5",
                     "--prefix", "run1", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "run1.csv").exists()
        assert (tmp_path / "run1_report.json").exists()

    def test_out_dir_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
        code = main(["simulate", "--model", "power", "--points", "5"])
        assert code == 0
        assert (tmp_path / "simulate.csv").exists()

    def test_json_plot_format(self, tmp_path, capsys):
        code = main(["simulate", "--model", "power", "--points", "5",
                     "--plot-format", "json", "--out-dir", str(tmp_path)])
        assert code == 0
        plot_line = capsys.readouterr().out.splitlines()[0]
        payload = json.loads(Path(plot_line).read_text())
        assert payload["schema"] == 1
        assert payload["series"][0]["label"] == "power"


class TestFit:
    @pytest.mark.parametrize("argv, name", [([], "data"), (["--label", "IBM"], "IBM"),
                                            (["--label", ""], "data")])
    def test_label_names_the_data_curve(self, tmp_path, capsys, argv, name):
        data = tmp_path / "power.csv"
        _write_power_csv(data)
        assert main(["fit", str(data), "--model", "power", "--points", "5", *argv,
                     "--out-dir", str(tmp_path)]) == 0
        header, _ = _read_table(capsys.readouterr().out.splitlines()[0])
        assert header == ["t0", name, "t1", "fitted"]

    def test_negative_alpha_reports_the_records_rule(self, tmp_path, capsys):
        data = tmp_path / "power.csv"
        _write_power_csv(data)
        code = main(["fit", str(data), "--model", "logistic", "--alpha", "-1",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: FitProblem.alpha must be >= 0 (an integer), got -1\n"

    def test_power_law_recovery(self, tmp_path, capsys):
        data = tmp_path / "power.csv"
        _write_power_csv(data)
        code = main(["fit", str(data), "--model", "power",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = _read_report(capsys.readouterr().out.splitlines()[1])
        assert report["fit"]["converged"] is True
        assert report["fit"]["params"]["a"] == pytest.approx(2.0, rel=1e-6)
        assert report["fit"]["params"]["beta"] == pytest.approx(0.7, rel=1e-6)
        assert report["fit"]["terminal_forecast"] is None
        assert report["saturation_onset"] is None

    def test_saturating_reports_onset(self, tmp_path, capsys):
        data = tmp_path / "sat.csv"
        _write_saturating_csv(data)
        code = main(["fit", str(data), "--model", "saturating",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = _read_report(capsys.readouterr().out.splitlines()[1])
        onset = report["saturation_onset"]
        assert onset["half_terminal_time"] == pytest.approx(math.log(2.0) / 0.8,
                                                            rel=1e-6)
        assert onset["terminal_value"] == pytest.approx(3.75, rel=1e-6)
        assert onset["crude_scale"] == pytest.approx(1.25, rel=1e-6)
        assert report["fit"]["terminal_forecast"] == pytest.approx(3.75, rel=1e-6)

    def test_overlay_has_data_and_fitted_columns(self, tmp_path, capsys):
        data = tmp_path / "power.csv"
        _write_power_csv(data)
        code = main(["fit", str(data), "--model", "power", "--points", "50",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        header, _ = _read_table(capsys.readouterr().out.splitlines()[0])
        assert header == ["t0", "data", "t1", "fitted"]

    def test_log_axis_zero_value_exit_2(self, tmp_path, capsys):
        data = tmp_path / "zero.csv"
        rows = ["0.5,0.0"] + [f"{0.5 + 0.25 * k},{1.0 + k}" for k in range(1, 12)]
        data.write_text("\n".join(rows) + "\n")
        code = main(["fit", str(data), "--model", "power", "--axes", "log-y",
                     "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "log-y" in err
        assert "index 0" in err
        assert "data" in err

    def test_cumulative_flag_accumulates_before_fitting(self, tmp_path, capsys):
        data = tmp_path / "annual.csv"
        data.write_text("".join(f"{k},1\n" for k in range(1, 13)))
        code = main(["fit", str(data), "--model", "power", "--cumulative",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = _read_report(capsys.readouterr().out.splitlines()[1])
        assert report["cumulative"] is True
        assert report["fit"]["params"]["a"] == pytest.approx(1.0, rel=1e-6)
        assert report["fit"]["params"]["beta"] == pytest.approx(1.0, rel=1e-6)

    def test_singular_jacobian_exit_3(self, tmp_path, capsys):
        # saturating fit of a cumulated power law: b -> 0 leaves b undetermined
        t = np.linspace(0.5, 10.0, 60)
        y = 2.0 * t ** 0.7 * (1.0 + 0.01 * np.random.default_rng(0).standard_normal(t.size))
        data = tmp_path / "pow.csv"
        data.write_text("".join(f"{float(ti)!r},{float(yi)!r}\n" for ti, yi in zip(t, y)))
        code = main(["fit", str(data), "--model", "saturating", "--cumulative",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert "singular Jacobian" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    def test_refused_jacobian_names_its_stop(self, tmp_path, capsys):
        # a start near the float64 ceiling evaluates, but its Jacobian does
        # not: the descent stops at iteration 1, not on its 200-step budget
        t = np.linspace(0.0, 1e4, 20)
        data = tmp_path / "step.csv"
        data.write_text("".join(f"{float(ti)!r},{1.0 if i == 0 else 10.0!r}\n"
                                for i, ti in enumerate(t)))
        code = main(["fit", str(data), "--model", "logistic", "--loss", "log",
                     "--guess", "1e305,1e304,1", "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: fit did not converge: its Jacobian was not finite "
            "at iteration 1 (rmse 9.523e-15)\n")
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("points", ["1", "0"])
    def test_points_checked_before_fitting(self, tmp_path, capsys, monkeypatch, points):
        def never(*args, **kwargs):
            raise AssertionError("fitted despite an invalid --points")
        monkeypatch.setattr(cli.fitting, "fit", never)
        data = tmp_path / "power.csv"
        _write_power_csv(data)
        out = tmp_path / "out"
        code = main(["fit", str(data), "--model", "power", "--points", points,
                     "--out-dir", str(out)])
        assert code == 2
        assert "--points must be >= 2" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_missing_input_exit_4(self, tmp_path, capsys):
        code = main(["fit", str(tmp_path / "nope.csv"), "--model", "power",
                     "--out-dir", str(tmp_path)])
        assert code == 4
        assert capsys.readouterr().err.startswith("i/o error:")

    @pytest.mark.parametrize("argv", [["fit", "--model", "power"], ["classify-early"]])
    def test_undecodable_input_exit_4(self, tmp_path, capsys, argv):
        data = tmp_path / "latin.csv"
        data.write_bytes("ann\xe9e,valeur\n1,2\n2,3\n".encode("latin-1"))
        code = main(argv[:1] + [str(data)] + argv[1:] + ["--out-dir", str(tmp_path)])
        assert code == 4
        assert capsys.readouterr().err == (
            f"i/o error: cannot read {data}: 'utf-8' codec can't decode byte "
            "0xe9 in position 3: invalid continuation byte\n")
        assert list(tmp_path.iterdir()) == [data]

    def test_explicit_guess_and_alpha(self, tmp_path, capsys):
        t = np.linspace(0.0, 3.0, 90)
        y = 5.0 * 1.0 / (1.0 + 4.0 * np.exp(-5.0 * t))
        data = tmp_path / "logistic.csv"
        data.write_text("".join(f"{float(ti)!r},{float(yi)!r}\n"
                                for ti, yi in zip(t, y)))
        code = main(["fit", str(data), "--model", "logistic", "--alpha", "1",
                     "--guess", "3,2,0.5", "--out-dir", str(tmp_path)])
        assert code == 0
        report = _read_report(capsys.readouterr().out.splitlines()[1])
        assert report["fit"]["params"]["a"] == pytest.approx(5.0, rel=1e-5)
        assert report["fit"]["params"]["b"] == pytest.approx(1.0, rel=1e-5)
        assert report["fit"]["params"]["phi0"] == pytest.approx(1.0, rel=1e-5)
        assert report["fit"]["alpha"] == 1


class TestAnalyze:
    def test_demo_report(self, tmp_path, capsys):
        code = main(["analyze", "--out-dir", str(tmp_path)])
        assert code == 0
        report = _read_report(capsys.readouterr().out.splitlines()[0])
        assert report["classification"] == "stable node"
        assert report["fixed_point"]["s_c"] == pytest.approx(2.0, abs=1e-8)
        assert report["fixed_point"]["r_c"] == pytest.approx(2.0, abs=1e-8)
        assert report["trace"] == pytest.approx(-4.0, abs=1e-5)
        assert report["determinant"] == pytest.approx(3.0, abs=1e-5)
        eigs = sorted(re for re, _ in report["eigenvalues"])
        assert eigs[0] == pytest.approx(-3.0, abs=1e-5)
        assert eigs[1] == pytest.approx(-1.0, abs=1e-5)

    def test_bad_rates_count_exit_2(self, tmp_path, capsys):
        # the flag's type takes exactly six values, so a short list is a usage error
        with pytest.raises(SystemExit) as info:
            main(["analyze", "--rates", "1,2", "--out-dir", str(tmp_path)])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --rates: expected 6 comma-separated numbers, got '1,2'\n")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_demo_exit_2(self, tmp_path):
        # analyze has one demo system, so --demo is no flag at all
        with pytest.raises(SystemExit) as info:
            main(["analyze", "--demo", "pendulum", "--out-dir", str(tmp_path)])
        assert info.value.code == 2


class TestCompete:
    def test_exclusion_run(self, tmp_path, capsys):
        code = main(["compete", "--a1", "2", "--a2", "1", "--d1", "1",
                     "--d2", "1", "--b", "1", "--c", "1", "--t-end", "30",
                     "--points", "16", "--out-dir", str(tmp_path)])
        assert code == 0
        plot_line, report_line = capsys.readouterr().out.splitlines()
        report = _read_report(report_line)
        assert report["verdict"] == "species-1-survives"
        assert report["survivor_limit"] == pytest.approx(2.0)
        assert report["final_state"]["phi1"] == pytest.approx(2.0, rel=1e-3)
        assert report["final_state"]["phi2"] < 1e-6
        header, rows = _read_table(plot_line)
        assert header == ["t", "phi1", "phi2"]
        assert len(rows) == 16

    def test_every_rate_flag_is_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["compete", "--a1", "2", "--a2", "1", "--d1", "1", "--d2", "1",
                  "--b", "1", "--out-dir", str(tmp_path)])
        assert info.value.code == 2
        assert "the following arguments are required: --c" in capsys.readouterr().err

    def test_marginal_verdict(self, tmp_path, capsys):
        code = main(["compete", "--a1", "1", "--a2", "1", "--d1", "1",
                     "--d2", "1", "--b", "1", "--c", "1", "--t-end", "5",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = _read_report(capsys.readouterr().out.splitlines()[1])
        assert report["verdict"] == "marginal"
        assert report["survivor_limit"] is None

    def test_bad_init_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["compete", "--a1", "2", "--a2", "1", "--d1", "1",
                  "--d2", "1", "--b", "1", "--c", "1", "--init", "1",
                  "--out-dir", str(tmp_path)])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --init: expected 2 comma-separated numbers, got '1'\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("points", ["0", "-4"])
    def test_bad_points_exit_2(self, tmp_path, capsys, points):
        with pytest.raises(SystemExit) as info:
            main(["compete", "--a1", "2", "--a2", "1", "--d1", "1",
                  "--d2", "1", "--b", "1", "--c", "1", "--points", points,
                  "--out-dir", str(tmp_path)])
        assert info.value.code == 2
        assert f"argument --points: value must be > 0 (an integer), got {float(points)}" \
            in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_single_point_is_valid(self, tmp_path, capsys):
        code = main(["compete", "--a1", "2", "--a2", "1", "--d1", "1",
                     "--d2", "1", "--b", "1", "--c", "1", "--t-end", "5",
                     "--points", "1", "--out-dir", str(tmp_path)])
        assert code == 0
        _, rows = _read_table(capsys.readouterr().out.splitlines()[0])
        assert len(rows) == 1

    def test_final_state_is_the_integrated_end_whatever_the_grid(self, tmp_path, capsys):
        # a one-point grid holds only the initial state, (1, 1)
        final = {}
        for points in ("1", "501"):
            assert main(["compete", *_RATES, "--points", points,
                         "--out-dir", str(tmp_path / points)]) == 0
            report = _read_report(capsys.readouterr().out.splitlines()[-1])
            final[points] = report["final_state"]
        assert final["1"] == final["501"]
        assert final["1"]["phi1"] == pytest.approx(2.0, rel=1e-9)
        assert final["1"]["phi2"] < 1e-12

    @pytest.mark.parametrize("axes", ["log-x", "log-log"])
    def test_log_x_rejected_before_integrating(self, tmp_path, capsys,
                                               monkeypatch, axes):
        # the table starts at t = 0, so no run could be drawn on a log-x axis
        def never(*args, **kwargs):
            raise AssertionError("integrated despite an impossible axis")
        monkeypatch.setattr(cli, "integrate_adaptive", never)
        code = main(["compete", "--a1", "1", "--a2", "1.5", "--d1", "0.5",
                     "--d2", "1", "--b", "2", "--c", "1", "--axes", axes,
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert "non-positive abscissa 0.0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("a1", ["1e12", "1e-12"])
    def test_overflowing_rates_end_typed_without_a_warning(self, tmp_path, a1):
        # the rhs overflows on the first trial steps; the integrator rejects
        # them until its step underflows, and no RuntimeWarning leaks first
        proc = subprocess.run(
            [sys.executable, "-m", "growthdyn", "compete", "--a1", a1, "--a2", "1",
             "--d1", "1", "--d2", "1", "--b", "1", "--c", "1",
             "--out-dir", str(tmp_path)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3
        assert proc.stderr.startswith("numerical failure: step size underflow")
        assert "Warning" not in proc.stderr


class TestPde:
    def test_small_run_artifacts(self, tmp_path, capsys):
        code = main(["pde", "--x-max", "20", "--n-cells", "32", "--t-end", "50",
                     "--n-snapshots", "10", "--probe-x", "10",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        probe_line, profile_line, report_line = capsys.readouterr().out.splitlines()
        report = _read_report(report_line)
        assert report["subcommand"] == "pde"
        assert report["probes"][0]["x"] == 10.0
        assert 0.0 < report["probes"][0]["final_abs_phi"] < 1.0
        assert report["profile_max_rel_err"] >= 0.0
        header, _ = _read_table(probe_line)
        assert header == ["t", "abs_phi_x=10", "asymptote_x=10"]
        profile_header, _ = _read_table(profile_line)
        assert profile_header == ["t", "abs_phi_fd", "terminal_profile"]

    def test_profile_covers_every_cell(self, tmp_path, capsys):
        # the march holds the terminal profile to round-off on the whole grid,
        # the outflow cell next to x_min included
        code = main(["pde", "--x-max", "20", "--n-cells", "32", "--t-end", "300",
                     "--n-snapshots", "4", "--probe-x", "10", "--out-dir", str(tmp_path)])
        assert code == 0
        _, profile_line, report_line = capsys.readouterr().out.splitlines()
        _, rows = _read_table(profile_line)
        assert len(rows) == 32
        assert float(rows[0][0]) == 1.0 + 0.5 * 19.0 / 32  # the first cell centre
        assert _read_report(report_line)["profile_max_rel_err"] <= 1e-12

    def test_bad_t_end_exit_2(self, tmp_path, capsys):
        code = main(["pde", "--t-end", "-1", "--out-dir", str(tmp_path)])
        assert code == 2

    def test_negative_snapshot_count_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["pde", "--n-snapshots", "-3", "--out-dir", str(tmp_path)])
        assert info.value.code == 2
        assert "argument --n-snapshots: value must be >= 0 (an integer), got -3.0" \
            in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_zero_snapshots_is_valid(self, tmp_path, capsys):
        code = main(["pde", "--x-max", "20", "--n-cells", "32", "--t-end", "5",
                     "--n-snapshots", "0", "--probe-x", "10",
                     "--out-dir", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("count", ["0", "1"])
    def test_few_snapshots_still_end_on_t_end(self, tmp_path, capsys, count):
        # the last snapshot is the t_end field whatever --n-snapshots says
        reports = {}
        for n in (count, "3"):
            code = main(["pde", "--x-max", "20", "--n-cells", "32", "--t-end", "50",
                         "--n-snapshots", n, "--probe-x", "10",
                         "--out-dir", str(tmp_path / n)])
            assert code == 0
            probe_line, _, report_line = capsys.readouterr().out.splitlines()
            assert _read_table(probe_line)[1][-1][0] == "50.0"
            reports[n] = _read_report(report_line)
        assert reports[count]["probes"] == reports["3"]["probes"]
        assert reports[count]["profile_max_rel_err"] == reports["3"]["profile_max_rel_err"]
        assert reports[count]["probes"][0]["rel_err"] < 0.5

    @pytest.mark.parametrize("flags,exit_code,message", [
        (["--phi0", "1e300"], 2, "phi0**2 overflows"),
        (["--phi0", "1e150", "--n-cells", "64"], 3, "over the budget"),
        (["--x-min", "1e-170", "--x-max", "2e-170"], 2, "1/x_min**2 overflows"),
        (["--x-max", "1e300", "--n-cells", "64", "--t-end", "1"], 2, "x_max**2 overflows"),
        (["--t-end", "-1"], 2, "t_end*1e-5 > 0, got -1.0"),
        (["--t-end", "1e-320"], 2, "t_end*1e-5 > 0, got 1e-320"),  # it underflows to 0
    ])
    def test_extreme_setups_end_in_a_typed_error_promptly(
            self, tmp_path, capsys, flags, exit_code, message):
        start = time.perf_counter()
        assert main(["pde", *flags, "--out-dir", str(tmp_path)]) == exit_code
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_setup_flags_default_to_the_record(self):
        args = cli.build_parser().parse_args(["pde"])
        assert cli._record(cli.fields.AdvectionSetup, args) == cli.fields.AdvectionSetup()

    @pytest.mark.parametrize("axes,phi0,message", [
        ("log-x", "0.5", "non-positive abscissa 0.0"),
        ("log-log", "0.5", "non-positive abscissa 0.0"),
        ("log-y", "0", "non-positive value 0.0"),
    ])
    def test_impossible_log_axis_rejected_before_marching(
            self, tmp_path, capsys, monkeypatch, axes, phi0, message):
        # snapshots start at t = 0, where |phi| is the initial level phi0
        def never(*args, **kwargs):
            raise AssertionError("marched despite an impossible axis")
        monkeypatch.setattr(cli.fields, "evolve_advection_fd", never)
        code = main(["pde", "--x-max", "20", "--n-cells", "32", "--t-end", "50",
                     "--probe-x", "5,10", "--phi0", phi0, "--axes", axes,
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("probes", ["250", "10,250", "0.5"])
    def test_probe_off_the_grid_rejected_before_marching(
            self, tmp_path, capsys, monkeypatch, probes):
        # probe_series' rule and message, on the grid the march would use
        def never(*args, **kwargs):
            raise AssertionError("marched despite a probe off the grid")
        monkeypatch.setattr(cli.fields, "evolve_advection_fd", never)
        code = main(["pde", "--n-cells", "8192", "--probe-x", probes,
                     "--out-dir", str(tmp_path)])
        assert code == 2
        x_probe = float(probes.split(",")[-1])
        assert capsys.readouterr().err == (
            f"error: probe x={x_probe} outside grid "
            "[1.01214599609375, 199.98785400390625]\n")
        assert list(tmp_path.iterdir()) == []

    def test_probe_on_the_outer_cell_centres_is_valid(self, tmp_path, capsys):
        grid = cli.fields.AdvectionSetup(x_max=20.0, n_cells=32).cell_centers()
        probes = f"{float(grid[0])!r},{float(grid[-1])!r}"
        code = main(["pde", "--x-max", "20", "--n-cells", "32", "--t-end", "5",
                     "--n-snapshots", "3", "--probe-x", probes, "--out-dir", str(tmp_path)])
        assert code == 0

    def test_log_y_allowed_with_positive_start(self, tmp_path, capsys):
        code = main(["pde", "--x-max", "20", "--n-cells", "32", "--t-end", "50",
                     "--n-snapshots", "10", "--probe-x", "10", "--phi0", "0.3",
                     "--axes", "log-y", "--out-dir", str(tmp_path)])
        assert code == 0


class TestClassifyEarly:
    def test_exponential_series(self, tmp_path, capsys):
        t = np.linspace(0.5, 8.0, 40)
        data = tmp_path / "exp.csv"
        data.write_text("".join(f"{float(ti)!r},{float(0.5 * math.exp(0.3 * ti))!r}\n"
                                for ti in t))
        code = main(["classify-early", str(data), "--out-dir", str(tmp_path)])
        assert code == 0
        report = _read_report(capsys.readouterr().out.splitlines()[0])
        assert report["verdict"] == "exponential"
        assert report["estimate"] == pytest.approx(0.3, rel=1e-6)
        assert report["n_points"] == 40

    def test_nonpositive_time_exit_2(self, tmp_path, capsys):
        data = tmp_path / "zt.csv"
        data.write_text("".join(f"{float(k)!r},{float(k + 1)!r}\n"
                                for k in range(10)))
        code = main(["classify-early", str(data), "--out-dir", str(tmp_path)])
        assert code == 2

    def test_negative_column_past_the_row_exit_4(self, tmp_path, capsys):
        data = tmp_path / "two.csv"
        data.write_text("1,2\n3,4\n")
        code = main(["classify-early", str(data), "--value-col", "-5",
                     "--out-dir", str(tmp_path)])
        assert code == 4
        assert capsys.readouterr().err == (
            f"i/o error: {data}, line 1: expected at least 5 columns, got 2\n")


class TestConfigFile:
    def test_config_overrides_command_line(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("t-max = 6  # shorter horizon\npoints = 5\n")
        code = main(["simulate", "--model", "power", "--t-max", "99",
                     "--config", str(conf), "--out-dir", str(tmp_path)])
        assert code == 0
        report = _read_report(capsys.readouterr().out.splitlines()[1])
        assert report["grid"]["t_max"] == pytest.approx(6.0)
        assert report["grid"]["points"] == 5

    def test_config_boolean_false_token(self, tmp_path, capsys):
        data = tmp_path / "sat.csv"
        _write_saturating_csv(data)
        conf = tmp_path / "run.conf"
        conf.write_text("cumulative = no\n")
        code = main(["fit", str(data), "--model", "saturating", "--cumulative",
                     "--config", str(conf), "--out-dir", str(tmp_path)])
        assert code == 0
        report = _read_report(capsys.readouterr().out.splitlines()[1])
        assert report["cumulative"] is False

    def test_missing_config_exit_4(self, tmp_path, capsys):
        code = main(["simulate", "--model", "power",
                     "--config", str(tmp_path / "none.conf"),
                     "--out-dir", str(tmp_path)])
        assert code == 4

    def test_undecodable_config_exit_4(self, tmp_path, capsys):
        config = tmp_path / "latin1.conf"
        config.write_bytes(b"points = 5 # \xff\n")
        code = main(["simulate", "--model", "power", "--config", str(config),
                     "--out-dir", str(tmp_path)])
        assert code == 4
        assert capsys.readouterr().err.startswith(f"i/o error: cannot read config {config}: ")

    def test_config_probe_built_once(self, tmp_path, capsys):
        cli._config_probe.cache_clear()
        for _ in range(3):
            assert main(["simulate", "--model", "power", "--points", "5",
                         "--out-dir", str(tmp_path)]) == 0
        assert cli._config_probe.cache_info().misses == 1

    def test_config_without_value_is_usage_error_each_time(self, tmp_path, capsys):
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(["simulate", "--model", "power", "--config"])
            assert info.value.code == 2
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert "--config: expected one argument" in outputs[0].err

    def test_malformed_config_exit_2(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("just-a-word\n")
        code = main(["simulate", "--model", "power", "--config", str(conf),
                     "--out-dir", str(tmp_path)])
        assert code == 2


class TestParsing:
    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--model", "power", "--bogus", "1",
                  "--out-dir", str(tmp_path)])
        assert info.value.code == 2

    def test_abbreviations_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--mod", "power", "--out-dir", str(tmp_path)])
        assert info.value.code == 2

    def test_short_c_flag_is_not_config(self, tmp_path, capsys):
        # --c must reach the pde subcommand untouched by config probing
        code = main(["pde", "--c", "1", "--x-max", "20", "--n-cells", "16",
                     "--t-end", "5", "--n-snapshots", "3", "--probe-x", "10",
                     "--out-dir", str(tmp_path)])
        assert code == 0

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "growthdyn", "simulate", "--model", "power",
             "--points", "5", "--out-dir", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "simulate_report.json").exists()

    def test_empty_float_list_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--model", "power", "--a", "",
                  "--out-dir", str(tmp_path)])


_RATES = ["--a1", "2", "--a2", "1", "--d1", "1", "--d2", "1", "--b", "1", "--c", "1"]


class TestTableFlags:
    """--axes and --plot-format shape tables, and --label names fit's data
    curve: a subcommand that writes no table, or no data curve, has no such flag."""

    @pytest.mark.parametrize("config", [False, True])
    @pytest.mark.parametrize("argv", [
        ["analyze", "--axes", "log-log"],
        ["analyze", "--plot-format", "json"],
        ["classify-early", "{data}", "--axes", "log-y"],
        ["classify-early", "{data}", "--plot-format", "json"],
        ["classify-early", "{data}", "--label", "x"],
    ])
    def test_flags_that_change_no_output_are_usage_errors(self, tmp_path, capsys,
                                                          argv, config):
        data = tmp_path / "data.csv"
        _write_power_csv(data)
        *argv, flag, value = [a.format(data=data) for a in argv]
        if config:
            conf = tmp_path / "run.conf"
            conf.write_text(f"{flag[2:]} = {value}\n")
            argv += ["--config", str(conf)]
        else:
            argv += [flag, value]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out-dir", str(out)])
        assert info.value.code == 2
        assert f"error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_table_flags_exactly_where_a_table_is_written(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        _write_power_csv(data)
        runs = {
            "simulate": ["--model", "power", "--points", "5"],
            "fit": [str(data), "--model", "power", "--points", "5"],
            "analyze": [],
            "compete": [*_RATES, "--points", "5"],
            "pde": ["--x-max", "20", "--n-cells", "16", "--t-end", "5",
                    "--n-snapshots", "3", "--probe-x", "10"],
            "classify-early": [str(data)],
        }
        subcommands = next(a for a in cli.build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction)).choices
        assert set(runs) == set(subcommands)
        for name, argv in runs.items():
            assert main([name, *argv, "--out-dir", str(tmp_path / name)]) == 0
            report = _read_report(capsys.readouterr().out.splitlines()[-1])
            writes_table = any(key.endswith("_file") for key in report)
            flags = {flag for action in subcommands[name]._actions
                     for flag in action.option_strings}
            table_flags = {"--axes", "--plot-format"}
            assert flags & table_flags == (table_flags if writes_table else set()), name
            assert ("--label" in flags) is (name == "fit"), name


# subcommand -> numeric flag -> (kind, sign, arity, default): arity 1 is one
# value, "1+" one or more comma-separated values, n exactly n of them.
# Most rows come from a record field or a library parameter, so a signature
# change that adds, drops or re-defaults a flag shows here.
_FLAG_TABLE = {
    "simulate": {
        "--a": (float, "", "1+", [1.0]), "--b": (float, "", "1+", [1.0]),
        "--beta": (float, "", "1+", [1.0]), "--alpha": (int, "", "1+", [1]),
        "--phi0": (float, "", "1+", [1.0]), "--t-min": (float, "", 1, None),
        "--t-max": (float, ">", 1, 20.0), "--points": (int, "", 1, 201),
    },
    "fit": {
        "--time-col": (int, "", 1, 0), "--value-col": (int, "", 1, 1),
        "--alpha": (int, "", 1, 1), "--tol": (float, "", 1, 1e-10),
        "--max-iter": (int, "", 1, 200), "--accumulation-start": (float, "", 1, None),
        "--guess": (float, "", "1+", None), "--points": (int, "", 1, 200),
    },
    "analyze": {
        "--tol": (float, "", 1, 1e-10),
        "--rates": (float, "", 6, [1.0, 1.0, 0.5, 1.0, 1.0, 0.5]),
        "--guess": (float, "", 2, [2.0, 2.0]),
    },
    "compete": {
        **{f"--{rate}": (float, "", 1, "required")
           for rate in ("a1", "a2", "d1", "d2", "b", "c")},
        "--init": (float, ">", 2, [1.0, 1.0]), "--t-end": (float, "", 1, None),
        "--points": (int, ">", 1, 501),
    },
    "pde": {
        "--c": (float, "", 1, 1.0), "--phi0": (float, "", 1, 0.0),
        "--x-min": (float, "", 1, 1.0), "--x-max": (float, "", 1, 200.0),
        "--n-cells": (int, "", 1, 1024), "--cfl": (float, "", 1, 0.9),
        "--t-end": (float, "", 1, 2500.0), "--probe-x": (float, "", "1+", [50.0]),
        "--n-snapshots": (int, ">=", 1, 200),
    },
    "classify-early": {
        "--time-col": (int, "", 1, 0), "--value-col": (int, "", 1, 1),
        "--accumulation-start": (float, "", 1, None), "--window": (float, "", 1, 1.0),
    },
}


class TestFlagChecks:
    """Each flag check, reached once: exit 2 with one stderr line, no files."""

    @pytest.mark.parametrize("argv, message", [
        (["--a", "x"], "argument --a: expected comma-separated numbers"),
        (["--alpha", "1.5"], "argument --alpha: value must be an integer, got 1.5"),
    ])
    def test_list_flags_are_usage_errors(self, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--model", "logistic", *argv, "--out-dir", str(tmp_path)])
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--model", "power", "--points", "1"], "--points must be >= 2"),
        (["simulate", "--model", "power", "--t-min", "5", "--t-max", "2"],
         "need --t-min < --t-max, got 5.0 >= 2.0"),
        (["simulate", "--model", "power", "--grid", "log", "--t-min", "0"],
         "log-spaced grid needs --t-min > 0"),
    ])
    def test_value_checks_exit_2(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--model", "power", "--t-max", "0"],
         "argument --t-max: value must be > 0 (a finite real), got 0.0"),
        (["simulate", "--model", "power", "--t-max", "inf"],
         "argument --t-max: value must be > 0 (a finite real), got inf"),
        (["simulate", "--model", "saturating", "--t-min=-inf"],
         "argument --t-min: value must be a finite real, got -inf"),
        (["simulate", "--model", "power", "--points", "5.5"],
         "argument --points: value must be an integer, got 5.5"),
        (["simulate", "--model", "power", "--t-max", "x"],
         "argument --t-max: expected a number, got 'x'"),
        (["compete", *_RATES, "--init", "0,1"],
         "argument --init: value must be > 0 (a finite real), got 0.0"),
        (["compete", *_RATES, "--init", "1,nan"],
         "argument --init: value must be > 0 (a finite real), got nan"),
        (["compete", *_RATES, "--a1", "nan"], "argument --a1: value must be a finite real, got nan"),
        (["analyze", "--rates", "1,1,0.5,1,1,nan"],
         "argument --rates: value must be a finite real, got nan"),
        (["pde", "--t-end", "inf"], "argument --t-end: value must be a finite real, got inf"),
        (["pde", "--n-cells", "64.5"], "argument --n-cells: value must be an integer, got 64.5"),
        (["analyze", "--rates", "1,2"],
         "argument --rates: expected 6 comma-separated numbers, got '1,2'"),
        (["analyze", "--guess", "1,2,3"],
         "argument --guess: expected 2 comma-separated numbers, got '1,2,3'"),
    ])
    def test_number_rule_refusals_are_usage_errors(self, tmp_path, capsys, argv, message):
        # the flag's type refuses the value, before any command runs
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out-dir", str(tmp_path)])
        assert info.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag, value", [
        (["pde", "--x-max", "20", "--t-end", "5", "--n-snapshots", "4", "--probe-x", "10"],
         "--n-cells", "64"),
        (["fit", "{data}", "--model", "logistic"], "--alpha", "2"),
        (["simulate", "--model", "power"], "--points", "5"),
    ])
    def test_integral_floats_run_as_their_integers(self, tmp_path, argv, flag, value):
        t = np.linspace(0.0, 8.0, 40)
        y = models.evaluate(models.GeneralizedLogisticParams(2.0, 1.0, 2, 0.1), t)
        data = tmp_path / "logistic.csv"
        data.write_text("".join(f"{ti!r},{yi!r}\n" for ti, yi in zip(t.tolist(), y.tolist())))
        argv = [str(data) if a == "{data}" else a for a in argv]
        written = {}
        for spelling in (value, value + ".0"):
            out = tmp_path / spelling
            assert main([*argv, flag, spelling, "--out-dir", str(out)]) == 0
            written[spelling] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert written[value] and written[value] == written[value + ".0"]

    def test_every_numeric_flag_follows_the_number_rule(self):
        # a flag typed int or float, or a numeric flag left untyped, would
        # be a second number rule beside errors.check_number
        rule = cli._numbers().__code__
        subcommands = next(a for a in cli.build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction)).choices
        typed = 0
        for name, parser in subcommands.items():
            for action in parser._actions:
                default = action.default
                numeric = isinstance(default, (int, float, list)) \
                    and not isinstance(default, bool)
                if action.type is None:
                    assert not numeric, (name, action.dest)
                    continue
                assert action.type not in (int, float), (name, action.dest)
                assert getattr(action.type, "__code__", None) is rule, (name, action.dest)
                if default is not None:  # the default passes its own flag's rule
                    text = ",".join(map(repr, default)) if isinstance(default, list) \
                        else repr(default)
                    assert action.type(text) == default, (name, action.dest)
                typed += 1
        assert typed == 41  # 19 scalar (the input flags twice), 10 list, 12 record flags

    def test_flag_table_is_pinned(self):
        rule = cli._numbers().__code__
        subcommands = next(a for a in cli.build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction)).choices
        table = {}
        for name, parser in subcommands.items():
            table[name] = {}
            for action in parser._actions:
                if getattr(action.type, "__code__", None) is rule:
                    spec = inspect.getclosurevars(action.type).nonlocals
                    arity = "1+" if spec["many"] is True else spec["many"] or 1
                    default = "required" if action.required else action.default
                    for flag in action.option_strings:
                        table[name][flag] = (spec["kind"], spec["sign"], arity, default)
        assert table == _FLAG_TABLE
        # == takes 1 for 1.0, so check that each default is of its flag's kind
        for kind, _, _, default in (row for flags in table.values() for row in flags.values()):
            values = default if isinstance(default, list) else [default]
            assert all(type(v) is kind for v in values if v not in (None, "required"))

    def test_accumulation_start_keeps_later_samples(self, tmp_path, capsys):
        data = tmp_path / "pow.csv"
        _write_power_csv(data, n=40)  # t = 0.2 ... 6.0
        out = tmp_path / "out"
        code = main(["classify-early", str(data), "--accumulation-start", "3",
                     "--out-dir", str(out)])
        assert code == 0
        report = _read_report(capsys.readouterr().out.splitlines()[0])
        t = np.linspace(0.2, 6.0, 40)
        assert report["n_points"] == int((t >= 3.0).sum())

    def test_accumulation_start_past_the_data_exit_2(self, tmp_path, capsys):
        data = tmp_path / "pow.csv"
        _write_power_csv(data)
        out = tmp_path / "out"
        code = main(["fit", str(data), "--model", "power", "--accumulation-start", "100",
                     "--out-dir", str(out)])
        assert code == 2
        assert "--accumulation-start 100.0 leaves no samples" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_negative_times_exit_2(self, tmp_path, capsys):
        data = tmp_path / "neg.csv"
        t = np.linspace(-2.0, 6.0, 40)
        y = 5.0 / (1.0 + 4.0 * np.exp(-t))
        data.write_text("".join(f"{float(ti)!r},{float(yi)!r}\n" for ti, yi in zip(t, y)))
        out = tmp_path / "out"
        code = main(["fit", str(data), "--model", "logistic", "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: time must be >= 0, got -2.0 at index 0\n"
        assert not out.exists() or list(out.iterdir()) == []


class TestConfigLines:
    def _simulate(self, tmp_path, text):
        conf = tmp_path / "run.conf"
        conf.write_text(text)
        return main(["simulate", "--model", "power", "--config", str(conf),
                     "--out-dir", str(tmp_path / "out")])

    def test_comment_only_lines_are_skipped(self, tmp_path, capsys):
        assert self._simulate(tmp_path, "# a comment\n   # another\n\npoints = 5\n") == 0
        report = _read_report(capsys.readouterr().out.splitlines()[1])
        assert report["grid"]["points"] == 5

    def test_empty_key_exit_2(self, tmp_path, capsys):
        assert self._simulate(tmp_path, "points = 5\n = 3\n") == 2
        assert "line 2: empty key" in capsys.readouterr().err

    def test_true_value_is_a_bare_flag(self, tmp_path, capsys):
        data = tmp_path / "pow.csv"
        _write_power_csv(data)
        conf = tmp_path / "run.conf"
        conf.write_text("cumulative = true\n")
        code = main(["fit", str(data), "--model", "power", "--config", str(conf),
                     "--out-dir", str(tmp_path / "out")])
        assert code == 0
        report = _read_report(capsys.readouterr().out.splitlines()[1])
        assert report["cumulative"] is True
