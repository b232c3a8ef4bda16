"""Smoke runs of the demo scripts: each must finish with exit status 0,
with numpy runtime warnings raised as errors as in the rest of the suite,
and a value the library refuses must end in one error line and exit 2.

``field_infall.py`` is left out: it takes about 15 s, acceptance criterion
07 already runs its march and probe code path, and ``test_fields`` covers
the characteristic solution it compares against.
"""
import os
import pathlib
import subprocess
import sys

import pytest

import growthdyn

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = str(pathlib.Path(growthdyn.__file__).resolve().parent.parent)


def _run(tmp_path, script, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(DEMOS / script), *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True)


@pytest.mark.parametrize("script", ["growth_curves.py", "fit_noisy_series.py",
                                    "stability_portrait.py", "competition_race.py"])
def test_demo_runs(tmp_path, script):
    proc = _run(tmp_path, script)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script, argv, message", [
    ("stability_portrait.py", ["--a-r", "nan"], "a_r must be a finite real, got nan"),
    ("competition_race.py", ["--a1", "nan"],
     "CompetitionParams.a1 must be > 0 (a finite real), got nan"),
])
def test_refused_value_exits_2(tmp_path, script, argv, message):
    # a value the library refuses ends in one error line, as in the CLI
    proc = _run(tmp_path, script, *argv)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert "Traceback" not in proc.stderr
