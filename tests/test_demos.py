"""Smoke runs of the demo scripts: each must finish with exit status 0,
with numpy runtime warnings raised as errors as in the rest of the suite.

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


@pytest.mark.parametrize("script", ["growth_curves.py", "fit_noisy_series.py",
                                    "stability_portrait.py", "competition_race.py"])
def test_demo_runs(tmp_path, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(DEMOS / script)],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
