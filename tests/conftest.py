"""Put the source tree on PYTHONPATH for subprocesses as well.

pyproject's ``pythonpath`` makes ``growthdyn`` importable inside pytest; the
entry-point tests also start ``python -m growthdyn``, which needs it in the
environment when the package is not installed.  Those subprocesses also turn
every warning into an error, as pyproject's ``filterwarnings`` does in-process.
"""
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
os.environ["PYTHONWARNINGS"] = "error"
