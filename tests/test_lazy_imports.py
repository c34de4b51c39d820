"""Only the Monte Carlo engine imports numpy, and no command imports
scipy: `price`, `greeks` and `vv-price` load neither, `mc-check` loads
numpy and runs with scipy blocked, `price` and `greeks` do not load the
standard library's `statistics` either (only Vanna-Volga's quantile uses
it), and every public name of the package still resolves, numpy-backed
or not.

The checks run in fresh interpreters: this test process has numpy
loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fxx

MARKET = {"spot": 100.0, "domestic_rate": 0.03, "foreign_rate": 0.01,
          "volatility": 0.2, "maturity": 1.0}
REQUESTS = {
    "single": {"type": "single_barrier", "direction": "call", "strike": 100.0,
               "barrier": 80.0, "side": "lower", "knock": "out"},
    "corridor": {"type": "double_barrier", "direction": "put", "strike": 100.0,
                 "lower_barrier": 85.0, "upper_barrier": 115.0, "knock": "in"},
}

MC_CHECK = ["mc-check", "single.json", "--paths", "2048", "--steps", "50", "--bridge"]

CHILD = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in ("numpy", "scipy") if m in sys.modules)

from fxx.cli import main
report = {"codes": []}
with contextlib.redirect_stdout(io.StringIO()):
    for name in ("single", "corridor"):
        report["codes"].append(main(["price", name + ".json"]))
        report["codes"].append(main(["greeks", name + ".json"]))
    report["after_closed_forms"] = loaded()
    report["statistics_after_closed_forms"] = "statistics" in sys.modules
    report["codes"].append(main(["vv-price", "single.json", "quotes.json"]))
    report["after_vv_price"] = loaded()
    report["codes"].append(main(MC_CHECK))
    report["after_mc_check"] = loaded()

import fxx
star = {}
exec("from fxx import *", star)
report["unbound_by_star"] = [n for n in fxx.__all__ if n not in star]
report["not_getattr"] = [n for n in fxx.__all__ if getattr(fxx, n) is not star.get(n)]
try:
    fxx.no_such_name
except AttributeError:
    report["unknown_raises"] = True
else:
    report["unknown_raises"] = False
print(json.dumps(report))
"""

SCIPY_BLOCKED = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from fxx.cli import main
sys.exit(main(MC_CHECK))
"""


@pytest.fixture(scope="module")
def run_child(tmp_path_factory):
    """Runs a script in a fresh interpreter, in a directory holding the
    request files, with MC_CHECK defined."""
    workdir = tmp_path_factory.mktemp("lazy")
    for name, contract in REQUESTS.items():
        (workdir / f"{name}.json").write_text(
            json.dumps({"market": MARKET, "contract": contract}))
    (workdir / "quotes.json").write_text(json.dumps({"atm_vol": 0.2, "rr_25": -0.01,
                                                     "bf_25": 0.003}))
    env = dict(os.environ, PYTHONPATH=str(Path(fxx.__file__).resolve().parent.parent))

    def run(script: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", f"MC_CHECK = {MC_CHECK!r}\n{script}"],
                              cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=120)
    return run


@pytest.fixture(scope="module")
def child_report(run_child):
    proc = run_child(CHILD)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_succeed(child_report):
    assert child_report["codes"] == [0] * 6


def test_price_and_greeks_load_neither_numpy_nor_scipy(child_report):
    assert child_report["after_closed_forms"] == []


def test_price_and_greeks_do_not_load_statistics(child_report):
    assert not child_report["statistics_after_closed_forms"]


def test_vv_price_loads_neither_numpy_nor_scipy(child_report):
    assert child_report["after_vv_price"] == []


def test_mc_check_loads_numpy_not_scipy(child_report):
    assert child_report["after_mc_check"] == ["numpy"]


def test_mc_check_runs_with_scipy_blocked(run_child):
    proc = run_child(SCIPY_BLOCKED)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "mc-check"


def test_every_public_name_resolves(child_report):
    assert child_report["unbound_by_star"] == []
    assert child_report["not_getattr"] == []


def test_unknown_attribute_raises(child_report):
    assert child_report["unknown_raises"]
