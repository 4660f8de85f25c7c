"""scipy.linalg loads only where a solve needs it.

factorization and fields import scipy.linalg inside the four functions that
call it.  Every check runs in a fresh interpreter under -W error: the test
modules import scipy.linalg themselves, so in this process a broken local
import, or a warning raised by the first import, would go unseen.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Runs one case and prints the functions that executed an
# `import scipy.linalg` line of loopsplit, in order of first execution.
SCRIPT = r"""
import linecache, os, sys
import numpy as np
import loopsplit as ls, loopsplit.cli
from loopsplit.generators import random_basic_pair, random_flat_field, rng_for

assert "scipy.linalg" not in sys.modules, "imported by import loopsplit"
SRC = os.path.dirname(ls.__file__)
sites = []

def local(frame, event, arg):
    if event == "line" and "import scipy.linalg" in linecache.getline(
            frame.f_code.co_filename, frame.f_lineno):
        if frame.f_code.co_name not in sites:
            sites.append(frame.f_code.co_name)
    return local

def tracer(frame, event, arg):
    return local if frame.f_code.co_filename.startswith(SRC) else None

grid = ls.Grid2D.from_spacing(0.0, 0.1, 5, 0.0, 0.1, 5)
case = sys.argv[1]
sys.settrace(tracer)
if case == "basic_pair":
    gm, fp = random_basic_pair(rng_for(3), grid)
    gm2, fp2 = ls.split(ls.merge(gm, fp))
    for F in (gm2, fp2):
        ls.connection_order(ls.maurer_cartan(F))
    ls.dress_plus(ls.identity(4), fp2)
elif case == "large_system":
    g = ls.from_terms({0: np.eye(4), -1: 0.02 * np.ones((4, 4)), 1: 0.1 * np.eye(4)})
    ls.birkhoff_left(g, N=9)  # 36 rows
elif case == "constant_root":
    R = np.eye(4)
    R[[0, 0, 3, 3], [0, 3, 0, 3]] = np.cos(0.3), -np.sin(0.3), np.sin(0.3), np.cos(0.3)
    ls.tau_iwasawa(ls.constant(R), ls.SymmetrySpec(2, 1))
elif case == "constant_shift":
    ls.solve_constant_tau(np.diag([-1.0, 1.0, -1.0]), ls.SymmetrySpec(1, 1), form="lorentz")
elif case == "polar_gauge":
    F = random_flat_field(rng_for(5), grid, "R1", ls.GroupSpec("orthogonal", 2, 1))
    ls.tau_merge(F, ls.SymmetrySpec(2, 1))
sys.settrace(None)
print(" ".join(sites))
print("scipy.linalg" in sys.modules)
"""


def run_case(case):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-W", "error", "-c", SCRIPT, case],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    sites, loaded = out.stdout.splitlines()[-2:]
    return sites.split(), loaded == "True"


def test_field_pipeline_never_loads_scipy_linalg():
    # merge, split, Maurer-Cartan orders and dressing of a basic pair solve
    # only small mode systems; a module-level import would fail this
    assert run_case("basic_pair") == ([], False)


@pytest.mark.parametrize("case, site", [
    ("large_system", "_solve_modes"),      # LU of a mode system over 32 rows
    ("constant_root", "_attempt"),         # sqrtm of the constant solve
    ("constant_shift", "_shifts"),         # expm of a retried constant solve
    ("polar_gauge", "_gauge_factors"),     # sqrtm of tau_merge's polar gauge
])
def test_each_local_import_loads_scipy_linalg(case, site):
    sites, loaded = run_case(case)
    assert site in sites and loaded
