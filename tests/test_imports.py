"""scipy.linalg loads only where a solve needs it.

factorization imports scipy.linalg inside the one function that calls it,
for the LU factorization of a mode system over 64 rows; square roots and
exponentials of constants are numpy's.  Every check runs in a fresh
interpreter under -W error: the test modules import scipy.linalg
themselves, so in this process a broken local import, or a warning raised
by the first import, would go unseen.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Runs one case and prints the functions that executed an
# `import scipy.linalg` line of loopsplit, in order of first execution, then
# the numpy root kernel and the function holding the shifts' exponentials
# that it ran.
SCRIPT = r"""
import linecache, os, sys
import numpy as np
import loopsplit as ls, loopsplit.cli
from loopsplit.generators import random_basic_pair, random_flat_field, rng_for

assert "scipy.linalg" not in sys.modules, "imported by import loopsplit"
SRC = os.path.dirname(ls.__file__)
KERNELS = {"principal_roots", "_shifts"}
sites, kernels = [], set()

def local(frame, event, arg):
    if event == "line" and "import scipy.linalg" in linecache.getline(
            frame.f_code.co_filename, frame.f_lineno):
        if frame.f_code.co_name not in sites:
            sites.append(frame.f_code.co_name)
    return local

def tracer(frame, event, arg):
    if not frame.f_code.co_filename.startswith(SRC):
        return None
    kernels.update(KERNELS & {frame.f_code.co_name})
    return local

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
    ls.birkhoff_left(g, N=17)  # 68 rows
elif case == "constant_root":
    R = np.eye(4)
    R[[0, 0, 3, 3], [0, 3, 0, 3]] = np.cos(0.3), -np.sin(0.3), np.sin(0.3), np.cos(0.3)
    ls.tau_iwasawa(ls.constant(R), ls.SymmetrySpec(2, 1))
elif case == "constant_shift":
    ls.solve_constant_tau(np.diag([-1.0, 1.0, -1.0]), ls.SymmetrySpec(1, 1), form="lorentz")
elif case == "polar_gauge":
    F = random_flat_field(rng_for(5), grid, "R1", ls.GroupSpec("orthogonal", 2, 1))
    ls.tau_merge(F, ls.SymmetrySpec(2, 1))
elif case == "iwasawa_merge_immerse":
    import json, tempfile
    from loopsplit.serialize import frame_field_to_obj, save_json
    F = random_flat_field(rng_for(5), grid, "R1", ls.GroupSpec("orthogonal", 2, 1))
    with tempfile.TemporaryDirectory() as d:
        save_json(frame_field_to_obj(F), os.path.join(d, "flat.json"))
        for argv, paths in ((["iwasawa-merge"], {"in": "flat.json", "out": "nonflat.json"}),
                            (["immerse", "--lambda", "2i"], {"in": "nonflat.json", "mesh": "mesh.obj"})):
            config = os.path.join(d, argv[0] + ".config.json")
            with open(config, "w") as fh:
                json.dump({"reality": "R1",
                           "paths": {k: os.path.join(d, v) for k, v in paths.items()}}, fh)
            assert loopsplit.cli.main(argv + ["--config", config]) == 0, argv
sys.settrace(None)
print(" ".join(sites))
print(" ".join(sorted(kernels)))
print("scipy.linalg" in sys.modules)
"""


def run_case(case):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-W", "error", "-c", SCRIPT, case],
                         env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    sites, kernels, loaded = out.stdout.splitlines()[-3:]
    return sites.split(), kernels.split(), loaded == "True"


def test_field_pipeline_never_loads_scipy_linalg():
    # merge, split, Maurer-Cartan orders and dressing of a basic pair solve
    # only small mode systems; a module-level import would fail this
    sites, _, loaded = run_case("basic_pair")
    assert sites == [] and not loaded


@pytest.mark.parametrize("case, site", [
    ("large_system", "_solve_modes"),      # LU of a mode system over 64 rows
])
def test_each_local_import_loads_scipy_linalg(case, site):
    sites, _, loaded = run_case(case)
    assert sites == [site] and loaded


# the numpy code each case runs in place of scipy.linalg's sqrtm and expm
# (_shifts takes the exponentials of constants from stack_exp)
KERNELS_USED = {
    "constant_root": ["principal_roots"],               # the constant solve
    "constant_shift": ["_shifts", "principal_roots"],   # its retried shifts
    "polar_gauge": ["principal_roots"],                 # tau_merge's polar gauge
    "iwasawa_merge_immerse": ["principal_roots"],       # the CLI, then immerse
}


@pytest.mark.parametrize("case", list(KERNELS_USED))
def test_roots_and_exponentials_never_load_scipy_linalg(case):
    assert run_case(case) == ([], KERNELS_USED[case], False)
