"""Environment record and host canary.

The record names the machine and the software the run used; the canary is a
fixed pure-numpy kernel, independent of `loopsplit`, timed in every run so
that drift of the host can be told apart from a change in the program.
Neither is gated.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas():
    """(version string, threads in use) of the OpenBLAS numpy loaded."""
    version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
        if threads is not None:
            break
    return version, threads


def _git_revision(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        target = root / ".git" / name
        if target.is_file():
            return target.read_text().strip()
        packed = root / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_line_count(root: Path) -> int:
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def environment(root: Path, blas_env) -> dict:
    import scipy

    version, threads = _openblas()
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": version,
        "blas_threads": threads,
        "blas_env": {key: os.environ.get(key) for key in blas_env},
        "git_revision": _git_revision(root),
        "src_lines": src_line_count(root),
    }


def canary_ms(reps=5) -> float:
    """Median time of a fixed kernel shaped like the library's work: many
    small complex matrix products driven from Python, and a few dense solves."""
    rng = np.random.default_rng(20260)
    small = rng.standard_normal((16, 4, 4)) + 1j * rng.standard_normal((16, 4, 4))
    big = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
    rhs = rng.standard_normal((96, 4)) + 1j * rng.standard_normal((96, 4))
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        acc = np.zeros((4, 4), dtype=complex)
        for k in range(1500):
            acc = acc + small[k % 16] @ small[(k * 7) % 16]
        for _ in range(10):
            np.linalg.solve(big, rhs)
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)
