"""Layered benchmark of loopsplit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): field_roundtrip, pointwise_factor,
cli_session.  Each runs closed-loop in this one process:
the next item starts when the last one finishes.  Items cycle through a small
seeded input pool; the timed run stops at the pool-cycle boundary nearest to
`--seconds`.  Every item checks its outputs against the library's bounds and
re-checks that a repeated input gives identical non-timing outputs.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics: throughput_per_s, latency_p50_ms, setup_s (median of three
set-ups: this process and two fresh probe processes) and peak_rss_mb.
Failed operations (masked nodes, raised factorization errors, non-zero CLI
exits) are counted in `failed` against `attempted`.

With --trace 1 the run processes a fixed list of items twice, untraced and
then traced, and reports the per-layer metrics of tracing.py per traced item,
together with the tracing overhead.

The line before the last carries the environment record, the host canary,
the fail ratio and a digest of the non-timing outputs.  The same data lands in
.perfbench_out/: <workload>-s<seed>-t<trace>.outputs.json holds only
deterministic outputs, .timings.json the rest, and a traced run also writes
every span to <workload>-s<seed>-t1.spans.csv.gz.

The program is imported from src/ of the checkout; without it the benchmark
exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("field_roundtrip", "pointwise_factor", "cli_session")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 150


def process_age() -> float:
    """Seconds since this process started (Linux), else since this module loaded."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - T_START


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true",
                   help="set up, run the warm-up item, print the set-up time and exit")
    return p.parse_args(argv)


def import_library():
    """Import loopsplit from src/ of this checkout, and nowhere else."""
    pkg = ROOT / "src" / "loopsplit" / "__init__.py"
    if not pkg.is_file():
        print(f"perfbench: no program to measure: {pkg} is missing", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import loopsplit

    if Path(loopsplit.__file__).resolve() != pkg.resolve():
        print(f"perfbench: imported {loopsplit.__file__}, expected {pkg}", file=sys.stderr)
        sys.exit(2)


class Run:
    """One workload in this process: set-up, timed items, failure accounting."""

    def __init__(self, name, seed):
        import workloads

        self.workload = workloads.WORKLOADS[name]()
        self.check_failed = workloads.CheckFailed
        self.seed = seed
        self.workdir = OUT_DIR / "work" / f"{name}-{os.getpid()}"
        self.first = {}          # pool entry -> non-timing outputs of its first pass
        self.attempted = 0
        self.failed = 0
        self.tracer = None       # set while a traced pass runs

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.workload.setup(self.seed, str(self.workdir))
        self.item(0)  # untimed warm-up
        return process_age()

    def item(self, k):
        if self.tracer is not None:
            self.tracer.item = k
        out = self.workload.run_item(k)
        self.attempted += out.attempted
        self.failed += out.failed
        p = k % self.workload.pool_size
        record = {"attempted": out.attempted, "failed": out.failed, **out.record}
        if p not in self.first:
            self.first[p] = record
        elif record != self.first[p]:
            diff = sorted(key for key in set(record) | set(self.first[p])
                          if record.get(key) != self.first[p].get(key))
            raise self.check_failed(f"repeat of pool entry {p} gives different outputs",
                                    diff, "identical")

    def timed(self, count=None, seconds=None):
        """Closed loop over items 0, 1, ...: a fixed count, or whole pool
        cycles ending at the cycle boundary nearest to `seconds`.
        Returns (latencies, elapsed)."""
        pool = self.workload.pool_size
        latencies = []
        t0 = time.perf_counter()
        k = 0
        while True:
            if count is not None and k >= count:
                break
            if count is None and k and k % pool == 0:
                elapsed = time.perf_counter() - t0
                if elapsed + 0.5 * elapsed / (k // pool) >= seconds:
                    break
            t = time.perf_counter()
            self.item(k)
            latencies.append(time.perf_counter() - t)
            k += 1
        return latencies, time.perf_counter() - t0

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def probe_setup(args):
    """Set-up time of fresh processes, each running import, input generation
    and the warm-up item."""
    samples = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def nominal_trace_items(workload, seconds):
    """Items of a traced run: whole pool cycles filling about half of the
    run's seconds at the nominal cycle cost, fixed for given arguments."""
    cycles = max(1, round(0.5 * seconds / workload.nominal_cycle_s))
    return cycles * workload.pool_size


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(args):
    import hostinfo

    run = Run(args.workload, args.seed)
    timings = {}
    try:
        setup_self = run.setup()
        if args.probe_setup:
            print(json.dumps({"setup_s": setup_self}))
            return 0
        metrics = {}
        if args.trace == 0:
            setup_samples = [setup_self] + probe_setup(args)
            canary = hostinfo.canary_ms()
            latencies, elapsed = run.timed(seconds=args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "throughput_per_s": metric(len(latencies) / elapsed, "items/s"),
                "latency_p50_ms": metric(1e3 * statistics.median(latencies), "ms"),
                "setup_s": metric(statistics.median(setup_samples), "s"),
                "peak_rss_mb": metric(rss_mb, "MB"),
            }
            timings["setup_samples_s"] = setup_samples
            if len(latencies) >= 100:
                timings["latency_p90_ms"] = 1e3 * statistics.quantiles(latencies, n=10)[-1]
        else:
            import tracing
            import workloads

            canary = hostinfo.canary_ms()
            count = nominal_trace_items(run.workload, args.seconds)
            latencies, elapsed = run.timed(count=count)
            tracer = run.tracer = tracing.Tracer()
            tracer.install(extra_modules=(workloads,))
            try:
                _, traced_elapsed = run.timed(count=count)
            finally:
                tracer.remove()
            untraced_tp, traced_tp = count / elapsed, count / traced_elapsed
            layer = tracing.layer_metrics(tracer, count)
            layer["trace.untraced_throughput_per_s"] = (untraced_tp, "items/s")
            layer["trace.traced_throughput_per_s"] = (traced_tp, "items/s")
            layer["trace.overhead_ratio"] = (untraced_tp / traced_tp, "ratio")
            metrics = {name: metric(v, unit) for name, (v, unit) in layer.items()}
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"{args.workload}-s{args.seed}-t1.spans.csv.gz")
            timings["spans"] = len(tracer.spans)
        timings.update({
            "items": len(latencies),
            "elapsed_s": elapsed,
            "latency_ms": [1e3 * x for x in latencies],
            "canary_ms": canary,
            "environment": hostinfo.environment(ROOT, BLAS_ENV),
        })
        correct = True
    except run.check_failed as exc:
        print(f"perfbench: check failed on {args.workload}: {exc.check} = {exc.value!r} "
              f"(bound {exc.bound!r})", file=sys.stderr)
        correct, metrics = False, {}
    finally:
        run.cleanup()

    outputs = {"workload": args.workload, "seed": args.seed,
               "pool": {str(p): run.first[p] for p in sorted(run.first)}}
    blob = json.dumps(outputs, sort_keys=True, default=repr).encode()
    stem = OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    stem.with_suffix(".outputs.json").write_bytes(blob + b"\n")
    stem.with_suffix(".timings.json").write_text(json.dumps(timings, indent=1) + "\n")
    summary = {
        "workload": args.workload,
        "fail_ratio": run.failed / run.attempted if run.attempted else None,
        "outputs_sha256": hashlib.sha256(blob).hexdigest(),
        **{key: val for key, val in timings.items() if key != "latency_ms"},
    }
    print(json.dumps({"perfbench": summary}, default=repr))
    print(json.dumps({"correct": correct, "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own process, one after the other."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ok = ok and proc.returncode == 0 and result.get("correct") is True
        print(f"== {name}: exit {proc.returncode}, correct {result.get('correct')}, "
              f"failed {result.get('failed')}/{result.get('attempted')}")
        for key, m in result.get("metrics", {}).items():
            print(f"   {key:45s} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    for key in BLAS_ENV:  # before numpy is first imported
        os.environ[key] = "1"
    if args.workload == "all":
        return run_all(args)
    import_library()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
