"""The benchmark's traced run reports every per-layer metric it declares.

`perfbench/tracing.py` wraps the library's public names and reduces the
spans to the metrics `BENCHMARK.json` lists.  A metric derived from a name
the library no longer calls, or from a boundary count no call records, is
silently absent from a traced run, so a change to the library can break the
benchmark without failing it.  This test reads both files, edits neither,
and runs one small item of every traced layer under the tracer.
"""

import json
import math
import sys
from pathlib import Path

import pytest

import loopsplit as ls
import loopsplit.cli  # noqa: F401  (binds the traced cli.main)
from loopsplit.generators import (
    random_basic_pair,
    random_dressing_element,
    random_tau_instance,
    rng_for,
)

ROOT = Path(__file__).resolve().parents[1]
# computed by perfbench/run.py from its own timings, not from spans
RUN_METRICS = ("trace.untraced_throughput_per_s", "trace.traced_throughput_per_s",
               "trace.overhead_ratio")


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)
    sys.modules.pop("workloads", None)


def test_traced_item_yields_every_declared_per_layer_metric(tracing):
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert declared == [name for name, _, _ in tracing.metric_spec()]

    rng = rng_for(11)
    grid = ls.Grid2D.centered(0.4, 7, 0.4, 7)
    gm, fp = random_basic_pair(rng, grid, n=4, scale=0.4)
    g = random_dressing_element(rng, 4, "minus")
    s = ls.SymmetrySpec(2, 1)
    x, _, _ = random_tau_instance(rng, s, radius=1, scale=0.15)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.item = 0
        F = ls.merge(gm, fp)
        g2, f2 = ls.split(F)
        ls.merge(g2, f2)
        ls.maurer_cartan(f2)
        ls.dress_plus(g, f2)
        # field_roundtrip makes no pointwise call: its factorization
        # figures must come from the field operations alone
        field_only = tracing.layer_metrics(tracer, 1)
        ls.birkhoff_left(ls.mul(gm.value(1, 2), fp.value(1, 2)))
        ls.tau_iwasawa(x, s, constant_group="general")
    finally:
        tracer.remove()
    assert {"factorization.residual_log10_max",
            "factorization.condition_log10_max"} <= set(field_only)
    metrics = tracing.layer_metrics(tracer, 1)
    missing = [name for name in declared if name not in metrics and name not in RUN_METRICS]
    assert not missing
    assert all(math.isfinite(value) for value, _ in metrics.values())
    # a share of the truncated_inverse calls: the Birkhoff kernel's own
    # forward substitution must not count as one
    assert 0.0 <= metrics["loops.truncated_inverse.neumann_share"][0] <= 1.0


def test_traced_integration_counts_its_nodes(tracing):
    grid = ls.Grid2D.from_spacing(0.1, 0.05, 7, -0.2, 0.05, 7, base=(3, 3))
    eta = ls.assemble_connection(ls.spaceforms.example_sphere_connection(grid))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.item = 0
        ls.integrate_potential(eta)
    finally:
        tracer.remove()
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["fields.integrate_potential.calls"][0] == 1
    assert metrics["fields.integrate_potential.busy_ms"][0] > 0
    assert metrics["fields.nodes_attempted"][0] == 49
    assert metrics["fields.nodes_masked"][0] == 0
