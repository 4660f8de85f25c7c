"""Span tracing of the library's layer boundaries, from outside the library.

`Tracer.install()` replaces each public name listed in `LAYERS` with a
recording wrapper, in every loaded `loopsplit` module (and any extra module
passed in) that binds it, so that calls between modules are seen as well as
calls from the benchmark.  `Tracer.remove()` puts the originals back.  A name
that no longer exists is skipped, and the metrics derived from it are absent.

Each span holds its name, start, end, parent span, item id and a few counts
taken at the boundary.  Spans stay in memory while the run lasts; then
`layer_metrics` reduces them to per-item figures and `write` saves them.
"""

from __future__ import annotations

import csv
import gzip
import math
import os
import sys
from time import perf_counter

from workloads import count_nodes

# layer -> public functions wrapped in that layer's module
LAYERS = {
    "loops": ("mul", "truncated_inverse", "_neumann_inverse"),
    "symmetry": ("apply_tau",),
    "factorization": ("birkhoff_left", "birkhoff_right", "tau_iwasawa",
                      "solve_constant_tau"),
    "fields": ("split", "merge", "tau_merge", "maurer_cartan", "connection_order",
               "dress_plus", "dress_pair", "integrate_potential"),
    "spaceforms": ("extract_immersion",),
    "serialize": ("frame_field_to_obj", "frame_field_from_obj",
                  "connection_form_from_obj", "save_json", "load_json",
                  "emit_mesh", "emit_diagnostics"),
    "cli": ("main",),
}

CLI_COMMANDS = ("merge", "split", "dress", "iwasawa-merge", "integrate", "immerse")

# span fields
NAME, START, END, PARENT, ITEM, ERROR, EXTRA = range(7)
# layers whose inclusive (busy) time is reported
BUSY_LAYERS = ("fields.", "spaceforms.", "cli.")


def _width(g):
    return g.hi - g.lo + 1


def metric_spec():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []

    def add(name, unit, better="lower"):
        out.append((name, unit, better))

    for fn in ("mul", "truncated_inverse"):
        add(f"loops.{fn}.calls", "count/item")
        add(f"loops.{fn}.self_ms", "ms/item")
    # computed from the operands' degree windows (sum of wx * wy), not timed
    add("loops.mul.block_products", "count/item")
    add("loops.truncated_inverse.neumann_share", "ratio")
    add("loops.LaurentLoop.constructions", "count/item")
    for fn in LAYERS["symmetry"]:
        add(f"symmetry.{fn}.calls", "count/item")
        add(f"symmetry.{fn}.self_ms", "ms/item")
    for fn in LAYERS["factorization"]:
        add(f"factorization.{fn}.calls", "count/item")
        add(f"factorization.{fn}.self_ms", "ms/item")
    add("factorization.failures", "count/item")
    add("factorization.residual_log10_max", "log10")
    add("factorization.condition_log10_max", "log10")
    for fn in LAYERS["fields"]:
        add(f"fields.{fn}.calls", "count/item")
        add(f"fields.{fn}.busy_ms", "ms/item")
        add(f"fields.{fn}.self_ms", "ms/item")
    add("fields.nodes_attempted", "count/item", "higher")
    add("fields.nodes_masked", "count/item")
    for fn in LAYERS["spaceforms"]:
        add(f"spaceforms.{fn}.busy_ms", "ms/item")
        add(f"spaceforms.{fn}.self_ms", "ms/item")
    for fn in LAYERS["serialize"]:
        add(f"serialize.{fn}.self_ms", "ms/item")
    add("serialize.bytes_written", "B/item")
    for command in CLI_COMMANDS:
        add(f"cli.{command}.busy_ms", "ms/item")
    add("cli.nonzero_exits", "count/item")
    add("trace.untraced_throughput_per_s", "items/s", "higher")
    add("trace.traced_throughput_per_s", "items/s", "higher")
    add("trace.overhead_ratio", "ratio")
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.constructions = 0
        self.present = set()
        self._patched = []  # (namespace dict, name, original)

    # -- installation ---------------------------------------------------------

    def install(self, extra_modules=()):
        import loopsplit

        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "loopsplit" or key.startswith("loopsplit."))]
        modules += list(extra_modules)
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"loopsplit.{layer}")
            for name in names:
                orig = getattr(home, name, None) if home is not None else None
                if not callable(orig):
                    continue
                self.present.add(f"{layer}.{name}")
                wrapper = self._wrap(f"{layer}.{name}", orig)
                for mod in modules:
                    ns = vars(mod)
                    for key, val in list(ns.items()):
                        if val is orig:
                            self._patched.append((ns, key, orig))
                            ns[key] = wrapper
        loop_cls = getattr(loopsplit, "LaurentLoop", None)
        if loop_cls is not None:
            orig_init = loop_cls.__init__
            tracer = self

            def counting_init(obj, *args, **kwargs):
                tracer.constructions += 1
                orig_init(obj, *args, **kwargs)

            self._patched.append((loop_cls, "__init__", orig_init))
            loop_cls.__init__ = counting_init
            self.present.add("loops.LaurentLoop")

    def remove(self):
        for ns, key, orig in reversed(self._patched):
            if isinstance(ns, dict):
                ns[key] = orig
            else:
                setattr(ns, key, orig)
        self._patched.clear()

    def write(self, path):
        """All spans as gzipped CSV; times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start_s", "end_s", "parent", "item", "error"])
            for idx, s in enumerate(self.spans):
                out.writerow([idx, s[NAME], f"{s[START] - t0:.9f}", f"{s[END] - t0:.9f}",
                              s[PARENT], s[ITEM], s[ERROR] or ""])

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None, None]
            stack.append(len(spans))
            spans.append(span)
            error = result = None
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
                if error is not None:
                    span[ERROR] = type(error).__name__
                if hook is not None:
                    span[EXTRA] = hook(args, kwargs, error, result)

        wrapper.__wrapped__ = fn
        return wrapper


# -- boundary counts ---------------------------------------------------------------


def _mul_hook(args, kwargs, error, result):
    try:
        return _width(args[0]) * _width(args[1])
    except (AttributeError, IndexError, TypeError):
        return None


def _factor_hook(args, kwargs, error, result):
    source = error if error is not None else result
    return (getattr(source, "residual", None), getattr(source, "condition", None))


def _field_nodes_hook(args, kwargs, error, result):
    if error is not None:
        return None
    inputs = [a for a in list(args) + list(kwargs.values()) if hasattr(a, "mask")]
    out = result[-1] if isinstance(result, tuple) else result
    if not inputs or not hasattr(out, "mask"):
        return None
    return count_nodes(out, *inputs)


def _path_hook(position):
    def hook(args, kwargs, error, result):
        path = args[position] if len(args) > position else kwargs.get("path")
        try:
            return os.path.getsize(path)
        except (OSError, TypeError):
            return 0
    return hook


def _cli_hook(args, kwargs, error, result):
    argv = args[0] if args else kwargs.get("argv")
    command = next((tok for tok in argv or () if tok in CLI_COMMANDS), "main")
    return command, result


_HOOKS = {
    "loops.mul": _mul_hook,
    "factorization.birkhoff_left": _factor_hook,
    "factorization.birkhoff_right": _factor_hook,
    "factorization.tau_iwasawa": _factor_hook,
    "serialize.save_json": _path_hook(1),
    "serialize.emit_mesh": _path_hook(1),
    "serialize.emit_diagnostics": _path_hook(0),
    "cli.main": _cli_hook,
}
for _name in ("split", "merge", "tau_merge", "maurer_cartan", "dress_plus",
              "dress_pair", "integrate_potential"):
    _HOOKS[f"fields.{_name}"] = _field_nodes_hook


# -- reduction to per-item metrics ------------------------------------------------


def layer_metrics(tracer, n_items):
    """Reduce the recorded spans to the per-layer metrics of `metric_spec`,
    per traced item.  Metrics of names that were not present are absent."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    # parents precede their children, so one forward pass marks nesting
    under_factor = [False] * len(spans)
    under_field = [False] * len(spans)
    for idx, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += s[END] - s[START]
            parent = spans[p][NAME]
            under_factor[idx] = under_factor[p] or parent.startswith("factorization.")
            under_field[idx] = under_field[p] or parent.startswith("fields.")

    def nested_in_itself(idx):
        name, p = spans[idx][NAME], spans[idx][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    calls, busy, self_ms = {}, {}, {}
    extras = {}
    for idx, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + 1e3 * (dur - child[idx])
        if name.startswith(BUSY_LAYERS) and not nested_in_itself(idx):
            busy[name] = busy.get(name, 0.0) + 1e3 * dur
        if s[EXTRA] is not None:
            extras.setdefault(name, []).append((idx, s[EXTRA]))

    per = 1.0 / n_items
    out = {}
    for name, unit, _ in metric_spec():
        layer, rest = name.split(".", 1)
        fn, _, kind = rest.rpartition(".")
        span_name = f"{layer}.{fn}"
        if span_name in tracer.present and kind in ("calls", "busy_ms", "self_ms"):
            table = {"calls": calls, "busy_ms": busy, "self_ms": self_ms}[kind]
            out[name] = (table.get(span_name, 0) * per, unit)
    if "loops.mul" in tracer.present:
        blocks = sum(e for _, e in extras.get("loops.mul", ()) if e is not None)
        out["loops.mul.block_products"] = (blocks * per, "count/item")
    if {"loops.truncated_inverse", "loops._neumann_inverse"} <= tracer.present:
        total = calls.get("loops.truncated_inverse", 0)
        share = calls.get("loops._neumann_inverse", 0) / total if total else 0.0
        out["loops.truncated_inverse.neumann_share"] = (share, "ratio")
    if "loops.LaurentLoop" in tracer.present:
        out["loops.LaurentLoop.constructions"] = (tracer.constructions * per, "count/item")

    failures, residuals, conditions = 0, [], []
    for idx, s in enumerate(spans):
        if s[NAME].startswith("factorization."):
            if s[ERROR] is not None and not under_factor[idx]:
                failures += 1
            if s[EXTRA] is not None:
                residual, condition = s[EXTRA]
                if residual is not None and math.isfinite(residual):
                    residuals.append(residual)
                if condition is not None and math.isfinite(condition):
                    conditions.append(condition)
    out["factorization.failures"] = (failures * per, "count/item")
    if residuals:
        out["factorization.residual_log10_max"] = (
            math.log10(max(max(residuals), 1e-300)), "log10")
    if conditions:
        out["factorization.condition_log10_max"] = (
            math.log10(max(max(conditions), 1e-300)), "log10")

    attempted = masked = 0
    for name, items in extras.items():
        if not name.startswith("fields."):
            continue
        for idx, extra in items:
            if not under_field[idx]:
                attempted += extra[0]
                masked += extra[1]
    out["fields.nodes_attempted"] = (attempted * per, "count/item")
    out["fields.nodes_masked"] = (masked * per, "count/item")

    written = sum(e for name in ("serialize.save_json", "serialize.emit_mesh",
                                 "serialize.emit_diagnostics")
                  for _, e in extras.get(name, ()))
    out["serialize.bytes_written"] = (written * per, "B/item")

    if "cli.main" in tracer.present:
        cli_busy = dict.fromkeys(CLI_COMMANDS, 0.0)
        nonzero = 0
        for idx, (command, code) in extras.get("cli.main", ()):
            s = spans[idx]
            if command in cli_busy:
                cli_busy[command] += 1e3 * (s[END] - s[START])
            nonzero += code != 0
        for command, ms in cli_busy.items():
            out[f"cli.{command}.busy_ms"] = (ms * per, "ms/item")
        out["cli.nonzero_exits"] = (nonzero * per, "count/item")
    return {name: out[name] for name, _, _ in metric_spec() if name in out}
