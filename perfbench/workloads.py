"""The three seeded workloads of the benchmark.

Each workload builds a small pool of seeded inputs in `setup` and processes
one item per `run_item` call, cycling through the pool.  An item returns an
`Outcome`: how many operations it attempted, how many failed (masked grid
nodes, raised factorization errors, non-zero CLI exits), and a record of its
non-timing outputs.  A result outside the library's own bounds raises
`CheckFailed`; it is never reported as a number.

Only public API is used: top-level `loopsplit` names, `loopsplit.generators`,
`loopsplit.serialize`, `loopsplit.cli.main` and
`loopsplit.spaceforms.example_sphere_connection`, with default options (no
explicit windows, no thread counts).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import loopsplit as ls
from loopsplit import generators as gen
from loopsplit import serialize
from loopsplit.cli import main as cli_main
from loopsplit.spaceforms import example_sphere_connection

FACTOR_ERRORS = (ls.BigCellViolation, ls.NotInIwasawaCell, ls.SingularLoop)


class CheckFailed(Exception):
    """An output fell outside the bound the library promises."""

    def __init__(self, check, value, bound):
        super().__init__(f"{check}: got {value!r}, bound {bound!r}")
        self.check, self.value, self.bound = check, value, bound


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    record: dict = field(default_factory=dict)

    def count(self, attempted, failed):
        self.attempted += int(attempted)
        self.failed += int(failed)

    def at_most(self, check, value, bound):
        """Record value under check and fail the run when it exceeds bound."""
        value = float(value)
        self.record[check] = value
        if not (math.isfinite(value) and value <= bound):
            raise CheckFailed(check, value, bound)

    def require(self, check, ok, value, expected):
        """Record value under check and fail the run unless ok."""
        self.record[check] = value
        if not ok:
            raise CheckFailed(check, value, expected)


def count_nodes(out, *inputs):
    """(nodes attempted, nodes masked) of a field operation: a node is
    attempted when every input has it, masked when the output lacks it."""
    attempted = np.logical_and.reduce([f.mask for f in inputs])
    return int(attempted.sum()), int((attempted & ~out.mask).sum())


class Workload:
    name = ""
    # Inputs per seed.  The cost of an item depends on its input, so a pool
    # of several inputs makes a run's figures depend little on the seed; an
    # odd pool puts the median item on one input rather than between two.
    pool_size = 1
    nominal_cycle_s = 1.0  # rough cost of one pass over the pool, sizes traced runs

    def setup(self, seed, workdir):
        raise NotImplementedError

    def run_item(self, k) -> Outcome:
        raise NotImplementedError


class FieldRoundtrip(Workload):
    """merge -> split -> merge of a 17x17 basic pair, Maurer-Cartan orders of
    both split factors, and dressing of the split F_plus."""

    name = "field_roundtrip"
    nominal_cycle_s = 6.3
    pool_size = 3

    def setup(self, seed, workdir):
        grid = ls.Grid2D.centered(0.5, 17, 0.5, 17)
        self.pool = []
        for p in range(self.pool_size):
            rng = gen.rng_for((seed, 4, p))
            gm, fp = gen.random_basic_pair(rng, grid, n=4, scale=0.4)
            g = gen.random_dressing_element(rng, 4, "minus")
            self.pool.append((gm, fp, g))

    def run_item(self, k):
        gm, fp, g = self.pool[k % self.pool_size]
        out = Outcome()
        F = ls.merge(gm, fp)
        out.count(*count_nodes(F, gm, fp))
        g2, f2 = ls.split(F)
        out.count(*count_nodes(f2, F))
        F2 = ls.merge(g2, f2)
        out.count(*count_nodes(F2, g2, f2))
        out.at_most("merge(split(F)) - F", ls.field_distance(F2, F), 1e-7)
        out.at_most("basic-pair recovery",
                    max(ls.field_distance(g2, gm), ls.field_distance(f2, fp)), 1e-7)
        forms = []
        for half in (g2, f2):
            A = ls.maurer_cartan(half)
            out.count(*count_nodes(A, half))
            forms.append(A)
        om = ls.connection_order(forms[0], tol_order=1e-6)
        op = ls.connection_order(forms[1], tol_order=1e-6)
        out.require("order of G_minus", om == (-1, -1, False), list(om), [-1, -1, False])
        out.require("order of F_plus", op == (1, 1, False), list(op), [1, 1, False])
        dressed = ls.dress_plus(g, f2)
        out.count(*count_nodes(dressed, f2))
        out.record["dressing displacement"] = ls.field_distance(dressed, f2)
        return out


class PointwiseFactor(Workload):
    """Three independent loops per item: a criterion-1 product through
    birkhoff_left and birkhoff_right, a sigma-twisted loop through
    birkhoff_left, and a tau-instance through tau_iwasawa."""

    name = "pointwise_factor"
    nominal_cycle_s = 7.5
    pool_size = 75

    def setup(self, seed, workdir):
        n = 4
        self.s = ls.SymmetrySpec(2, 1)
        self.pool = []
        for p in range(self.pool_size):
            rng = gen.rng_for((seed, 1, p))
            gm = gen.random_minus_unipotent(rng, n, depth=4, scale=0.1, decay=0.3)
            terms = {}
            for d in range(0, 5):
                m = gen.random_matrix(rng, n)
                terms[d] = (0.06 * 0.55 ** d / np.linalg.norm(m, 2)) * m
            terms[0] = terms[0] + np.eye(n)
            gp = ls.from_terms(terms)
            twisted = gen.random_fixed_loop(rng, self.s, ("sigma",), radius=2, scale=0.35)
            x, _, _ = gen.random_tau_instance(rng, self.s, radius=2, scale=0.15)
            self.pool.append((gm, gp, ls.mul(gm, gp), twisted, x))

    def _birkhoff(self, out, tag, fn, g):
        try:
            res = fn(g)
        except FACTOR_ERRORS as exc:
            out.count(1, 1)
            out.record[f"{tag} raised"] = type(exc).__name__
            return None
        out.count(1, 0)
        out.at_most(f"{tag} residual", res.residual, 1e-9)
        return res

    def run_item(self, k):
        gm, gp, prod, twisted, x = self.pool[k % self.pool_size]
        out = Outcome()
        left = self._birkhoff(out, "product left", ls.birkhoff_left, prod)
        if left is not None:
            out.at_most("product factor recovery",
                        max(ls.distance(left.minus, gm), ls.distance(left.plus, gp)), 1e-8)
        self._birkhoff(out, "product right", ls.birkhoff_right, prod)
        tw = self._birkhoff(out, "twisted left", ls.birkhoff_left, twisted)
        if tw is not None:
            out.at_most("twisted factors sigma-fixed",
                        max(ls.fixed_residual(tw.minus, "sigma", self.s),
                            ls.fixed_residual(tw.plus, "sigma", self.s)), 1e-8)
        try:
            iw = ls.tau_iwasawa(x, self.s, constant_group="general")
        except FACTOR_ERRORS as exc:
            out.count(1, 1)
            out.record["tau raised"] = type(exc).__name__
        else:
            out.count(1, 0)
            out.at_most("tau reconstruction", iw.residuals["reconstruction"], 1e-8)
            out.at_most("tau fixedness", iw.residuals["tau_fixed"], 1e-8)
        return out


SESSION = ("merge", "split", "dress", "iwasawa-merge", "integrate", "immerse")


class CliSession(Workload):
    """merge -> split (diagnostics CSV) -> dress (pair) -> iwasawa-merge ->
    integrate -> immerse (OBJ + CSV), through loopsplit.cli.main in-process,
    on seeded 9x9 JSON inputs written during setup."""

    name = "cli_session"
    nominal_cycle_s = 14.0
    pool_size = 5

    def setup(self, seed, workdir):
        self.pool = []
        for p in range(self.pool_size):
            rng = gen.rng_for((seed, 10, p))
            d = os.path.join(workdir, f"in{p}")
            out_dir = os.path.join(d, "out")
            os.makedirs(out_dir, exist_ok=True)

            def i(name):
                return os.path.join(d, name)

            def o(name):
                return os.path.join(out_dir, name)

            grid = ls.Grid2D.centered(0.4, 9, 0.4, 9)
            gm, fp = gen.random_basic_pair(rng, grid, n=4, scale=0.4)
            serialize.save_json(serialize.frame_field_to_obj(gm), i("gm.json"))
            serialize.save_json(serialize.frame_field_to_obj(fp), i("fp.json"))
            serialize.save_loop(gen.random_dressing_element(rng, 4, "minus"),
                                i("dress_minus.json"))
            serialize.save_loop(gen.random_dressing_element(rng, 4, "plus"),
                                i("dress_plus.json"))
            flat = gen.random_flat_field(rng, grid, "R1", ls.GroupSpec("orthogonal", 2, 1))
            serialize.save_json(serialize.frame_field_to_obj(flat), i("flat.json"))
            u0, v0 = rng.uniform(-0.3, 0.3, size=2)
            sphere = ls.assemble_connection(example_sphere_connection(
                ls.Grid2D.from_spacing(u0, 0.05, 9, v0, 0.05, 9, base=(4, 4))))
            serialize.save_json(serialize.connection_form_to_obj(sphere), i("eta.json"))
            configs = {
                "merge": {"in_minus": i("gm.json"), "in_plus": i("fp.json"),
                          "out": o("F.json")},
                "split": {"in": o("F.json"), "out_minus": o("split_minus.json"),
                          "out_plus": o("split_plus.json"), "diagnostics": o("split.csv")},
                "dress": {"in": o("F.json"), "dressing": i("dress_minus.json"),
                          "dressing_plus": i("dress_plus.json"), "out": o("dressed.json")},
                "iwasawa-merge": {"in": i("flat.json"), "out": o("nonflat.json")},
                "integrate": {"in": i("eta.json"), "out": o("integrated.json")},
                "immerse": {"in": o("nonflat.json")},
            }
            argvs = []
            for command in SESSION:
                cfg = {"seed": 0, "paths": configs[command]}
                if command in ("iwasawa-merge", "immerse"):
                    cfg["reality"] = "R1"
                with open(i(f"{command}.config.json"), "w") as fh:
                    json.dump(cfg, fh)
                argv = [command, "--config", i(f"{command}.config.json")]
                if command == "immerse":
                    argv += ["--lambda", "2i", "--mesh", o("mesh.obj"),
                             "--diag", o("immerse.csv")]
                argvs.append(argv)
            self.pool.append((out_dir, argvs))

    def run_item(self, k):
        out_dir, argvs = self.pool[k % self.pool_size]
        out = Outcome()
        sink = io.StringIO()
        for argv in argvs:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = cli_main(argv)
            out.count(1, code != 0)
            out.record[f"{argv[0]} exit"] = code
        if out.failed == 0:
            for name in ("split.csv", "mesh.obj", "immerse.csv"):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    out.record[f"{name} sha256"] = hashlib.sha256(fh.read()).hexdigest()
        return out


WORKLOADS = {w.name: w for w in (FieldRoundtrip, PointwiseFactor, CliSession)}
