"""Command-line surface.

Subcommands: factorize, split, merge, iwasawa-merge, dress, integrate,
immerse, example, verify.  Every command is a pure function of its config and
input files; repeat runs with the same inputs write identical bytes.

Exit codes: 0 success, 2 partial result (masked nodes present), 3 validation
or usage failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import acceptance
from .config import RunConfig, default_config, parse_lambda, read_config, validate_config
from .errors import (
    BigCellViolation,
    ConfigError,
    LoopsplitError,
    NotInIwasawaCell,
    SingularLoop,
    ValidationError,
)
from .factorization import MAX_SYSTEM_ORDER, birkhoff_left, birkhoff_right, tau_iwasawa
from .fields import (
    dress_pair,
    dress_plus,
    field_diagnostics_rows,
    integrate_potential,
    merge,
    split,
    tau_merge,
)
from .serialize import (
    connection_form_from_obj,
    emit_diagnostics,
    emit_mesh,
    fmt17,
    frame_field_from_obj,
    frame_field_to_obj,
    immersion_diagnostics_rows,
    load_json,
    load_loop,
    loop_to_obj,
    save_json,
)
from .spaceforms import example_sphere_field, extract_immersion

EXIT_OK = 0
EXIT_PARTIAL = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4


def _load_config(args) -> RunConfig:
    """The run config, with the global --seed and --tol-scale folded into
    its data before validation, so flags and file pass the same checks."""
    data = read_config(args.config) if getattr(args, "config", None) else {}
    for key in ("seed", "tol_scale"):
        if getattr(args, key, None) is not None:
            data[key] = getattr(args, key)
    return validate_config(data)


def _field_exit(field) -> int:
    return EXIT_OK if field.mask.all() else EXIT_PARTIAL


def _write_field(field, path):
    save_json(frame_field_to_obj(field), path)


def cmd_factorize(args) -> int:
    if args.window is not None and args.window < 1:
        raise ValidationError(f"--window must be a positive integer, got {args.window}")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        raise ValidationError(f"--tol must be a positive finite number, got {args.tol}")
    cfg = _load_config(args)
    g = load_loop(args.infile)
    N = args.window
    # the largest window the adaptive searches reach (MAX_SYSTEM_ORDER rows)
    cap = MAX_SYSTEM_ORDER // (2 * g.n if args.side == "iwasawa" else g.n)
    if N is not None and N > cap:
        raise ValidationError(f"--window {N} exceeds {cap}, the largest window for n = {g.n}")
    tol = args.tol
    if args.side == "left" or args.side == "right":
        fn = birkhoff_left if args.side == "left" else birkhoff_right
        out = fn(g, N=N, tol=tol if tol is not None else cfg.tol("birkhoff"))
        payload = {
            "side": args.side,
            "minus": loop_to_obj(out.minus),
            "plus": loop_to_obj(out.plus),
            "residual": out.residual,
            "condition": out.condition,
        }
    else:
        s = cfg.symmetry()
        out = tau_iwasawa(g, s, N=N, tol=tol if tol is not None else cfg.tol("iwasawa"))
        payload = {
            "side": "iwasawa",
            "z": loop_to_obj(out.z),
            "y_plus": loop_to_obj(out.y_plus),
            "k_const": np.stack([out.k_const.real, out.k_const.imag], -1).tolist(),
            "residuals": out.residuals,
        }
    save_json(payload, args.out)
    return EXIT_OK


def cmd_split(args) -> int:
    cfg = _load_config(args)
    F = frame_field_from_obj(load_json(cfg.path("in")))
    g_minus, f_plus = split(F, tol=cfg.tol("birkhoff"))
    _write_field(g_minus, cfg.path("out_minus"))
    _write_field(f_plus, cfg.path("out_plus"))
    if cfg.path("diagnostics"):
        cols, rows = field_diagnostics_rows(f_plus)
        emit_diagnostics(cfg.path("diagnostics"), cols, rows,
                         meta={"seed": cfg["seed"], "command": "split"})
    return _field_exit(f_plus)


def cmd_merge(args) -> int:
    cfg = _load_config(args)
    gm = frame_field_from_obj(load_json(cfg.path("in_minus")))
    fp = frame_field_from_obj(load_json(cfg.path("in_plus")))
    F = merge(gm, fp, tol=cfg.tol("birkhoff"))
    _write_field(F, cfg.path("out"))
    return _field_exit(F)


def cmd_iwasawa_merge(args) -> int:
    cfg = _load_config(args)
    fp = frame_field_from_obj(load_json(cfg.path("in")))
    F = tau_merge(fp, cfg.symmetry(), tol=cfg.tol("iwasawa"))
    _write_field(F, cfg.path("out"))
    return _field_exit(F)


def cmd_dress(args) -> int:
    cfg = _load_config(args)
    F = frame_field_from_obj(load_json(cfg.path("in")))
    g_minus = load_loop(cfg.path("dressing"))
    if cfg.path("dressing_plus"):
        g_plus = load_loop(cfg.path("dressing_plus"))
        out = dress_pair(g_minus, g_plus, F, tol=cfg.tol("birkhoff"))
    else:
        out = dress_plus(g_minus, F, tol=cfg.tol("birkhoff"))
    _write_field(out, cfg.path("out"))
    return _field_exit(out)


def cmd_integrate(args) -> int:
    cfg = _load_config(args)
    eta = connection_form_from_obj(load_json(cfg.path("in")))
    F = integrate_potential(eta)
    _write_field(F, cfg.path("out"))
    print(f"integrate: holonomy {F.info['holonomy']:.3e}")
    return _field_exit(F)


def _write_immersion(cfg, F, lam, target, mesh_path, diag_path, **meta) -> bool:
    """Extract F's immersion at lam and write the OBJ mesh and the
    diagnostics CSV (header: seed, lambda, then meta) to the paths given.
    Returns False when the mesh has no vertex; the CSV, whose rows then all
    read mask = 0, is written all the same."""
    im = extract_immersion(F, lam, target)
    vertices = emit_mesh(im, mesh_path) if mesh_path else None
    if diag_path:
        cols, rows = immersion_diagnostics_rows(im)
        emit_diagnostics(diag_path, cols, rows, {
            "seed": cfg["seed"], "lambda": fmt17(lam.real) + "+" + fmt17(lam.imag) + "i",
            **meta})
    return vertices != 0


def cmd_immerse(args) -> int:
    cfg = _load_config(args)
    mesh_path = args.mesh or cfg.path("mesh")
    diag_path = args.diag or cfg.path("diagnostics")
    if not (mesh_path or diag_path):
        print("immerse: nothing to write (give --mesh and/or --diag)", file=sys.stderr)
        return EXIT_VALIDATION
    if cfg.path("in"):
        F = frame_field_from_obj(load_json(cfg.path("in")))
    else:
        F = example_sphere_field(cfg.grid())
    lam = parse_lambda(args.lam) if args.lam else cfg.lambdas()[0]
    target = F.target if F.target is not None else cfg.group()
    if not _write_immersion(cfg, F, lam, target, mesh_path, diag_path,
                            tolerances=json.dumps(cfg["tolerances"], sort_keys=True)):
        print("warning: fully masked grid, mesh contains no vertices", file=sys.stderr)
        return EXIT_PARTIAL
    return _field_exit(F)


def cmd_example(args) -> int:
    cfg = _load_config(args)
    if args.name != "s3-spheres":
        print(f"unknown example {args.name!r}; available: s3-spheres", file=sys.stderr)
        return EXIT_VALIDATION
    F = example_sphere_field(cfg.grid())
    if args.out:
        _write_field(F, args.out)
    if args.mesh or args.diag:
        lam = parse_lambda(args.lam or "1.0")
        _write_immersion(cfg, F, lam, F.target, args.mesh, args.diag)
    return EXIT_OK


def cmd_verify(args) -> int:
    only = None
    if args.only is not None:
        try:
            only = sorted({int(tok) for tok in args.only.replace(",", " ").split()})
        except ValueError:
            only = []
        if not only or not set(only) <= set(acceptance.CRITERIA):
            raise ValidationError(f"--only takes the criteria {min(acceptance.CRITERIA)}-"
                                  f"{max(acceptance.CRITERIA)}, got {args.only!r}")
    progress = None if args.quiet else print
    results = acceptance.run(seed=args.seed, only=only, progress=progress)
    if args.out:
        cols, rows = acceptance.results_csv(results)
        emit_diagnostics(args.out, cols, rows,
                         meta={"seed": args.seed,
                               "criteria": ",".join(str(r.number) for r in results)})
    if not args.quiet:
        print()
        for r in results:
            print(r.summary())
        total = sum(r.seconds for r in results)
        npass = sum(1 for r in results if r.passed)
        print(f"\n{npass}/{len(results)} criteria passed in {total:.1f}s")
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERICAL


def cmd_config(args) -> int:
    save_json(default_config(), args.out) if args.out else print(
        json.dumps(default_config(), indent=2))
    return EXIT_OK


@functools.cache
def build_parser():
    """The command-line parser, built once per process and shared by every
    main call (parsing does not change it)."""
    p = argparse.ArgumentParser(
        prog="loopsplit",
        description="Truncated loop-group factorizations, frame-field "
                    "splitting, and constant-curvature immersions.")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--tol-scale", dest="tol_scale", type=float, default=None,
                   help="scale every tolerance by this factor")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("factorize", help="factor a single loop")
    f.add_argument("--side", choices=("left", "right", "iwasawa"), required=True)
    f.add_argument("--in", dest="infile", required=True)
    f.add_argument("--out", required=True)
    f.add_argument("--window", type=int, default=None)
    f.add_argument("--tol", type=float, default=None)
    f.add_argument("--config", default=None)
    f.set_defaults(fn=cmd_factorize)

    for name, fn in (("split", cmd_split), ("merge", cmd_merge),
                     ("iwasawa-merge", cmd_iwasawa_merge), ("dress", cmd_dress),
                     ("integrate", cmd_integrate)):
        q = sub.add_parser(name, help=f"{name} fields named in the config paths")
        q.add_argument("--config", required=True)
        q.set_defaults(fn=fn)

    im = sub.add_parser("immerse", help="evaluate an immersion and emit mesh/diagnostics")
    im.add_argument("--config", default=None)
    im.add_argument("--lambda", dest="lam", default=None)
    im.add_argument("--mesh", default=None)
    im.add_argument("--diag", default=None)
    im.set_defaults(fn=cmd_immerse)

    ex = sub.add_parser("example", help="emit a built-in example family")
    ex.add_argument("--name", default="s3-spheres")
    ex.add_argument("--lambda", dest="lam", default=None)
    ex.add_argument("--out", default=None)
    ex.add_argument("--mesh", default=None)
    ex.add_argument("--diag", default=None)
    ex.add_argument("--config", default=None)
    ex.set_defaults(fn=cmd_example)

    v = sub.add_parser("verify", help="run the verification suite")
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--only", default=None, help="comma-separated criterion numbers")
    v.add_argument("--out", default=None, help="write the results CSV here")
    v.add_argument("--quiet", action="store_true")
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("config", help="print or write the default config")
    c.add_argument("--out", default=None)
    c.set_defaults(fn=cmd_config)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"loopsplit: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (BigCellViolation, NotInIwasawaCell, SingularLoop) as exc:
        print(f"loopsplit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except LoopsplitError as exc:
        print(f"loopsplit: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FileNotFoundError as exc:
        print(f"loopsplit: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
