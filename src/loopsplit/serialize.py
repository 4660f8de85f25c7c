"""JSON, OBJ and CSV surfaces.

Loops serialize as {n, lo, coeffs} with [re, im] pairs; json round-trips
doubles exactly (repr-based float formatting), and a loop loads as
re + 1j * im.  So load(save(g)) equals g under == and keeps every bit but
these: a -0.0 imaginary part loads as +0.0, a -0.0 real part loads as +0.0
unless the imaginary part is negative or -0.0, and an infinite or NaN
imaginary part makes the real part NaN.  Field and form files keep the same
rule.  Fields and forms serialize as grid, mask and tags beside
{"format": 2, lo, width, n, coeffs}, where coeffs is one base64 block of
little-endian float64 (re, im) pairs (layout below); the per-node text
files of earlier versions still load.  Meshes go to Wavefront OBJ in a
projected chart (stereographic for the sphere, Klein for hyperbolic targets);
diagnostics go to CSV with 17 significant digits and a comment header
recording seed and tolerances, so repeat runs with the same inputs are
byte-identical.
"""

from __future__ import annotations

import base64
import json

import numpy as np

from .errors import DimensionMismatch, ParseError
from .fields import ConnectionForm, FrameField, Grid2D
from .loops import GroupSpec, LaurentLoop, trim_stack
from .spaceforms import ImmersionGrid
from .symmetry import SymmetrySpec


def fmt17(x) -> str:
    return format(float(x), ".17g")


# -- loops ----------------------------------------------------------------


def loop_to_obj(g: LaurentLoop) -> dict:
    coeffs = np.stack([g.coeffs.real, g.coeffs.imag], -1).tolist()
    return {"n": g.n, "lo": g.lo, "coeffs": coeffs}


def loop_from_obj(d) -> LaurentLoop:
    try:
        arr = np.asarray(d["coeffs"], dtype=float)
        n, lo = int(d["n"]), int(d["lo"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed loop payload: {exc}") from exc
    if arr.ndim != 4 or arr.shape[0] == 0 or arr.shape[1:] != (n, n, 2):
        raise ParseError(f"loop coefficients have shape {arr.shape}, "
                         f"expected (W, {n}, {n}, 2) for n = {n}")
    return LaurentLoop(lo, arr[..., 0] + 1j * arr[..., 1], trim=False)


def save_loop(g: LaurentLoop, path):
    save_json(loop_to_obj(g), path)


def load_loop(path) -> LaurentLoop:
    return loop_from_obj(load_json(path))


# -- specs ----------------------------------------------------------------


def symmetry_to_obj(s: SymmetrySpec) -> dict:
    return {"n": s.n, "k": s.k, "reality": s.reality}


def symmetry_from_obj(d) -> SymmetrySpec:
    # files may carry a "twists" list; sigma and tau are the only twists
    return SymmetrySpec(int(d["n"]), int(d["k"]), d.get("reality"))


def group_to_obj(g: GroupSpec) -> dict:
    return {"kind": g.kind, "n": g.n_tan, "k": g.k_nor}


def group_from_obj(d) -> GroupSpec:
    return GroupSpec(d["kind"], int(d["n"]), int(d["k"]))


def grid_to_obj(grid: Grid2D) -> dict:
    return {
        "u0": float(grid.us[0]), "v0": float(grid.vs[0]),
        "h_u": grid.h_u, "h_v": grid.h_v,
        "nu": int(grid.us.size), "nv": int(grid.vs.size),
        "base": [int(grid.base[0]), int(grid.base[1])],
    }


def grid_from_obj(d) -> Grid2D:
    return Grid2D.from_spacing(d["u0"], d["h_u"], int(d["nu"]),
                               d["v0"], d["h_v"], int(d["nv"]),
                               base=tuple(d["base"]))


# -- fields ----------------------------------------------------------------
#
# A field or form file (format 2) keeps grid, mask and tags as JSON and holds
# its coefficients in one base64 block: the unmasked nodes row-major (and by
# direction, for a form), each loop trimmed to its own window and zero outside
# it, over the union window [lo, lo + width - 1], as little-endian float64
# (re, im) pairs.  Loading it gives, bit for bit, the field that loading the
# text files of earlier versions gives; those files (a JSON loop table per
# direction, no "format" key) still load.

FORMAT = 2


def _write_block(x) -> dict:
    """The format-2 payload keys of a field's or form's coefficients."""
    n = x.dim
    if not x.mask.any():
        return {"format": FORMAT, "lo": 0, "width": 1, "n": n, "coeffs": ""}
    lo, c, los, his = trim_stack(x.lo, x.coeffs[x.mask])
    # +0.0 outside each loop's window and all over a zero loop: trim_stack
    # may leave -0.0 there, where a text file had none
    degs = np.arange(lo, lo + c.shape[-3])
    c[(degs < los[..., None]) | (degs > his[..., None])
      | ~c.any(axis=(-3, -2, -1))[..., None]] = 0.0
    data = np.ascontiguousarray(c, dtype="<c16").tobytes()
    return {"format": FORMAT, "lo": int(lo), "width": c.shape[-3], "n": n,
            "coeffs": base64.b64encode(data).decode("ascii")}


def _from_block(cls, d, grid, mask, **kw):
    """The field or form of a format-2 payload."""
    if d["format"] != FORMAT:
        raise ParseError(f"unknown field format {d['format']!r}")
    try:
        lo, width, n = int(d["lo"]), int(d["width"]), int(d["n"])
        raw = base64.b64decode(d["coeffs"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ParseError(f"malformed field payload: {exc}") from exc
    if width < 1 or n < 1:
        raise ParseError(f"field window width {width} and dimension {n} must be positive")
    shape = (int(mask.sum()),) + cls._directions + (width, n, n)
    if len(raw) != 16 * int(np.prod(shape)):
        raise ParseError(f"coefficient block has {len(raw)} bytes, expected "
                         f"{16 * int(np.prod(shape))} for {shape}")
    pairs = np.frombuffer(raw, dtype="<f8").reshape(shape + (2,))
    coeffs = np.zeros(mask.shape + shape[1:], dtype=complex)
    coeffs[mask] = pairs[..., 0] + 1j * pairs[..., 1]  # as loop_from_obj builds
    return cls(grid, lo, coeffs, mask, **kw)


def _grid_and_mask(d):
    try:
        grid = grid_from_obj(d["grid"])
        mask = np.asarray(d["mask"], dtype=bool)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed field payload: {exc}") from exc
    if mask.shape != grid.shape:
        raise ParseError(f"mask has shape {mask.shape}, grid is {grid.shape}")
    return grid, mask


def _table_loops(table, mask, name, *direction) -> dict:
    """{(i, j, *direction): loop} of the unmasked nodes of a text file's
    JSON loop table."""
    nu, nv = mask.shape
    if (not isinstance(table, list) or len(table) != nu
            or not all(isinstance(row, list) and len(row) == nv for row in table)):
        raise ParseError(f"{name} table does not match the {nu}x{nv} grid")
    loops = {}
    for i, j in zip(*np.nonzero(mask)):
        cell = table[i][j]
        if cell is None:
            raise ParseError(f"{name} has no loop at unmasked node {(int(i), int(j))}")
        loops[(int(i), int(j)) + direction] = loop_from_obj(cell)
    return loops


def _packed(cls, grid, loops, n, **kw):
    try:
        return cls.from_loops(grid, loops, n=n, **kw)
    except (DimensionMismatch, ValueError) as exc:
        raise ParseError(str(exc)) from exc


def frame_field_to_obj(F: FrameField) -> dict:
    return {
        "grid": grid_to_obj(F.grid),
        "mask": F.mask.astype(int).tolist(),
        "symmetry": symmetry_to_obj(F.symmetry) if F.symmetry else None,
        "target": group_to_obj(F.target) if F.target else None,
        **_write_block(F),
    }


def frame_field_from_obj(d) -> FrameField:
    grid, mask = _grid_and_mask(d)
    try:
        sym = symmetry_from_obj(d["symmetry"]) if d.get("symmetry") else None
        target = group_from_obj(d["target"]) if d.get("target") else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed field tags: {exc}") from exc
    if "format" in d:
        return _from_block(FrameField, d, grid, mask, symmetry=sym, target=target)
    loops = _table_loops(d.get("values"), mask, "values")
    # a fully masked text field takes its dimension from its declared tags
    declared = target.dim if target else sym.dim if sym else None
    return _packed(FrameField, grid, loops, None if loops else declared,
                   symmetry=sym, target=target)


def connection_form_to_obj(A: ConnectionForm) -> dict:
    return {
        "grid": grid_to_obj(A.grid),
        "mask": A.mask.astype(int).tolist(),
        **_write_block(A),
    }


def connection_form_from_obj(d) -> ConnectionForm:
    grid, mask = _grid_and_mask(d)
    if "format" in d:
        return _from_block(ConnectionForm, d, grid, mask)
    loops = {**_table_loops(d.get("a_u"), mask, "a_u", 0),
             **_table_loops(d.get("a_v"), mask, "a_v", 1)}
    return _packed(ConnectionForm, grid, loops, None)


def save_json(obj, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj))


def load_json(path):
    """The JSON document in a file; ParseError when it is not valid JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # undecodable text or invalid JSON
            raise ParseError(f"{path} is not valid JSON: {exc}") from exc


# -- meshes ----------------------------------------------------------------


def project_chart(points, target: GroupSpec):
    """Map ambient quadric points to a 3d chart for viewing.

    Sphere targets in 4 ambient dimensions use stereographic projection from
    the last-coordinate pole; hyperbolic targets use the Klein chart (divide
    by the timelike coordinate).  Other ambient dimensions fall back to the
    first three coordinates.
    """
    pts = np.asarray(points, dtype=float)
    m = pts.shape[-1]
    if m == 4 and target.kind == "orthogonal":
        denom = 1.0 - pts[..., 3]
        small = np.abs(denom) < 1e-12
        denom = np.where(small, np.nan, denom)
        return pts[..., :3] / denom[..., None]
    if target.kind == "lorentz":
        t = pts[..., target.n_tan]
        t = np.where(np.abs(t) < 1e-12, np.nan, t)
        others = [a for a in range(m) if a != target.n_tan]
        return pts[..., others][..., :3] / t[..., None]
    return pts[..., :3]


def emit_mesh(im: ImmersionGrid, path) -> int:
    """Write a Wavefront OBJ of the unmasked immersion patch.

    Vertices are emitted in row-major node order in the projected chart;
    each grid cell with four valid corners contributes two triangles.
    Returns the number of vertices written (0 for a fully masked grid).
    """
    nu, nv = im.grid.shape
    chart = project_chart(im.points, im.target)
    index = -np.ones((nu, nv), dtype=int)
    lines = ["# loopsplit immersion mesh",
             f"# lambda = {fmt17(im.lam.real)} + {fmt17(im.lam.imag)}i",
             f"# target = {im.target.kind}, grid = {nu}x{nv}"]
    count = 0
    for i in range(nu):
        for j in range(nv):
            if not im.mask[i, j] or not np.all(np.isfinite(chart[i, j])):
                continue
            count += 1
            index[i, j] = count
            x, y, z = chart[i, j]
            lines.append(f"v {fmt17(x)} {fmt17(y)} {fmt17(z)}")
    for i in range(nu - 1):
        for j in range(nv - 1):
            c = index[i, j], index[i + 1, j], index[i + 1, j + 1], index[i, j + 1]
            if min(c) < 0:
                continue
            lines.append(f"f {c[0]} {c[1]} {c[2]}")
            lines.append(f"f {c[0]} {c[2]} {c[3]}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return count


# -- diagnostics CSV ---------------------------------------------------------


def emit_diagnostics(path, columns, rows, meta=None):
    """CSV with a '#'-comment header documenting run metadata.

    Floats print with 17 significant digits so the file reproduces the
    in-memory values exactly; rows are written in the order given, making
    repeat runs byte-identical.
    """
    lines = []
    for key, val in (meta or {}).items():
        lines.append(f"# {key} = {val}")
    lines.append(",".join(columns))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append("nan" if np.isnan(cell) else fmt17(cell))
            elif isinstance(cell, (bool, np.bool_)):
                cells.append("1" if cell else "0")
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def immersion_diagnostics_rows(im: ImmersionGrid):
    """Per-node diagnostic rows: indices, coordinates, ambient point,
    residuals, mask flag."""
    cols = ["iu", "iv", "u", "v"]
    cols += [f"x{a}" for a in range(im.dim)]
    cols += ["quadric_residual", "metric_det", "gauss_curvature", "immersive", "mask"]
    rows = []
    d = im.diagnostics
    for i in range(im.grid.shape[0]):
        for j in range(im.grid.shape[1]):
            row = [i, j, float(im.grid.us[i]), float(im.grid.vs[j])]
            row += [float(x) for x in im.points[i, j]]
            row += [float(d["quadric_residual"][i, j]), float(d["metric_det"][i, j]),
                    float(d["gauss_curvature"][i, j]), bool(d["immersive"][i, j]),
                    bool(im.mask[i, j])]
            rows.append(row)
    return cols, rows
