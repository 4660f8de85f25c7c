"""Config parsing, serialization surfaces, and the command line end to end."""

import base64
import json
import subprocess
import sys

import numpy as np
import pytest

import loopsplit as ls
from loopsplit import Grid2D, GroupSpec, parse_config, parse_lambda
from loopsplit.config import default_config, validate_config
from loopsplit.errors import ParseError, ValidationError
from loopsplit.generators import random_basic_pair, rng_for
from loopsplit.serialize import (
    connection_form_from_obj,
    connection_form_to_obj,
    emit_diagnostics,
    emit_mesh,
    frame_field_from_obj,
    frame_field_to_obj,
    immersion_diagnostics_rows,
    load_loop,
    save_json,
    save_loop,
)
from loopsplit.spaceforms import example_sphere_field, extract_immersion


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "loopsplit.cli", *argv],
                          capture_output=True, text=True)


# -- lambda expressions ------------------------------------------------------


@pytest.mark.parametrize("text,value", [
    ("1.0", 1.0),
    ("2i", 2j),
    ("-0.5i", -0.5j),
    ("exp(i*0.3)", np.exp(0.3j)),
    ("exp(i*pi/6)", np.exp(1j * np.pi / 6)),
    ([0.3, -0.4], 0.3 - 0.4j),
    (2.5, 2.5),
])
def test_parse_lambda(text, value):
    assert parse_lambda(text) == pytest.approx(value)


def test_parse_lambda_rejects_junk():
    with pytest.raises(ParseError):
        parse_lambda("__import__('os')")
    with pytest.raises(ParseError):
        parse_lambda("open('x')")
    with pytest.raises(ParseError):
        parse_lambda([1, 2, 3])


# -- config -------------------------------------------------------------------


def test_config_defaults_fill(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 7}))
    cfg = parse_config(path)
    assert cfg["seed"] == 7
    assert cfg["n"] == 2 and cfg["k"] == 1
    assert cfg.tol("birkhoff") == 1e-9
    grid = cfg.grid()
    assert grid.shape == (9, 9)
    assert cfg.symmetry().reality == "Rm1"
    assert cfg.group().kind == "orthogonal"


def test_config_rejects_negative_spacing(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"grid": {"h_u": -0.1}}))
    with pytest.raises(ValidationError) as err:
        parse_config(path)
    assert "grid.h_u" in str(err.value)
    # non-numeric and boolean values of numeric keys are rejected the same way
    for data, key in (({"grid": {"h_u": "a"}}, "grid.h_u"),
                      ({"grid": {"h_v": True}}, "grid.h_v"),
                      ({"grid": {"u0": "a"}}, "grid.u0"),
                      ({"tolerances": 5}, "tolerances"),
                      ({"tol_scale": "a"}, "tol_scale"),
                      ({"tolerances": {"birkhoff": "x"}}, "tolerances.birkhoff"),
                      ({"tolerances": {"iwasawa": False}}, "tolerances.iwasawa")):
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError) as err:
            parse_config(path)
        assert key in str(err.value)


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"grid": {"spacing": 0.1}}))
    with pytest.raises(ValidationError) as err:
        parse_config(path)
    assert "grid.spacing" in str(err.value)
    path.write_text(json.dumps({"frobnicate": 1}))
    with pytest.raises(ValidationError):
        parse_config(path)


def test_config_round_trip(tmp_path):
    cfg = validate_config(default_config())
    path = tmp_path / "defaults.json"
    path.write_text(json.dumps(cfg.data))
    again = parse_config(path)
    assert again.data == cfg.data


def test_config_rejects_removed_keys(tmp_path):
    # keys that were validated but never read are unknown keys now
    path = tmp_path / "run.json"
    for data in ({"twists": ["sigma", "tau"]}, {"window": 6},
                 *({"tolerances": {name: 1e-6}}
                   for name in ("trim", "inverse", "roundtrip", "order", "mc"))):
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError):
            parse_config(path)


def test_config_not_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{nope")
    with pytest.raises(ParseError):
        parse_config(path)


# -- serialization -------------------------------------------------------------


def test_loop_file_round_trip(tmp_path, rng):
    from conftest import random_loop
    g = random_loop(rng, radius=3)
    path = tmp_path / "loop.json"
    save_loop(g, path)
    back = load_loop(path)
    assert back.lo == g.lo
    assert np.array_equal(back.coeffs, g.coeffs)


def test_connection_form_round_trip(rng):
    from loopsplit.spaceforms import example_sphere_connection, assemble_connection
    grid = Grid2D.centered(0.2, 3, 0.2, 3)
    A = assemble_connection(example_sphere_connection(grid), check=False)
    back = connection_form_from_obj(json.loads(json.dumps(connection_form_to_obj(A))))
    for i, j in grid.nodes():
        assert ls.distance(back.value(i, j, 0), A.value(i, j, 0)) == 0.0


def test_connection_form_declared_window_key_still_loads():
    # files written before the key was dropped carry "declared_window"
    from loopsplit.spaceforms import example_sphere_connection, assemble_connection
    grid = Grid2D.centered(0.2, 3, 0.2, 3)
    A = assemble_connection(example_sphere_connection(grid), check=False)
    obj = connection_form_to_obj(A)
    assert "declared_window" not in obj
    back = connection_form_from_obj({**obj, "declared_window": [-1, 1]})
    assert back.lo == A.lo and np.array_equal(back.mask, A.mask)
    assert np.array_equal(back.coeffs, A.coeffs)


def test_symmetry_twists_key_still_loads():
    from loopsplit.serialize import symmetry_from_obj, symmetry_to_obj
    s = ls.SymmetrySpec(2, 1, "Rm1")
    assert symmetry_from_obj({**symmetry_to_obj(s), "twists": ["sigma", "tau"]}) == s


def test_emit_mesh_small_grid(tmp_path):
    grid = Grid2D.centered(0.2, 2, 0.2, 2)
    F = example_sphere_field(grid)
    im = extract_immersion(F, 1.0, GroupSpec("orthogonal", 2, 1))
    # vertices are unit norm before projection
    norms = np.linalg.norm(im.points.reshape(-1, 4), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    path = tmp_path / "patch.obj"
    count = emit_mesh(im, path)
    lines = path.read_text().splitlines()
    assert count == 4
    assert sum(1 for ln in lines if ln.startswith("v ")) == 4
    assert sum(1 for ln in lines if ln.startswith("f ")) == 2


def test_emit_mesh_fully_masked(tmp_path):
    grid = Grid2D.centered(0.2, 2, 0.2, 2)
    F = example_sphere_field(grid)
    im = extract_immersion(F, 1.0, GroupSpec("orthogonal", 2, 1))
    im.mask[:] = False
    path = tmp_path / "empty.obj"
    assert emit_mesh(im, path) == 0
    lines = path.read_text().splitlines()
    assert all(ln.startswith("#") for ln in lines)


def test_emit_mesh_drops_masked_faces(tmp_path):
    grid = Grid2D.centered(0.2, 3, 0.2, 3)
    F = example_sphere_field(grid)
    im = extract_immersion(F, 1.0, GroupSpec("orthogonal", 2, 1))
    im.mask[1, 1] = False
    path = tmp_path / "holey.obj"
    count = emit_mesh(im, path)
    lines = path.read_text().splitlines()
    assert count == 8
    assert sum(1 for ln in lines if ln.startswith("f ")) == 0  # center gone


def test_emit_diagnostics_precision_and_determinism(tmp_path):
    cols = ["iu", "value"]
    rows = [[0, np.pi * 1e-7], [1, 1.0 / 3.0]]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_diagnostics(p1, cols, rows, meta={"seed": 42})
    emit_diagnostics(p2, cols, rows, meta={"seed": 42})
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "# seed = 42"
    assert lines[1] == "iu,value"
    assert float(lines[2].split(",")[1]) == np.pi * 1e-7  # 17 digits round-trip
    empty = tmp_path / "empty.csv"
    emit_diagnostics(empty, cols, [], meta={})
    assert empty.read_text().splitlines() == ["iu,value"]


def test_immersion_diagnostics_rows():
    grid = Grid2D.centered(0.2, 3, 0.2, 3)
    F = example_sphere_field(grid)
    im = extract_immersion(F, 1.0, GroupSpec("orthogonal", 2, 1))
    cols, rows = immersion_diagnostics_rows(im)
    assert len(rows) == 9
    assert cols[:4] == ["iu", "iv", "u", "v"]
    assert len(rows[0]) == len(cols)


# -- command line ---------------------------------------------------------------


def test_cli_example_and_factorize(tmp_path):
    frame = tmp_path / "frame.json"
    out = run_cli("example", "--name", "s3-spheres", "--out", str(frame),
                  "--mesh", str(tmp_path / "m.obj"), "--diag", str(tmp_path / "d.csv"))
    assert out.returncode == 0, out.stderr
    F = frame_field_from_obj(json.loads(frame.read_text()))
    assert F.mask.all()
    # factor one of its loops through the CLI
    loop_path = tmp_path / "loop.json"
    save_loop(F.value(1, 2), loop_path)
    result = tmp_path / "fact.json"
    out = run_cli("factorize", "--side", "left", "--in", str(loop_path),
                  "--out", str(result))
    assert out.returncode == 0, out.stderr
    payload = json.loads(result.read_text())
    assert payload["residual"] < 1e-9
    recon = ls.mul(ls.serialize.loop_from_obj(payload["minus"]),
                   ls.serialize.loop_from_obj(payload["plus"]))
    assert ls.distance(recon, F.value(1, 2)) < 1e-9


def test_cli_factorize_iwasawa(tmp_path):
    from loopsplit.generators import random_tau_instance
    rng = rng_for(71)
    x, _, _ = random_tau_instance(rng, ls.SymmetrySpec(2, 1), scale=0.12)
    loop_path = tmp_path / "x.json"
    save_loop(x, loop_path)
    result = tmp_path / "iw.json"
    out = run_cli("factorize", "--side", "iwasawa", "--in", str(loop_path),
                  "--out", str(result))
    assert out.returncode == 0, out.stderr
    payload = json.loads(result.read_text())
    assert payload["residuals"]["reconstruction"] < 1e-8


def _iwasawa_loop_file(tmp_path):
    from loopsplit.generators import random_tau_instance
    x, _, _ = random_tau_instance(rng_for(71), ls.SymmetrySpec(2, 1), scale=0.12)
    path = tmp_path / "x.json"
    save_loop(x, path)
    return path


@pytest.mark.parametrize("window", ["-3", "0"])
def test_cli_factorize_rejects_nonpositive_window(tmp_path, capsys, window):
    from loopsplit.cli import main
    argv = ["factorize", "--side", "iwasawa", "--in", str(_iwasawa_loop_file(tmp_path)),
            "--out", str(tmp_path / "out.json"), "--window", window]
    assert main(argv) == 3
    assert "--window" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("side", ["left", "right", "iwasawa"])
def test_cli_factorize_rejects_a_window_above_the_cap(tmp_path, capsys, side):
    # one above the largest window the adaptive search reaches for the
    # loop's n: the system it would solve exceeds MAX_SYSTEM_ORDER rows
    from loopsplit.cli import main
    from loopsplit.factorization import MAX_SYSTEM_ORDER
    path = _iwasawa_loop_file(tmp_path)
    n = load_loop(path).n
    cap = MAX_SYSTEM_ORDER // (2 * n if side == "iwasawa" else n)
    argv = ["factorize", "--side", side, "--in", str(path),
            "--out", str(tmp_path / "out.json"), "--window", str(cap + 1)]
    assert main(argv) == 3
    assert "--window" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_cli_factorize_fails_a_window_substitute_above_the_cap(tmp_path, capsys):
    # --window 1 passes the cap, but below the depth 258 it is replaced by
    # 2 * 258 + 4 = 520 > 1024 // 4: a numerical failure, with nothing solved
    from loopsplit.cli import main
    path = tmp_path / "deep.json"
    save_loop(ls.from_terms({0: np.eye(4), -258: 0.1 * np.eye(4), 1: 0.1 * np.ones((4, 4))}), path)
    argv = ["factorize", "--side", "left", "--in", str(path),
            "--out", str(tmp_path / "out.json"), "--window", "1"]
    assert main(argv) == 4
    assert "above_cap" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("side", ["left", "iwasawa"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_cli_factorize_rejects_a_bad_tol(tmp_path, capsys, side, tol):
    # --tol 0 once fell back to the config tolerance and --tol -1 failed
    # every window; both are usage errors, as nan is
    from loopsplit.cli import main
    argv = ["factorize", "--side", side, "--in", str(_iwasawa_loop_file(tmp_path)),
            "--out", str(tmp_path / "out.json"), "--tol", tol]
    assert main(argv) == 3
    assert "--tol" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("only", ["abc", "99", "1,abc", ","])
def test_cli_verify_rejects_an_unknown_criterion(tmp_path, capsys, only):
    # a usage error naming the criteria, before any criterion runs
    from loopsplit.cli import main
    assert main(["verify", "--only", only, "--out", str(tmp_path / "v.csv")]) == 3
    captured = capsys.readouterr()
    assert "--only" in captured.err and "1-10" in captured.err and only in captured.err
    assert captured.out == "" and not (tmp_path / "v.csv").exists()


@pytest.mark.parametrize("tol_scale", ["-1", "0", "nan"])
def test_cli_rejects_bad_tol_scale_flag(tmp_path, capsys, tol_scale):
    # the flag goes through the same validation as the config key
    from loopsplit.cli import main
    argv = ["--tol-scale", tol_scale, "factorize", "--side", "iwasawa",
            "--in", str(_iwasawa_loop_file(tmp_path)), "--out", str(tmp_path / "out.json")]
    assert main(argv) == 3
    assert "tol_scale" in capsys.readouterr().err


def test_cli_split_merge_round_trip(tmp_path):
    rng = rng_for(72)
    grid = Grid2D.centered(0.3, 4, 0.3, 4)
    gm, fp = random_basic_pair(rng, grid)
    from loopsplit.fields import merge
    F = merge(gm, fp)
    fpath = tmp_path / "F.json"
    fpath.write_text(json.dumps(frame_field_to_obj(F)))
    cfg = {"paths": {"in": str(fpath),
                     "out_minus": str(tmp_path / "gm.json"),
                     "out_plus": str(tmp_path / "fp.json")}}
    cpath = tmp_path / "run.json"
    cpath.write_text(json.dumps(cfg))
    out = run_cli("split", "--config", str(cpath))
    assert out.returncode == 0, out.stderr
    gm2 = frame_field_from_obj(json.loads((tmp_path / "gm.json").read_text()))
    assert ls.field_distance(gm2, gm) < 1e-7
    cfg2 = {"paths": {"in_minus": str(tmp_path / "gm.json"),
                      "in_plus": str(tmp_path / "fp.json"),
                      "out": str(tmp_path / "F2.json")}}
    cpath2 = tmp_path / "run2.json"
    cpath2.write_text(json.dumps(cfg2))
    out = run_cli("merge", "--config", str(cpath2))
    assert out.returncode == 0, out.stderr
    F2 = frame_field_from_obj(json.loads((tmp_path / "F2.json").read_text()))
    assert ls.field_distance(F2, F) < 1e-7


def test_cli_exit_codes(tmp_path):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"grid": {"h_u": -1.0}}))
    out = run_cli("split", "--config", str(bad_cfg))
    assert out.returncode == 3
    # an off-big-cell loop surfaces as a numerical failure
    g = ls.from_terms({1: np.diag([1.0, 0, 0, 0]), -1: np.diag([0.0, 1, 0, 0]),
                       0: np.diag([0.0, 0, 1, 1])})
    loop_path = tmp_path / "offcell.json"
    save_loop(g, loop_path)
    out = run_cli("factorize", "--side", "left", "--in", str(loop_path),
                  "--out", str(tmp_path / "nope.json"))
    assert out.returncode == 4
    # partial results exit with 2
    grid = Grid2D.centered(0.3, 3, 0.3, 3)
    rng = rng_for(73)
    gm, fp = random_basic_pair(rng, grid)
    from loopsplit.fields import merge
    loops = merge(gm, fp).loops()
    loops[0, 0] = g
    F = ls.FrameField.from_loops(grid, loops)
    fpath = tmp_path / "F.json"
    fpath.write_text(json.dumps(frame_field_to_obj(F)))
    cfg = {"paths": {"in": str(fpath),
                     "out_minus": str(tmp_path / "gm.json"),
                     "out_plus": str(tmp_path / "fp.json")}}
    cpath = tmp_path / "run.json"
    cpath.write_text(json.dumps(cfg))
    out = run_cli("split", "--config", str(cpath))
    assert out.returncode == 2


def _bad_loop_payloads():
    two = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    return {
        "loop_n_mismatch": {"n": 3, "lo": 0, "coeffs": [two]},
        "loop_wrong_rank": {"n": 2, "lo": 0, "coeffs": two},
    }


def _bad_field_payload(case):
    from conftest import text_payload
    grid = Grid2D.centered(0.3, 3, 0.3, 3)
    F = ls.FrameField.constant_field(grid, ls.identity(4), symmetry=ls.SymmetrySpec(2, 1, "R1"))
    obj = frame_field_to_obj(F)
    if case == "field_null_at_unmasked_node":  # a text file, read by the text reader
        obj = text_payload(F)
        obj["values"][1][2] = None
    elif case == "block_byte_count":
        obj["coeffs"] = base64.b64encode(base64.b64decode(obj["coeffs"])[:-16]).decode()
    elif case == "block_not_base64":
        obj["coeffs"] = "*" + obj["coeffs"][1:]
    elif case == "block_width_zero":  # an empty block then has the right length
        obj["width"], obj["coeffs"] = 0, ""
    elif case == "block_unknown_format":
        obj["format"] = 3
    elif case == "field_mask_shape":
        obj["mask"] = obj["mask"][:2]
    else:  # "field_unknown_reality"
        obj["symmetry"]["reality"] = "R7"
    return obj


@pytest.mark.parametrize("case", ["loop_n_mismatch", "loop_wrong_rank", "loop_not_json",
                                  "field_null_at_unmasked_node", "field_mask_shape",
                                  "field_unknown_reality", "field_not_json",
                                  "block_byte_count", "block_not_base64", "block_width_zero",
                                  "block_unknown_format"])
def test_cli_rejects_malformed_payloads(tmp_path, case):
    from loopsplit.cli import main
    if case.startswith("loop"):
        path = tmp_path / "loop.json"
        path.write_text("{not json" if case == "loop_not_json"
                        else json.dumps(_bad_loop_payloads()[case]))
        argv = ["factorize", "--side", "left", "--in", str(path),
                "--out", str(tmp_path / "out.json")]
    else:
        path = tmp_path / "F.json"
        path.write_text("{not json" if case == "field_not_json"
                        else json.dumps(_bad_field_payload(case)))
        cpath = tmp_path / "run.json"
        cpath.write_text(json.dumps({"paths": {
            "in": str(path), "out_minus": str(tmp_path / "gm.json"),
            "out_plus": str(tmp_path / "fp.json")}}))
        argv = ["split", "--config", str(cpath)]
    assert main(argv) == 3


def test_cli_iwasawa_merge_and_integrate(tmp_path):
    rng = rng_for(74)
    grid = Grid2D.centered(0.3, 4, 0.3, 4)
    _, fp = random_basic_pair(rng, grid)
    fpath = tmp_path / "fp.json"
    fpath.write_text(json.dumps(frame_field_to_obj(fp)))
    cfg = {"reality": None,
           "paths": {"in": str(fpath), "out": str(tmp_path / "F.json")}}
    cpath = tmp_path / "run.json"
    cpath.write_text(json.dumps(cfg))
    out = run_cli("iwasawa-merge", "--config", str(cpath))
    assert out.returncode == 0, out.stderr
    F = frame_field_from_obj(json.loads((tmp_path / "F.json").read_text()))
    from loopsplit.symmetry import apply_tau
    s = ls.SymmetrySpec(2, 1)
    worst = max(ls.distance(F.value(i, j), apply_tau(F.value(i, j), s))
                for i, j in grid.nodes())
    assert worst < 1e-7

    # integrate the discrete potential of the plus piece and land back on it
    from loopsplit.fields import maurer_cartan
    from loopsplit.serialize import connection_form_to_obj
    eta = maurer_cartan(fp)
    epath = tmp_path / "eta.json"
    epath.write_text(json.dumps(connection_form_to_obj(eta)))
    cfg2 = {"paths": {"in": str(epath), "out": str(tmp_path / "Fi.json")}}
    cpath2 = tmp_path / "run2.json"
    cpath2.write_text(json.dumps(cfg2))
    out = run_cli("integrate", "--config", str(cpath2))
    assert out.returncode == 0, out.stderr
    holonomy = [line for line in out.stdout.splitlines() if line.startswith("integrate: holonomy ")]
    assert len(holonomy) == 1
    assert np.isfinite(float(holonomy[0].split()[-1]))
    Fi = frame_field_from_obj(json.loads((tmp_path / "Fi.json").read_text()))
    h2 = max(grid.h_u, grid.h_v) ** 2
    assert ls.field_distance(Fi, fp) < 5 * h2


def test_cli_dress(tmp_path):
    rng = rng_for(75)
    grid = Grid2D.centered(0.3, 3, 0.3, 3)
    _, fp = random_basic_pair(rng, grid)
    from loopsplit.generators import random_dressing_element
    g = random_dressing_element(rng, 4, "minus")
    fpath = tmp_path / "fp.json"
    fpath.write_text(json.dumps(frame_field_to_obj(fp)))
    gpath = tmp_path / "g.json"
    save_loop(g, gpath)
    cfg = {"paths": {"in": str(fpath), "dressing": str(gpath),
                     "out": str(tmp_path / "out.json")}}
    cpath = tmp_path / "run.json"
    cpath.write_text(json.dumps(cfg))
    out = run_cli("dress", "--config", str(cpath))
    assert out.returncode == 0, out.stderr
    dressed = frame_field_from_obj(json.loads((tmp_path / "out.json").read_text()))
    from loopsplit.fields import dress_plus
    assert ls.field_distance(dressed, dress_plus(g, fp)) == 0.0


def test_cli_immerse_diagnostics_deterministic(tmp_path):
    args = ("immerse", "--lambda", "1.0", "--diag")
    out1 = run_cli(*args, str(tmp_path / "d1.csv"))
    out2 = run_cli(*args, str(tmp_path / "d2.csv"))
    assert out1.returncode == 0 and out2.returncode == 0
    assert (tmp_path / "d1.csv").read_bytes() == (tmp_path / "d2.csv").read_bytes()


def test_cli_immerse_fully_masked_field_writes_diagnostics(tmp_path):
    # the mesh is empty (exit 2), and the CSV is the one file saying why
    from loopsplit.cli import main
    grid = Grid2D.centered(0.3, 5, 0.3, 5)
    F = ls.FrameField.from_loops(grid, {}, n=4, target=GroupSpec("orthogonal", 2, 1))
    fpath = tmp_path / "F.json"
    fpath.write_text(json.dumps(frame_field_to_obj(F)))
    cpath = tmp_path / "run.json"
    cpath.write_text(json.dumps({"paths": {"in": str(fpath)}}))
    diag = tmp_path / "d.csv"
    code = main(["immerse", "--config", str(cpath), "--lambda", "1.0",
                 "--mesh", str(tmp_path / "m.obj"), "--diag", str(diag)])
    assert code == 2
    header, *rows = [ln.split(",") for ln in diag.read_text().splitlines()
                     if not ln.startswith("#")]
    assert len(rows) == 25
    assert {row[header.index("mask")] for row in rows} == {"0"}


def test_cli_immerse_with_nothing_to_write_does_no_work(monkeypatch, capsys):
    # neither --mesh nor --diag and no config paths: exit 3 before any field
    # is loaded or immersed
    import loopsplit.cli as cli
    calls = []
    monkeypatch.setattr(cli, "extract_immersion", lambda *a, **kw: calls.append(a))
    assert cli.main(["immerse", "--lambda", "1.0"]) == 3
    assert calls == []
    assert "nothing to write" in capsys.readouterr().err


def test_cli_config_print(tmp_path):
    out = run_cli("config", "--out", str(tmp_path / "c.json"))
    assert out.returncode == 0
    assert validate_config(json.loads((tmp_path / "c.json").read_text()))


def test_cli_commands_in_one_process_match_separate_runs(tmp_path):
    """The parser is built once per process.  Several commands run through
    one process, a usage error and a global --seed among them, give each
    command the exit code and the files that a fresh process gives it."""
    from loopsplit.cli import build_parser, main
    assert build_parser() is build_parser()
    grid = Grid2D.centered(0.3, 4, 0.3, 4)
    gm, fp = random_basic_pair(rng_for(76), grid)
    save_json(frame_field_to_obj(gm), tmp_path / "gm.json")
    save_json(frame_field_to_obj(fp), tmp_path / "fp.json")
    argvs = [
        ["merge", "--config", "{d}/merge.config"],
        ["--seed", "5", "split", "--config", "{d}/split.config"],
        ["split"],  # no --config: argparse exits with 2
        ["split", "--config", "{d}/split2.config"],
        ["immerse", "--lambda", "1.0", "--diag", "{d}/immerse.csv"],
    ]
    results = {}
    for run in ("one", "separate"):
        d = tmp_path / run
        d.mkdir()
        for name, paths in {
            "merge": {"in_minus": str(tmp_path / "gm.json"),
                      "in_plus": str(tmp_path / "fp.json"), "out": f"{d}/F.json"},
            "split": {"in": f"{d}/F.json", "out_minus": f"{d}/gm2.json",
                      "out_plus": f"{d}/fp2.json", "diagnostics": f"{d}/split.csv"},
            "split2": {"in": f"{d}/F.json", "out_minus": f"{d}/gm3.json",
                       "out_plus": f"{d}/fp3.json", "diagnostics": f"{d}/split2.csv"},
        }.items():
            (d / f"{name}.config").write_text(json.dumps({"paths": paths}))
        codes = []
        for argv in argvs:
            argv = [a.format(d=d) for a in argv]
            if run == "separate":
                codes.append(run_cli(*argv).returncode)
                continue
            try:
                codes.append(main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
        files = {f.name: f.read_bytes() for f in d.iterdir() if f.suffix != ".config"}
        results[run] = codes, files
    assert results["one"][0] == results["separate"][0] == [0, 0, 2, 0, 0]
    one, separate = results["one"][1], results["separate"][1]
    assert sorted(one) == sorted(separate) == ["F.json", "fp2.json", "fp3.json", "gm2.json",
                                               "gm3.json", "immerse.csv", "split.csv",
                                               "split2.csv"]
    for name in one:
        assert one[name] == separate[name], name
    assert b"# seed = 5" in one["split.csv"] and b"# seed = 5" not in one["split2.csv"]
