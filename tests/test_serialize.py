"""Field and form files: the base64 coefficient block against the text
payload earlier versions wrote, bit for bit.

Hypothesis runs derandomized and without an example database, so the suite
draws the same examples on every run.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from conftest import text_payload
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsplit import ConnectionForm, FrameField, Grid2D, GroupSpec, LaurentLoop, SymmetrySpec
from loopsplit.cli import main
from loopsplit.generators import rng_for
from loopsplit.serialize import (
    connection_form_from_obj,
    connection_form_to_obj,
    frame_field_from_obj,
    frame_field_to_obj,
    load_json,
    loop_from_obj,
    loop_to_obj,
    save_json,
)

DATA = Path(__file__).parent / "data"
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def through_json(obj):
    return json.loads(json.dumps(obj))


def round_trip(x):
    """x saved and loaded as a format-2 file."""
    if isinstance(x, ConnectionForm):
        return connection_form_from_obj(through_json(connection_form_to_obj(x)))
    return frame_field_from_obj(through_json(frame_field_to_obj(x)))


def text_round_trip(x):
    """x saved as a text file and loaded by the text reader.  That reader
    cannot size a fully masked form or untagged field, so there the
    reference is what it packs every other table into: degree 0, zeros."""
    if not x.mask.any():
        return type(x).from_loops(x.grid, {}, n=x.dim)
    obj = through_json(text_payload(x))
    if isinstance(x, ConnectionForm):
        return connection_form_from_obj(obj)
    return frame_field_from_obj(obj)


def assert_same_bits(got, ref):
    assert got.lo == ref.lo
    assert got.coeffs.shape == ref.coeffs.shape
    assert np.array_equal(got.mask, ref.mask)
    assert got.coeffs.tobytes() == ref.coeffs.tobytes()


def random_sampled(seed, nu, nv, n, keep, form):
    """A field or form whose nodes each carry a loop on their own window of
    one shared array: random masks, zero loops, coefficients too small to
    keep at a window's edge, and -0.0 in both parts inside and outside the
    windows, at masked nodes too."""
    rng = rng_for(seed)
    lead = (nu, nv) + ((2,) if form else ())
    lo, width = int(rng.integers(-3, 2)), int(rng.integers(1, 6))
    c = np.zeros(lead + (width, n, n), dtype=complex)
    for index in np.ndindex(lead):
        if rng.uniform() < 0.15:
            continue  # a zero loop
        a = int(rng.integers(0, width))
        b = int(rng.integers(a, width))
        c[index][a : b + 1] = 10.0 ** rng.uniform(-3, 1, (b - a + 1, 1, 1)) * (
            rng.standard_normal((b - a + 1, n, n))
            + 1j * rng.standard_normal((b - a + 1, n, n)))
        if rng.uniform() < 0.3:  # an edge degree below the trim tolerance
            c[index][b] *= 1e-16
    # zero parts inside windows too, and signs set through the parts:
    # re + 1j * im would drop the sign of a zero im
    c.real[rng.uniform(size=c.shape) < 0.1] = 0.0
    c.imag[rng.uniform(size=c.shape) < 0.1] = 0.0
    c.real[(c.real == 0) & (rng.uniform(size=c.shape) < 0.5)] = -0.0
    c.imag[(c.imag == 0) & (rng.uniform(size=c.shape) < 0.5)] = -0.0
    mask = rng.uniform(size=(nu, nv)) < keep
    cls = ConnectionForm if form else FrameField
    return cls(Grid2D.from_spacing(0.0, 0.1, nu, 0.0, 0.1, nv), lo, c, mask)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(1, 5), nv=st.integers(1, 5),
       n=st.integers(1, 4), keep=st.sampled_from([0.0, 0.5, 0.9, 1.0]), form=st.booleans())
def test_block_round_trip_matches_text_round_trip(seed, nu, nv, n, keep, form):
    x = random_sampled(seed, nu, nv, n, keep, form)
    assert_same_bits(round_trip(x), text_round_trip(x))


@pytest.mark.parametrize("name,load", [("field_text.json", frame_field_from_obj),
                                       ("form_text.json", connection_form_from_obj)])
def test_text_files_still_load(tmp_path, name, load):
    # the fixtures were written by the text serializer of earlier versions,
    # which conftest.text_payload keeps
    text = (DATA / name).read_text()
    old = load(json.loads(text))
    assert through_json(text_payload(old)) == json.loads(text)  # -0.0 == 0.0 here
    assert 0 < old.mask.sum() < old.mask.size
    path = tmp_path / name
    save_json((frame_field_to_obj if load is frame_field_from_obj
               else connection_form_to_obj)(old), path)
    assert load_json(path)["format"] == 2
    assert_same_bits(load(load_json(path)), old)


def test_field_tags_round_trip():
    F = frame_field_from_obj(json.loads((DATA / "field_text.json").read_text()))
    assert F.symmetry == SymmetrySpec(1, 1, "R1") and F.target is None
    back = round_trip(F)
    assert back.symmetry == F.symmetry and back.target is None
    T = FrameField(F.grid, F.lo, F.coeffs, F.mask, target=GroupSpec("lorentz", 1, 1))
    assert round_trip(T).target == T.target and round_trip(T).symmetry is None


def test_fully_masked_form_and_untagged_field_round_trip(tmp_path):
    # text files of these could be written but not read: the reader had no n
    grid = Grid2D.centered(0.3, 3, 0.3, 4)
    none = np.zeros(grid.shape, dtype=bool)
    A = ConnectionForm.from_loops(grid, {}, n=3)
    F = FrameField.from_loops(grid, {}, n=2)
    T = FrameField.from_loops(grid, {}, n=4, target=GroupSpec("orthogonal", 2, 1))
    for x in (A, F, T):
        back = round_trip(x)
        assert_same_bits(back, x)
        assert back.dim == x.dim and np.array_equal(back.mask, none)
    assert round_trip(T).target == T.target
    path, cpath = tmp_path / "F.json", tmp_path / "run.json"
    save_json(frame_field_to_obj(F), path)
    cpath.write_text(json.dumps({"paths": {
        "in": str(path), "out_minus": str(tmp_path / "gm.json"),
        "out_plus": str(tmp_path / "fp.json")}}))
    assert main(["split", "--config", str(cpath)]) == 2
    gm = frame_field_from_obj(load_json(tmp_path / "gm.json"))
    assert gm.dim == 2 and not gm.mask.any()


def loaded_as(re, im):
    """The (re, im) that a saved coefficient loads as: re + 1j * im."""
    if not np.isfinite(im):
        return np.nan, im
    if re == 0.0 and np.signbit(re) and not np.signbit(im):
        re = 0.0
    return re, 0.0 if im == 0.0 else im


def test_signed_zero_load_rule():
    """load(save(g)) keeps every bit but these: a -0.0 imaginary part loads
    as +0.0, a -0.0 real part as +0.0 unless the imaginary part is negative
    or -0.0, and a non-finite imaginary part makes the real part NaN.  Loop
    files and field files keep the same rule."""
    values = [0.0, -0.0, 1.5, -1.5]
    pairs = np.array([[(re, im) for im in values] for re in values])  # (4, 4, 2)
    c = np.empty((1, 4, 4), dtype=complex)
    c.real, c.imag = pairs[..., 0], pairs[..., 1]
    expected = np.array([[loaded_as(re, im) for im in values] for re in values])
    g = LaurentLoop(0, c)
    loop = loop_from_obj(through_json(loop_to_obj(g)))
    field = round_trip(FrameField.from_loops(Grid2D.centered(0.1, 1, 0.1, 1), {(0, 0): g}))
    for got in (loop.coeffs[0], field.coeffs[0, 0, 0]):
        assert np.stack([got.real, got.imag], -1).tobytes() == expected.tobytes()
    # the rule is not idempotent: (-0.0, -0.0) loads as (-0.0, +0.0), then (+0.0, +0.0)
    again = loop_from_obj(through_json(loop_to_obj(loop))).coeffs[0, 1, 1]
    assert not np.signbit(again.real) and not np.signbit(again.imag)

    with np.errstate(invalid="ignore"):
        for re, im in [(1.0, np.inf), (-0.0, -np.inf), (2.0, np.nan),
                       (np.inf, 1.0), (np.nan, -0.0)]:
            c = np.full((1, 1, 1), re, dtype=complex)
            c.imag = im
            g = LaurentLoop(0, c, trim=False)
            got = loop_from_obj(through_json(loop_to_obj(g))).coeffs[0, 0, 0]
            want = loaded_as(re, im)
            assert np.array_equal([got.real, got.imag], want, equal_nan=True)
            assert np.signbit(got.imag) == np.signbit(want[1])
