"""The seeded field generators against their per-node references, bit for
bit, and stack_exp against loop_exp row by row.

The references below are the per-node bodies the generators had before
they built fields on node stacks: one Python call per node, each building
its LaurentLoop through from_terms and loop_exp, packed by from_loops.
Hypothesis runs derandomized and without an example database, so the suite
draws the same examples on every run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsplit import FrameField, Grid2D, GroupSpec, SingularLoop, SymmetrySpec
from loopsplit.generators import (
    commuting_flat_pair,
    nilpotent_family,
    random_basic_pair,
    random_flat_field,
    random_scalar_fields,
    rng_for,
    sphere_family_instance,
)
from loopsplit.loops import (
    LaurentLoop,
    constant,
    from_terms,
    gather,
    loop_exp,
    mul,
    stack_exp,
    trim_stack,
)
from loopsplit.spaceforms import example_sphere_field, example_sphere_frame

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def per_node(grid, fn, **kw):
    """fn(u, v) at every node, packed by from_loops."""
    return FrameField.from_loops(grid, {(i, j): fn(u, v) for i, u in enumerate(grid.us)
                                        for j, v in enumerate(grid.vs)}, **kw)


def reference_basic_pair(rng, grid, n=4, scale=0.4):
    bi, bj = grid.base
    u0, v0 = grid.us[bi], grid.vs[bj]
    xm, ym = nilpotent_family(rng, n, 2, scale)
    xp, yp = nilpotent_family(rng, n, 2, scale)
    fm = random_scalar_fields(rng, 2)
    fp = random_scalar_fields(rng, 2)

    def based(f):
        return lambda u, v: f(u, v) - f(u0, v0)

    f1, f2 = based(fm[0]), based(fm[1])
    g1, g2 = based(fp[0]), based(fp[1])
    eye = np.eye(n, dtype=complex)
    gm = per_node(grid, lambda u, v: from_terms({0: eye, -1: f1(u, v) * xm + f2(u, v) * ym}))
    fpf = per_node(grid, lambda u, v: from_terms({0: eye, 1: g1(u, v) * xp + g2(u, v) * yp}))
    return gm, fpf


def reference_flat_field(rng, grid, reality, target, scale=0.8):
    M, Mp = commuting_flat_pair(rng, target, scale)
    unit = 1j if reality == "R1" else 1.0
    bi, bj = grid.base
    u0, v0 = grid.us[bi], grid.vs[bj]
    a1, a2 = rng.uniform(0.6, 1.1, size=2)
    eps = rng.uniform(-0.15, 0.15)
    s = SymmetrySpec(target.n_tan, target.k_nor, reality)

    def value(u, v):
        p1 = a1 * (u - u0) + eps * (np.sin(v) - np.sin(v0))
        p2 = a2 * (v - v0)
        return loop_exp(from_terms({1: unit * (p1 * M + p2 * Mp)}))

    return per_node(grid, value, symmetry=s, target=target)


def reference_sphere_frame(u, v):
    cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
    c0 = np.zeros((4, 4), dtype=complex)
    c0[0, 0] = cu
    c0[0, 1] = -su * sv
    c0[1, 1] = cv
    c0[2, 2] = c0[3, 3] = 0.5 * (cu * cv + 1.0)
    c1 = np.zeros((4, 4), dtype=complex)
    c1[0, 2], c1[0, 3] = 0.5 * su * cv, 0.5j * su * cv
    c1[1, 2], c1[1, 3] = 0.5 * sv, 0.5j * sv
    c1[2, 0], c1[2, 1] = -0.5 * su, -0.5 * cu * sv
    c1[3, 0], c1[3, 1] = -0.5j * su, -0.5j * cu * sv
    w = 0.25 * (cu * cv - 1.0)
    c2 = np.zeros((4, 4), dtype=complex)
    c2[2, 2], c2[3, 3] = w, -w
    c2[2, 3] = c2[3, 2] = 1j * w
    return from_terms({-2: np.conj(c2), -1: np.conj(c1), 0: c0, 1: c1, 2: c2}, n=4)


def reference_sphere_field(grid):
    return per_node(grid, reference_sphere_frame, symmetry=SymmetrySpec(2, 1, "Rm1"),
                    target=GroupSpec("orthogonal", 2, 1))


def reference_sphere_family(rng, grid):
    du, dv = rng.uniform(-0.25, 0.25, size=2)
    su, sv = rng.uniform(0.8, 1.15, size=2)
    ang = rng.uniform(0, 2 * np.pi)
    rot = np.eye(4)
    rot[0, 0] = rot[1, 1] = np.cos(ang)
    rot[0, 1], rot[1, 0] = np.sin(ang), -np.sin(ang)
    s = SymmetrySpec(2, 1, "Rm1")
    base_inv = reference_sphere_frame(du, dv).transpose()
    cr, cl = constant(rot), constant(rot.T)

    def value(u, v):
        g = mul(base_inv, reference_sphere_frame(du + su * u, dv + sv * v))
        return mul(cl, mul(g, cr))

    return per_node(grid, value, symmetry=s, target=GroupSpec("orthogonal", 2, 1))


def assert_same_field(got, ref):
    assert got.lo == ref.lo
    assert got.coeffs.shape == ref.coeffs.shape
    assert got.coeffs.tobytes() == ref.coeffs.tobytes()
    assert np.array_equal(got.mask, ref.mask)
    assert (got.symmetry, got.target, got.info) == (ref.symmetry, ref.target, ref.info)


def assert_same_rng(a, b):
    assert a.bit_generator.state == b.bit_generator.state


# 1xN and even-sized grids, and base nodes off the centre
GRIDS = [
    Grid2D.centered(0.5, 9, 0.5, 9),
    Grid2D.centered(0.4, 1, 0.3, 6),
    Grid2D.centered(0.3, 8, 0.6, 4),
    Grid2D.from_spacing(-0.2, 0.07, 5, 0.1, 0.05, 7, base=(3, 1)),
    Grid2D.from_spacing(0.0, 0.1, 4, -0.3, 0.1, 1, base=(0, 0)),
]
GRID_IDS = ["x".join(map(str, g.shape)) + f"@{g.base}" for g in GRIDS]


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_random_basic_pair_matches_per_node_reference(grid):
    for seed, n in ((0, 4), (3, 3), (17, 5)):
        rng, ref_rng = rng_for(seed), rng_for(seed)
        got = random_basic_pair(rng, grid, n=n, scale=0.4)
        ref = reference_basic_pair(ref_rng, grid, n=n, scale=0.4)
        for a, b in zip(got, ref):
            assert_same_field(a, b)
        assert_same_rng(rng, ref_rng)


@pytest.mark.parametrize("reality", ["R1", "R2"])
@pytest.mark.parametrize("kind", ["orthogonal", "lorentz"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_random_flat_field_matches_per_node_reference(reality, kind, k):
    target = GroupSpec(kind, 2, k)
    for seed, grid in enumerate(GRIDS):
        rng, ref_rng = rng_for((seed, k)), rng_for((seed, k))
        got = random_flat_field(rng, grid, reality, target)
        ref = reference_flat_field(ref_rng, grid, reality, target)
        assert_same_field(got, ref)
        assert_same_rng(rng, ref_rng)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_sphere_fields_match_per_node_reference(grid):
    assert_same_field(example_sphere_field(grid), reference_sphere_field(grid))
    for seed in (0, 3, 17):
        rng, ref_rng = rng_for(seed), rng_for(seed)
        assert_same_field(sphere_family_instance(rng, grid), reference_sphere_family(ref_rng, grid))
        assert_same_rng(rng, ref_rng)


def test_sphere_frame_matches_reference_at_scalars():
    for u, v in [(0.45, -0.3), (0.0, 0.0), (-1.2, 2.5), (np.float64(0.1), np.float64(-0.7))]:
        got, ref = example_sphere_frame(u, v), reference_sphere_frame(u, v)
        assert got.lo == ref.lo and got.coeffs.tobytes() == ref.coeffs.tobytes()


# -- stack_exp ------------------------------------------------------------


def signed_zeros(rng, c, share):
    """c with a share of its real and imaginary parts set to -0.0."""
    out = c.copy()
    out.real[rng.random(c.shape) < share] = -0.0
    out.imag[rng.random(c.shape) < share] = -0.0
    return out


@st.composite
def exp_stacks(draw):
    """Loops of one dimension n in 1..5: one-sided and two-sided windows,
    zero loops, scales that stop the series at different terms, and -0.0
    entries."""
    n = draw(st.integers(1, 5))
    count = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    loops = []
    for _ in range(count):
        kind = draw(st.sampled_from(["zero", "minus", "plus", "two-sided", "constant"]))
        size = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.05, 0.4, 1.5]))
        lo, width = {"zero": (0, 1), "minus": (-3, 3), "plus": (1, 2),
                     "two-sided": (-2, 4), "constant": (0, 1)}[kind]
        width = draw(st.integers(1, width))
        c = size * (rng.standard_normal((width, n, n)) + 1j * rng.standard_normal((width, n, n)))
        if kind == "zero":
            c = np.zeros_like(c)
        c = signed_zeros(rng, c, draw(st.sampled_from([0.0, 0.2, 1.0])))
        loops.append(LaurentLoop(lo, c))
    return loops


def stack_of(loops):
    n = loops[0].n
    lo, c = gather([((b,), g.lo, g.coeffs) for b, g in enumerate(loops)], (len(loops),), n)
    return trim_stack(lo, c)


@SETTINGS
@given(exp_stacks())
def test_stack_exp_matches_loop_exp_row_by_row(loops):
    out = stack_exp(stack_of(loops))
    for b, g in enumerate(loops):
        ref = loop_exp(g)
        got = LaurentLoop(out.lo, out.c[b])
        assert (out.los[b], out.his[b]) == ref.window
        assert got.lo == ref.lo
        assert got.coeffs.tobytes() == ref.coeffs.tobytes()


def test_stack_exp_rows_stop_at_different_terms():
    """A stack whose rows need from 1 to many terms, in one call."""
    eye = np.eye(3, dtype=complex)
    loops = [LaurentLoop(0, np.zeros((1, 3, 3))), from_terms({1: 1e-20 * eye}),
             from_terms({-1: 0.5 * eye, 2: 0.1j * eye}), from_terms({1: 3.0 * eye})]
    out = stack_exp(stack_of(loops))
    for b, g in enumerate(loops):
        ref = loop_exp(g)
        assert LaurentLoop(out.lo, out.c[b]).coeffs.tobytes() == ref.coeffs.tobytes()


def test_stack_exp_raises_when_a_row_does_not_converge():
    eye = np.eye(2, dtype=complex)
    loops = [from_terms({1: 0.1 * eye}), from_terms({1: 200.0 * eye})]
    with pytest.raises(SingularLoop):
        loop_exp(loops[1])
    with pytest.raises(SingularLoop):
        stack_exp(stack_of(loops))
