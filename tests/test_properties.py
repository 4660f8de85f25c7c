"""Invariants of the truncated solves and of the sampled-field arrays,
checked on random inputs.

Hypothesis runs derandomized and without an example database, so the suite
draws the same examples on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsplit import (
    ConnectionForm,
    FrameField,
    Grid2D,
    LaurentLoop,
    birkhoff_left,
    distance,
    field_distance,
    from_terms,
    lincomb,
    merge,
    mul,
    split,
    truncated_inverse,
)
from loopsplit.fields import grid_derivative
from loopsplit.generators import (
    random_basic_pair,
    random_matrix,
    random_minus_unipotent,
    rng_for,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def one_sided_unit_loop(seed, n, depth, decay, side):
    """I + s with s of the given depth on one side; the spectral norms of
    s sum to less than 1, so the inverse series converges."""
    g = random_minus_unipotent(rng_for(seed), n, depth=depth, scale=0.3, decay=decay)
    return g if side == "minus" else g.mirror()


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), depth=st.integers(1, 5),
       decay=st.floats(0.05, 0.6), N=st.integers(1, 30),
       side=st.sampled_from(["minus", "plus"]))
def test_forward_substitution_matches_toeplitz_solve(seed, n, depth, decay, N, side):
    g = one_sided_unit_loop(seed, n, depth, decay, side)
    exact = truncated_inverse(g, N)
    # 2g is not normalized, so it takes the general block-Toeplitz solve;
    # that section is block triangular here and so exact as well
    general = 2.0 * truncated_inverse(2.0 * g, N)
    assert distance(exact, general) <= 1e-12
    assert (exact.hi <= 0) if side == "minus" else (exact.lo >= 0)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), depth=st.integers(1, 4),
       top=st.integers(1, 4), scale=st.floats(0.05, 0.4), decay=st.floats(0.1, 0.7))
def test_adaptive_birkhoff_matches_wide_window(seed, n, depth, top, scale, decay):
    rng = rng_for(seed)
    gm = random_minus_unipotent(rng, n, depth=depth, scale=scale, decay=decay)
    terms = {d: (scale * decay ** d) * random_matrix(rng, n) / n for d in range(top + 1)}
    terms[0] = terms[0] + np.eye(n)
    g = mul(gm, from_terms(terms))
    adaptive = birkhoff_left(g)
    wide = birkhoff_left(g, N=60)
    assert distance(adaptive.minus, wide.minus) <= 1e-12
    assert distance(adaptive.plus, wide.plus) <= 1e-12


# -- sampled fields -------------------------------------------------------------


def random_node_loops(seed, nu, nv, n, keep):
    """{(i, j): loop} on a random subset of the nodes (each kept with
    probability `keep`), every loop on its own random window with
    coefficients of random magnitude."""
    rng = rng_for(seed)
    loops = {}
    for i in range(nu):
        for j in range(nv):
            if rng.uniform() >= keep:
                continue
            lo = int(rng.integers(-3, 3))
            width = int(rng.integers(1, 5))
            loops[i, j] = from_terms(
                {d: 10.0 ** rng.uniform(-3, 1) * random_matrix(rng, n)
                 for d in range(lo, lo + width)}, n=n)
    return loops


def reference_derivative(table, mask, i, j, axis, h):
    """The per-node finite difference the field arrays replaced: central
    inside, one-sided at edges, retreating from masked neighbours; None when
    no stencil of valid nodes exists."""
    size = mask.shape[axis]
    pos = i if axis == 0 else j

    def val(t):
        return table[t][j] if axis == 0 else table[i][t]

    def ok(t):
        return mask[t, j] if axis == 0 else mask[i, t]

    if pos == 0:
        idxs, wts = (0, 1, 2), (-1.5, 2.0, -0.5)
    elif pos == size - 1:
        idxs, wts = (size - 3, size - 2, size - 1), (0.5, -2.0, 1.5)
    else:
        idxs, wts = (pos - 1, pos + 1), (-0.5, 0.5)
    if not all(ok(t) for t in idxs):
        if pos > 1 and all(ok(t) for t in (pos - 2, pos - 1, pos)):
            idxs, wts = (pos - 2, pos - 1, pos), (0.5, -2.0, 1.5)
        elif pos < size - 2 and all(ok(t) for t in (pos, pos + 1, pos + 2)):
            idxs, wts = (pos, pos + 1, pos + 2), (-1.5, 2.0, -0.5)
        else:
            return None
    return lincomb([(w / h, val(t)) for t, w in zip(idxs, wts)])


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(3, 7), nv=st.integers(3, 7),
       n=st.integers(1, 3), keep=st.floats(0.3, 1.0), h=st.floats(0.01, 1.0))
def test_grid_derivative_matches_per_node_reference(seed, nu, nv, n, keep, h):
    loops = random_node_loops(seed, nu, nv, n, keep)
    grid = Grid2D.from_spacing(0.0, h, nu, 0.0, h, nv)
    F = FrameField.from_loops(grid, loops, n=n)
    table = [[loops.get((i, j)) for j in range(nv)] for i in range(nu)]
    for axis in (0, 1):
        deriv, ok = grid_derivative(F.coeffs, F.mask, h, axis)
        for i, j in grid.nodes():
            ref = reference_derivative(table, F.mask, i, j, axis, h) \
                if F.mask[i, j] else None
            assert ok[i, j] == (ref is not None)
            if ref is not None:
                got = LaurentLoop(F.lo, deriv[i, j])
                assert distance(got, ref) <= 1e-12 * max(ref.wiener_norm(), 1e-300)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(1, 6), nv=st.integers(1, 6),
       n=st.integers(1, 4), keep=st.floats(0.0, 1.0))
def test_packing_returns_each_node_loop(seed, nu, nv, n, keep):
    loops = random_node_loops(seed, nu, nv, n, keep)
    grid = Grid2D.from_spacing(0.0, 0.1, nu, 0.0, 0.1, nv)
    form_loops = {(i, j, d): g for (i, j), g in loops.items() for d in (0, 1)}
    for packed, given_loops in ((FrameField.from_loops(grid, loops, n=n), loops),
                                (ConnectionForm.from_loops(grid, form_loops, n=n),
                                 form_loops)):
        back = packed.loops()
        assert back.keys() == given_loops.keys()
        for key, g in given_loops.items():
            assert back[key].window == g.window
            assert np.array_equal(back[key].coeffs, g.coeffs)


# -- splitting ------------------------------------------------------------------


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), nu=st.integers(3, 5),
       nv=st.integers(3, 5), scale=st.floats(0.05, 0.4))
def test_merge_split_round_trip(seed, n, nu, nv, scale):
    # criterion 4 on random dimensions and grid sizes, with its bounds
    grid = Grid2D.centered(0.5, nu, 0.5, nv)
    gm, fp = random_basic_pair(rng_for(seed), grid, n=n, scale=scale)
    F = merge(gm, fp)
    assert F.mask.all(), F.info["failures"]
    g2, f2 = split(F)
    assert g2.mask.all(), g2.info["failures"]
    assert field_distance(merge(g2, f2), F) <= 1e-7
    assert max(field_distance(g2, gm), field_distance(f2, fp)) <= 1e-7
