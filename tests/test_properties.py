"""Invariants of the truncated solves, checked on random inputs.

Hypothesis runs derandomized and without an example database, so the suite
draws the same examples on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsplit import birkhoff_left, distance, from_terms, mul, truncated_inverse
from loopsplit.generators import random_matrix, random_minus_unipotent, rng_for

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
