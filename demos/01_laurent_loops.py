"""Matrix Laurent polynomials: the arithmetic everything else stands on.

A loop stores complex matrix coefficients over a degree window [lo, hi] and
models a map from the unit circle into a matrix group.  This script walks
through products, evaluation, degree projections, truncated inversion, and
the summability/membership diagnostics.

Run:  python demos/01_laurent_loops.py
"""

import numpy as np

import loopsplit as ls

rng = np.random.default_rng(0)

# a loop with window [-1, 2]: g(lam) = A/lam + I + B lam^2
A = 0.3 * rng.standard_normal((4, 4))
B = 0.2 * rng.standard_normal((4, 4))
g = ls.from_terms({-1: A, 0: np.eye(4), 2: B})
print("g window:", g.window, " summable norm:", round(g.wiener_norm(), 4))

lam = np.exp(0.4j)
print("evaluation matches the series:",
      np.abs(g.eval(lam) - (A / lam + np.eye(4) + B * lam**2)).max())

# products concatenate windows and convolve coefficients
h = ls.mul(g, g)
print("g*g window:", h.window)
print("multiplicativity at a sample point:",
      np.abs(h.eval(lam) - g.eval(lam) @ g.eval(lam)).max())

# degree projections slice the window; the parts reassemble exactly
print("plus part window:", g.project("plus").window)
print("reassembly:", ls.distance(g.project("plus") + g.project("strict_minus"), g))

# truncated inversion: P_[-N,N](g x - I) = 0 by a block-Toeplitz solve;
# normalized one-sided loops are inverted exactly by forward substitution
inv = ls.truncated_inverse(g, N=10)
print("inverse residual on the window:",
      ls.distance(ls.mul(g, inv).clip(-10, 10), ls.identity(4)))

# group membership: max over circle samples of |g^T J g - J|
so4 = ls.GroupSpec("orthogonal", 2, 1)
skew = {d: 0.2 * (m - m.T) for d, m in
        ((d, rng.standard_normal((4, 4))) for d in (-1, 0, 1))}
rot = ls.loop_exp(ls.from_terms(skew))
print("orthogonal-loop membership residual:", ls.group_residual(rot, so4))
print("after the diag(i,i,1,i) bridge, Lorentz membership residual:",
      ls.group_residual(ls.phi_map(rot, "sphere_to_hyperbolic",
                                   ls.SymmetrySpec(2, 1)),
                        ls.GroupSpec("lorentz", 2, 1)))
