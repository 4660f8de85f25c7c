"""Birkhoff and tau-Iwasawa factorizations of a single loop.

The left Birkhoff factorization writes g = g_- g_+ with g_- normalized to
constant term I and g_+ holomorphic in the disc; it exists exactly on the
big cell, and off it the solver reports an ill-conditioned system.  The
tau-Iwasawa factorization writes x = z y_+ with z fixed by the second-kind
involution tau (conjugation by Q composed with lambda -> 1/lambda).

Run:  python demos/02_factorizations.py
"""

import numpy as np

import loopsplit as ls
from loopsplit.generators import random_minus_unipotent, random_tau_instance, rng_for

rng = rng_for(1)

# -- construct-then-factor: recover known Birkhoff factors -------------------
gm = random_minus_unipotent(rng, 4)
gp = ls.loop_exp(ls.from_terms({1: 0.25 * rng.standard_normal((4, 4))}))
g = ls.mul(gm, gp)
out = ls.birkhoff_left(g, N=20)
print("reconstruction residual:", out.residual)
print("condition estimate:", round(out.condition, 2))
print("minus factor recovered:", ls.distance(out.minus, gm))
print("plus factor recovered:", ls.distance(out.plus, gp))

# -- off the big cell the factorization degenerates ---------------------------
torus = ls.from_terms({1: np.diag([1.0, 0, 0, 0]), -1: np.diag([0.0, 1, 0, 0]),
                       0: np.diag([0.0, 0, 1, 1])})
try:
    ls.birkhoff_left(torus)
except ls.BigCellViolation as exc:
    print("\nloop with a nontrivial middle term:", exc)
    print("cause:", exc.cause, "windows tried:", exc.windows)

# -- tau-Iwasawa --------------------------------------------------------------
s = ls.SymmetrySpec(2, 1)
x, z0, y0 = random_tau_instance(rng, s)
res = ls.tau_iwasawa(x, s, constant_group="general")
print("\ntau-Iwasawa residuals:",
      {k: f"{v:.2e}" for k, v in res.residuals.items()})
# z is unique up to a constant tau-fixed right factor: compare with z0
d = ls.mul(ls.truncated_inverse(z0, 20), res.z)
dc = d.coeff(0)
print("built and recovered z differ by a constant:",
      ls.distance(d, ls.constant(dc)))
Q = s.tau_matrix
print("... which is tau-fixed:", np.abs(Q @ dc @ Q - dc).max())
