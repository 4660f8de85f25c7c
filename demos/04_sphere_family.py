"""The closed-form family of constant-curvature spheres in S^3 and its flat
partner in H^3.

The family frame is an exact window [-2,2] loop fixed by sigma, tau and the
circle reality condition; for lambda = e^{i t} its third column is a round
sphere of curvature 4/(lambda+1/lambda)^2 >= 1 in S^3.  Splitting off the
(1,1) part and conjugating by diag(i, i, 1, i) produces the flat partner,
whose immersion is a paraboloid-like flat patch in H^3 with an explicit
polynomial formula.

Run:  python demos/04_sphere_family.py
"""

import numpy as np

import loopsplit as ls
from loopsplit.spaceforms import example_sphere_connection

s = ls.SymmetrySpec(2, 1, "Rm1")
sphere = ls.GroupSpec("orthogonal", 2, 1)
hyper = ls.GroupSpec("lorentz", 2, 1)

grid = ls.Grid2D.centered(0.4, 9, 0.35, 9)
F = ls.example_sphere_field(grid)
print("family is fixed by sigma, tau and the circle reality:",
      ls.fixed_residual(F.value(2, 3), ["sigma", "tau", "Rm1"], s))

# curvature check at a circle point
lam = np.exp(1j * np.pi / 6)
im = ls.extract_immersion(F, lam, sphere)
K = im.diagnostics["gauss_curvature"]
print("target curvature:", round(ls.curvature_c(lam, sphere), 6),
      " measured (median):", round(float(np.nanmedian(K)), 6))

# the connection form in closed form, and the sampled frames' discrete one
A = ls.assemble_connection(example_sphere_connection(grid))
A_fd = ls.maurer_cartan(F)
err = ls.field_distance(A, A_fd)
print("sampled connection vs closed form (O(h^2) at h=%.3g): %.2e"
      % (grid.h_u, err))

# flat partner in the hyperbolic target
flat = ls.nonflat_to_flat(F, s)
print("\nflat partner target:", flat.target.kind,
      " reality:", flat.symmetry.reality)
im_flat = ls.extract_immersion(flat, 2j, hyper)
pts = im_flat.points
x = pts[:, :, 0] / -2.0
y = pts[:, :, 1] / -2.0
s2 = -4.0 * (x * x + y * y)
print("matches the polynomial immersion formula:",
      float(np.abs(pts[:, :, 2] - 0.5 * (2.0 - s2)).max()))
print("Lorentz normalization |<f,f> + 1|:",
      float(np.nanmax(im_flat.diagnostics["quadric_residual"])))
print("flat partner curvature (median):",
      float(np.nanmedian(im_flat.diagnostics["gauss_curvature"])))

# and back: the tau-merge rebuilds the sphere family up to a constant gauge
back = ls.flat_to_nonflat(flat, s)
d = ls.mul(F.value(3, 4).transpose(), back.value(3, 4))
print("\nround trip differs by a constant gauge:",
      ls.distance(d, ls.constant(d.coeff(0))))
