"""Seeded random instances for tests, demos and the verification suite.

Everything funnels through numpy Generators so a single seed reproduces a
whole run.  The flat-frame constructors use pairs of commuting rotation
generators (orthogonal rows for the sphere, form-orthogonal rows for the
Lorentz target), which keeps the sampled frames exactly of connection order
(1,1); the basic-pair constructors use two-step nilpotent directions with a
common left kernel, so the sampled factors have exactly the degree windows
the splitting theory prescribes, with no discretization leakage.
"""

from __future__ import annotations

import numpy as np

from .fields import FrameField, Grid2D
from .loops import GroupSpec, LaurentLoop, from_terms, loop_exp, mul
from .spaceforms import example_sphere_frame, flat_to_nonflat, phi_field
from .symmetry import SymmetrySpec, apply_involution


def rng_for(seed) -> np.random.Generator:
    return np.random.default_rng(np.random.PCG64(seed))


def random_matrix(rng, n, scale=1.0, real=False):
    m = rng.standard_normal((n, n))
    if not real:
        m = m + 1j * rng.standard_normal((n, n))
    return scale * m


def random_skew(rng, n, scale=1.0, real=False):
    m = random_matrix(rng, n, scale, real)
    return 0.5 * (m - m.T)


# -- loops ------------------------------------------------------------------


def random_minus_unipotent(rng, n, depth=4, scale=0.1, decay=0.3) -> LaurentLoop:
    """I + strictly negative degrees, per-degree spectral norms decaying
    geometrically (keeps the inverse's coefficient tail decaying fast)."""
    terms = {0: np.eye(n, dtype=complex)}
    for d in range(1, depth + 1):
        m = random_matrix(rng, n)
        terms[-d] = (scale * decay ** (d - 1) / np.linalg.norm(m, 2)) * m
    return from_terms(terms)


def spectral_wiener_norm(g: LaurentLoop) -> float:
    """Sum of spectral norms of the coefficients (norm used for the size
    bounds on factor families; the package-wide trim norm stays Frobenius)."""
    return float(sum(np.linalg.norm(c, 2) for c in g.coeffs))


def random_fixed_loop(rng, s: SymmetrySpec, involutions=("sigma",), radius=2,
                      scale=0.25, skew=False) -> LaurentLoop:
    """exp of a random algebra loop averaged onto the fixed-point set of the
    listed involutions (tags as in apply_involution)."""
    n = s.dim
    terms = {}
    for d in range(-radius, radius + 1):
        m = random_skew(rng, n) if skew else random_matrix(rng, n)
        terms[d] = (scale / max(1, 2 * radius)) * m
    x = from_terms(terms, n=n)
    for tags in involutions:
        x = 0.5 * (x + apply_involution(x, tags, s))
    return loop_exp(x)


def random_orthogonal_loop(rng, spec: GroupSpec, radius=2, scale=0.3) -> LaurentLoop:
    """exp of a skew loop: unit-circle values orthogonal to machine precision."""
    terms = {}
    for d in range(-radius, radius + 1):
        terms[d] = random_skew(rng, spec.dim, scale / (2 * radius + 1))
    return loop_exp(from_terms(terms, n=spec.dim))


def random_dressing_element(rng, n, side="minus", scale=0.18) -> LaurentLoop:
    """exp of a loop in Lambda^- (side 'minus') or Lambda^+ ('plus')."""
    sign = -1 if side == "minus" else 1
    terms = {0: random_matrix(rng, n, scale * 0.5)}
    for d in (1, 2):
        terms[sign * d] = random_matrix(rng, n, scale * 0.6 ** d)
    return loop_exp(from_terms(terms))


def random_tau_instance(rng, s: SymmetrySpec, radius=2, scale=0.18):
    """(x, z0, y0) with z0 tau-fixed, y0 in Lambda^+, x = z0 y0."""
    n = s.dim
    q = np.sign(np.diag(s.tau_matrix).real)
    terms = {0: 0.0}
    v0 = random_matrix(rng, n, scale)
    terms[0] = 0.5 * (v0 + (q[:, None] * v0 * q[None, :]))
    for d in range(1, radius + 1):
        vd = random_matrix(rng, n, scale * 0.6 ** (d - 1))
        terms[d] = vd
        terms[-d] = q[:, None] * vd * q[None, :]
    z0 = loop_exp(from_terms(terms, n=n))
    y_terms = {0: random_matrix(rng, n, scale * 0.5),
               1: random_matrix(rng, n, scale),
               2: random_matrix(rng, n, scale * 0.5)}
    y0 = loop_exp(from_terms(y_terms, n=n))
    return mul(z0, y0), z0, y0


# -- basic pairs on grids ------------------------------------------------------


def nilpotent_family(rng, n, count=2, scale=0.4):
    """Commuting two-step nilpotents a b_i^T with b_i orthogonal to a: all
    pairwise products vanish, so exp is affine and degree windows are exact."""
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = []
    for _ in range(count):
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = b - a * (b @ a) / (a @ a)
        m = np.outer(a, b)
        out.append(scale * m / np.linalg.norm(m))
    return out


def random_scalar_fields(rng, count=2, freq=1.5, amp=1.0):
    """Smooth random bivariate functions vanishing at the origin."""
    coefs = rng.uniform(-amp, amp, size=(count, 4))
    w = rng.uniform(0.5, freq, size=(count, 2))

    def make(c, wu, wv):
        return lambda u, v: (c[0] * np.sin(wu * u) + c[1] * np.sin(wv * v)
                             + c[2] * u * v + c[3] * (np.cos(wu * u) - 1.0))

    return [make(coefs[t], w[t, 0], w[t, 1]) for t in range(count)]


def random_basic_pair(rng, grid: Grid2D, n=4, scale=0.4):
    """(G_minus, F_plus) fields of exact connection order (a,-1) and (1,b),
    based at the grid base node."""
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
    gm = FrameField.from_function(
        grid, lambda u, v: from_terms({0: eye, -1: f1(u, v) * xm + f2(u, v) * ym}))
    fpf = FrameField.from_function(
        grid, lambda u, v: from_terms({0: eye, 1: g1(u, v) * xp + g2(u, v) * yp}))
    return gm, fpf


# -- flat frames and table instances ---------------------------------------


def commuting_flat_pair(rng, target: GroupSpec, scale=0.8):
    """Two commuting lambda-linear generators with independent coframe
    directions; rows orthogonal for the plain form, form-orthogonal for the
    Lorentz one (the Clifford-torus pattern and its Lorentz analogue)."""
    n = target.n_tan
    k = target.k_nor
    m = target.dim
    if n != 2 or k != 1:
        raise ValueError("flat pair generator is wired for n=2, k=1")
    alpha = rng.uniform(0.3, 1.2)
    c, d = np.cos(alpha), np.sin(alpha)
    t = rng.uniform(0.6, 1.2)
    rows = [(c, d), ((-t * d, t * c) if target.kind == "orthogonal"
                     else (t * d, t * c))]
    mats = []
    for which, (rc, rd) in enumerate(rows):
        g = np.zeros((m, m))
        g[which, 2], g[which, 3] = rc, rd
        if target.kind == "orthogonal":
            g[2, which], g[3, which] = -rc, -rd
        else:
            g[2, which], g[3, which] = rc, -rd  # symmetric f-row, skew normal
        mats.append(scale * g)
    comm = np.abs(mats[0] @ mats[1] - mats[1] @ mats[0]).max()
    if comm > 1e-12:
        raise AssertionError(f"flat generators fail to commute: {comm:.2e}")
    return mats


def random_flat_field(rng, grid: Grid2D, reality: str, target: GroupSpec,
                      scale=0.8) -> FrameField:
    """A based flat frame field of exact connection order (1,1) with the given
    first-kind reality condition (R1 or R2)."""
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

    return FrameField.from_function(grid, value, symmetry=s, target=target)


def sphere_family_instance(rng, grid: Grid2D) -> FrameField:
    """A seeded transform of the closed-form sphere family: base shift,
    parameter rescaling, and conjugation by a fixed-subgroup rotation."""
    du, dv = rng.uniform(-0.25, 0.25, size=2)
    su, sv = rng.uniform(0.8, 1.15, size=2)
    ang = rng.uniform(0, 2 * np.pi)
    rot = np.eye(4)
    rot[0, 0] = rot[1, 1] = np.cos(ang)
    rot[0, 1], rot[1, 0] = np.sin(ang), -np.sin(ang)
    s = SymmetrySpec(2, 1, "Rm1")
    from .loops import constant

    # the family is orthogonal-valued, so the inverse loop is the transpose
    base_inv = example_sphere_frame(du, dv).transpose()
    cr, cl = constant(rot), constant(rot.T)

    def value(u, v):
        g = mul(base_inv, example_sphere_frame(du + su * u, dv + sv * v))
        return mul(cl, mul(g, cr))

    return FrameField.from_function(grid, value, symmetry=s,
                                    target=GroupSpec("orthogonal", 2, 1))


def table_instance(rng, target_kind, reality, grid: Grid2D) -> FrameField:
    """A non-flat extended frame for one row of the correspondence table."""
    s = SymmetrySpec(2, 1, reality)
    if (target_kind, reality) == ("orthogonal", "Rm1"):
        return sphere_family_instance(rng, grid)
    if (target_kind, reality) == ("lorentz", "R1"):
        out = phi_field(sphere_family_instance(rng, grid), "sphere_to_hyperbolic", s)
        out.symmetry = s
        return out
    if reality in ("R1", "R2"):
        target = GroupSpec(target_kind, 2, 1)
        flat = random_flat_field(rng, grid, reality, target)
        return flat_to_nonflat(flat, s)
    if (target_kind, reality) == ("lorentz", "Rm1"):
        flat = random_flat_field(rng, grid, "R1", GroupSpec("orthogonal", 2, 1))
        return flat_to_nonflat(flat, s)
    raise ValueError(f"no instance recipe for ({target_kind}, {reality})")
