"""Seeded random instances for tests, demos and the verification suite.

Everything funnels through numpy Generators so a single seed reproduces a
whole run.  The flat-frame constructors use pairs of commuting rotation
generators (orthogonal rows for the sphere, form-orthogonal rows for the
Lorentz target), which keeps the sampled frames exactly of connection order
(1,1); the basic-pair constructors use two-step nilpotent directions with a
common left kernel, so the sampled factors have exactly the degree windows
the splitting theory prescribes, with no discretization leakage.  Fields
are built on node stacks, each formula evaluated once over the grid's
parameter arrays and the exponentials summed by stack_exp; every node holds,
bit for bit, the loop its per-node construction gives.
"""

from __future__ import annotations

import numpy as np

from .fields import FrameField, Grid2D
from .loops import (
    GroupSpec,
    LaurentLoop,
    constant,
    copies,
    from_terms,
    loop_exp,
    mul,
    stack_exp,
    stack_mul,
    trim_stack,
)
from .spaceforms import example_sphere_frame, flat_to_nonflat, phi_field, sphere_frame_stack
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
                      scale=0.25) -> LaurentLoop:
    """exp of a random algebra loop averaged onto the fixed-point set of the
    listed involutions (tags as in apply_involution)."""
    n = s.dim
    terms = {}
    for d in range(-radius, radius + 1):
        terms[d] = (scale / max(1, 2 * radius)) * random_matrix(rng, n)
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


def random_dressing_element(rng, n, side) -> LaurentLoop:
    """exp of a loop in Lambda^- (side 'minus') or Lambda^+ ('plus')."""
    sign = -1 if side == "minus" else 1
    terms = {0: random_matrix(rng, n, 0.18 * 0.5)}
    for d in (1, 2):
        terms[sign * d] = random_matrix(rng, n, 0.18 * 0.6 ** d)
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


def nilpotent_family(rng, n, count, scale):
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


def random_scalar_fields(rng, count):
    """count smooth random bivariate functions vanishing at the origin."""
    coefs = rng.uniform(-1.0, 1.0, size=(count, 4))
    w = rng.uniform(0.5, 1.5, size=(count, 2))

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
    u, v = grid.parameters()

    def field(degree, f, g, x, y):
        # I + (f x + g y) lambda^degree at every node, f and g based
        lo = min(degree, 0)
        c = np.zeros((u.size, 2, n, n), dtype=complex)
        c[:, -lo] += np.eye(n, dtype=complex)
        c[:, degree - lo] += ((f(u, v) - f(u0, v0))[:, None, None] * x
                              + (g(u, v) - g(u0, v0))[:, None, None] * y)
        return FrameField.from_stack(grid, trim_stack(lo, c))

    return field(-1, fm[0], fm[1], xm, ym), field(1, fp[0], fp[1], xp, yp)


# -- flat frames and table instances ---------------------------------------


def commuting_flat_pair(rng, target: GroupSpec, scale):
    """Two commuting lambda-linear generators with independent coframe
    directions: tangent row i points along w_i in the normal block
    {n, ..., n + k}, with w_1, w_2 form-orthogonal there (the Clifford-torus
    pattern and its Lorentz analogue).  For k >= 2, w_2 leans out of the
    plane of e_n and w_1 by a random angle, so the block is not a k = 1
    block padded with zeros."""
    n, k, m = target.n_tan, target.k_nor, target.dim
    if n != 2 or k < 1:
        raise ValueError("flat pair generator is wired for n=2, k>=1")
    alpha = rng.uniform(0.3, 1.2)
    c, d = np.cos(alpha), np.sin(alpha)
    t = rng.uniform(0.6, 1.2)
    lean = rng.uniform(0.3, 1.2) if k >= 2 else 0.0
    sign = 1.0 if target.kind == "orthogonal" else -1.0  # form sign at index n
    w1, w2 = np.zeros(k + 1), np.zeros(k + 1)
    w1[:2] = c, d
    w2[:3] = t * np.array([-sign * d * np.cos(lean), c * np.cos(lean), c * np.sin(lean)])[: k + 1]
    b = np.ones(k + 1)
    b[0] = sign
    mats = []
    for which, w in enumerate((w1, w2)):
        g = np.zeros((m, m))
        g[which, n:] = w
        g[n:, which] = -b * w  # so g^T B + B g = 0
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
    u, v = grid.parameters()
    p1 = a1 * (u - u0) + eps * (np.sin(v) - np.sin(v0))
    p2 = a2 * (v - v0)
    x = np.zeros((u.size, 1) + M.shape, dtype=complex)
    x[:, 0] += unit * (p1[:, None, None] * M + p2[:, None, None] * Mp)
    return FrameField.from_stack(grid, stack_exp(trim_stack(1, x)),
                                 symmetry=SymmetrySpec(target.n_tan, target.k_nor, reality),
                                 target=target)


def sphere_family_instance(rng, grid: Grid2D) -> FrameField:
    """A seeded transform of the closed-form sphere family: base shift,
    parameter rescaling, and conjugation by a fixed-subgroup rotation."""
    du, dv = rng.uniform(-0.25, 0.25, size=2)
    su, sv = rng.uniform(0.8, 1.15, size=2)
    ang = rng.uniform(0, 2 * np.pi)
    rot = np.eye(4)
    rot[0, 0] = rot[1, 1] = np.cos(ang)
    rot[0, 1], rot[1, 0] = np.sin(ang), -np.sin(ang)
    u, v = grid.parameters()
    count = u.size
    # the family is orthogonal-valued, so the inverse loop is the transpose
    base_inv = copies(example_sphere_frame(du, dv).transpose(), count)
    cr, cl = copies(constant(rot), count), copies(constant(rot.T), count)
    g = stack_mul(base_inv, sphere_frame_stack(du + su * u, dv + sv * v))
    return FrameField.from_stack(grid, stack_mul(cl, stack_mul(g, cr)),
                                 symmetry=SymmetrySpec(2, 1, "Rm1"),
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
