"""Constant-curvature immersions of space forms into spheres and hyperbolic
spaces via the loop-group splitting machinery.

An order (1,1) field integrates a flat immersion; an order (-1,1) field fixed
by the second-kind involution integrates a non-flat one, with curvature
c = 4/(lambda + 1/lambda)^2 into the sphere and its negative into hyperbolic
space.  The two are exchanged by splitting (non-flat -> flat) and tau-merging
(flat -> non-flat); for the circle reality condition the flat partner lives
in the opposite target, reached by conjugating with T = diag(i I_n, 1, i I_k).

Correspondence table (input c-interval, input target) <-> (flat, target):

    (-inf, 0)  sphere      <->  flat sphere          reality R1
    (0, 1)     sphere      <->  flat sphere          reality R2
    (1, inf)   sphere      <->  flat hyperbolic      reality Rm1
    (-inf,-1)  hyperbolic  <->  flat sphere          reality Rm1
    (-1, 0)    hyperbolic  <->  flat hyperbolic      reality R2
    (0, inf)   hyperbolic  <->  flat hyperbolic      reality R1
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DegenerateLambda,
    DimensionMismatch,
    IntegrabilityViolation,
    NonRealFrame,
    ZeroLambda,
)
from .fields import (
    ConnectionForm,
    FrameField,
    Grid2D,
    central_difference,
    fd_mc_tolerance,
    grid_derivative,
    maurer_cartan,
    mc_residual,
    split,
    tau_merge,
)
from .loops import GroupSpec, LaurentLoop, Stack, horner, trim_stack
from .symmetry import SymmetrySpec, phi_scale

CONNECTION_KINDS = ("A1", "A2", "B1", "B2", "Bm1")

# unit factors multiplying the real (theta, beta) data in the assembled form;
# they enforce the reality condition of each kind coefficientwise
_UNIT_FACTORS = {"A1": (1j, 1j), "A2": (1.0, 1.0),
                 "B1": (1j, 1j), "B2": (1.0, 1.0), "Bm1": (1.0, 1j)}

_KIND_REALITY = {"A1": "R1", "A2": "R2", "B1": "R1", "B2": "R2", "Bm1": "Rm1"}

# (target kind, reality) -> (flat target kind, input curvature interval)
_ROUTE = {
    ("orthogonal", "R1"): ("orthogonal", (-np.inf, 0.0)),
    ("orthogonal", "R2"): ("orthogonal", (0.0, 1.0)),
    ("orthogonal", "Rm1"): ("lorentz", (1.0, np.inf)),
    ("lorentz", "Rm1"): ("orthogonal", (-np.inf, -1.0)),
    ("lorentz", "R2"): ("lorentz", (-1.0, 0.0)),
    ("lorentz", "R1"): ("lorentz", (0.0, np.inf)),
}


def curvature_c(lam, target: GroupSpec):
    """Sectional curvature 4/(lambda + 1/lambda)^2, negated for Lorentz targets."""
    lam = complex(lam)
    if lam == 0:
        raise ZeroLambda("curvature undefined at lambda = 0")
    s = lam + 1.0 / lam
    if abs(s) < 1e-8:
        raise DegenerateLambda("lambda + 1/lambda vanishes (lambda near +-i)")
    c = 4.0 / (s * s)
    if target.kind == "lorentz":
        c = -c
    if abs(c.imag) <= 1e-12 * max(1.0, abs(c)):
        return float(c.real)
    return c


def correspondence_route(target_kind, reality):
    """(flat target kind, input c-interval) for a non-flat (target, reality) pair."""
    try:
        return _ROUTE[(target_kind, reality)]
    except KeyError:
        raise ValueError(f"no correspondence for ({target_kind!r}, {reality!r})")


def classify_curvature(c, target_kind):
    """Name the interval of a measured curvature; None within 1e-6 of a
    boundary value."""
    cuts = (0.0, 1.0) if target_kind == "orthogonal" else (-1.0, 0.0)
    if min(abs(c - cut) for cut in cuts) <= 1e-6:
        return None
    if target_kind == "orthogonal":
        if c < 0.0:
            return (-np.inf, 0.0)
        return (0.0, 1.0) if c < 1.0 else (1.0, np.inf)
    if c < -1.0:
        return (-np.inf, -1.0)
    return (-1.0, 0.0) if c < 0.0 else (0.0, np.inf)


# -- extended connections -------------------------------------------------------


@dataclass
class ExtendedConnectionSpec:
    """Grid-sampled data of a type A / type B extended connection.

    Component arrays are real, indexed [i, j, direction, ...] with direction
    0 for du and 1 for dv: omega (n x n, antisymmetric), theta (n-vector),
    beta (n x k), eta ((k+1) x (k+1), antisymmetric, first row and column
    zero).  Type A uses theta and beta as the two column groups of the
    lambda-linear block and requires omega = eta = 0.
    """

    kind: str
    n: int
    k: int
    grid: Grid2D
    target: GroupSpec
    omega: Optional[np.ndarray] = None
    theta: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None
    eta: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in CONNECTION_KINDS:
            raise ValueError(f"unknown connection kind {self.kind!r}")
        nu, nv = self.grid.shape
        n, k = self.n, self.k
        shapes = {
            "omega": (nu, nv, 2, n, n),
            "theta": (nu, nv, 2, n),
            "beta": (nu, nv, 2, n, k),
            "eta": (nu, nv, 2, k + 1, k + 1),
        }
        for name, shape in shapes.items():
            arr = getattr(self, name)
            if arr is None:
                arr = np.zeros(shape)
            else:
                arr = np.asarray(arr, dtype=float)
                if arr.shape != shape:
                    raise DimensionMismatch(f"{name} has shape {arr.shape}, expected {shape}")
            setattr(self, name, arr)

    @property
    def dim(self):
        return self.n + self.k + 1

    @property
    def reality(self):
        return _KIND_REALITY[self.kind]

    @property
    def symmetry(self):
        return SymmetrySpec(self.n, self.k, self.reality)


def assemble_connection(spec: ExtendedConnectionSpec, check=True) -> ConnectionForm:
    """Build the Laurent-graded connection form of an extended-connection spec.

    The structure equations (flatness of omega or the 4 theta theta^T
    curvature identity, flat normal bundle, and the closure of the
    lambda-graded blocks) are all equivalent to graded flatness of the
    assembled form, so with check=True the grade-resolved flatness residual
    is measured against fd_mc_tolerance and an IntegrabilityViolation
    carries the failing degrees.
    """
    if spec.kind.startswith("A"):
        for name in ("omega", "eta"):
            if np.max(np.abs(getattr(spec, name))) > 0.0:
                raise IntegrabilityViolation(f"type A connections require {name} = 0")
    if np.max(np.abs(spec.eta[:, :, :, 0, :])) > 0.0 or \
       np.max(np.abs(spec.eta[:, :, :, :, 0])) > 0.0:
        raise IntegrabilityViolation("first row and column of eta must vanish")
    grid = spec.grid
    n, m = spec.n, spec.dim
    s_theta, s_beta = _UNIT_FACTORS[spec.kind]
    theta = s_theta * spec.theta
    beta = s_beta * spec.beta
    beta_t = np.swapaxes(beta, -1, -2)
    lead = grid.shape + (2,)
    deg0 = np.zeros(lead + (m, m), dtype=complex)
    deg0[..., :n, :n] = spec.omega
    deg0[..., n:, n:] = spec.eta
    top = np.zeros(lead + (m, m), dtype=complex)
    top[..., :n, n] = theta
    top[..., n, :n] = theta if spec.target.kind == "lorentz" else -theta
    top[..., :n, n + 1 :] = beta
    top[..., n + 1 :, :n] = -beta_t
    if spec.kind.startswith("A"):
        lo, degrees = 0, [deg0, top]
    else:
        # type B: the f-column carries (lambda + 1/lambda), the beta block
        # (lambda - 1/lambda)
        bottom = top.copy()
        bottom[..., :n, n + 1 :] = -beta
        bottom[..., n + 1 :, :n] = beta_t
        lo, degrees = -1, [bottom, deg0, top]
    form = ConnectionForm(grid, lo, np.stack(degrees, axis=-3))
    if check and min(grid.shape) >= 3:
        tol_mc = fd_mc_tolerance(form)
        worst, grades = mc_residual(form, per_degree=True)
        if worst > tol_mc:
            bad = {d: g for d, g in grades.items() if g > tol_mc}
            raise IntegrabilityViolation(
                f"structure equations fail at degrees {sorted(bad)} "
                f"(max residual {worst:.3e})", grades)
    return form


# -- immersion extraction --------------------------------------------------------


@dataclass
class ImmersionGrid:
    """Sampled map into the quadric, with induced-geometry diagnostics."""

    grid: Grid2D
    points: np.ndarray           # (nu, nv, dim) real ambient coordinates
    lam: complex
    target: GroupSpec
    mask: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.points.shape[2]


def gauss_curvature_brioschi(points, grid: Grid2D, form):
    """Intrinsic curvature of a sampled surface patch from its first
    fundamental form (finite differences + the Brioschi determinant formula).

    Returns (K, metric_det); K is NaN where second differences are not
    available.  Works for 2-parameter patches in any ambient dimension, with
    the ambient inner product given by the diagonal form matrix.
    """
    h_u, h_v = grid.h_u, grid.h_v
    # every node counts as valid: NaN points of masked nodes propagate
    everywhere = np.ones(grid.shape, dtype=bool)
    fu, _ = grid_derivative(points, everywhere, h_u, 0)
    fv, _ = grid_derivative(points, everywhere, h_v, 1)
    w = np.diag(form)

    def dot(a, b):
        return np.einsum("ijk,k,ijk->ij", a, w, b)

    E, F, G = dot(fu, fu), dot(fu, fv), dot(fv, fv)
    det = E * G - F * F
    E_u = central_difference(E, h_u, 0)
    E_v = central_difference(E, h_v, 1)
    G_u = central_difference(G, h_u, 0)
    G_v = central_difference(G, h_v, 1)
    F_u = central_difference(F, h_u, 0)
    F_v = central_difference(F, h_v, 1)
    E_vv = central_difference(E_v, h_v, 1)
    G_uu = central_difference(G_u, h_u, 0)
    F_uv = central_difference(F_u, h_v, 1)

    m1 = np.stack([
        np.stack([-0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u, F_u - 0.5 * E_v], -1),
        np.stack([F_v - 0.5 * G_u, E, F], -1),
        np.stack([0.5 * G_v, F, G], -1),
    ], -2)
    m2 = np.stack([
        np.stack([np.zeros_like(E), 0.5 * E_v, 0.5 * G_u], -1),
        np.stack([0.5 * E_v, E, F], -1),
        np.stack([0.5 * G_u, F, G], -1),
    ], -2)
    with np.errstate(invalid="ignore", divide="ignore"):
        K = (np.linalg.det(np.nan_to_num(m1, nan=np.nan))
             - np.linalg.det(np.nan_to_num(m2, nan=np.nan))) / det**2
        K = np.where(np.isfinite(m1).all(axis=(-1, -2)) & (det > 0), K, np.nan)
    return K, det


def extract_immersion(F: FrameField, lam, target: GroupSpec,
                      real_tol=1e-8) -> ImmersionGrid:
    """Evaluate the frame, read off the distinguished column, and report the
    induced geometry.

    The immersion is column n (0-indexed) of the evaluated frame; lam must
    lie on the reality locus of the field's reality condition, otherwise the
    evaluated matrices have imaginary parts above real_tol and NonRealFrame
    is raised.  Diagnostics: induced metric determinant, Gauss curvature
    (2-parameter patches), per-node immersivity flag, and the residual of the
    quadric constraint <f, f> = +-1.
    """
    lam = complex(lam)
    grid = F.grid
    m = F.dim
    if target.dim != m:
        raise DimensionMismatch(f"target dim {target.dim} vs frame dim {m}")
    n = target.n_tan
    M = horner(F.lo, F.coeffs, lam)
    imag = np.abs(M.imag).max(axis=(-1, -2))
    scale = np.maximum(1.0, np.abs(M).max(axis=(-1, -2)))
    off = np.argwhere(F.mask & (imag > real_tol * scale))
    if off.size:
        i, j = (int(t) for t in off[0])
        raise NonRealFrame(
            f"frame at node {(i, j)} has imaginary part "
            f"{imag[i, j]:.3e}; lambda={lam} off the reality locus")
    mask = F.mask.copy()
    points = np.where(mask[:, :, None], M[:, :, :, n].real, np.nan)
    form = target.form_matrix
    quad = np.einsum("ijk,k,ijk->ij", points, np.diag(form), points)
    quad_target = 1.0 if target.kind == "orthogonal" else -1.0
    quadric_residual = np.abs(quad - quad_target)
    K, det = gauss_curvature_brioschi(points, grid, form)
    scale_det = np.nanmax(np.abs(det)) if np.any(np.isfinite(det)) else 1.0
    immersive = np.where(np.isfinite(det), det > 1e-8 * max(scale_det, 1e-30), False)
    return ImmersionGrid(
        grid=grid, points=points, lam=lam, target=target, mask=mask,
        diagnostics={
            "metric_det": det,
            "gauss_curvature": K,
            "quadric_residual": quadric_residual,
            "immersive": immersive,
        },
    )


def validate_adapted(F: FrameField, target: GroupSpec, lam, c=None):
    """Per-node adaptedness, curvature-equation, and normal-flatness residuals.

    Adaptedness measures the forbidden first row/column of the normal block
    of the connection coefficients (all degrees); the other two residuals are
    evaluated at lam against the supplied c (default: the target's curvature
    at lam).  Pure diagnostic, never raises on bad geometry.
    """
    lam = complex(lam)
    n = target.n_tan
    grid = F.grid
    A = maurer_cartan(F)
    if c is None:
        try:
            c = curvature_c(lam, target)
        except DegenerateLambda:
            c = np.nan
    coeffs = A.coeffs  # (nu, nv, direction, degree, m, m)
    forbidden = np.concatenate([np.abs(coeffs[..., n, n + 1 :]),
                                np.abs(coeffs[..., n + 1 :, n])], axis=-1)
    adapted = np.where(A.mask, forbidden.max(axis=(2, 3, 4), initial=0.0), np.nan)
    val = np.einsum("t,ijdtab->ijdab", lam ** np.arange(A.lo, A.hi + 1), coeffs)
    val[~A.mask] = np.nan
    omega = val[:, :, :, :n, :n]
    theta = val[:, :, :, :n, n]
    eta = val[:, :, :, n:, n:]

    def two_form_residual(w_u, w_v, rhs):
        d_uv = central_difference(w_v, grid.h_u, 0)
        d_vu = central_difference(w_u, grid.h_v, 1)
        wedge = np.einsum("ijab,ijbc->ijac", w_u, w_v) - \
            np.einsum("ijab,ijbc->ijac", w_v, w_u)
        r = d_uv - d_vu + wedge - rhs
        return np.abs(r).max(axis=(-1, -2))

    tt = np.einsum("ija,ijb->ijab", theta[:, :, 0], theta[:, :, 1]) - \
        np.einsum("ija,ijb->ijab", theta[:, :, 1], theta[:, :, 0])
    curvature = two_form_residual(omega[:, :, 0], omega[:, :, 1], c * tt)
    normal_flat = two_form_residual(eta[:, :, 0], eta[:, :, 1], 0.0)
    return {
        "adapted": adapted,
        "curvature": curvature,
        "normal_flat": normal_flat,
        "mask": A.mask,
    }


# -- flat <-> non-flat pipelines ---------------------------------------------------


def phi_field(F: FrameField, direction, s: SymmetrySpec) -> FrameField:
    """phi_map at every node, onto the opposite target."""
    if F.dim != s.dim:
        raise DimensionMismatch(f"field dim {F.dim} vs symmetry dim {s.dim}")
    return FrameField(F.grid, F.lo, F.coeffs * phi_scale(direction, s), F.mask.copy(),
                      symmetry=F.symmetry,
                      target=F.target.opposite() if F.target is not None else None,
                      info=dict(F.info))


def nonflat_to_flat(F: FrameField, s: SymmetrySpec):
    """The flat partner of a non-flat extended frame: its (1,1) split part.

    Inputs carrying the circle reality condition get bridged to the opposite
    target (where the split part is a genuine real flat frame, reality R1);
    the other realities keep their target.  Returns a based (1,1) field
    tagged with the flat-side symmetry and target.
    """
    target = F.target if F.target is not None else s.group("orthogonal")
    _, f_plus = split(F)
    if s.reality == "Rm1":
        direction = ("sphere_to_hyperbolic" if target.kind == "orthogonal"
                     else "hyperbolic_to_sphere")
        f_plus = phi_field(f_plus, direction, s)
        f_plus.symmetry = s.with_reality("R1")
        f_plus.target = target.opposite()
    elif s.reality in ("R1", "R2"):
        f_plus.symmetry = s
        f_plus.target = target
    else:
        raise ValueError(f"unsupported reality {s.reality!r} for the correspondence")
    return f_plus


def flat_to_nonflat(F_plus: FrameField, s: SymmetrySpec):
    """Rebuild the non-flat frame of the declared (target, reality) class
    from its flat partner; inverse of nonflat_to_flat up to the constant
    gauge freedom of the tau-merge."""
    flat_target = F_plus.target
    if s.reality == "Rm1":
        if flat_target is None:
            raise ValueError("flat field needs a declared target for the bridge")
        direction = ("hyperbolic_to_sphere" if flat_target.kind == "lorentz"
                     else "sphere_to_hyperbolic")
        bridged = phi_field(F_plus, direction, s)
        out = tau_merge(bridged, s.with_reality("Rhat1"))
        out.symmetry = s
        out.target = flat_target.opposite()
    elif s.reality in ("R1", "R2"):
        out = tau_merge(F_plus, s)
        out.symmetry = s
        out.target = flat_target
    else:
        raise ValueError(f"unsupported reality {s.reality!r} for the correspondence")
    return out


# -- the closed-form family of curvature c > 1 spheres in S^3 ---------------------


def example_sphere_family(u, v, lam):
    """The 4x4 frame of the isometrically embedded sphere family, evaluated.

    With a = (lam + 1/lam)/2 and b = i (lam - 1/lam)/2, the third column is
    a curvature 4/(lam+1/lam)^2 round sphere in S^3 for lam on the unit
    circle; at lam = 1 it degenerates to the totally geodesic equator.
    """
    lam = complex(lam)
    if lam == 0:
        raise ZeroLambda("frame undefined at lambda = 0")
    a = 0.5 * (lam + 1.0 / lam)
    b = 0.5j * (lam - 1.0 / lam)
    cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
    return np.array([
        [cu, -su * sv, a * su * cv, b * su * cv],
        [0.0, cv, a * sv, b * sv],
        [-a * su, -a * cu * sv, a * a * cu * cv + b * b, a * b * (cu * cv - 1.0)],
        [-b * su, -b * cu * sv, a * b * (cu * cv - 1.0), b * b * cu * cv + a * a],
    ], dtype=complex)


def example_sphere_frame(u, v) -> LaurentLoop:
    """The same frame as an exact degree window [-2, 2] loop."""
    return LaurentLoop(-2, _sphere_coeffs(u, v))


def sphere_frame_stack(u, v) -> Stack:
    """The frames at the parameters of two flat arrays, as a Stack of their
    loops, each trimmed as example_sphere_frame trims it."""
    return trim_stack(-2, _sphere_coeffs(u, v))


def _sphere_coeffs(u, v):
    """Coefficients over the degrees [-2, 2] of the frame at u, v (scalars
    or arrays of one shape), summed into zeros as from_terms sums them."""
    cu, su, cv, sv = np.cos(u), np.sin(u), np.cos(v), np.sin(v)
    shape = np.shape(cu)
    c0 = np.zeros(shape + (4, 4), dtype=complex)
    c0[..., 0, 0] = cu
    c0[..., 0, 1] = -su * sv
    c0[..., 1, 1] = cv
    c0[..., 2, 2] = c0[..., 3, 3] = 0.5 * (cu * cv + 1.0)
    c1 = np.zeros(shape + (4, 4), dtype=complex)
    c1[..., 0, 2], c1[..., 0, 3] = 0.5 * su * cv, 0.5j * su * cv
    c1[..., 1, 2], c1[..., 1, 3] = 0.5 * sv, 0.5j * sv
    c1[..., 2, 0], c1[..., 2, 1] = -0.5 * su, -0.5 * cu * sv
    c1[..., 3, 0], c1[..., 3, 1] = -0.5j * su, -0.5j * cu * sv
    w = 0.25 * (cu * cv - 1.0)
    c2 = np.zeros(shape + (4, 4), dtype=complex)
    c2[..., 2, 2], c2[..., 3, 3] = w, -w
    c2[..., 2, 3] = c2[..., 3, 2] = 1j * w
    out = np.zeros(shape + (5, 4, 4), dtype=complex)
    for t, c in enumerate((np.conj(c2), np.conj(c1), c0, c1, c2)):
        out[..., t, :, :] += c
    return out


def example_sphere_field(grid: Grid2D) -> FrameField:
    """The family sampled on a grid (base expected at the origin node)."""
    return FrameField.from_stack(grid, sphere_frame_stack(*grid.parameters()),
                                 symmetry=SymmetrySpec(2, 1, "Rm1"),
                                 target=GroupSpec("orthogonal", 2, 1))


def example_sphere_connection(grid: Grid2D) -> ExtendedConnectionSpec:
    """The connection data of the family: omega from -sin v du, theta = beta
    = (cos v du, dv)/2, eta = 0 (type Bm1, sphere target)."""
    nu, nv = grid.shape
    omega = np.zeros((nu, nv, 2, 2, 2))
    theta = np.zeros((nu, nv, 2, 2))
    beta = np.zeros((nu, nv, 2, 2, 1))
    for i, u in enumerate(grid.us):
        for j, v in enumerate(grid.vs):
            omega[i, j, 0] = [[0.0, -np.sin(v)], [np.sin(v), 0.0]]
            theta[i, j, 0] = [0.5 * np.cos(v), 0.0]
            theta[i, j, 1] = [0.0, 0.5]
            beta[i, j, 0, :, 0] = theta[i, j, 0]
            beta[i, j, 1, :, 0] = theta[i, j, 1]
    return ExtendedConnectionSpec("Bm1", 2, 1, grid, GroupSpec("orthogonal", 2, 1),
                                  omega=omega, theta=theta, beta=beta)


def example_flat_target(x, y, lam):
    """The flat partner immersion in H^3: [i x lam, i y lam,
    (2 - x^2 lam^2 - y^2 lam^2)/2, (x^2 lam^2 + y^2 lam^2)/2], real and of
    Lorentz square -1 for lam on the imaginary axis."""
    lam = complex(lam)
    if lam == 0:
        raise ZeroLambda("immersion undefined at lambda = 0")
    if abs(lam.real) > 1e-12 * abs(lam):
        raise NonRealFrame(f"lambda = {lam} is not purely imaginary")
    s = (x * x + y * y) * lam * lam
    f = np.array([1j * x * lam, 1j * y * lam, 0.5 * (2.0 - s), 0.5 * s])
    return f.real
