"""Grid-sampled maps into the loop group and the splitting machinery.

A FrameField samples a map from a rectangular 2-parameter patch into the
loop group; a ConnectionForm holds the two directional components of a
Maurer-Cartan form, one loop per node per direction.  Each stores one complex
coefficient array over a degree window shared by the grid, so every step that
needs no solve (distances, orders, finite differences, constant products,
evaluation, flatness residuals) is an array operation, and the pointwise
factorizations and inverses run over all nodes at once, through whole-field
calls of birkhoff_left/right, truncated_inverse and (in tau_merge)
tau_iwasawa_minus.  Potential integration takes its RK4 steps on
coefficient stacks, a whole line or every edge at once.  tau_merge fixes
each node's gauge from that node's own tau-Iwasawa factor, by polar factors
computed over the stack of nodes, so nodes share nothing.  Field operations
never fail a whole field: nodes where a solve breaks are masked out and
reported, mirroring the restriction to the open subset where the
decompositions exist.

Tolerance hierarchy, loosest consumer last: trimming 1e-14 < factorization
1e-9 / 1e-8 < round trips 1e-7 < integrability and order measurement 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, IntegrabilityViolation
from .factorization import (
    CONDITION_LIMIT,
    TOL_BIRKHOFF,
    TOL_IWASAWA,
    birkhoff_left,
    birkhoff_right,
    default_window,
    tau_iwasawa_minus,
)
from .loops import (
    GroupSpec,
    LaurentLoop,
    Stack,
    aligned,
    cauchy,
    coefficient_norms,
    distance,
    gather,
    identity,
    node_stack,
    on_nodes,
    padded,
    trim_stack,
    truncated_inverse,
    wiener_norms,
)
from .symmetry import SymmetrySpec

TOL_ROUNDTRIP = 1e-7
TOL_ORDER = 1e-6
TOL_MC = 1e-6


@dataclass(frozen=True)
class Grid2D:
    """Uniform rectangular lattice with a distinguished base node."""

    us: np.ndarray
    vs: np.ndarray
    base: tuple

    def __post_init__(self):
        object.__setattr__(self, "us", np.asarray(self.us, dtype=float))
        object.__setattr__(self, "vs", np.asarray(self.vs, dtype=float))
        for name, axis in (("h_u", self.us), ("h_v", self.vs)):
            if axis.size >= 2:
                steps = np.diff(axis)
                if np.any(steps <= 0) or np.ptp(steps) > 1e-12 * abs(steps[0]):
                    raise ValueError(f"grid axis for {name} must be uniformly increasing")
        bi, bj = self.base
        if not (0 <= bi < self.us.size and 0 <= bj < self.vs.size):
            raise ValueError(f"base index {self.base} outside grid")

    @classmethod
    def from_spacing(cls, u0, h_u, nu, v0, h_v, nv, base=None):
        us = u0 + h_u * np.arange(nu)
        vs = v0 + h_v * np.arange(nv)
        if base is None:
            base = (0, 0)
        return cls(us, vs, tuple(base))

    @classmethod
    def centered(cls, extent_u, nu, extent_v, nv):
        """Symmetric grid around the origin with the base at the center node."""
        us = np.linspace(-extent_u, extent_u, nu)
        vs = np.linspace(-extent_v, extent_v, nv)
        return cls(us, vs, (nu // 2, nv // 2))

    @property
    def shape(self):
        return (self.us.size, self.vs.size)

    @property
    def h_u(self):
        return float(self.us[1] - self.us[0]) if self.us.size > 1 else 0.0

    @property
    def h_v(self):
        return float(self.vs[1] - self.vs[0]) if self.vs.size > 1 else 0.0

    def nodes(self):
        for i in range(self.us.size):
            for j in range(self.vs.size):
                yield i, j

    def parameters(self):
        """(u, v) of every node, row-major, as two flat arrays."""
        u, v = np.meshgrid(self.us, self.vs, indexing="ij")
        return u.ravel(), v.ravel()


def _nodes(mask):
    """Row-major (i, j) indices of the True entries of a grid mask."""
    return [(int(i), int(j)) for i, j in np.argwhere(mask)]


@dataclass
class _SampledLoops:
    """One loop per grid node (and per direction, for forms), stored as one
    complex array: coeffs[i, j, ..., t] is the degree lo + t coefficient.

    The window is shared by the whole grid; `value` returns a node's loop
    trimmed to its own window.  Arrays are treated as immutable after
    construction.
    """

    grid: Grid2D
    lo: int
    coeffs: np.ndarray
    mask: np.ndarray = None

    _directions = ()  # index axes between the grid axes and the degree axis

    def __post_init__(self):
        self.lo = int(self.lo)
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        lead = self.grid.shape + self._directions
        shape = self.coeffs.shape
        if (len(shape) != len(lead) + 3 or shape[: len(lead)] != lead
                or shape[-3] == 0 or shape[-1] != shape[-2]):
            raise DimensionMismatch(
                f"coefficient array has shape {shape}, expected {lead} + (W, n, n)")
        if self.mask is None:
            self.mask = np.ones(self.grid.shape, dtype=bool)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != self.grid.shape:
            raise DimensionMismatch(
                f"mask shape {self.mask.shape} does not match grid {self.grid.shape}")

    @classmethod
    def from_loops(cls, grid, loops, n=None, **kw):
        """Pack {index: loop} into one array; nodes without loops are masked.

        n is the loop dimension, needed only when `loops` is empty.
        """
        if n is None:
            if not loops:
                raise ValueError("an empty set of loops needs its dimension n")
            n = next(iter(loops.values())).n
        shape = grid.shape + cls._directions
        for key, g in loops.items():
            if g.n != n:
                raise DimensionMismatch(f"loop at {key} has dimension {g.n}, expected {n}")
            if len(key) != len(shape) or not all(0 <= k < s for k, s in zip(key, shape)):
                raise DimensionMismatch(f"index {key} outside {shape}")
        lo, coeffs = gather([(key, g.lo, g.coeffs) for key, g in loops.items()], shape, n)
        mask = np.zeros(grid.shape, dtype=bool)
        for key in loops:
            mask[key[:2]] = True
        return cls(grid, lo, coeffs, mask, **kw)

    @property
    def hi(self) -> int:
        return self.lo + self.coeffs.shape[-3] - 1

    @property
    def dim(self) -> int:
        return self.coeffs.shape[-1]

    def value(self, *index) -> LaurentLoop:
        """The loop at one node (and direction), trimmed to its own window."""
        return LaurentLoop(self.lo, self.coeffs[index])

    def loops(self) -> dict:
        """{index: loop} over the unmasked nodes, the inverse of from_loops."""
        return {node + d: self.value(*node, *d) for node in _nodes(self.mask)
                for d in np.ndindex(self._directions)}


@dataclass
class FrameField(_SampledLoops):
    """Loop-group values on a grid, with failure mask and declared tags.

    coeffs has shape (nu, nv, W, n, n).
    """

    symmetry: Optional[SymmetrySpec] = None
    target: Optional[GroupSpec] = None
    info: dict = field(default_factory=dict)

    @classmethod
    def from_stack(cls, grid, x: Stack, **kw):
        """The field of a Stack of one loop per node, row-major, packed as
        from_loops packs those loops: over the union of their windows and
        zero outside each loop's own."""
        lo, hi = int(x.los.min()), int(x.his.max())
        c = padded(x.lo, x.c, lo, hi)
        degs = np.arange(lo, hi + 1)
        c[(degs < x.los[:, None]) | (degs > x.his[:, None])] = 0.0
        return cls(grid, lo, c.reshape(grid.shape + c.shape[1:]), **kw)

    @classmethod
    def constant_field(cls, grid, g: LaurentLoop, **kw):
        return cls.from_loops(grid, {node: g for node in grid.nodes()}, **kw)

    def base_value(self) -> LaurentLoop:
        return self.value(*self.grid.base)

    def is_based(self, tol=1e-10) -> bool:
        bi, bj = self.grid.base
        return bool(self.mask[bi, bj]) and distance(
            self.base_value(), identity(self.dim)) <= tol


def _inherited(*fields) -> dict:
    """The failures the fields' info name, in the order of the fields."""
    failures = {}
    for F in fields:
        failures.update(F.info.get("failures", {}))
    return failures


def _restrict(F: FrameField, mask, info) -> FrameField:
    """F on the nodes of mask only, with the given info."""
    out = on_nodes(F, mask, F.lo, F.coeffs[mask])
    out.info = info
    return out


def _product(X: FrameField, Y: FrameField, **info) -> FrameField:
    """X Y at every unmasked node of X (where Y must be unmasked), tagged
    like X, naming X's failures and holding the other info given."""
    x, y = node_stack(X, X.mask), node_stack(Y, X.mask)
    return on_nodes(X, X.mask, x.lo + y.lo, cauchy(x.c, y.c), **info)


def _times_constant(F: FrameField, c) -> FrameField:
    """F times a loop constant in lambda at every node: c is one n x n
    matrix or one per node, (nu, nv, n, n)."""
    return FrameField(F.grid, F.lo, F.coeffs @ np.asarray(c)[..., None, :, :], F.mask.copy(),
                      symmetry=F.symmetry, target=F.target, info=dict(F.info))


def field_distance(a: _SampledLoops, b: _SampledLoops) -> float:
    """Max loop distance over nodes unmasked in both fields (or both forms)."""
    if a.coeffs.shape[:-3] != b.coeffs.shape[:-3] or a.dim != b.dim:
        raise DimensionMismatch(
            f"cannot compare shapes {a.coeffs.shape[:-3]} x {a.dim} and "
            f"{b.coeffs.shape[:-3]} x {b.dim}")
    _, x, y = aligned(a.lo, a.coeffs, b.lo, b.coeffs)
    both = a.mask & b.mask
    return float(coefficient_norms(x[both] - y[both]).sum(axis=-1).max(initial=0.0))


@dataclass
class ConnectionForm(_SampledLoops):
    """Directional components A_u, A_v of a Maurer-Cartan form, per node.

    coeffs has shape (nu, nv, 2, W, n, n); direction 0 is du and 1 is dv.
    """

    _directions = (2,)


@dataclass
class Potential:
    """The Maurer-Cartan data (eta_minus, eta_plus) of a basic pair."""

    eta_minus: Optional[ConnectionForm] = None
    eta_plus: Optional[ConnectionForm] = None


# -- finite differences -------------------------------------------------------

# (offset, weight) taps of the O(h^2) first-derivative stencils
_CENTRAL = ((-1, -0.5), (1, 0.5))
_BACKWARD = ((-2, 0.5), (-1, -2.0), (0, 1.5))
_FORWARD = ((0, -1.5), (1, 2.0), (2, -0.5))


def _stencil(arr, h, axis, taps):
    """Apply one stencil along a grid axis wherever it fits; NaN elsewhere."""
    out = np.full(arr.shape, np.nan, dtype=arr.dtype)
    size = arr.shape[axis]
    first = -min(off for off, _ in taps)
    stop = size - max(off for off, _ in taps)
    if stop > first:
        src = np.moveaxis(arr, axis, 0)
        acc = None
        for off, w in taps:
            term = (w / h) * src[first + off : stop + off]
            acc = term if acc is None else acc + term
        np.moveaxis(out, axis, 0)[first:stop] = acc
    return out


def central_difference(arr, h, axis):
    """O(h^2) central difference along a grid axis; NaN at the two edge nodes."""
    return _stencil(arr, h, axis, _CENTRAL)


def grid_derivative(arr, valid, h, axis):
    """O(h^2) first derivative along a grid axis (0: u, 1: v) of an array
    whose leading axes are the grid's, restricted to the valid nodes.

    A valid node takes the central stencil when both neighbours are valid,
    else the 3-point backward stencil, else the 3-point forward one, so
    edges and masked neighbours are differenced one-sidedly.  Returns
    (derivative, ok); ok is False, and the derivative NaN, where no stencil
    of valid nodes exists.
    """
    out = np.full(arr.shape, np.nan, dtype=arr.dtype)
    ok = np.zeros(valid.shape, dtype=bool)
    size = valid.shape[axis]
    padded = np.pad(valid, [(2, 2) if a == axis else (0, 0) for a in range(2)])
    for taps in (_CENTRAL, _BACKWARD, _FORWARD):
        fits = valid & ~ok
        for off, _ in taps:  # nodes past the edges count as invalid
            fits &= np.take(padded, np.arange(2 + off, 2 + off + size), axis=axis)
        out[fits] = _stencil(arr, h, axis, taps)[fits]
        ok |= fits
    return out, ok


def maurer_cartan(F: FrameField) -> ConnectionForm:
    """Discrete F^{-1} dF: central differences inside, one-sided at edges.

    F^{-1} is truncated at each node to the default window of the node's
    value and its two derivatives; the inverses of all nodes are taken
    together, and a node whose inverse fails is masked.
    """
    grid = F.grid
    if min(grid.shape) < 3:
        raise ValueError("maurer_cartan needs at least 3 nodes per direction")
    du, ok_u = grid_derivative(F.coeffs, F.mask, grid.h_u, 0)
    dv, ok_v = grid_derivative(F.coeffs, F.mask, grid.h_v, 1)
    ok = ok_u & ok_v
    dF = ConnectionForm(grid, F.lo, np.where(ok[:, :, None, None, None, None],
                                             np.stack([du, dv], axis=2), 0.0), ok)
    inv = truncated_inverse(replace(F, mask=ok), default_window(F, dF))
    x, d = node_stack(inv, inv.mask), node_stack(dF, inv.mask)
    lo, a, _, _ = trim_stack(x.lo + d.lo, cauchy(x.c[:, None], d.c))
    coeffs = np.zeros(grid.shape + a.shape[1:], dtype=complex)
    coeffs[inv.mask] = a
    return ConnectionForm(grid, lo, coeffs, inv.mask)


def connection_order(A: ConnectionForm, tol_order=TOL_ORDER):
    """Tightest degree window (a, b) whose exterior stays below tol_order
    relative to the largest coefficient; returns (0, 0, True) for a zero form.
    """
    norms = coefficient_norms(A.coeffs[A.mask])
    peak = norms.reshape(-1, norms.shape[-1]).max(axis=0, initial=0.0)
    top = float(peak.max())
    if top <= 0.0:
        return (0, 0, True)
    degs = np.flatnonzero(peak > tol_order * top)
    if degs.size == 0:
        return (0, 0, True)
    return (A.lo + int(degs[0]), A.lo + int(degs[-1]), False)


def form_scale(A: ConnectionForm) -> float:
    """Largest coefficient norm over the form, for relative thresholds."""
    return float(coefficient_norms(A.coeffs[A.mask]).max(initial=0.0))


def fd_mc_tolerance(A: ConnectionForm) -> float:
    """Flatness threshold adapted to the finite-difference truncation error.

    The discrete flatness residual of an exactly flat analytic form is
    O(h^2) times its scale, so a sampled form cannot be held to less: the
    threshold is 5 scale h^2, and never below TOL_MC.
    """
    h = max(A.grid.h_u, A.grid.h_v)
    return max(TOL_MC, 5.0 * form_scale(A) * h * h)


def mc_residual(A: ConnectionForm, per_degree=False):
    """Flatness defect d A + A ^ A by finite differences, graded in degree.

    Returns the max over interior nodes and degrees of the coefficient norm
    of  d_u A_v - d_v A_u + A_u A_v - A_v A_u ; with per_degree=True also a
    {degree: max norm} dict.
    """
    grid = A.grid
    if min(grid.shape) < 3:
        raise ValueError("mc_residual needs at least 3 nodes per direction")
    dudv, ok_u = grid_derivative(A.coeffs[:, :, 1], A.mask, grid.h_u, 0)
    dvdu, ok_v = grid_derivative(A.coeffs[:, :, 0], A.mask, grid.h_v, 1)
    ok = ok_u & ok_v
    if not ok.any():
        return (0.0, {}) if per_degree else 0.0
    lo_a, a, _, _ = node_stack(A, ok)
    lo_d, d_u, d_v = aligned(*trim_stack(A.lo, dudv[ok])[:2], *trim_stack(A.lo, dvdu[ok])[:2])
    lo, d, wedge = aligned(lo_d, d_u - d_v,
                           2 * lo_a, cauchy(a[:, 0], a[:, 1]) - cauchy(a[:, 1], a[:, 0]))
    lo, r, los, his = trim_stack(lo, d + wedge)
    norms = coefficient_norms(r)
    degs = lo + np.arange(r.shape[1])
    covered = ((degs >= los[:, None]) & (degs <= his[:, None])).any(axis=0)
    grades = {int(d): float(g) for d, g, c in zip(degs, norms.max(axis=0), covered) if c}
    worst = max(grades.values())
    if per_degree:
        return worst, grades
    return worst


# -- splitting and merging ----------------------------------------------------


def split(F: FrameField, tol=TOL_BIRKHOFF):
    """Pointwise Birkhoff split into the (a,-1) and (1,b) basic pair.

    The left factorization supplies G_minus (normalized in Lambda^-_1), the
    right factorization supplies F_plus (normalized in Lambda^+_1); a node
    either fails on is masked in both outputs, with the left failure named
    first.  Both factors are based whenever F is.  info["diagnostics"] is
    the elementwise max of the two factorizations' records (see
    BirkhoffResult) where both keep the node, NaN elsewhere.
    """
    left = birkhoff_left(F, tol=tol).minus
    right = birkhoff_right(F, tol=tol).plus
    mask = left.mask & right.mask
    failures = dict(right.info["failures"])
    failures.update(left.info["failures"])
    diagnostics = {key: np.where(mask, np.fmax(d, right.info["diagnostics"][key]), np.nan)
                   for key, d in left.info["diagnostics"].items()}
    info = {"failures": failures, "diagnostics": diagnostics}
    return _restrict(left, mask, dict(info)), _restrict(right, mask, dict(info))


def field_diagnostics_rows(F: FrameField):
    """Per-node CSV payload: indices, residual, condition, mask flag."""
    cols = ["iu", "iv", "u", "v", "residual", "condition", "mask"]
    diag = F.info.get("diagnostics", {})
    none = np.full(F.grid.shape, np.nan)
    residual, condition = diag.get("residual", none), diag.get("condition", none)
    return cols, [[i, j, float(F.grid.us[i]), float(F.grid.vs[j]), float(residual[i, j]),
                   float(condition[i, j]), bool(F.mask[i, j])] for i, j in F.grid.nodes()]


def merge(G_minus: FrameField, F_plus: FrameField, tol=TOL_BIRKHOFF) -> FrameField:
    """Rebuild F = F_plus F_minus = G_minus G_plus from a basic pair.

    Pointwise: left-factorize F_plus^{-1} G_minus = F_minus G_plus^{-1} with
    F_minus normalized, then F = F_plus F_minus.  F_plus^{-1} is truncated
    to the default window of the node's two values.  Every step runs over
    all nodes at once; a node where one fails is masked, with its cause
    recorded after the failures the inputs name.  info["diagnostics"] is
    the left factorization's record (see BirkhoffResult), passed through.
    """
    if G_minus.grid.shape != F_plus.grid.shape:
        raise DimensionMismatch("basic pair fields live on different grids")
    both = replace(F_plus, mask=G_minus.mask & F_plus.mask,
                   info={"failures": _inherited(G_minus, F_plus)})
    inverse = truncated_inverse(both, default_window(F_plus, G_minus))
    minus = birkhoff_left(_product(inverse, G_minus), tol=tol).minus
    return _product(replace(F_plus, mask=minus.mask, info=minus.info), minus,
                    diagnostics=minus.info["diagnostics"])


# -- tau-merge ---------------------------------------------------------------


def _gauge_factors(m, b_signs, tol):
    """The constants the nodes' tau-fixed factors z are divided by on the
    right, from their degree-0 coefficients m = z_0, a stack (B, n, n):
    h = m in GL, else the generalized polar factor h = m (B m^T B m)^{-1/2}
    (principal root), B = diag(b_signs).

    m commutes with Q (and with P when z is sigma-fixed) and keeps z's
    reality, and h(m c) = h(m) c for every constant c of the gauge group,
    so z h^{-1} is the same for every representative z, and I wherever z is
    constant (Mackey, Mackey & Tisseur, SIAM J. Matrix Anal. Appl. 27,
    2006).  Returns (h, failures): failures maps the rows where m is
    singular, or B m^T B m has an eigenvalue within tol of the cut
    (-inf, 0], to the message of their NotInIwasawaCell; their h is I.
    """
    h = np.array(m, dtype=complex)
    bad = np.linalg.cond(m) > CONDITION_LIMIT
    failures = dict.fromkeys(np.flatnonzero(bad).tolist(),
                             "degree-0 coefficient of the tau-fixed factor is singular")
    rows = np.flatnonzero(~bad)
    if b_signs is not None and rows.size:
        square = (b_signs[:, None] * m[rows].swapaxes(1, 2) * b_signs[None, :]) @ m[rows]
        reach = (tol * np.maximum(1.0, np.linalg.norm(square, axis=(1, 2))))[:, None]
        eig = np.linalg.eigvals(square)
        cut = ((eig.real <= reach) & (np.abs(eig.imag) <= reach)).any(axis=1)
        failures.update(dict.fromkeys(rows[cut].tolist(),
                                      "B z_0^T B z_0 has an eigenvalue on the cut (-inf, 0]; "
                                      "the gauge has no polar factor"))
        if not cut.all():
            import scipy.linalg as sla  # local: only a gauge under a form loads scipy.linalg
            rows, square = rows[~cut], square[~cut]
            h[rows] = np.linalg.solve(sla.sqrtm(square).swapaxes(1, 2),
                                      m[rows].swapaxes(1, 2)).swapaxes(1, 2)
    h[list(failures)] = np.eye(m.shape[-1])
    return h, failures


def tau_merge(F_plus: FrameField, s: SymmetrySpec, tol=TOL_IWASAWA,
              constant_group="auto") -> FrameField:
    """Promote a (1,b) field to the tau-fixed frame F = F_plus F_minus.

    Pointwise tau-Iwasawa against Lambda^-, of every node at once (one
    tau_iwasawa_minus call on the field); the constant right gauge left
    free by the factorization is fixed at each node by its own factor z:
    the output is z h^{-1}, h the polar factor of z_0 (see _gauge_factors),
    so nodes share nothing and a based input gives a based output.  The
    invariant form is F_plus's declared target (the plain form when none
    is declared, none in GL).  A node where either step fails is masked,
    with its cause in info["failures"], and info["diagnostics"] is the
    factorization's record (see IwasawaResult), NaN where masked.
    """
    form = F_plus.target.kind if F_plus.target is not None else None
    b_signs = None
    if constant_group != "general":
        b_signs = np.ones(F_plus.dim)
        if form == "lorentz":
            b_signs[s.n] = -1.0
    z = tau_iwasawa_minus(F_plus, s, tol=tol, constant_group=constant_group, form=form).z
    lo, c, _, _ = node_stack(z, z.mask)
    h, lost = _gauge_factors(padded(lo, c, 0, 0)[:, 0], b_signs, tol)
    gauges = np.zeros(F_plus.grid.shape + (F_plus.dim,) * 2, dtype=complex)
    gauges[z.mask] = np.linalg.inv(h)
    out = on_nodes(z, z.mask, lo, c, lost)
    # F_plus's failures, then the nodes this step lost, in row-major order
    failures = _inherited(F_plus)
    lost = sorted((node, msg) for node, msg in out.info["failures"].items()
                  if node not in failures)
    info = {"failures": {**failures, **dict(lost)},
            "diagnostics": {key: np.where(out.mask, d, np.nan)
                            for key, d in z.info["diagnostics"].items()}}
    return _times_constant(replace(out, symmetry=s, info=info), gauges)


# -- gauging a (0,b) field to (1,b) -------------------------------------------


def gauge_parallel(F: FrameField):
    """Strip the degree-0 part of the connection by a constant-in-lambda gauge.

    Writes the degree-0 component as H^{-1} dH (integrated by RK4 with
    H = I at the base) and returns (F * G, G) with G = H^{-1}; the gauged
    field has connection order (1, b).
    """
    A = maurer_cartan(F)
    lo, hi, is_zero = connection_order(A)
    if not is_zero and lo < 0:
        raise IntegrabilityViolation(
            f"cannot gauge a field of order ({lo},{hi}); negative degrees present")
    if A.lo <= 0 <= A.hi:
        deg0 = A.coeffs[:, :, :, -A.lo : 1 - A.lo]
    else:
        deg0 = np.zeros(A.coeffs.shape[:3] + (1,) + A.coeffs.shape[-2:], dtype=complex)
    a0 = ConnectionForm(A.grid, 0, deg0, A.mask.copy())
    res0 = mc_residual(a0)
    if res0 > fd_mc_tolerance(a0):
        raise IntegrabilityViolation(
            f"degree-0 part is not flat: residual {res0:.3e}", {"degree0": res0})
    H = integrate_potential(a0, check=False)  # constant in lambda, unmasked
    g = np.linalg.inv(H.coeffs[:, :, -H.lo])
    G = FrameField(H.grid, 0, g[:, :, None], H.mask.copy(), info=dict(H.info))
    return _times_constant(F, g), G


# -- potential integration -----------------------------------------------------
#
# Stacks here are (lo, coeffs) pairs, coeffs (..., W, n, n) with every loop
# trimmed to its own window, and each step trims where LaurentLoop arithmetic
# would: after every product and sum.  A scaling by a nonzero scalar keeps
# every loop's window, so it takes no trim.


_MID_CENTER = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0
_MID_LEFT = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0     # between nodes 0 and 1
_MID_RIGHT = _MID_LEFT[::-1].copy()                     # between nodes -2 and -1


def _mid_table(m):
    """(m - 1, m) weights of the O(h^4) interpolation of a line of m
    samples halfway between samples t and t + 1, row t."""
    w = np.zeros((max(m - 1, 0), m))
    if m == 2:
        w[0] = 0.5
    elif m == 3:
        w[:] = [[0.375, 0.75, -0.125], [-0.125, 0.75, 0.375]]
    elif m > 3:
        w[0, :4], w[-1, -4:] = _MID_LEFT, _MID_RIGHT
        for t in range(1, m - 2):
            w[t, t - 1 : t + 3] = _MID_CENTER
    return w


def _trimmed(lo, c):
    return trim_stack(lo, c)[:2]


def _scaled(s, x):
    return x[0], complex(s) * x[1]


def _plus(x, y):
    lo, a, b = aligned(*x, *y)
    return _trimmed(lo, a + b)


def _times(x, y):
    return _trimmed(x[0] + y[0], cauchy(x[1], y[1]))


def _rk4(f, a0, amid, a1, h):
    """One RK4 step of dF = F A over a stack, A sampled at both ends and
    halfway."""
    k1 = _times(f, a0)
    k2 = _times(_plus(f, _scaled(0.5 * h, k1)), amid)
    k3 = _times(_plus(f, _scaled(0.5 * h, k2)), amid)
    k4 = _times(_plus(f, _scaled(h, k3)), a1)
    k = _plus(_plus(_plus(k1, _scaled(2.0, k2)), _scaled(2.0, k3)), k4)
    return _plus(f, _scaled(h / 6.0, k))


def _midpoints(lo, c):
    """The midpoints along axis 0 of a stack of lines, (m, ...) -> (m - 1, ...)."""
    return _trimmed(lo, np.tensordot(_mid_table(len(c)), c, axes=1))


def _transport(f, lo, c, h, base):
    """Solve dF = F A along axis 0 of the stack (lo, c) of lines, from the
    stack f at index base both ways, each half-line interpolated on its own
    samples: (lo, F) over the whole axis."""
    halves = []
    for line, step in ((c[base:], h), (c[base::-1], -h)):
        mid_lo, mid = _midpoints(lo, line)
        out = [f]
        for t in range(len(line) - 1):
            out.append(_rk4(out[-1], (lo, line[t]), (mid_lo, mid[t]), (lo, line[t + 1]), step))
        halves.append(out)
    values = halves[1][:0:-1] + halves[0]
    out_lo = min(v_lo for v_lo, _ in values)
    out_hi = max(v_lo + v.shape[-3] - 1 for v_lo, v in values)
    return out_lo, np.stack([padded(v_lo, v, out_lo, out_hi) for v_lo, v in values])


def _edge_steps(f, lo, c, h):
    """One RK4 step from the stack f over every edge along axis 0 of the
    stack (lo, c) of lines."""
    return _rk4(f, (lo, c[:-1]), _midpoints(lo, c), (lo, c[1:]), h)


def integrate_potential(eta: ConnectionForm, check=True) -> FrameField:
    """Integrate dF = F eta by RK4: along u on the base row, then along v.

    The based solution (F = I at the base node) exists when eta is flat.
    Flatness is checked with mc_residual against fd_mc_tolerance, unless
    check is False or the grid has fewer than 3 nodes in a direction.  Each
    RK4 step runs on one stack: the base row, then all columns at once.
    info["holonomy"] is always stored: the largest Wiener distance between
    the one-step transports along u then v and along v then u around a
    plaquette (0.0 when there is none).
    """
    grid = eta.grid
    if not np.all(eta.mask):
        raise IntegrabilityViolation("potential has masked nodes")
    if check and min(grid.shape) >= 3:
        res = mc_residual(eta)
        if res > fd_mc_tolerance(eta):
            raise IntegrabilityViolation(
                f"potential fails the flatness check: residual {res:.3e}",
                {"mc": res})
    bi, bj = grid.base
    eye = (0, np.eye(eta.dim, dtype=complex)[None])
    lo, a = _trimmed(eta.lo, eta.coeffs)
    a_u, a_v = a[:, :, 0], a[:, :, 1].swapaxes(0, 1)  # lines along axis 0
    f_lo, f = _transport(_transport(eye, lo, a_u[:, bj], grid.h_u, bi), lo, a_v, grid.h_v, bj)
    out = FrameField(grid, f_lo, np.ascontiguousarray(f.swapaxes(0, 1)))
    u_lo, su = _edge_steps(eye, lo, a_u, grid.h_u)  # (nu - 1, nv)
    v_lo, sv = _edge_steps(eye, lo, a_v, grid.h_v)  # (nv - 1, nu)
    sv = sv.swapaxes(0, 1)
    # around each plaquette: along u then v against along v then u
    lhs = _times((u_lo, su[:, :-1]), (v_lo, sv[1:]))
    rhs = _times((v_lo, sv[:-1]), (u_lo, su[:, 1:]))
    out.info["holonomy"] = float(wiener_norms(_plus(lhs, _scaled(-1.0, rhs))[1]).max(initial=0.0))
    return out


def integrate_basic_pair(p: Potential):
    """Integrate a potential pair into its basic pair of fields.

    Each half solves dF = F eta from the identity at the base node; merging
    the results reconstructs the full frame the potentials came from.
    """
    if p.eta_minus is None or p.eta_plus is None:
        raise IntegrabilityViolation("both halves of the potential are required")
    return integrate_potential(p.eta_minus), integrate_potential(p.eta_plus)


# -- dressing ------------------------------------------------------------------


def _left_times(g: LaurentLoop, F: FrameField) -> FrameField:
    """g F at every unmasked node of F, tagged like F."""
    if g.n != F.dim:
        raise DimensionMismatch(f"loop dimension {g.n} vs field dimension {F.dim}")
    x = node_stack(F, F.mask)
    return on_nodes(F, F.mask, g.lo + x.lo, cauchy(g.coeffs, x.c))


def dress_plus(g_minus: LaurentLoop, F_plus: FrameField, tol=TOL_BIRKHOFF) -> FrameField:
    """Left action of a Lambda^- element on a (1,b) field.

    Pointwise right Birkhoff factorization of g_minus F_plus(t); the new
    field is the Lambda^+_1 factor, masked where the product leaves the big
    cell.
    """
    return birkhoff_right(_left_times(g_minus, F_plus), tol=tol).plus


def dress_minus(g_plus: LaurentLoop, G_minus: FrameField, tol=TOL_BIRKHOFF) -> FrameField:
    """Mirror action of a Lambda^+ element on an (a,-1) field."""
    return birkhoff_left(_left_times(g_plus, G_minus), tol=tol).minus


def dress_pair(g_minus: LaurentLoop, g_plus: LaurentLoop, F: FrameField,
               tol=TOL_BIRKHOFF) -> FrameField:
    """Action of a (g_-, g_+) pair on an (a,b) field, a < 0 < b.

    Merges the dressed (a,-1) and (1,b) pieces, the Lambda^- factor of g_+ F
    and the Lambda^+_1 factor of g_- F; this matches dressing the split
    pieces separately.
    """
    return merge(dress_minus(g_plus, F, tol=tol), dress_plus(g_minus, F, tol=tol), tol=tol)
