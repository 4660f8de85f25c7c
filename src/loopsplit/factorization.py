"""Pointwise Birkhoff and tau-Iwasawa factorizations.

The left factorization g = g_- g_+ (g_- normalized to constant term I) is
computed by solving for y in Lambda^-_1, truncated to degrees [-N, 0], such
that the modes -1..-N of y g vanish; this is a square block-Toeplitz system,
and g_- is the one-sided inverse of y, found by block forward substitution.
The right factorization is the lambda -> 1/lambda mirror of the left one.
Loops off the big cell surface as singular or ill-conditioned systems,
reported as BigCellViolation together with the system's one-norm condition
number.

Birkhoff factorizations run on stacks of loops (see loops): the systems of
every loop at one window are assembled together.  Up to INVERSE_MAX_ORDER
rows they are inverted together, which gives the exact one-norm condition
number; larger systems are factored by LU one by one and take LAPACK's
estimate of it, where one inverse costs more than one LU factorization
even in a batch.  A loop is a stack of one, and birkhoff_left/right take
a FrameField too, whose unmasked nodes are factored at once.

These are finite sections of block-Toeplitz operators (the projection
method of Gohberg and Feldman), so the truncation error falls as the window
N grows.  Without an explicit N, the window is chosen from the residual:
start from a window read off the input, grow it geometrically, and stop at
the round-off floor, when the residual stops falling, or when the system
becomes ill-conditioned.  An explicit N is used as given.

tau-Iwasawa reduces to a = k^{-1} tau(k) for a constant a, solved in closed
form by the principal square root or, in GL, the Cayley form.  It runs on
stacks too: every step of a window, the inner right Birkhoff factorization
and the first attempt of the constant solve included, covers the loops at
that window at once, and tau_iwasawa(_minus) take a FrameField whose
unmasked nodes are factored together.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    ABOVE_CAP,
    ILL_CONDITIONED,
    BigCellViolation,
    DimensionMismatch,
    NotInIwasawaCell,
    SingularLoop,
)
from .loops import (
    STACK_CHUNK,
    LaurentLoop,
    Stack,
    aligned,
    cauchy,
    chunks,
    coefficient_norms,
    constant_stack,
    copies,
    degree_slice,
    fnorm,
    forward_substitution,
    inverses,
    mirror_stack,
    mul,
    node_stack,
    padded,
    stack_distance,
    stack_mul,
    stack_wiener,
    stack_windows,
    trim_stack,
    truncated_inverse,
    wiener_norms,
)
from .symmetry import SymmetrySpec, apply_sigma, apply_tau, tau_constant

CONDITION_LIMIT = 1e12
TOL_BIRKHOFF = 1e-9
TOL_IWASAWA = 1e-8
# residuals below this multiple of the loop's Wiener norm are round-off;
# windows grow until they get there, not merely to the tolerance, so that
# results carry no truncation error the trimming threshold would keep
ROUNDOFF_FLOOR = 1e-13
# largest block-Toeplitz system (rows of scalars) a window may lead to
MAX_SYSTEM_ORDER = 1024
# largest mode system (rows of scalars) solved through its inverse.  Per
# system, a batched inverse is at least as fast as one LU factorization
# after another up to 32 rows, alone or in batches of 8 or 56, and slower
# from 48 rows on, 2-3x at 128 rows (BENCH_11.json); field_roundtrip solves
# 12-row systems in batches, pointwise_factor lone systems of 24-156 rows
INVERSE_MAX_ORDER = 32
# first adaptive window: this many degrees past the one read off the input
START_PAD = 2
# fixed window: this many degrees past twice the widest input radius
DEFAULT_WINDOW_PAD = 4
# constant solve: precondition tau(a) a = I and postcondition a = k^{-1} tau(k)
# hold within ten times these, relative to |a| (and k within them of its
# group); a within TOL_CONST_POST of I is solved by k = I
TOL_CONST_PRE = 1e-10
TOL_CONST_POST = 1e-9


def _radius(g):
    """A loop's radius, or the radius of each node's loop (largest over
    directions, for a form) as an array over a sampled field's grid."""
    if isinstance(g, LaurentLoop):
        return g.radius
    los, his = stack_windows(g.lo, g.coeffs)
    radius = np.maximum(np.abs(los), np.abs(his))
    return radius.reshape(g.mask.shape + (-1,)).max(axis=-1)


def default_window(*loops):
    """Fixed window radius: twice the widest input radius plus a pad.

    Used where a caller gives no window and no residual drives the choice:
    the inverse in `merge` and the inverses in `maurer_cartan`.  The
    factorizations choose their own window from the residual instead.
    Given sampled fields (or forms) on one grid, the window of every node,
    as an integer array over the grid.
    """
    radius = 0
    for g in loops:
        radius = np.maximum(radius, _radius(g))
    return 2 * (radius if np.ndim(radius) else int(radius)) + DEFAULT_WINDOW_PAD


def _adaptive_window(attempt, starts, limits, scales):
    """Residual-driven window choice shared by the factorizations, run in
    lockstep over a stack of problems.

    attempt(N, rows) tries window N on the problems of the given rows and
    returns one outcome per row: a result when window N meets the
    tolerance, otherwise the failure to report, both carrying the residual.
    A BigCellViolation with cause ILL_CONDITIONED marks a window no wider
    one can repair; a failure without a residual is structural, and no
    window repairs it either.  Each problem's windows grow by half from its
    start up to its limit, and the problems at the same window are tried
    together.  A problem's search stops at the first residual within the
    round-off floor (relative to its scale), at the first one that does not
    fall, or at an ill-conditioned window, and keeps the result of least
    residual; at a structural failure it stops and keeps that failure.
    Otherwise its last failure is kept, with every window tried.  A start
    above its limit, the cap, fails at once (ABOVE_CAP), with nothing tried.
    Returns the outcome of every problem.
    """
    count = len(starts)
    floors = [ROUNDOFF_FLOOR * float(x) for x in scales]
    current = [int(N) for N in starts]
    tried = [[] for _ in range(count)]
    best = [None] * count
    last = [math.inf] * count
    out = [BigCellViolation(f"first window {N} is above the cap {cap}; nothing was solved",
                            cause=ABOVE_CAP) if N > cap else None
           for N, cap in zip(current, limits)]
    active = {b for b in range(count) if out[b] is None}
    while active:
        N = min(current[b] for b in active)
        rows = [b for b in sorted(active) if current[b] == N]
        for b, outcome in zip(rows, attempt(N, rows)):
            tried[b].append(N)
            failed = isinstance(outcome, Exception)
            if failed and getattr(outcome, "cause", None) == ILL_CONDITIONED:
                stop = True
            elif failed and getattr(outcome, "residual", None) is None:
                stop, best[b] = True, None  # structural: reported, whatever came before
            else:
                residual = outcome.residual
                if not failed and (best[b] is None or residual < best[b].residual):
                    best[b] = outcome
                stop = not residual > floors[b] or not residual < last[b] or N >= limits[b]
                last[b] = residual
                current[b] = min(N + (N + 1) // 2, limits[b])
            if stop:
                active.discard(b)
                out[b] = best[b] if best[b] is not None else outcome
                if out[b] is outcome and isinstance(outcome, BigCellViolation):
                    outcome.windows = tried[b]
    return out


@dataclass
class BirkhoffResult:
    """The factors of a loop, or of every node of a field.

    For a field, minus and plus are fields: a node whose factorization
    fails is masked in both, with its cause in info["failures"], and
    info["diagnostics"] holds the "residual" and "condition" arrays over
    the grid, NaN but at the factored nodes; residual and condition are
    their nanmax (NaN when no node is factored).
    """

    minus: LaurentLoop
    plus: LaurentLoop
    residual: float
    condition: float
    side: str = "left"

    def reconstruction(self):
        """The product of the factors of a loop, in the order of its side."""
        if self.side == "left":
            return mul(self.minus, self.plus)
        return mul(self.plus, self.minus)


@dataclass
class IwasawaResult:
    """The tau-Iwasawa factors of a loop, or of every node of a field.

    For a field, z and y_plus are fields: a node whose factorization fails
    is masked in both, with its cause in info["failures"], and
    info["diagnostics"] holds the arrays over the grid of each factored
    node's "residual" (the largest of its residuals) and inner Birkhoff
    "condition", NaN elsewhere; k_const holds one constant per node (zero
    where masked), and each residual is the nanmax over the factored nodes
    (NaN when none is).
    """

    z: LaurentLoop
    y_plus: LaurentLoop
    k_const: np.ndarray
    residuals: dict = field(default_factory=dict)

    @property
    def residual(self) -> float:
        return max(self.residuals.values(), default=0.0)


class _Solved(NamedTuple):
    """Row `index` of the results of one window (part), as the adaptive
    window search keeps it: part maps keys to that window's Stacks and to
    arrays of one value per row."""

    part: dict
    index: int
    residual: float


def _collect(outcomes, mask, n, stacks, scalars, mirror=False):
    """(written, values, failures) from one outcome per node of mask in
    row-major order, a _Solved or the failure to report: per key of stacks
    (lo, coeffs), the kept n x n loops written straight onto the nodes over
    the union of their own windows, zero elsewhere, and mirrored (lambda ->
    1/lambda) when mirror is set; "residual" and each key of scalars as an
    array of mask.shape, NaN but at the kept nodes; and {row: exception}."""
    flat = mask.ravel().nonzero()[0]
    values = {key: np.full(mask.size, np.nan) for key in ("residual",) + scalars}
    failures, parts = {}, {}
    for b, o in enumerate(outcomes):
        if isinstance(o, Exception):
            failures[b] = o
            continue
        values["residual"][flat[b]] = o.residual
        _, rows, index = parts.setdefault(id(o.part), (o.part, [], []))
        rows.append(b)
        index.append(o.index)
    parts = [(part, flat[rows], np.array(index)) for part, rows, index in parts.values()]
    for part, nodes, index in parts:
        for key in scalars:
            values[key][nodes] = part[key][index]
    written = []
    for key in stacks:
        w_lo = min((min(part[key].los[index].tolist()) for part, _, index in parts), default=0)
        w_hi = max((max(part[key].his[index].tolist()) for part, _, index in parts), default=0)
        out = np.zeros((mask.size, w_hi - w_lo + 1, n, n), dtype=complex)
        into = out[:, ::-1] if mirror else out
        for part, nodes, index in parts:
            lo, c = part[key].lo, part[key].c
            a, b = max(w_lo, lo), min(w_hi, lo + c.shape[1] - 1)
            into[nodes, a - w_lo : b - w_lo + 1] = c[index, a - lo : b - lo + 1]
        written.append((-w_hi if mirror else w_lo, out.reshape(mask.shape + out.shape[1:])))
    return written, {key: v.reshape(mask.shape) for key, v in values.items()}, failures


def _held(g, written, values, failures):
    """The loops written by _collect as g holds them: a loop's own, raising
    its failure, or fields on g's grid, the failed nodes masked and named
    after g's failures, the residual and condition arrays as diagnostics."""
    if isinstance(g, LaurentLoop):
        if failures:
            raise failures[0]
        return [LaurentLoop(lo, c) for lo, c in written]
    at = np.argwhere(g.mask)
    keep = g.mask.copy()
    keep[tuple(at[list(failures)].T)] = False
    named = {(int(at[b][0]), int(at[b][1])): str(exc) for b, exc in sorted(failures.items())}
    return [replace(g, lo=lo, coeffs=c, mask=keep.copy(),
                    info={"failures": {**g.info.get("failures", {}), **named},
                          "diagnostics": {key: values[key] for key in ("residual", "condition")}})
            for lo, c in written]


def _nodes(g):
    """(mask, Stack): a field's unmasked nodes in row-major order, or a
    loop as the one node of a grid of no axes, each loop trimmed to its own
    window (a loop built with trim=False too)."""
    if isinstance(g, LaurentLoop):
        return np.ones((), dtype=bool), trim_stack(*copies(g, 1)[:2])
    return g.mask, node_stack(g, g.mask)


def _nanmax(values):
    """The largest value of an array but its NaNs (NaN when all are)."""
    return float(np.fmax.reduce(values, axis=None, initial=np.nan))


def _toeplitz_solve(lo, coeffs, N: int):
    """Solve the mode equations of every loop of a stack (B, W, n, n) for
    y in Lambda^-_1 at window N.  Returns (y, condition): y's coefficients
    over [-N, 0] and each system's 1-norm condition number (inf when it is
    singular).

    Systems of up to INVERSE_MAX_ORDER rows are inverted together, which
    gives the exact condition number; larger ones, where one inverse costs
    more than an LU factorization, are factored one by one and take
    LAPACK's estimate.
    """
    B, n = coeffs.shape[0], coeffs.shape[-1]
    m = N * n
    # coefficient lookup padded over degrees [-N, N]
    pad = padded(lo, coeffs, -N, N)
    i = np.arange(1, N + 1)
    index = (i[None, :] - i[:, None]) + N                          # blocks g_{j-i}
    rhs = -pad[:, N - i].transpose(0, 1, 3, 2).reshape(B, m, n)  # stack of -g_{-i}^T
    condition = np.full(B, np.inf)
    sol = np.zeros((B, m, n), dtype=complex)
    for rows in chunks(B, STACK_CHUNK // (m * m) if m <= INVERSE_MAX_ORDER else 1):
        big = pad[rows][:, index].transpose(0, 1, 4, 2, 3).reshape(-1, m, m)  # transposed blocks
        condition[rows], sol[rows] = _solve_modes(big, rhs[rows])
    y = np.zeros((B, N + 1, n, n), dtype=complex)
    y[:, N] = np.eye(n)
    y[:, N - i] = sol.reshape(B, N, n, n).transpose(0, 1, 3, 2)  # y_{-j} = (solution_j)^T
    return y, condition


def _solve_modes(big, rhs):
    """(condition, solution) of a stack of mode systems: inverted together
    up to INVERSE_MAX_ORDER rows, else one LU factorization (and LAPACK's
    condition estimate) each.  A singular system, or one whose matrix or
    right-hand side is not finite, gets an infinite condition and a zero
    solution."""
    anorm = np.abs(big).sum(axis=-2).max(axis=-1)
    condition = np.full(len(big), np.inf)
    sol = np.zeros(rhs.shape, dtype=complex)
    finite = np.isfinite(anorm) & np.isfinite(rhs).all(axis=(-2, -1))
    if big.shape[-1] <= INVERSE_MAX_ORDER:
        inverse = np.zeros_like(big)
        inverse[finite], singular = inverses(big[finite])
        ok = finite.copy()
        ok[np.flatnonzero(finite)[singular]] = False
        condition[ok] = anorm[ok] * np.abs(inverse[ok]).sum(axis=-2).max(axis=-1)
        ok &= np.isfinite(condition)
        sol[ok] = inverse[ok] @ rhs[ok]
        return condition, sol
    import scipy.linalg as sla  # local: systems of up to 32 rows never load scipy.linalg
    # the routines lu_factor, its condition estimate and lu_solve call, looked up once
    getrf, gecon, getrs = sla.get_lapack_funcs(("getrf", "gecon", "getrs"), (big,))
    for b in np.flatnonzero(finite):
        lu, piv, _ = getrf(big[b])
        rcond, _ = gecon(lu, anorm[b])
        if rcond != 0:
            condition[b] = 1.0 / rcond
            sol[b] = getrs(lu, piv, rhs[b])[0]
    return condition, sol


def _birkhoff_left_at(lo, coeffs, N: int, tol, side):
    """Left factorizations of the loops of a trimmed stack at window N, in
    the form _adaptive_window takes: each accepted loop's _Solved points
    into the window's minus and plus Stacks and conditions.  A failure
    names side, the factorization asked for: "right" when the stack is
    the mirror of the loops a right factorization was asked of."""
    y, condition = _toeplitz_solve(lo, coeffs, N)
    out = [None] * len(coeffs)
    ok = np.flatnonzero(condition <= CONDITION_LIMIT)
    for b in np.flatnonzero(~(condition <= CONDITION_LIMIT)):
        out[b] = BigCellViolation(f"{side} factorization failed: condition {condition[b]:.3e}",
                                  condition=float(condition[b]), cause=ILL_CONDITIONED)
    if not ok.size:
        return out
    g = coeffs[ok]
    y_lo, y, _, _ = trim_stack(-N, y[ok])
    yg_lo, yg, _, _ = trim_stack(y_lo + lo, cauchy(y, g))
    plus = trim_stack(*degree_slice(yg_lo, yg, 0, yg_lo + yg.shape[1]))
    tail = wiener_norms(degree_slice(yg_lo, yg, yg_lo, -1)[1]) if yg_lo < 0 else np.zeros(len(ok))
    minus = trim_stack(-N, forward_substitution(
        degree_slice(y_lo, y, y_lo, 0)[1][:, ::-1], N)[:, ::-1])
    _, back, g = aligned(minus.lo + plus.lo, cauchy(minus.c, plus.c), lo, g)
    residual = tail + wiener_norms(back - g)
    part = {"minus": minus, "plus": plus, "condition": condition[ok]}
    for k, b in enumerate(ok):
        r, c = float(residual[k]), float(condition[b])
        if np.isfinite(r) and r <= tol:
            out[b] = _Solved(part, k, r)
        else:
            out[b] = BigCellViolation(
                f"{side} factorization failed: residual {r:.3e}, condition {c:.3e}",
                residual=r, condition=c)
    return out


def _birkhoff_stack(x: Stack, N, tol, side):
    """Left factorizations of every loop of a Stack: one outcome per loop,
    its _Solved or the BigCellViolation to report.

    Loops without negative degrees factor trivially, as one part of their
    own (minus I, plus the loop, condition 1).  With N given (and at
    least the depth of a loop's negative part) only that window is solved;
    otherwise each loop's window starts just past that depth and grows with
    the residual (see _adaptive_window), the loops at one window together.
    A window given below the depth is replaced by 2 * radius +
    DEFAULT_WINDOW_PAD; a start above the cap MAX_SYSTEM_ORDER // n, that
    substitute included, fails at once.  Failures name side (see
    _birkhoff_left_at).
    """
    n, los, his = x.c.shape[-1], x.los, x.his
    out = [None] * len(x.c)
    trivial = np.flatnonzero(los >= 0)
    if trivial.size:
        eye = np.broadcast_to(np.eye(n, dtype=complex), (len(trivial), n, n))
        part = {"minus": constant_stack(eye), "condition": np.ones(len(trivial)),
                "plus": x.rows(trivial)}
        for j, b in enumerate(trivial.tolist()):
            out[b] = _Solved(part, j, 0.0)
    rows = np.flatnonzero(los < 0)
    if not rows.size:
        return out
    depth = -los[rows]
    radius = np.maximum(depth, np.abs(his[rows]))
    if N is None:
        starts = depth + START_PAD
        limits = np.full(len(rows), MAX_SYSTEM_ORDER // n)
    else:  # a substitute's limit is the cap, so one above it fails
        starts = np.where(N < depth, 2 * radius + DEFAULT_WINDOW_PAD, N)
        limits = np.where(N < depth, np.minimum(starts, MAX_SYSTEM_ORDER // n), starts)

    def attempt(w, at):
        at = rows[at]
        size = STACK_CHUNK // ((x.c.shape[1] + w) * n * n)
        return [outcome for part in chunks(len(at), size)
                for outcome in _birkhoff_left_at(x.lo, x.c[at[part]], w, tol, side)]

    outcomes = _adaptive_window(attempt, starts, limits, wiener_norms(x.c)[rows])
    for b, outcome in zip(rows, outcomes):
        out[b] = outcome
    return out


def _birkhoff(g, N, tol, side):
    """Left or right factorization of a loop or of every node of a field.

    The nodes go through the stack kernel in parts of bounded size; what
    their window searches kept is written onto the grid at the end (see
    _collect), a right factorization mirrored back there.
    """
    mask, x = _nodes(g)
    if side == "right":
        x = x.mirror()
    count, width, n = x.c.shape[:2] + x.c.shape[-1:]
    outcomes = [o for part in chunks(count, STACK_CHUNK // (width * n * n))
                for o in _birkhoff_stack(x.rows(part), N, tol, side)]
    keys = ("minus", "plus") if side == "left" else ("plus", "minus")  # mirrored back, swapped
    written, values, failures = _collect(outcomes, mask, n, keys, ("condition",), side == "right")
    return BirkhoffResult(*_held(g, written, values, failures), _nanmax(values["residual"]),
                          _nanmax(values["condition"]), side=side)


def birkhoff_left(g, N=None, tol=TOL_BIRKHOFF) -> BirkhoffResult:
    """g = minus * plus with minus in Lambda^-_1 and plus in Lambda^+.

    g is a loop, or a FrameField whose unmasked nodes are all factored
    together (see BirkhoffResult).  With N given (and at least the depth of
    a loop's negative part) only that window is solved; otherwise the
    window starts just past that depth and grows with the residual (see
    _adaptive_window).  A loop that does not factor raises
    BigCellViolation; a field masks the node.
    """
    return _birkhoff(g, N, tol, "left")


def birkhoff_right(g, N=None, tol=TOL_BIRKHOFF) -> BirkhoffResult:
    """g = plus * minus with plus in Lambda^+_1 and minus in Lambda^-: the
    lambda -> 1/lambda mirror of the left factorization, for a loop or a
    field as birkhoff_left."""
    return _birkhoff(g, N, tol, "right")


# -- constant-group solve ----------------------------------------------------


def _fnorms(m):
    """fnorm of every matrix of a stack (B, r, c), from the same two dot
    products, so bit for bit."""
    v = m.reshape(len(m), 1, m.shape[-2] * m.shape[-1])
    return np.sqrt((v.real @ v.real.swapaxes(1, 2) + v.imag @ v.imag.swapaxes(1, 2))[:, 0, 0])


def _form_kinds(a, s: SymmetrySpec, group, form):
    """The invariant bilinear form of every matrix of a stack (B, m, m):
    (signs, kind), signs the +-1 diagonals of the plain form (row 0) and of
    the Lorentz one (row 1), kind the row of each matrix's form, -1 for GL.

    form may be "orthogonal", "lorentz", or None to detect it: the plain form
    is tried first, then the Lorentz one, then GL.
    """
    signs = np.ones((2, a.shape[-1]))
    signs[1, s.n] = -1.0
    kind = np.full(len(a), -1)
    if group == "general":
        return signs, kind
    if form is not None:
        if form not in ("orthogonal", "lorentz"):
            raise ValueError(f"unknown form {form!r}")
        kind[:] = 1 if form == "lorentz" else 0
        return signs, kind
    scale = np.maximum(1.0, _fnorms(a) ** 2)
    for row in (1, 0):  # the plain form last, so that it wins
        b = signs[row]
        kind[_fnorms(a.swapaxes(1, 2) @ (b[:, None] * a) - np.diag(b)) <= 1e-8 * scale] = row
    return signs, kind


def _shifts(a, s: SymmetrySpec, b, loop):
    """The constants c != I in the group of a with tau(c) = c^{-1} that the
    constant solve retries with: exp(tX).

    X_ij = w g_ij and X_ji = -b_i b_j w g_ij for q_i = +1, q_j = -1 (b the
    form's signs, all ones for GL; w = i under Rhat, else 1): exp(tX) keeps
    the form and the reality of a.  When a commutes with P the shifts inside
    one sigma block, which keep its sigma blocks too, come first; when a is
    the middle term of a sigma-twisted loop (loop, a stack of one, or None)
    they are the only ones, else the shifts across the blocks follow.  The
    weights g_ij = 2 + cos(index) all differ; equal ones leave some -1
    eigenvectors of a in place, as for R_03(3pi/4) R_23(pi/2) with n = 2,
    k = 1.
    """
    m = a.shape[0]
    q = np.diag(s.tau_matrix)
    p = np.diag(s.sigma_matrix)
    pairs = [np.outer(q > 0, q < 0)]
    if fnorm(a * p[None, :] - p[:, None] * a) <= 1e-10 * max(1.0, fnorm(a)):
        twisted = loop is not None and _twisted(loop, s)[0]
        pairs = [pairs[0] & np.equal.outer(p, p)] + ([] if twisted else pairs)
    w = 1j if s.reality in ("Rhat1", "Rhat2") else 1.0
    import scipy.linalg as sla  # local: only a retried constant solve loads scipy.linalg
    for chosen in pairs:
        X = w * (2.0 + np.cos(np.arange(m * m))).reshape(m, m) * chosen
        X = X - (1.0 if b is None else np.outer(b, b)) * X.T
        for t in (0.5, 1.0, 1.5):
            yield sla.expm(t * X)


def solve_constant_tau(a, s: SymmetrySpec, group="auto", form=None):
    """Solve a = k^{-1} (Q k Q^{-1}) in the constant group of a.

    tau acts on constants as conjugation by Q and tau(a) = a^{-1} (the
    precondition), so k = R^{-1} (I + tau(a)) solves the equation for every
    invertible tau-fixed R, and its defect is the precondition's whatever
    the rounding in R.  In GL, R = 2I (the Cayley form) keeps the reality
    and the sigma blocks of a.  With an invariant form, R = r + tau(r) for
    r = sqrtm(a) makes k the principal root a^{-1/2}, which stays in every
    matrix automorphism group a lies in (Higham, Mackey, Mackey & Tisseur,
    SIAM J. Matrix Anal. Appl. 26, 2005) and keeps the form too.

    Near an eigenvalue -1 both forms lose accuracy, and on the cut they
    fail; then a' = c^{-1} a tau(c) is solved for constants c with
    tau(c) = c^{-1} in the group of a (see _shifts; a here is no loop's
    middle term, so the shifts may leave its sigma blocks when no shift
    inside them solves it), and k = k' c^{-1}.  The first k whose defect
    and distance from the group are within the precondition's tolerance is
    returned, else the best within the postcondition's.  `group`
    ("general" or "auto") and `form` ("orthogonal", "lorentz", or None to
    detect it) choose the group.  a is solved as a stack of one (see
    _solve_constants), and its failure raised.
    """
    a = np.asarray(a, dtype=complex)
    m = a.shape[0]
    if a.shape != (m, m) or m != s.dim:
        raise NotInIwasawaCell(
            f"middle term has shape {a.shape}, expected ({s.dim},{s.dim})")
    (k,), failures = _solve_constants(a[None], s, group, form, None)
    if failures:
        raise failures[0]
    return k


def _attempt(a, c, scale, s: SymmetrySpec, b):
    """One shift c of the constant solve of a stack (B, m, m) of matrices
    that keep the form diag(b) (None for GL): (k, defect), defect relative
    to scale and the larger of k's defect and its distance from the group,
    inf where a solve is singular and NaN where k is singular to working
    precision (its inverse overflows), so neither is ever accepted."""
    m = a.shape[-1]
    c_inv = tau_constant(c, s)
    shifted = c_inv @ a @ c_inv
    R = 2.0 * np.eye(m)
    if b is not None:
        import scipy.linalg as sla  # local: only a solve under a form loads scipy.linalg
        with warnings.catch_warnings():
            # an eigenvalue on the cut or a singular root: checked below
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            r = sla.sqrtm(shifted)
        R = r + tau_constant(r, s)
    Q = s.tau_matrix
    try:
        k = np.linalg.solve(R, np.eye(m) + tau_constant(shifted, s)) @ c_inv
        with np.errstate(invalid="ignore"):
            defect = _fnorms(np.linalg.inv(k) @ Q @ k @ Q - a) / scale
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.zeros_like(a), np.full(1, np.inf)
        parts = [_attempt(a[j : j + 1], c, scale[j : j + 1], s, b) for j in range(len(a))]
        return np.concatenate([k for k, _ in parts]), np.concatenate([d for _, d in parts])
    if b is not None:
        off = (_fnorms(k.swapaxes(1, 2) @ (b[:, None] * k) - np.diag(b))
               / np.maximum(1.0, _fnorms(k) ** 2))
        defect = np.where(off > defect, off, defect)
    return k, defect


def _solve_constants(a, s: SymmetrySpec, group, form, loops):
    """solve_constant_tau of a stack (B, m, m) of middle terms, those of
    the loops of the Stack `loops` (None for no loop's; see _shifts).

    The checks (the tau(a) a = I defect, a within TOL_CONST_POST of I, the
    form and, under Rhat, the reality of a) and the first attempt (c = I)
    run on the whole stack; a matrix that attempt leaves unsolved within
    the precondition's tolerance is retried on its own with the other
    shifts (see _retry).  Returns (k, failures): failures maps rows to
    their NotInIwasawaCell, and their rows of k are I.
    """
    B, m = a.shape[:2]
    eye = np.eye(m)
    k = np.broadcast_to(eye, a.shape).astype(complex)
    scale = np.maximum(1.0, _fnorms(a))
    defect = _fnorms(tau_constant(a, s) @ a - eye)
    outside = defect > TOL_CONST_PRE * scale * 10
    failures = {b: NotInIwasawaCell(
        f"middle term does not satisfy tau(a) = a^{{-1}} (defect {defect[b]:.3e}); "
        "the loop is not in the Iwasawa cell", residual=float(defect[b]))
        for b in np.flatnonzero(outside).tolist()}
    rows = np.flatnonzero(~outside & ~(_fnorms(a - eye) <= TOL_CONST_POST))
    if not rows.size:
        return k, failures
    signs, kind = _form_kinds(a[rows], s, group, form)
    if s.reality in ("Rhat1", "Rhat2"):
        # W = diag(1 at q=+1, i at q=-1): W^{-1} a Q W is real under Rhat
        w = np.where(np.diag(s.tau_matrix) > 0, 1.0, 1j)
        S_work = np.conj(w)[:, None] * (a[rows] @ s.tau_matrix) * w[None, :]
        unreal = (kind >= 0) & (_fnorms(S_work.imag) > 1e-8 * np.maximum(1.0, _fnorms(S_work)))
        for b in rows[unreal].tolist():
            failures[b] = NotInIwasawaCell("middle term violates its declared reality")
        rows, kind = rows[~unreal], kind[~unreal]
    for row in (-1, 0, 1):
        at = rows[kind == row]
        if not at.size:
            continue
        b_signs = None if row < 0 else signs[row]
        k[at], first = _attempt(a[at], eye, scale[at], s, b_signs)
        for j in np.flatnonzero(~(first <= TOL_CONST_PRE * 10)).tolist():
            b = int(at[j])
            try:
                k[b] = _retry(a[b], s, b_signs, None if loops is None else loops.rows([b]),
                              scale[b], k[b], first[j])
            except NotInIwasawaCell as exc:
                failures[b], k[b] = exc, eye
    return k, failures


def _retry(a, s: SymmetrySpec, b, loop, scale, k, defect):
    """The rest of the constant solve of one matrix a, the middle term of
    loop, whose first attempt gave (k, defect): the shifts c != I one by
    one (see _shifts).  Returns the first k within the precondition's
    tolerance, else the best within the postcondition's, the first
    attempt's included; raises NotInIwasawaCell when there is none."""
    best, least = None, TOL_CONST_POST * 10
    if defect <= least:
        best, least = k, defect
    for c in _shifts(a, s, b, loop):
        (k,), (defect,) = _attempt(a[None], c, scale, s, b)
        if defect <= TOL_CONST_PRE * 10:
            return k
        if defect <= least:
            best, least = k, defect
    if best is None:
        raise NotInIwasawaCell("no constant of the group of a solves a = k^{-1} tau(k)")
    return best


# -- tau-Iwasawa ---------------------------------------------------------------
#
# The kernel runs on Stacks (see loops), whose loops keep their own windows:
# products and Wiener norms follow each loop's own window (stack_mul,
# stack_wiener, stack_distance), tau and sigma are symmetry's, and the inner
# Birkhoff factorization takes the loops of one window together, so a loop's
# results do not depend on what else shares its stack.  A lone loop is a
# stack of one.


def _decay_windows(x, scale):
    """Smallest N per loop such that degrees outside [-N, N] carry no more
    than the round-off floor of its Wiener norm, scale."""
    degs = x.lo + np.arange(x.c.shape[1])
    norms = coefficient_norms(x.c)
    by_reach = np.zeros((len(x.c), np.abs(degs).max() + 2))
    by_reach[:, -degs[degs < 0]] += norms[:, degs < 0]  # degree -r before r, as summed alone
    by_reach[:, degs[degs >= 0]] += norms[:, degs >= 0]
    outside = np.cumsum(by_reach[:, ::-1], axis=1)[:, ::-1][:, 1:]  # [:, N]: mass beyond N
    return np.argmax(outside <= ROUNDOFF_FLOOR * scale[:, None], axis=1)


def _twisted(x, s: SymmetrySpec):
    """Whether each loop is sigma-fixed, to 1e-10 of its Wiener norm."""
    return stack_distance(x, apply_sigma(x, s)) <= 1e-10 * np.maximum(1.0, stack_wiener(x))


def _right_factors(w, N, tol):
    """w = plus * minus for every loop of a stack, the right Birkhoff
    factorization at window max(N, the loop's radius): the left one of the
    mirror (_birkhoff_stack), for the loops of one own window together.
    Returns (plus, minus, residual, condition, failures); failures maps rows
    to their BigCellViolation, their factors are zero and their residual
    and condition NaN."""
    outcomes = [None] * len(w.c)
    for l, h in sorted(set(zip(w.los.tolist(), w.his.tolist()))):
        rows = np.flatnonzero((w.los == l) & (w.his == h))
        own = Stack(l, w.c[rows, l - w.lo : h - w.lo + 1], w.los[rows], w.his[rows])
        solved = _birkhoff_stack(own.mirror(), max(N, abs(l), abs(h)), tol, "right")
        for b, o in zip(rows.tolist(), solved):
            outcomes[b] = o
    written, values, failures = _collect(outcomes, np.ones(len(w.c), dtype=bool), w.c.shape[-1],
                                         ("minus", "plus"), ("condition",), mirror=True)
    return (*(trim_stack(*x) for x in written), values["residual"], values["condition"], failures)


_RESIDUALS = ("reconstruction", "tau_fixed", "middle_reality", "minus_pair", "birkhoff")


def _tau_iwasawa_at(x: Stack, s, N, tol, constant_group, form):
    """tau-Iwasawa of the loops of a Stack at window N, in the form
    _adaptive_window takes: one _Solved or failure per loop.

    Failures a wider window can repair carry a residual: the inner Birkhoff
    residual, the tau(a) a = I defect of the middle term, and the
    reconstruction and tau-fixedness postconditions.  An ill-conditioned
    inner factorization or a singular middle term is ILL_CONDITIONED; a
    singular inverse of x (SingularLoop) and a structural failure of the
    constant solve carry no residual.  A loop keeps the first of its
    failures in this order.
    """
    B, n = x.c.shape[0], x.c.shape[-1]
    eye = np.eye(n, dtype=complex)
    xi, failed = truncated_inverse(x, N)
    failed = {b: SingularLoop(msg) for b, msg in failed.items()}
    plus, minus, birkhoff, condition, bad = _right_factors(stack_mul(xi, apply_tau(x, s)), N, tol)
    for b, exc in bad.items():
        failed.setdefault(b, exc)
    a = padded(minus.lo, minus.c, 0, 0)[:, 0]
    a_inv, singular = inverses(a)
    for b in singular:
        failed.setdefault(b, BigCellViolation("constant middle term is singular",
                                              cause=ILL_CONDITIONED))
    middle = _fnorms(tau_constant(a, s) @ a - eye)
    pair = stack_distance(stack_mul(stack_mul(constant_stack(a_inv), minus), apply_tau(plus, s)),
                          constant_stack(np.broadcast_to(eye, (B, n, n))))
    live = np.ones(B, dtype=bool)
    live[list(failed)] = False
    live = np.flatnonzero(live)
    k = np.broadcast_to(eye, (B, n, n)).copy()
    k[live], unsolved = _solve_constants(a[live], s, constant_group, form, x.rows(live))
    for j, exc in unsolved.items():
        failed.setdefault(int(live[j]), exc)
    k_inv = np.linalg.inv(k)
    k = constant_stack(k)
    y_plus = stack_mul(k, trim_stack(0, forward_substitution(plus.c, N)))
    z = stack_mul(x, stack_mul(plus, constant_stack(k_inv)))
    residuals = dict(zip(_RESIDUALS, (stack_distance(stack_mul(z, y_plus), x),
                                      stack_distance(z, apply_tau(z, s)), middle, pair, birkhoff)))
    worst = functools.reduce(lambda m, r: np.where(r > m, r, m), residuals.values())
    part = {"z": z, "y_plus": y_plus, "k": k, "condition": condition, **residuals}
    out = []
    for b in range(B):
        recon, fixed = residuals["reconstruction"][b], residuals["tau_fixed"][b]
        if b in failed:
            out.append(failed[b])
        elif recon > tol or fixed > tol:
            out.append(BigCellViolation(
                "tau-Iwasawa postconditions failed: "
                f"reconstruction {recon:.3e}, tau-fixedness {fixed:.3e}",
                residual=float(worst[b]), condition=float(condition[b])))
        else:
            out.append(_Solved(part, b, float(worst[b])))
    return out


def _tau_iwasawa_stack(x: Stack, s, N, tol, constant_group, form):
    """tau-Iwasawa of every loop of a Stack: one outcome per loop, its
    _Solved or the failure to report.

    Each loop's window starts just past the degree where its coefficients
    decay to round-off (or at N, the only one tried when given) and grows
    with the residual (see _adaptive_window), the loops at one window
    together; a failure without a residual stops the loop's search at once.
    A start above the cap MAX_SYSTEM_ORDER // (2n) fails at once.
    """
    B, n = x.c.shape[0], x.c.shape[-1]
    if n != s.dim:
        raise DimensionMismatch(f"loop dim {n} vs symmetry dim {s.dim}")
    if not B:
        return []
    scale = stack_wiener(x)
    if N is None:
        starts = _decay_windows(x, scale) + START_PAD
        limits = np.full(B, MAX_SYSTEM_ORDER // (2 * n))
    else:
        starts = limits = np.full(B, N)

    def attempt(w, rows):
        return _tau_iwasawa_at(x.rows(rows), s, w, tol, constant_group, form)

    return _adaptive_window(attempt, starts, limits, scale)


def _mirrored(x):
    """x under lambda -> 1/lambda: a loop, or every node of a field."""
    if isinstance(x, LaurentLoop):
        return x.mirror()
    lo, coeffs = mirror_stack(x.lo, x.coeffs)
    return replace(x, lo=lo, coeffs=coeffs)


def tau_iwasawa(x, s: SymmetrySpec, N=None, tol=TOL_IWASAWA,
                constant_group="auto", form=None) -> IwasawaResult:
    """Factor x = z * y_plus with z tau-fixed and y_plus in Lambda^+.

    Steps: form w = x^{-1} tau(x); right-Birkhoff w = v_+ a v_- with
    v_+ in Lambda^+_1 and constant middle a (which must satisfy
    tau(a) = a^{-1}, reported as a residual); solve a = k^{-1} tau(k);
    then y_plus = k v_+^{-1} and z = x v_+ k^{-1}.  z is unique up to a
    constant tau-fixed right factor.

    x is a loop, or a FrameField whose unmasked nodes are all factored
    together, on coefficient stacks (see IwasawaResult); either way each
    loop gets the factors it gets alone.  With N given only that window is
    solved.  Otherwise the window starts just past the degree where x's
    coefficients decay to round-off and grows with the residual (see
    _adaptive_window); a singular inverse, a middle term that violates its
    declared reality and one that no constant of its group solves stop at
    once.  A loop that does not factor raises the failure; a field masks
    the node.
    """
    mask, stack = _nodes(x)
    outcomes = _tau_iwasawa_stack(stack, s, N, tol, constant_group, form)
    (*factors, (_, k)), values, failures = _collect(
        outcomes, mask, stack.c.shape[-1], ("z", "y_plus", "k"), ("condition",) + _RESIDUALS)
    return IwasawaResult(*_held(x, factors, values, failures), k[..., 0, :, :],
                         {key: _nanmax(values[key]) for key in _RESIDUALS})


def tau_iwasawa_minus(x, s: SymmetrySpec, N=None, tol=TOL_IWASAWA,
                      constant_group="auto", form=None) -> IwasawaResult:
    """Mirror variant: x = z * y_minus with z tau-fixed, y_minus in Lambda^-.

    Obtained from tau_iwasawa through lambda -> 1/lambda, which commutes with
    tau; the y factor stored in the result lies in Lambda^- here.  x is a
    loop or a field, as for tau_iwasawa.
    """
    res = tau_iwasawa(_mirrored(x), s, N=N, tol=tol,
                      constant_group=constant_group, form=form)
    return IwasawaResult(z=_mirrored(res.z), y_plus=_mirrored(res.y_plus),
                         k_const=res.k_const, residuals=res.residuals)
