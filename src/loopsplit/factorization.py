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
form by the principal square root or, in GL, the Cayley form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

from .errors import ILL_CONDITIONED, BigCellViolation, NotInIwasawaCell
from .loops import (
    STACK_CHUNK,
    LaurentLoop,
    aligned,
    cauchy,
    chunks,
    constant,
    degree_slice,
    distance,
    fnorm,
    forward_substitution,
    identity,
    mul,
    named_failures,
    node_stack,
    padded,
    stack_windows,
    trim_stack,
    truncated_inverse,
    wiener_norms,
)
from .symmetry import SymmetrySpec, apply_tau, tau_constant

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
    one can repair; failures of other kinds that no window can repair are
    raised by attempt itself.  Each problem's windows grow by half from its
    start up to its limit, and the problems at the same window are tried
    together.  A problem's search stops at the first residual within the
    round-off floor (relative to its scale), at the first one that does not
    fall, or at an ill-conditioned window, and keeps the result of least
    residual.  Otherwise its last failure is kept, with every window tried.
    Returns the outcome of every problem.
    """
    count = len(starts)
    floors = [ROUNDOFF_FLOOR * float(x) for x in scales]
    current = [int(N) for N in starts]
    tried = [[] for _ in range(count)]
    best = [None] * count
    last = [math.inf] * count
    out = [None] * count
    active = set(range(count))
    while active:
        N = min(current[b] for b in active)
        rows = [b for b in sorted(active) if current[b] == N]
        for b, outcome in zip(rows, attempt(N, rows)):
            tried[b].append(N)
            failed = isinstance(outcome, Exception)
            if failed and getattr(outcome, "cause", None) == ILL_CONDITIONED:
                stop = True
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
    fails is masked in both, with its cause in info["failures"], and the
    residual and condition of every factored node are in
    info["diagnostics"]; residual and condition are the largest over the
    factored nodes (NaN when none is).
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
    z: LaurentLoop
    y_plus: LaurentLoop
    k_const: np.ndarray
    residuals: dict = field(default_factory=dict)

    @property
    def residual(self) -> float:
        return max(self.residuals.values(), default=0.0)


class _Factors(NamedTuple):
    """One loop's left factors at one window, as coefficient stacks."""

    minus_lo: int
    minus: np.ndarray
    plus_lo: int
    plus: np.ndarray
    residual: float
    condition: float


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
    condition estimate) each.  A singular or non-finite system gets an
    infinite condition and a zero solution."""
    anorm = np.abs(big).sum(axis=-2).max(axis=-1)
    condition = np.full(len(big), np.inf)
    sol = np.zeros(rhs.shape, dtype=complex)
    finite = np.isfinite(anorm)
    if big.shape[-1] <= INVERSE_MAX_ORDER:
        inverse = np.zeros_like(big)
        singular = ~finite
        try:
            inverse[finite] = np.linalg.inv(big[finite])
        except np.linalg.LinAlgError:
            for b in np.flatnonzero(finite):
                try:
                    inverse[b] = np.linalg.inv(big[b])
                except np.linalg.LinAlgError:
                    singular[b] = True
        ok = ~singular
        condition[ok] = anorm[ok] * np.abs(inverse[ok]).sum(axis=-2).max(axis=-1)
        ok &= np.isfinite(condition)
        sol[ok] = inverse[ok] @ rhs[ok]
        return condition, sol
    for b in np.flatnonzero(finite):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu, piv = sla.lu_factor(big[b])
        rcond, _ = sla.get_lapack_funcs("gecon", (lu,))(lu, anorm[b])
        if rcond != 0:
            condition[b] = 1.0 / rcond
            sol[b] = sla.lu_solve((lu, piv), rhs[b])
    return condition, sol


def _birkhoff_left_at(lo, coeffs, N: int, tol):
    """Left factorizations of the loops of a trimmed stack at window N, in
    the form _adaptive_window takes."""
    y, condition = _toeplitz_solve(lo, coeffs, N)
    out = [None] * len(coeffs)
    ok = np.flatnonzero(condition <= CONDITION_LIMIT)
    for b in np.flatnonzero(~(condition <= CONDITION_LIMIT)):
        out[b] = BigCellViolation(f"left factorization failed: condition {condition[b]:.3e}",
                                  condition=float(condition[b]), cause=ILL_CONDITIONED)
    if not ok.size:
        return out
    g = coeffs[ok]
    y_lo, y, _, _ = trim_stack(-N, y[ok])
    yg_lo, yg, _, _ = trim_stack(y_lo + lo, cauchy(y, g))
    plus_lo, plus, _, _ = trim_stack(*degree_slice(yg_lo, yg, 0, yg_lo + yg.shape[1]))
    tail = wiener_norms(degree_slice(yg_lo, yg, yg_lo, -1)[1]) if yg_lo < 0 else np.zeros(len(ok))
    minus_lo, minus, _, _ = trim_stack(-N, forward_substitution(
        degree_slice(y_lo, y, y_lo, 0)[1][:, ::-1], N)[:, ::-1])
    _, back, g = aligned(minus_lo + plus_lo, cauchy(minus, plus), lo, g)
    residual = tail + wiener_norms(back - g)
    for k, b in enumerate(ok):
        r, c = float(residual[k]), float(condition[b])
        if np.isfinite(r) and r <= tol:
            out[b] = _Factors(minus_lo, minus[k], plus_lo, plus[k], r, c)
        else:
            out[b] = BigCellViolation(
                f"left factorization failed: residual {r:.3e}, condition {c:.3e}",
                residual=r, condition=c)
    return out


def _birkhoff_stack(lo, coeffs, N, tol):
    """Left factorizations of every loop of a trimmed stack (B, W, n, n):
    one outcome per loop, its _Factors or the BigCellViolation to report.

    Loops without negative degrees factor trivially.  With N given (and at
    least the depth of a loop's negative part) only that window is solved;
    otherwise each loop's window starts just past that depth and grows with
    the residual (see _adaptive_window), the loops at one window together.
    """
    n = coeffs.shape[-1]
    los, his = stack_windows(lo, coeffs)
    out = [None] * len(coeffs)
    eye = np.eye(n, dtype=complex)[None]
    for b in np.flatnonzero(los >= 0):
        out[b] = _Factors(0, eye, los[b], coeffs[b, los[b] - lo : his[b] - lo + 1], 0.0, 1.0)
    rows = np.flatnonzero(los < 0)
    if not rows.size:
        return out
    depth = -los[rows]
    radius = np.maximum(depth, np.abs(his[rows]))
    if N is None:
        starts = depth + START_PAD
        limits = np.maximum(starts, MAX_SYSTEM_ORDER // n)
    else:
        starts = np.where(N < depth, 2 * radius + DEFAULT_WINDOW_PAD, N)
        limits = starts

    def attempt(w, at):
        at = rows[at]
        size = STACK_CHUNK // ((coeffs.shape[1] + w) * n * n)
        return [outcome for part in chunks(len(at), size)
                for outcome in _birkhoff_left_at(lo, coeffs[at[part]], w, tol)]

    outcomes = _adaptive_window(attempt, starts, limits, wiener_norms(coeffs)[rows])
    for b, outcome in zip(rows, outcomes):
        out[b] = outcome
    return out


def _mirror(lo, coeffs):
    """The stack of the loops lambda -> value at 1/lambda."""
    return -(lo + coeffs.shape[-3] - 1), coeffs[..., ::-1, :, :]


def _birkhoff(g, N, tol, side):
    """Left or right factorization of a loop or of every node of a field.

    The nodes go through the stack kernel in parts of bounded size, and
    each part's factors are copied out before the next part starts.  The
    plus factor of a left factorization of a loop over [lo, hi] lies in
    [0, hi], so its array is allocated once, before the first part.
    """
    loop = isinstance(g, LaurentLoop)
    lo, coeffs = (g.lo, g.coeffs[None]) if loop else node_stack(g, g.mask)
    lead, nodes = ((1,), [(0,)]) if loop else (g.mask.shape, [tuple(x) for x in np.argwhere(g.mask)])
    if side == "right":
        lo, coeffs = _mirror(lo, coeffs)
    count, width, n = coeffs.shape[:2] + coeffs.shape[-1:]
    plus = np.zeros(lead + (max(lo + width, 1), n, n), dtype=complex)
    minus_parts, measures, failures = {}, {}, {}
    p_lo, p_hi = math.inf, -math.inf
    for part in chunks(count, STACK_CHUNK // (width * n * n)):
        for b, o in enumerate(_birkhoff_stack(lo, coeffs[part], N, tol), start=part.start):
            if isinstance(o, Exception):
                if loop:
                    raise o
                failures[b] = str(o)
                continue
            measures[nodes[b]] = {"residual": o.residual, "condition": o.condition}
            minus_parts[b] = (o.minus_lo, np.array(o.minus))
            plus[nodes[b]][o.plus_lo : o.plus_lo + len(o.plus)] = o.plus
            p_lo, p_hi = min(p_lo, o.plus_lo), max(p_hi, o.plus_lo + len(o.plus) - 1)
    m_lo = min((m for m, _ in minus_parts.values()), default=0)
    minus = np.zeros(lead + (1 - m_lo, n, n), dtype=complex)
    for b, (m, c) in minus_parts.items():
        minus[nodes[b]][m - m_lo : m - m_lo + len(c)] = c
    minus = (m_lo, minus)
    plus = (0, plus[..., :1, :, :]) if not measures else (p_lo, plus[..., p_lo : p_hi + 1, :, :])
    if side == "right":
        minus, plus = _mirror(*plus), _mirror(*minus)
    residual = max((d["residual"] for d in measures.values()), default=math.nan)
    condition = max((d["condition"] for d in measures.values()), default=math.nan)
    if loop:
        return BirkhoffResult(LaurentLoop(minus[0], minus[1][0]), LaurentLoop(plus[0], plus[1][0]),
                              residual, condition, side=side)
    mask = g.mask.copy()
    for b in failures:
        mask[nodes[b]] = False
    info = {"failures": named_failures(g, nodes, failures), "diagnostics": measures}
    return BirkhoffResult(replace(g, lo=minus[0], coeffs=minus[1], mask=mask, info=info),
                          replace(g, lo=plus[0], coeffs=plus[1], mask=mask.copy(), info=dict(info)),
                          residual, condition, side=side)


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


def _resolve_form(a, s: SymmetrySpec, group, form):
    """The +-1 diagonal of the invariant bilinear form, or None for GL.

    form may be "orthogonal", "lorentz", or None to detect it: the plain form
    is tried first, then the Lorentz one, then GL.
    """
    if group == "general":
        return None
    plain, lorentz = np.ones(a.shape[0]), np.ones(a.shape[0])
    lorentz[s.n] = -1.0
    if form is not None:
        if form not in ("orthogonal", "lorentz"):
            raise ValueError(f"unknown form {form!r}")
        return lorentz if form == "lorentz" else plain
    scale = max(1.0, fnorm(a) ** 2)
    for b in (plain, lorentz):
        if fnorm(a.T @ (b[:, None] * a) - np.diag(b)) <= 1e-8 * scale:
            return b
    return None


def _shifts(a, s: SymmetrySpec, b):
    """Constants c in the group of a with tau(c) = c^{-1}: I, then exp(tX).

    X_ij = w g_ij and X_ji = -b_i b_j w g_ij for q_i = +1, q_j = -1 (b the
    form's signs, all ones for GL; w = i under Rhat, else 1), inside one
    sigma block when a commutes with P: exp(tX) keeps the form, the reality
    and the sigma blocks of a.  The weights g_ij = 2 + cos(index) all
    differ; equal ones leave some -1 eigenvectors of a in place, as for
    R_03(3pi/4) R_23(pi/2) with n = 2, k = 1.
    """
    m = a.shape[0]
    yield np.eye(m)
    q = np.diag(s.tau_matrix)
    p = np.diag(s.sigma_matrix)
    pairs = np.outer(q > 0, q < 0)
    if fnorm(a * p[None, :] - p[:, None] * a) <= 1e-10 * max(1.0, fnorm(a)):
        pairs &= np.equal.outer(p, p)
    w = 1j if s.reality in ("Rhat1", "Rhat2") else 1.0
    X = w * (2.0 + np.cos(np.arange(m * m))).reshape(m, m) * pairs
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
    tau(c) = c^{-1} in the group of a (see _shifts), and k = k' c^{-1}.
    The first k whose defect and distance from the group are within the
    precondition's tolerance is returned, else the best within the
    postcondition's.  `group` ("general" or "auto") and `form`
    ("orthogonal", "lorentz", or None to detect it) choose the group.
    """
    a = np.asarray(a, dtype=complex)
    m = a.shape[0]
    if a.shape != (m, m) or m != s.dim:
        raise NotInIwasawaCell(
            f"middle term has shape {a.shape}, expected ({s.dim},{s.dim})")
    scale = max(1.0, fnorm(a))
    defect = fnorm(tau_constant(a, s) @ a - np.eye(m))
    if defect > TOL_CONST_PRE * scale * 10:
        raise NotInIwasawaCell(
            f"middle term does not satisfy tau(a) = a^{{-1}} (defect {defect:.3e}); "
            "the loop is not in the Iwasawa cell",
            residual=defect,
        )
    if fnorm(a - np.eye(m)) <= TOL_CONST_POST:
        return np.eye(m, dtype=complex)
    Q = s.tau_matrix
    b = _resolve_form(a, s, group, form)
    if b is not None and s.reality in ("Rhat1", "Rhat2"):
        # W = diag(1 at q=+1, i at q=-1): W^{-1} a Q W is real under Rhat
        w = np.where(np.diag(Q) > 0, 1.0, 1j)
        S_work = np.conj(w)[:, None] * (a @ Q) * w[None, :]
        if fnorm(S_work.imag) > 1e-8 * max(1.0, fnorm(S_work)):
            raise NotInIwasawaCell("middle term violates its declared reality")
    best, least = None, TOL_CONST_POST * 10
    for c in _shifts(a, s, b):
        c_inv = tau_constant(c, s)
        shifted = c_inv @ a @ c_inv
        R = 2.0 * np.eye(m)
        if b is not None:
            with warnings.catch_warnings():
                # an eigenvalue on the cut or a singular root: checked below
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                r = sla.sqrtm(shifted)
            R = r + tau_constant(r, s)
        try:
            k = np.linalg.solve(R, np.eye(m) + tau_constant(shifted, s)) @ c_inv
            defect = fnorm(np.linalg.inv(k) @ Q @ k @ Q - a) / scale
        except np.linalg.LinAlgError:
            continue
        if b is not None:
            defect = max(defect, fnorm(k.T @ (b[:, None] * k) - np.diag(b))
                         / max(1.0, fnorm(k) ** 2))
        if defect <= TOL_CONST_PRE * 10:
            return k
        if defect <= least:
            best, least = k, defect
    if best is None:
        raise NotInIwasawaCell("no constant of the group of a solves a = k^{-1} tau(k)")
    return best


# -- tau-Iwasawa ---------------------------------------------------------------


def _decay_window(x: LaurentLoop) -> int:
    """Smallest N such that degrees outside [-N, N] carry no more than the
    round-off floor of x's Wiener norm."""
    norms = np.linalg.norm(x.coeffs.reshape(x.coeffs.shape[0], -1), axis=1)
    reach = np.abs(np.arange(x.lo, x.hi + 1))
    by_reach = np.zeros(x.radius + 2)
    np.add.at(by_reach, reach, norms)
    outside = np.cumsum(by_reach[::-1])[::-1][1:]   # outside[N] = mass beyond N
    return int(np.argmax(outside <= ROUNDOFF_FLOOR * norms.sum()))


def _tau_iwasawa_at(x, s, N, tol, constant_group, form):
    """tau-Iwasawa at window N, in the form _adaptive_window takes.

    Failures a wider window can repair carry a residual and are returned:
    the inner Birkhoff residual, the tau(a) a = I defect of the middle term,
    and the reconstruction and tau-fixedness postconditions.
    """
    xi = truncated_inverse(x, N)
    w = mul(xi, apply_tau(x, s))
    try:
        right = birkhoff_right(w, N=max(N, w.radius), tol=tol)
    except BigCellViolation as exc:
        if exc.cause == ILL_CONDITIONED:
            raise
        return None, exc
    v_plus = right.plus
    a = right.minus.coeff(0)
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise BigCellViolation("constant middle term is singular",
                               cause=ILL_CONDITIONED) from exc
    v_minus = mul(constant(a_inv), right.minus)
    mid_residual = fnorm(tau_constant(a, s) @ a - np.eye(x.n))
    pair_residual = distance(mul(v_minus, apply_tau(v_plus, s)), identity(x.n))
    try:
        k = solve_constant_tau(a, s, group=constant_group, form=form)
    except NotInIwasawaCell as exc:
        if exc.residual is None:
            raise
        return None, exc
    k_inv = np.linalg.inv(k)
    y_plus = mul(constant(k), truncated_inverse(v_plus, N))
    z = mul(x, mul(v_plus, constant(k_inv)))
    residuals = {
        "reconstruction": distance(mul(z, y_plus), x),
        "tau_fixed": distance(z, apply_tau(z, s)),
        "middle_reality": mid_residual,
        "minus_pair": pair_residual,
        "birkhoff": right.residual,
    }
    result = IwasawaResult(z=z, y_plus=y_plus, k_const=k, residuals=residuals)
    if residuals["reconstruction"] > tol or residuals["tau_fixed"] > tol:
        return None, BigCellViolation(
            "tau-Iwasawa postconditions failed: "
            f"reconstruction {residuals['reconstruction']:.3e}, "
            f"tau-fixedness {residuals['tau_fixed']:.3e}",
            residual=result.residual,
            condition=right.condition,
        )
    return result, None


def tau_iwasawa(x: LaurentLoop, s: SymmetrySpec, N=None, tol=TOL_IWASAWA,
                constant_group="auto", form=None) -> IwasawaResult:
    """Factor x = z * y_plus with z tau-fixed and y_plus in Lambda^+.

    Steps: form w = x^{-1} tau(x); right-Birkhoff w = v_+ a v_- with
    v_+ in Lambda^+_1 and constant middle a (which must satisfy
    tau(a) = a^{-1}, reported as a residual); solve a = k^{-1} tau(k);
    then y_plus = k v_+^{-1} and z = x v_+ k^{-1}.  z is unique up to a
    constant tau-fixed right factor.

    With N given only that window is solved.  Otherwise the window starts
    just past the degree where x's coefficients decay to round-off and
    grows with the residual (see _adaptive_window); spectrum and signature
    mismatches of the middle term raise at once.
    """
    start = _decay_window(x) + START_PAD if N is None else N
    limit = start if N is not None else max(start, MAX_SYSTEM_ORDER // (2 * x.n))

    def attempt(w, rows):
        try:
            result, failure = _tau_iwasawa_at(x, s, w, tol, constant_group, form)
        except BigCellViolation as exc:
            if exc.cause != ILL_CONDITIONED:
                raise
            return [exc]
        return [failure if result is None else result]

    outcome, = _adaptive_window(attempt, [start], [limit], [x.wiener_norm()])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def tau_iwasawa_minus(x: LaurentLoop, s: SymmetrySpec, N=None, tol=TOL_IWASAWA,
                      constant_group="auto", form=None) -> IwasawaResult:
    """Mirror variant: x = z * y_minus with z tau-fixed, y_minus in Lambda^-.

    Obtained from tau_iwasawa through lambda -> 1/lambda, which commutes with
    tau; the y factor stored in the result lies in Lambda^- here.
    """
    res = tau_iwasawa(x.mirror(), s, N=N, tol=tol,
                      constant_group=constant_group, form=form)
    return IwasawaResult(
        z=res.z.mirror(),
        y_plus=res.y_plus.mirror(),
        k_const=res.k_const,
        residuals=res.residuals,
    )
