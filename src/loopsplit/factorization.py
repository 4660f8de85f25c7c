"""Pointwise Birkhoff and tau-Iwasawa factorizations of a single loop.

The left factorization g = g_- g_+ (g_- normalized to constant term I) is
computed by solving for y in Lambda^-_1, truncated to degrees [-N, 0], such
that the modes -1..-N of y g vanish; this is a square block-Toeplitz system,
solved by dense LU with partial pivoting, and g_- is the one-sided inverse
of y, found by block forward substitution.  The right factorization is the
lambda -> 1/lambda mirror of the left one.  Loops off the big cell surface
as singular or ill-conditioned systems, reported as BigCellViolation together
with a one-norm condition estimate.

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
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import ILL_CONDITIONED, BigCellViolation, NotInIwasawaCell
from .loops import (
    LaurentLoop,
    constant,
    distance,
    fnorm,
    identity,
    mul,
    truncated_inverse,
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
# first adaptive window: this many degrees past the one read off the input
START_PAD = 2
# fixed window: this many degrees past twice the widest input radius
DEFAULT_WINDOW_PAD = 4
# constant solve: precondition tau(a) a = I and postcondition a = k^{-1} tau(k)
# hold within ten times these, relative to |a| (and k within them of its
# group); a within TOL_CONST_POST of I is solved by k = I
TOL_CONST_PRE = 1e-10
TOL_CONST_POST = 1e-9


def default_window(*loops) -> int:
    """Fixed window radius: twice the widest input radius plus a pad.

    Used where a caller gives no window and no residual drives the choice:
    the inverse in `merge` and the inverses in `maurer_cartan`.  The
    factorizations choose their own window from the residual instead.
    """
    radius = max((g.radius for g in loops), default=0)
    return 2 * radius + DEFAULT_WINDOW_PAD


def _adaptive_window(attempt, start, limit, scale):
    """Residual-driven window choice shared by the factorizations.

    attempt(N) returns (result, None) when window N meets the tolerance and
    (None, failure) otherwise, where the failure is the exception to raise
    and carries the residual; it raises BigCellViolation itself when the
    window is ill-conditioned, and lets any failure no wider window can
    repair propagate.  Windows grow by half from `start` up to `limit`.  The
    search stops at the first residual within the round-off floor (relative
    to `scale`), at the first one that does not fall, or at an
    ill-conditioned window, and returns the result of least residual.
    Otherwise the last failure is raised, listing every window tried.
    """
    floor = ROUNDOFF_FLOOR * scale
    windows, best, last = [], None, math.inf
    N = start
    while True:
        windows.append(N)
        try:
            result, failure = attempt(N)
        except BigCellViolation as exc:
            if best is not None:
                return best
            exc.windows = windows
            raise
        residual = (failure if result is None else result).residual
        if result is not None and (best is None or residual < best.residual):
            best = result
        if not residual > floor or not residual < last or N >= limit:
            break
        last = residual
        N = min(N + (N + 1) // 2, limit)
    if best is not None:
        return best
    if isinstance(failure, BigCellViolation):
        failure.windows = windows
    raise failure


@dataclass
class BirkhoffResult:
    minus: LaurentLoop
    plus: LaurentLoop
    residual: float
    condition: float
    side: str = "left"

    def reconstruction(self):
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


def _toeplitz_solve(g: LaurentLoop, N: int):
    """Solve the mode equations for y in Lambda^-_1; returns (y, condition)."""
    n = g.n
    # coefficient lookup padded over degrees [-N, N]
    pad = np.zeros((2 * N + 1, n, n), dtype=complex)
    for d in range(max(g.lo, -N), min(g.hi, N) + 1):
        pad[d + N] = g.coeffs[d - g.lo]
    i = np.arange(1, N + 1)
    blocks = pad[(i[None, :] - i[:, None]) + N]          # (N, N, n, n) = g_{j-i}
    big = blocks.transpose(0, 3, 1, 2).reshape(N * n, N * n)  # transposed blocks
    rhs = -pad[N - i].transpose(0, 2, 1).reshape(N * n, n)    # stack of -g_{-i}^T
    anorm = np.linalg.norm(big, 1)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu, piv = sla.lu_factor(big)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise BigCellViolation(f"singular mode system: {exc}",
                               cause=ILL_CONDITIONED) from exc
    gecon = sla.get_lapack_funcs("gecon", (big,))
    rcond, _ = gecon(lu, anorm)
    condition = np.inf if rcond == 0 else 1.0 / rcond
    sol = sla.lu_solve((lu, piv), rhs)
    coeffs = np.zeros((N + 1, n, n), dtype=complex)
    coeffs[N] = np.eye(n)
    blocks_t = sol.reshape(N, n, n).transpose(0, 2, 1)   # y_{-j} = (solution_j)^T
    coeffs[N - i] = blocks_t
    return LaurentLoop(-N, coeffs), float(condition)


def _birkhoff_left_at(g: LaurentLoop, N: int, tol):
    """One left factorization at window N, in the form _adaptive_window takes."""
    y, condition = _toeplitz_solve(g, N)
    if not condition <= CONDITION_LIMIT:
        raise BigCellViolation(
            f"left factorization failed: condition {condition:.3e}",
            condition=condition, cause=ILL_CONDITIONED)
    yg = mul(y, g)
    plus = yg.project("plus")
    tail = yg.project("strict_minus").wiener_norm()
    minus = truncated_inverse(y, N)
    residual = tail + distance(mul(minus, plus), g)
    if np.isfinite(residual) and residual <= tol:
        return BirkhoffResult(minus, plus, residual, condition, side="left"), None
    return None, BigCellViolation(
        f"left factorization failed: residual {residual:.3e}, "
        f"condition {condition:.3e}",
        residual=residual, condition=condition)


def birkhoff_left(g: LaurentLoop, N=None, tol=TOL_BIRKHOFF) -> BirkhoffResult:
    """g = minus * plus with minus in Lambda^-_1 and plus in Lambda^+.

    With N given (and at least the depth of g's negative part) only that
    window is solved; otherwise the window starts just past that depth and
    grows with the residual (see _adaptive_window).
    """
    if g.lo >= 0:
        return BirkhoffResult(identity(g.n), g, 0.0, 1.0, side="left")
    if N is not None and N < abs(g.lo):
        N = default_window(g)
    start = abs(g.lo) + START_PAD if N is None else N
    limit = start if N is not None else max(start, MAX_SYSTEM_ORDER // g.n)
    return _adaptive_window(lambda w: _birkhoff_left_at(g, w, tol),
                            start, limit, g.wiener_norm())


def birkhoff_right(g: LaurentLoop, N=None, tol=TOL_BIRKHOFF) -> BirkhoffResult:
    """g = plus * minus with plus in Lambda^+_1 and minus in Lambda^-."""
    res = birkhoff_left(g.mirror(), N=N, tol=tol)
    return BirkhoffResult(
        minus=res.plus.mirror(),
        plus=res.minus.mirror(),
        residual=res.residual,
        condition=res.condition,
        side="right",
    )


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
    return _adaptive_window(
        lambda w: _tau_iwasawa_at(x, s, w, tol, constant_group, form),
        start, limit, x.wiener_norm())


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
