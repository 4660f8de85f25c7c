"""Matrix Laurent polynomials on the circle ("truncated loops").

A loop is stored as a dense stack of complex n x n coefficient matrices over
a contiguous degree window [lo, hi].  All norms are Frobenius; the summable
(Wiener) norm of a loop is the sum of coefficient norms.  Values are treated
as immutable after construction and every operation returns a fresh loop, so
everything here is safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularLoop, ZeroLambda

TOL_TRIM = 1e-14
# largest in-window residual a truncated inverse may leave
TOL_INVERSE = 1e-10

PART_PLUS = "plus"
PART_MINUS = "minus"
PART_STRICT_PLUS = "strict_plus"
PART_STRICT_MINUS = "strict_minus"
PART_CONST = "const"
_PARTS = (PART_PLUS, PART_MINUS, PART_STRICT_PLUS, PART_STRICT_MINUS, PART_CONST)


def fnorm(m) -> float:
    return float(np.linalg.norm(np.asarray(m)))


class LaurentLoop:
    """A matrix-valued Laurent polynomial sum_{j=lo}^{hi} c_j lambda^j.

    Construction trims leading/trailing coefficients whose norm falls below
    TOL_TRIM relative to the largest coefficient, so the stored window is
    canonical: nonzero at both ends, or the single zero matrix at degree 0.
    """

    __slots__ = ("n", "lo", "coeffs")

    def __init__(self, lo, coeffs, trim=True):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2]:
            raise DimensionMismatch(f"coefficient stack must be (W, n, n), got {coeffs.shape}")
        if coeffs.shape[0] == 0:
            raise DimensionMismatch("empty coefficient stack")
        self.n = coeffs.shape[1]
        if trim:
            lo, coeffs = _trim(lo, coeffs)
        self.lo = int(lo)
        self.coeffs = coeffs
        self.coeffs.flags.writeable = False

    # -- basic structure -------------------------------------------------

    @property
    def hi(self) -> int:
        return self.lo + self.coeffs.shape[0] - 1

    @property
    def window(self):
        return (self.lo, self.hi)

    @property
    def radius(self) -> int:
        return max(abs(self.lo), abs(self.hi))

    def coeff(self, deg):
        """Coefficient matrix at a degree (zero outside the window)."""
        if self.lo <= deg <= self.hi:
            return np.array(self.coeffs[deg - self.lo])
        return np.zeros((self.n, self.n), dtype=complex)

    def wiener_norm(self) -> float:
        return float(np.linalg.norm(self.coeffs.reshape(self.coeffs.shape[0], -1),
                                    axis=1).sum())

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __repr__(self):
        return f"LaurentLoop(n={self.n}, window=({self.lo},{self.hi}))"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentLoop):
            return NotImplemented
        if self.n != other.n:
            raise DimensionMismatch("loop dimensions differ")
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        out = np.zeros((hi - lo + 1, self.n, self.n), dtype=complex)
        out[self.lo - lo : self.hi - lo + 1] += self.coeffs
        out[other.lo - lo : other.hi - lo + 1] += other.coeffs
        return LaurentLoop(lo, out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, LaurentLoop):
            return mul(self, other)
        return LaurentLoop(self.lo, np.asarray(self.coeffs) * complex(other))

    def __rmul__(self, other):
        return LaurentLoop(self.lo, complex(other) * np.asarray(self.coeffs))

    # -- analysis ----------------------------------------------------------

    def eval(self, lam):
        """Evaluate at a nonzero complex parameter, Horner split at degree 0."""
        lam = complex(lam)
        if lam == 0:
            raise ZeroLambda("loop evaluation at lambda = 0")
        n = self.n
        out = np.zeros((n, n), dtype=complex)
        if self.hi >= 0:
            # degrees >= 0, Horner from the top down
            for deg in range(self.hi, -1, -1):
                out = out * lam
                if deg >= self.lo:
                    out = out + self.coeffs[deg - self.lo]
        if self.lo < 0:
            # degrees <= -1, Horner in 1/lambda from the bottom up
            mu = 1.0 / lam
            neg = np.zeros((n, n), dtype=complex)
            for deg in range(self.lo, 0):
                neg = neg * mu
                if deg <= self.hi:
                    neg = neg + self.coeffs[deg - self.lo]
            out = out + neg * mu
        return out

    def project(self, part):
        """Keep degrees >=0 / <=0 / >=1 / <=-1 / ==0; zero loop if empty."""
        if part not in _PARTS:
            raise ValueError(f"unknown part {part!r}")
        if part == PART_PLUS:
            lo, hi = max(self.lo, 0), self.hi
        elif part == PART_MINUS:
            lo, hi = self.lo, min(self.hi, 0)
        elif part == PART_STRICT_PLUS:
            lo, hi = max(self.lo, 1), self.hi
        elif part == PART_STRICT_MINUS:
            lo, hi = self.lo, min(self.hi, -1)
        else:
            lo, hi = 0, 0
        if lo > hi or hi < self.lo or lo > self.hi:
            return zero_loop(self.n)
        lo = max(lo, self.lo)
        hi = min(hi, self.hi)
        return LaurentLoop(lo, self.coeffs[lo - self.lo : hi - self.lo + 1])

    def clip(self, lo, hi):
        """Restrict the window to [lo, hi] (degrees outside are dropped)."""
        a = max(lo, self.lo)
        b = min(hi, self.hi)
        if a > b:
            return zero_loop(self.n)
        return LaurentLoop(a, self.coeffs[a - self.lo : b - self.lo + 1])

    def mirror(self):
        """The loop lambda -> value at 1/lambda (coefficient reversal)."""
        return LaurentLoop(-self.hi, self.coeffs[::-1])

    def transpose(self):
        return LaurentLoop(self.lo, np.transpose(self.coeffs, (0, 2, 1)))


def _trim(lo, coeffs):
    peaks = np.abs(coeffs).reshape(coeffs.shape[0], -1).max(axis=1)
    scale = peaks.max()
    if scale == 0.0:
        n = coeffs.shape[1]
        return 0, np.zeros((1, n, n), dtype=complex)
    keep = peaks > TOL_TRIM * scale
    first = int(np.argmax(keep))
    last = int(len(keep) - 1 - np.argmax(keep[::-1]))
    if first == 0 and last == len(keep) - 1:
        return lo, coeffs
    return lo + first, np.array(coeffs[first : last + 1])


# -- constructors ----------------------------------------------------------


def identity(n) -> LaurentLoop:
    return LaurentLoop(0, np.eye(n, dtype=complex)[None])


def zero_loop(n) -> LaurentLoop:
    return LaurentLoop(0, np.zeros((1, n, n), dtype=complex), trim=False)


def constant(matrix) -> LaurentLoop:
    m = np.asarray(matrix, dtype=complex)
    return LaurentLoop(0, m[None])


def from_terms(terms, n=None) -> LaurentLoop:
    """Build a loop from a {degree: matrix} mapping."""
    if not terms:
        if n is None:
            raise ValueError("empty terms and no dimension given")
        return zero_loop(n)
    degs = sorted(terms)
    n = np.asarray(terms[degs[0]]).shape[0] if n is None else n
    lo, hi = degs[0], degs[-1]
    coeffs = np.zeros((hi - lo + 1, n, n), dtype=complex)
    for d in degs:
        coeffs[d - lo] += np.asarray(terms[d], dtype=complex)
    return LaurentLoop(lo, coeffs)


# -- core operations --------------------------------------------------------


def mul(x: LaurentLoop, y: LaurentLoop) -> LaurentLoop:
    """Cauchy product; full window [x.lo+y.lo, x.hi+y.hi] retained, then trimmed."""
    if x.n != y.n:
        raise DimensionMismatch(f"loop dimensions differ: {x.n} vs {y.n}")
    wx, wy = x.coeffs.shape[0], y.coeffs.shape[0]
    out = np.zeros((wx + wy - 1, x.n, x.n), dtype=complex)
    if wx <= wy:
        for a in range(wx):
            out[a : a + wy] += x.coeffs[a] @ y.coeffs
    else:
        for b in range(wy):
            out[b : b + wx] += x.coeffs @ y.coeffs[b]
    return LaurentLoop(x.lo + y.lo, out)


def lincomb(pairs) -> LaurentLoop:
    """Linear combination sum_i s_i * g_i of a non-empty list of loops with
    scalar weights."""
    n = pairs[0][1].n
    lo = min(g.lo for _, g in pairs)
    hi = max(g.hi for _, g in pairs)
    out = np.zeros((hi - lo + 1, n, n), dtype=complex)
    for s, g in pairs:
        out[g.lo - lo : g.hi - lo + 1] += complex(s) * g.coeffs
    return LaurentLoop(lo, out)


def loop_exp(x: LaurentLoop) -> LaurentLoop:
    """exp(x) by the power series, summed until a term falls below 1e-16 of
    the partial sum (at most 120 terms)."""
    acc = identity(x.n)
    term = identity(x.n)
    for k in range(1, 121):
        term = (1.0 / k) * mul(term, x)
        acc = acc + term
        if term.wiener_norm() <= 1e-16 * max(acc.wiener_norm(), 1.0):
            return acc
    raise SingularLoop("loop exponential did not converge; norm too large")


def distance(x: LaurentLoop, y: LaurentLoop) -> float:
    """Wiener-norm distance between two loops."""
    return (x - y).wiener_norm()


def _neumann_inverse(g: LaurentLoop, N: int, side: str) -> LaurentLoop:
    """Inverse of g = I + s, s strictly negative (side "minus") or strictly
    positive ("plus"), truncated to degree N on that side.

    Sums the terminating Neumann series sum_k (-s)^k by block forward
    substitution instead of power by power: with degrees counted away from
    zero, x_0 = I and x_k = -sum_{j=1..min(k,r)} s_j x_{k-j}, which takes
    O(N r) block products for s of degree r.  The coefficients are exactly
    those of the truncated series.
    """
    n = g.n
    c = g.coeffs[::-1] if side == "minus" else g.coeffs  # degree |d| at index |d|
    r = c.shape[0] - 1
    # s_1 .. s_r side by side, so one product sums the whole recurrence row
    s_row = np.asarray(c[1:]).transpose(1, 0, 2).reshape(n, r * n)
    x = np.zeros((N + 1, n, n), dtype=complex)
    x[0] = np.eye(n)
    for k in range(1, N + 1):
        m = min(k, r)
        x[k] = -(s_row[:, : m * n] @ x[k - m : k][::-1].reshape(m * n, n))
    if side == "minus":
        return LaurentLoop(-N, np.ascontiguousarray(x[::-1]))
    return LaurentLoop(0, x)


def truncated_inverse(g: LaurentLoop, N: int) -> LaurentLoop:
    """Inverse truncated to the window [-N, N].

    Normalized one-sided loops I + (strictly negative / strictly positive)
    have a one-sided inverse whose coefficients follow from block forward
    substitution, exactly and without a solve; everything else goes through
    a square block-Toeplitz least-squares solve for P_[-N,N](g x - I) = 0.
    Raises SingularLoop when the in-window residual exceeds TOL_INVERSE.
    """
    n = g.n
    if g.window == (0, 0):
        try:
            return constant(np.linalg.inv(g.coeffs[0]))
        except np.linalg.LinAlgError as exc:
            raise SingularLoop("constant loop is singular") from exc
    c0 = g.coeff(0)
    normalized = fnorm(c0 - np.eye(n)) <= 1e-13 * max(1.0, fnorm(c0))
    if normalized and g.hi <= 0:
        return _neumann_inverse(g, N, "minus")
    if normalized and g.lo >= 0:
        return _neumann_inverse(g, N, "plus")

    width = 2 * N + 1
    # rows: product modes m in [-N, N]; unknown blocks x_j, j in [-N, N]
    gpad = np.zeros((2 * width + 1, n, n), dtype=complex)
    for d in range(g.lo, g.hi + 1):
        if -width <= d <= width:
            gpad[d + width] = g.coeffs[d - g.lo]
    rows = np.arange(-N, N + 1)
    block = gpad[(rows[:, None] - rows[None, :]) + width]  # (W, W, n, n)
    big = block.transpose(0, 2, 1, 3).reshape(width * n, width * n)
    rhs = np.zeros((width * n, n), dtype=complex)
    rhs[N * n : (N + 1) * n] = np.eye(n)
    try:
        sol = np.linalg.solve(big, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(big, rhs, rcond=None)
    x = LaurentLoop(-N, sol.reshape(width, n, n))
    residual = distance(mul(g, x).clip(-N, N), identity(n))
    if not np.isfinite(residual) or residual > TOL_INVERSE:
        raise SingularLoop(
            f"truncated inverse residual {residual:.3e} exceeds {TOL_INVERSE:.1e}"
        )
    return x


# -- group membership --------------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """Target group data: orthogonal (form I) or Lorentz (form J).

    The matrix dimension is n_tan + k_nor + 1 and the form is diagonal +-1,
    with the single -1 at index n_tan for the Lorentz kind.
    """

    kind: str  # "orthogonal" | "lorentz"
    n_tan: int
    k_nor: int

    def __post_init__(self):
        if self.kind not in ("orthogonal", "lorentz"):
            raise ValueError(f"unknown group kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.n_tan + self.k_nor + 1

    @property
    def form_matrix(self):
        d = np.ones(self.dim)
        if self.kind == "lorentz":
            d[self.n_tan] = -1.0
        return np.diag(d)

    def opposite(self) -> "GroupSpec":
        other = "lorentz" if self.kind == "orthogonal" else "orthogonal"
        return GroupSpec(other, self.n_tan, self.k_nor)


def group_residual(g: LaurentLoop, spec: GroupSpec) -> float:
    """max of || g(lam)^T J g(lam) - J ||_F over roots of unity lam, enough
    of them to certify the polynomial identity."""
    if g.n != spec.dim:
        raise DimensionMismatch(f"loop dim {g.n} vs group dim {spec.dim}")
    J = spec.form_matrix
    count = max(8, 4 * g.radius + 2)
    worst = 0.0
    for lam in np.exp(2j * np.pi * np.arange(count) / count):
        m = g.eval(lam)
        worst = max(worst, fnorm(m.T @ J @ m - J))
    return worst
