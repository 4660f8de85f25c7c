"""Matrix Laurent polynomials on the circle ("truncated loops").

A loop is stored as a dense stack of complex n x n coefficient matrices over
a contiguous degree window [lo, hi].  All norms are Frobenius; the summable
(Wiener) norm of a loop is the sum of coefficient norms.  Values are treated
as immutable after construction and every operation returns a fresh loop, so
everything here is safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

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
        return horner(self.lo, self.coeffs, lam)

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
        return LaurentLoop(*mirror_stack(self.lo, self.coeffs))

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


# -- stacks of loops ------------------------------------------------------------
#
# A stack is one coefficient array (..., W, n, n) whose axis -3 runs over the
# degrees lo, lo + 1, ... shared by every loop in it.  The kernels below work
# over any leading axes; a LaurentLoop is the stack of one loop.  A trimmed
# stack (Stack) also carries the window of each of its loops, and its own-
# window arithmetic (stack_mul, stack_wiener, stack_distance, stack_exp)
# gives every loop, bit for bit, what LaurentLoop arithmetic gives it alone,
# whatever else shares the stack.


def stack_windows(lo, coeffs):
    """The window (los, his) of every loop of a stack, as LaurentLoop
    trims it: (0, 0) for a zero loop, the whole window when the largest
    coefficient is not finite."""
    return _windows(lo, np.abs(coeffs).max(axis=(-2, -1)))


def _windows(lo, peaks):
    scale = peaks.max(axis=-1, keepdims=True)
    keep = peaks > TOL_TRIM * scale
    first = keep.argmax(axis=-1)
    last = peaks.shape[-1] - 1 - keep[..., ::-1].argmax(axis=-1)
    zero = scale[..., 0] == 0.0
    return np.where(zero, 0, lo + first), np.where(zero, 0, lo + last)


class Stack(NamedTuple):
    """A trimmed stack (see trim_stack): (lo, c, los, his), the window
    [los, his] of each of its loops beside the shared coefficient array."""

    lo: int
    c: np.ndarray
    los: np.ndarray
    his: np.ndarray

    def rows(self, index):
        return Stack(self.lo, self.c[index], self.los[index], self.his[index])

    def mirror(self):
        """The loops lambda -> value at 1/lambda."""
        return Stack(*mirror_stack(self.lo, self.c), -self.his, -self.los)


def trim_stack(lo, coeffs) -> Stack:
    """Trim every loop of a stack as LaurentLoop does: coefficients outside
    a loop's own window are zeroed and the shared window is cut to the
    union of the loops' windows.  coeffs is a view of the input where that
    is zero outside every window already.  A lone loop (B, W, n, n) with
    B = 1 takes LaurentLoop's own trim, the same windows and values in
    fewer array calls: with it pointwise_factor, whose loops are factored
    alone, runs 7 % faster (BENCH_14.json, trim_branch_ab)."""
    if coeffs.ndim == 4 and len(coeffs) == 1:
        lo, c = _trim(lo, coeffs[0])
        hi = np.array([lo + len(c) - 1])
        return Stack(int(lo), c[None], hi - len(c) + 1, hi)
    peaks = np.abs(coeffs).max(axis=(-2, -1))
    los, his = _windows(lo, peaks)
    if los.size == 0:
        return Stack(int(lo), coeffs, los, his)
    new_lo, new_hi = int(los.min()), int(his.max())
    inside = lo <= new_lo and new_hi < lo + coeffs.shape[-3]
    cut = slice(new_lo - lo, new_hi - lo + 1)
    if inside and (los == new_lo).all() and (his == new_hi).all():
        return Stack(new_lo, coeffs[..., cut, :, :], los, his)
    degs = np.arange(new_lo, new_hi + 1)
    outside = (degs < los[..., None]) | (degs > his[..., None])
    if inside and not peaks[..., cut][outside].any():
        return Stack(new_lo, coeffs[..., cut, :, :], los, his)
    out = padded(lo, coeffs, new_lo, new_hi)
    out[outside] = 0.0
    return Stack(new_lo, out, los, his)


def copies(g: LaurentLoop, count) -> Stack:
    """The Stack of count copies of a loop, each over the loop's window;
    copies(g, 1) is how a lone loop enters the stack kernels."""
    return Stack(g.lo, np.repeat(g.coeffs[None], count, axis=0),
                 np.full(count, g.lo), np.full(count, g.hi))


def constant_stack(m) -> Stack:
    """The stack of the constant loops m (B, n, n), each over [0, 0] (a zero
    loop too)."""
    zero = np.zeros(len(m), dtype=int)
    return Stack(0, m[:, None], zero, zero)


def mirror_stack(lo, coeffs):
    """(lo, coeffs) of the loops lambda -> value at 1/lambda of a stack."""
    return -(lo + coeffs.shape[-3] - 1), coeffs[..., ::-1, :, :]


def gather(parts, shape, n):
    """(lo, coeffs): the loops of parts, (index, lo, coeffs) triples,
    re-embedded into one array of shape shape + (W, n, n) over the union of
    their windows, zero elsewhere.  An index picks one loop of the array,
    or rows of it for a stack of loops."""
    lo = min((p for _, p, _ in parts), default=0)
    hi = max((p + c.shape[-3] - 1 for _, p, c in parts), default=0)
    out = np.zeros(tuple(shape) + (hi - lo + 1, n, n), dtype=complex)
    for index, p, c in parts:
        out[np.index_exp[index] + (slice(p - lo, p - lo + c.shape[-3]),)] = c
    return lo, out


def node_stack(F, mask) -> Stack:
    """The loops of a sampled field at the nodes of mask, row-major (and by
    direction, for a form), each trimmed to its own window (see
    trim_stack)."""
    rows = F.coeffs.reshape((-1,) + F.coeffs.shape[2:]) if mask.all() else F.coeffs[mask]
    return trim_stack(F.lo, rows)


def padded(lo, coeffs, a, b):
    """A stack re-embedded into exactly the degrees [a, b]: coefficients
    outside are dropped, degrees the stack lacks are zero."""
    out = np.zeros(coeffs.shape[:-3] + (b - a + 1,) + coeffs.shape[-2:], dtype=complex)
    s, e = max(a, lo), min(b, lo + coeffs.shape[-3] - 1)
    if s <= e:
        out[..., s - a : e - a + 1, :, :] = coeffs[..., s - lo : e - lo + 1, :, :]
    return out


def degree_slice(lo, coeffs, a, b):
    """(lo, coeffs) of a stack restricted to the degrees [a, b] (a zero
    degree a when the two windows do not meet)."""
    a, b = max(a, lo), min(b, lo + coeffs.shape[-3] - 1)
    if a > b:
        return 0, np.zeros(coeffs.shape[:-3] + (1,) + coeffs.shape[-2:], dtype=complex)
    return a, coeffs[..., a - lo : b - lo + 1, :, :]


def aligned(lo_x, x, lo_y, y):
    """Two stacks re-embedded into the union of their windows: (lo, x, y)."""
    lo = min(lo_x, lo_y)
    hi = max(lo_x + x.shape[-3], lo_y + y.shape[-3]) - 1
    x, y = (c if l == lo and c.shape[-3] == hi - lo + 1 else padded(l, c, lo, hi)
            for l, c in ((lo_x, x), (lo_y, y)))
    return lo, x, y


def coefficient_norms(coeffs):
    """Frobenius norm of every coefficient of a stack."""
    return np.linalg.norm(coeffs.reshape(coeffs.shape[:-2] + (-1,)), axis=-1)


def wiener_norms(coeffs):
    """Wiener norm of every loop of a stack, summed over the shared window."""
    n = coeffs.shape[-1]
    return np.linalg.norm(coeffs.reshape(coeffs.shape[:-2] + (n * n,)), axis=-1).sum(axis=-1)


def stack_wiener(x: Stack):
    """The Wiener norm of every loop of a Stack, summed over its own window
    as LaurentLoop.wiener_norm sums it: the loops of one width together."""
    norms = coefficient_norms(x.c)
    widths = x.his - x.los + 1
    if (widths == norms.shape[1]).all():
        return norms.sum(axis=-1)
    out = np.empty(len(widths))
    for width in np.unique(widths).tolist():
        rows = np.flatnonzero(widths == width)
        cols = np.clip((x.los[rows] - x.lo)[:, None] + np.arange(width), 0, norms.shape[1] - 1)
        out[rows] = norms[rows[:, None], cols].sum(axis=-1)
    return out


def stack_distance(x: Stack, y: Stack):
    """The Wiener distance of every pair of loops of two Stacks, as
    distance gives it."""
    lo, a, b = aligned(x.lo, x.c, y.lo, y.c)
    return stack_wiener(trim_stack(lo, a - b))


def horner(lo, coeffs, lam):
    """Value at lam != 0 of the loops whose degree lo, lo + 1, ...
    coefficients run along axis -3 of coeffs, over any leading axes.

    Horner in lam from the top degree down to 0, and in 1/lam from the
    bottom degree up to -1, so neither power is formed explicitly.
    """
    lam = complex(lam)
    if lam == 0:
        raise ZeroLambda("loop evaluation at lambda = 0")
    hi = lo + coeffs.shape[-3] - 1
    out = np.zeros(coeffs.shape[:-3] + coeffs.shape[-2:], dtype=complex)
    for deg in range(hi, -1, -1):
        out = out * lam
        if deg >= lo:
            out = out + coeffs[..., deg - lo, :, :]
    if lo < 0:
        mu = 1.0 / lam
        neg = np.zeros_like(out)
        for deg in range(lo, 0):
            neg = neg * mu
            if deg <= hi:
                neg = neg + coeffs[..., deg - lo, :, :]
        out = out + neg * mu
    return out


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


def cauchy(x, y):
    """Full Cauchy products of two stacks (..., wx, n, n) and (..., wy, n, n),
    leading axes broadcast: wx + wy - 1 degrees from lo_x + lo_y, untrimmed.

    One product per degree of the shorter operand, against the blocks of
    the longer one stacked as rows, (wx n, n) @ (n, n) when x is the
    longer; when y is, through (x y)^T = y^T x^T, and the result is a
    transposed view.
    """
    if x.shape[-3] < y.shape[-3]:
        return _transposed_cauchy(x, y)
    return _rows_cauchy(x, y)


def stack_mul(x: Stack, y: Stack) -> Stack:
    """The products of the loops of two Stacks, pair by pair, trimmed: each
    pair oriented as cauchy orients it on its own windows, through the
    transposes where the loop of x is the shorter.  Zero padding then
    leaves every product as it is for the pair alone, bit for bit."""
    swap = x.his - x.los < y.his - y.los
    if not swap.any():
        c = _rows_cauchy(x.c, y.c)
    elif swap.all():
        c = _transposed_cauchy(x.c, y.c)
    else:
        c = np.empty((len(swap), x.c.shape[1] + y.c.shape[1] - 1) + x.c.shape[2:], dtype=complex)
        c[~swap] = _rows_cauchy(x.c[~swap], y.c[~swap])
        c[swap] = _transposed_cauchy(x.c[swap], y.c[swap])
    return trim_stack(x.lo + y.lo, c)


def _transposed_cauchy(x, y):
    return np.swapaxes(_rows_cauchy(np.swapaxes(y, -1, -2), np.swapaxes(x, -1, -2)), -1, -2)


def _rows_cauchy(x, y):
    """cauchy with x's blocks stacked as rows, one product per degree of y."""
    wx, wy = x.shape[-3], y.shape[-3]
    n = x.shape[-1]
    lead = x.shape[:-3]
    if lead != y.shape[:-3]:
        lead = np.broadcast_shapes(lead, y.shape[:-3])
    out = np.zeros(lead + (wx + wy - 1, n, n), dtype=complex)
    rows = x.reshape(x.shape[:-3] + (wx * n, n))
    for b in range(wy):
        out[..., b : b + wx, :, :] += (rows @ y[..., b, :, :]).reshape(lead + (wx, n, n))
    return out


def mul(x: LaurentLoop, y: LaurentLoop) -> LaurentLoop:
    """Cauchy product; full window [x.lo+y.lo, x.hi+y.hi] retained, then trimmed."""
    if x.n != y.n:
        raise DimensionMismatch(f"loop dimensions differ: {x.n} vs {y.n}")
    return LaurentLoop(x.lo + y.lo, cauchy(x.coeffs, y.coeffs))


def loop_exp(x: LaurentLoop) -> LaurentLoop:
    """exp(x) by its power series: stack_exp of the stack of one loop."""
    out = stack_exp(copies(x, 1))
    return LaurentLoop(out.lo, out.c[0], trim=False)


def stack_exp(x: Stack) -> Stack:
    """exp of every loop of a Stack by the power series, summed on one array
    for the loops of one own window at once, each row loop_exp of its loop
    bit for bit: it stops at the first term whose Wiener norm is at most
    1e-16 max(1, the partial sum's), SingularLoop when one has not after
    120 terms.  The sums are trimmed once, at the end."""
    groups = {}  # rows by own window
    for row, key in enumerate(zip(x.los.tolist(), x.his.tolist())):
        groups.setdefault(key, []).append(row)
    parts = [part for (a, b), rows in groups.items()
             for part in _exp_series(rows, a, b, x.c[rows, a - x.lo : b - x.lo + 1])]
    return trim_stack(*gather(parts, (len(x.c),), x.c.shape[-1]))


def _exp_series(rows, a, b, c):
    """stack_exp's (rows, lo, sums) for the loops c (B, w, n, n) over [a, b].
    A term, held as [c, (d, i)] = t_d[i, c], is x, then one product of x_j^T / k
    side by side with w copies of the last, copy j shifted j degrees.  All rows
    stop by term K, the first with |x|_W^K / K! < 5e-17; the rule is checked
    only at Frobenius norms within 2e-16 of exp(|x|_W) >= sums."""
    B, w, n = c.shape[0], c.shape[1], c.shape[-1]
    x = c.transpose(0, 3, 1, 2).reshape(B, n, w * n)  # [c', (j, c)] = x_j[c, c']
    K, bound, near = 1, (size := wiener_norms(c).max()), (2e-16 * np.exp(size)) ** 2
    while bound > 5e-17 and K < 120:
        K, bound = K + 1, bound * size / (K + 1)
    lo = min(0, K * a)
    acc = np.zeros((B, n, (max(0, K * b) - lo + 1) * n), dtype=complex)
    acc[:, :, -lo * n : (1 - lo) * n] = np.eye(n)
    term, rows, parts = x, np.asarray(rows), []
    shifted = np.zeros((B, w * n, ((K + 1) * (w - 1) + 1) * n), dtype=complex)
    for k in range(1, K + 1):
        M = k * (w - 1) + 1
        acc[:, :, (k * a - lo) * n : (k * a - lo + M) * n] += term
        flat = term.reshape(len(term), 1, -1).view(float)
        if (flat @ flat.transpose(0, 2, 1)).min() <= near:  # the squared Frobenius norms
            used = acc[:, :, (min(0, k * a) - lo) * n : (max(0, k * b) - lo + 1) * n]
            used = used.reshape(len(term), n, -1, n).transpose(0, 2, 3, 1)
            stop = wiener_norms(term.reshape(len(term), n, M, n).transpose(0, 2, 3, 1)) <= (
                1e-16 * np.maximum(wiener_norms(used), 1.0))
            if stop.any():
                parts.append((rows[stop], min(0, k * a), used[stop]))
                if stop.all():
                    return parts
                rows, x, term, acc, shifted = (v[~stop] for v in (rows, x, term, acc, shifted))
        (s0, s2, s3), copies = shifted.strides, (len(term), w, n, M * n)
        np.ndarray(copies, complex, shifted, 0, (s0, n * (s2 + s3), s2, s3))[...] = term[:, None]
        term = np.matmul(x * (1.0 / (k + 1)), shifted[..., : (M + w - 1) * n])
    raise SingularLoop("loop exponential did not converge; norm too large")


def distance(x: LaurentLoop, y: LaurentLoop) -> float:
    """Wiener-norm distance between two loops."""
    return (x - y).wiener_norm()


def inverses(m):
    """np.linalg.inv of every matrix of a stack (B, n, n) and the rows where
    it is singular (their inverse I)."""
    try:
        return np.linalg.inv(m), []
    except np.linalg.LinAlgError:
        out, singular = np.broadcast_to(np.eye(m.shape[-1]), m.shape).astype(complex), []
        for b in range(len(m)):
            try:
                out[b] = np.linalg.inv(m[b])
            except np.linalg.LinAlgError:
                singular.append(b)
        return out, singular


def forward_substitution(c, N: int):
    """Inverses of the loops I + s of a stack c (B, r + 1, n, n) over the
    degrees [0, r], s strictly positive, truncated to degree N: their
    coefficients over [0, N].  The mirror lambda -> 1/lambda of a stack
    gives the strictly negative side.

    Sums the terminating Neumann series sum_k (-s)^k by block forward
    substitution instead of power by power: x_0 = I and
    x_k = -sum_{j=1..min(k,r)} s_j x_{k-j}, which takes O(N r) block
    products for s of degree r.  The coefficients are exactly those of the
    truncated series.
    """
    B, n, r = c.shape[0], c.shape[-1], c.shape[1] - 1
    # -s_r .. -s_1 side by side, so that one product with x_{k-r} .. x_{k-1}
    # stacked sums the whole recurrence row
    s_row = -c[:, :0:-1].transpose(0, 2, 1, 3).reshape(B, n, r * n)
    x = np.zeros((B, N + 1, n, n), dtype=complex)
    x[:, 0] = np.eye(n)
    for k in range(1, N + 1):
        m = min(k, r)
        x[:, k] = s_row[:, :, (r - m) * n :] @ x[:, k - m : k].reshape(B, m * n, n)
    return x


# largest stack (in scalar entries of its widest intermediate array) that a
# kernel works on at once; bigger stacks are taken in parts of this size
STACK_CHUNK = 1 << 13


def chunks(count, size):
    """Consecutive slices of range(count), `size` long but for the last."""
    size = max(1, int(size))
    return [slice(at, at + size) for at in range(0, count, size)]


def _toeplitz_inverse(lo, coeffs, N):
    """General truncated inverses of a stack at window N: the square
    block-Toeplitz solves of P_[-N,N](g x - I) = 0, their coefficients over
    [-N, N] and each one's in-window residual."""
    B, n = coeffs.shape[0], coeffs.shape[-1]
    width = 2 * N + 1
    # rows: product modes m in [-N, N]; unknown blocks x_j, j in [-N, N]
    gpad = padded(lo, coeffs, -width, width)
    rows = np.arange(-N, N + 1)
    index = (rows[:, None] - rows[None, :]) + width
    rhs = np.zeros((width * n, n), dtype=complex)
    rhs[N * n : (N + 1) * n] = np.eye(n)
    x = np.empty((B, width, n, n), dtype=complex)
    residual = np.empty(B)
    for part in chunks(B, STACK_CHUNK // (width * n) ** 2):
        block = gpad[part][:, index]  # (b, W, W, n, n)
        big = block.transpose(0, 1, 3, 2, 4).reshape(-1, width * n, width * n)
        try:
            sol = np.linalg.solve(big, rhs)
        except np.linalg.LinAlgError:
            sol = np.empty((len(big), width * n, n), dtype=complex)
            for k, system in enumerate(big):
                try:
                    sol[k] = np.linalg.solve(system, rhs)
                except np.linalg.LinAlgError:
                    sol[k] = np.linalg.lstsq(system, rhs, rcond=None)[0]
        x[part] = sol.reshape(-1, width, n, n)
        prod = padded(lo - N, cauchy(coeffs[part], x[part]), -N, N)
        prod[:, N] -= np.eye(n)
        residual[part] = wiener_norms(prod)
    return x, residual


def _neumann_inverse(lo, coeffs, N, los, his):
    """Truncated inverses of normalized one-sided loops of a stack
    (B, W, n, n) with windows [los_b, his_b]: loop b, I + (strictly
    negative) when his_b <= 0 and I + (strictly positive) otherwise, to
    degree N_b on its side (los, his and N lists), by one forward
    substitution over the whole stack, the negative side mirrored.
    Returns (x_lo, x), x over the degrees [-max N, 0], [0, max N] or, when
    both sides occur, [-max N, max N]."""
    top, r = max(N), max(max(his), -min(los))
    minus = [h <= 0 for h in his]
    if all(minus):
        c = degree_slice(lo, coeffs, -r, 0)[1][:, ::-1]
    elif not any(minus):
        c = degree_slice(lo, coeffs, 0, r)[1]
    else:
        c = padded(lo, coeffs, -r, r)
        c = np.where(np.array(minus)[:, None, None, None], c[:, r::-1], c[:, r:])
    x = forward_substitution(c, top)
    for b, Nb in enumerate(N):
        if Nb < top:
            x[b, Nb + 1 :] = 0.0  # each loop to its own window
    if all(minus):
        return -top, x[:, ::-1]
    if not any(minus):
        return 0, x
    minus = np.array(minus)
    out = np.zeros((len(x), 2 * top + 1) + x.shape[2:], dtype=complex)
    out[minus, : top + 1] = x[minus, ::-1]
    out[~minus, top:] = x[~minus]
    return -top, out


def inverse_stack(x: Stack, N):
    """Truncated inverses of the loops of a Stack, loop b to the window
    [-N_b, N_b] (N an integer or one per loop).

    Constant loops are inverted directly, all at once (inverses).
    Normalized one-sided loops I + (strictly negative / strictly positive)
    have a one-sided inverse whose coefficients follow from block forward
    substitution, exactly and without a solve (_neumann_inverse, all of
    them at once); the rest go through a square block-Toeplitz solve of
    P_[-N,N](g x - I) = 0, those at one window together.  Returns (lo, X,
    failures), X untrimmed: failures maps the rows whose inverse is
    singular or leaves an in-window residual above TOL_INVERSE to the
    message of that failure; their rows of X are zero.

    The two paths stay apart on purpose.  On merge's F_plus inverse of a
    17x17 basic pair (289 nodes at windows 4 and 6, one BLAS thread, 15
    interleaved rounds in one process) forward substitution took 1.6 ms
    (quartiles 1.3-1.7) and the block-Toeplitz solves of the same windows
    34 ms (26-37), with equal coefficients.
    """
    lo, coeffs, los, his = x.lo, x.c, x.los.tolist(), x.his.tolist()
    B, n = coeffs.shape[0], coeffs.shape[-1]
    Ns = [int(N)] * B if np.ndim(N) == 0 else np.asarray(N).tolist()
    # one-sided loops are normalized when |c_0 - I| <= 1e-13 max(1, |c_0|),
    # compared in squares
    sided = [b for b, (l, h) in enumerate(zip(los, his)) if (h <= 0 or l >= 0) and (l, h) != (0, 0)]
    unit = set()
    if sided:
        c0 = padded(lo, coeffs if len(sided) == B else coeffs[sided], 0, 0).reshape(-1, n * n)
        size = (np.abs(c0) ** 2).sum(axis=-1)
        c0[:, :: n + 1] -= 1.0
        normalized = (np.abs(c0) ** 2).sum(axis=-1) <= 1e-26 * np.maximum(1.0, size)
        unit = {b for b, ok in zip(sided, normalized.tolist()) if ok}
    groups = {}  # rows by kind: "constant", "one-sided" or a general solve's window
    for b, (l, h, Nb) in enumerate(zip(los, his, Ns)):
        key = "constant" if l == h == 0 else "one-sided" if b in unit else Nb
        groups.setdefault(key, []).append(b)
    parts, failures = [], {}  # parts: (rows, x_lo, x)
    for key, rows in groups.items():
        part = coeffs if len(rows) == B else coeffs[rows]
        if key == "constant":
            inverse, singular = inverses(part[:, -lo])
            x_lo, x = 0, inverse[:, None]
            for k in singular:
                failures[rows[k]] = "constant loop is singular"
        elif key == "one-sided":
            x_lo, x = _neumann_inverse(lo, part, [Ns[b] for b in rows],
                                       [los[b] for b in rows], [his[b] for b in rows])
        else:
            x_lo, (x, residual) = -key, _toeplitz_inverse(lo, part, key)
            for b, r in zip(rows, residual.tolist()):
                if not np.isfinite(r) or r > TOL_INVERSE:
                    failures[b] = f"truncated inverse residual {r:.3e} exceeds {TOL_INVERSE:.1e}"
        parts.append((rows, x_lo, x))
    if len(parts) == 1:  # its rows are all rows
        _, out_lo, out = parts[0]
    else:
        out_lo = min((x_lo for _, x_lo, _ in parts), default=0)
        out_hi = max((x_lo + x.shape[1] - 1 for _, x_lo, x in parts), default=0)
        out = np.zeros((B, out_hi - out_lo + 1, n, n), dtype=complex)
        for rows, x_lo, x in parts:
            out[rows, x_lo - out_lo : x_lo - out_lo + x.shape[1]] = x
    if failures:
        out[list(failures)] = 0.0
    return out_lo, out, failures


def truncated_inverse(g, N):
    """Inverse truncated to the window [-N, N] (see inverse_stack).

    g is a LaurentLoop, a Stack, or a sampled field (anything with a node
    mask and an info dict, such as a FrameField) whose unmasked loops are
    inverted together; N is an integer, or one per loop of a Stack, or an
    integer array over a field's grid.  An inverse fails when its in-window
    residual exceeds TOL_INVERSE: a loop raises SingularLoop; a Stack gives
    (the inverses as a Stack, {row: message}), a failed row zero; a field
    masks such nodes and records why, after the failures its info already
    names.
    """
    if isinstance(g, LaurentLoop):
        lo, x, failures = inverse_stack(copies(g, 1), N)
        if failures:
            raise SingularLoop(failures[0])
        return LaurentLoop(lo, x[0])
    if isinstance(g, Stack):
        lo, x, failures = inverse_stack(g, N)
        return trim_stack(lo, x), failures
    N = np.asarray(N)
    lo, x, failures = inverse_stack(node_stack(g, g.mask), N[g.mask] if N.ndim else N)
    return on_nodes(g, g.mask, lo, x, failures)


def on_nodes(F, mask, lo, coeffs, failures=None, **info):
    """A copy of the sampled field F holding the loops of the stack coeffs,
    one per node of mask in row-major order, and nothing elsewhere.

    failures maps stack rows to the failure of a node, its message or its
    exception: those nodes are masked, and their messages recorded after
    the failures F's info already names.  Other keyword arguments are
    stored in the info, which starts with nothing else; the shared window
    is cut to the union of the windows of the loops kept.
    """
    failures = failures or {}
    nodes = np.argwhere(mask)
    ok = np.ones(len(nodes), dtype=bool)
    ok[list(failures)] = False
    keep = np.zeros_like(mask)
    keep[tuple(nodes[ok].T)] = True
    kept = coeffs if ok.all() else coeffs[ok]
    los, his = stack_windows(lo, kept)
    w_lo, w_hi = (int(los.min()), int(his.max())) if len(kept) else (0, 0)
    full = np.zeros(mask.shape + (w_hi - w_lo + 1,) + coeffs.shape[-2:], dtype=complex)
    if lo <= w_lo and w_hi < lo + coeffs.shape[-3]:
        full[keep] = kept[:, w_lo - lo : w_hi - lo + 1]
    else:
        full[keep] = padded(lo, kept, w_lo, w_hi)
    if not ((los == w_lo).all() and (his == w_hi).all()):
        # zero each node outside its own window, in place
        node_lo, node_hi = np.zeros(mask.shape, dtype=int), np.zeros(mask.shape, dtype=int)
        node_lo[keep], node_hi[keep] = los, his
        degs = np.arange(w_lo, w_hi + 1)
        full[(degs < node_lo[..., None]) | (degs > node_hi[..., None])] = 0.0
    named = dict(F.info.get("failures", {}))
    named.update({(int(nodes[b][0]), int(nodes[b][1])): str(msg)
                  for b, msg in sorted(failures.items())})
    return replace(F, lo=w_lo, coeffs=full, mask=keep, info={"failures": named, **info})


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
