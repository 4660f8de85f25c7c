"""Coefficientwise loop-group involutions and the sphere/hyperbolic bridge.

Conventions, for a loop g = sum g_j lambda^j of dimension n + k + 1:

  sigma:  g_j -> (-1)^j P g_j P,   P = diag(I_n, -I_{k+1})      (first kind)
  tau:    g_j -> Q g_{-j} Q,       Q = diag(I_{n+1}, -I_k)      (second kind)
  R1:     g_j -> (-1)^j conj(g_j)          real on i R*         (first kind)
  R2:     g_j -> conj(g_j)                 real on R*           (first kind)
  Rm1:    g_j -> conj(g_{-j})              real on S^1          (second kind)
  Rm2:    g_j -> (-1)^j conj(g_{-j})                            (second kind)
  Rhat1:  tau o Rm1 = g_j -> Q conj(g_j) Q                      (first kind)
  Rhat2:  tau o Rm2 = g_j -> (-1)^j Q conj(g_j) Q               (first kind)

P and Q are involutive and commute, so all of the above are order two and
sigma commutes with each of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .loops import GroupSpec, LaurentLoop, Stack, mirror_stack

REALITY_TAGS = ("R1", "R2", "Rm1", "Rm2", "Rhat1", "Rhat2")


@dataclass(frozen=True)
class SymmetrySpec:
    """Block sizes and reality tag for the twisted subgroup in play.

    n is the tangent block size, k the normal codimension (defaults to n - 1,
    the smallest codimension for which the construction applies); matrices
    are (n + k + 1) square.  sigma is of order 2.
    """

    n: int
    k: int = -1
    reality: str | None = None

    def __post_init__(self):
        if self.k < 0:
            object.__setattr__(self, "k", self.n - 1)
        if self.reality is not None and self.reality not in REALITY_TAGS:
            raise ValueError(f"unknown reality tag {self.reality!r}")

    @property
    def dim(self) -> int:
        return self.n + self.k + 1

    @property
    def sigma_matrix(self):
        d = np.ones(self.dim)
        d[self.n :] = -1.0
        return np.diag(d)

    @property
    def tau_matrix(self):
        d = np.ones(self.dim)
        d[self.n + 1 :] = -1.0
        return np.diag(d)

    @property
    def phi_matrix(self):
        """diag(i I_n, 1, i I_k), the conjugation realizing the group bridge."""
        d = np.full(self.dim, 1j, dtype=complex)
        d[self.n] = 1.0
        return np.diag(d)

    def with_reality(self, tag) -> "SymmetrySpec":
        return SymmetrySpec(self.n, self.k, tag)

    def group(self, kind) -> GroupSpec:
        return GroupSpec(kind, self.n, self.k)


def _check_dim(g: LaurentLoop, s: SymmetrySpec):
    if g.n != s.dim:
        raise DimensionMismatch(f"loop dim {g.n} vs symmetry dim {s.dim}")


def _alternate(coeffs, lo):
    signs = (-1.0) ** (lo + np.arange(coeffs.shape[-3]))
    return coeffs * signs[:, None, None]


def _conjugated(coeffs, d):
    """coeffs conjugated by diag(d), d a +-1 vector: exact."""
    return coeffs * (d[:, None] * d[None, :])


def _coefficients(g, s: SymmetrySpec):
    """The coefficient array of a loop or of a Stack, of dimension s.dim."""
    c = g.c if isinstance(g, Stack) else g.coeffs
    if c.shape[-1] != s.dim:
        raise DimensionMismatch(f"loop dim {c.shape[-1]} vs symmetry dim {s.dim}")
    return c


def apply_sigma(g, s: SymmetrySpec):
    """sigma of a loop, or of every loop of a Stack."""
    c = _alternate(_conjugated(_coefficients(g, s), np.diag(s.sigma_matrix)), g.lo)
    return g._replace(c=c) if isinstance(g, Stack) else LaurentLoop(g.lo, c)


def apply_tau(g, s: SymmetrySpec):
    """tau of a loop, or of every loop of a Stack: coefficients reversed
    and conjugated by Q."""
    lo, c = mirror_stack(g.lo, _coefficients(g, s))
    c = _conjugated(c, np.diag(s.tau_matrix))
    return Stack(lo, c, -g.his, -g.los) if isinstance(g, Stack) else LaurentLoop(lo, c)


def tau_constant(a, s: SymmetrySpec):
    """The constant-group involution Q a Q^{-1} (tau restricted to constants)."""
    Q = s.tau_matrix
    return Q @ np.asarray(a, dtype=complex) @ Q


def apply_reality(g: LaurentLoop, which, s: SymmetrySpec | None = None) -> LaurentLoop:
    """Apply one of the anti-linear involutions by its tag."""
    if which not in REALITY_TAGS:
        raise ValueError(f"unknown reality tag {which!r}")
    c = np.conj(g.coeffs)
    if which == "R1":
        return LaurentLoop(g.lo, _alternate(c, g.lo))
    if which == "R2":
        return LaurentLoop(g.lo, c)
    if which in ("Rm1", "Rm2"):
        lo, c = mirror_stack(g.lo, c)
        return LaurentLoop(lo, c if which == "Rm1" else _alternate(c, lo))
    if s is None:
        raise ValueError(f"{which} needs a SymmetrySpec for its Q conjugation")
    _check_dim(g, s)
    c = _conjugated(c, np.diag(s.tau_matrix))
    if which == "Rhat2":
        c = _alternate(c, g.lo)
    return LaurentLoop(g.lo, c)


def apply_involution(g: LaurentLoop, tags, s: SymmetrySpec) -> LaurentLoop:
    """Apply a composite involution given as tags applied right-to-left.

    A single string is treated as a one-element composite.  Recognized tags:
    "sigma", "tau", and the reality tags.
    """
    if isinstance(tags, str):
        tags = (tags,)
    out = g
    for tag in reversed(tags):
        if tag == "sigma":
            out = apply_sigma(out, s)
        elif tag == "tau":
            out = apply_tau(out, s)
        else:
            out = apply_reality(out, tag, s)
    return out


def fixed_residual(g: LaurentLoop, involutions, s: SymmetrySpec) -> float:
    """max over the requested involutions of ||g - involution(g)||_Wiener.

    Each entry of `involutions` is a tag or a tuple of tags (a composite).
    """
    if isinstance(involutions, str):
        involutions = (involutions,)
    worst = 0.0
    for tags in involutions:
        worst = max(worst, (g - apply_involution(g, tags, s)).wiener_norm())
    return worst


def phi_scale(direction, s: SymmetrySpec):
    """The entrywise factors of conjugation by T = diag(i I_n, 1, i I_k)
    ("sphere_to_hyperbolic") or by its inverse ("hyperbolic_to_sphere")."""
    t = np.diag(s.phi_matrix)
    if direction == "sphere_to_hyperbolic":
        return t[:, None] / t[None, :]
    if direction == "hyperbolic_to_sphere":
        return t[None, :] / t[:, None]
    raise ValueError(f"unknown direction {direction!r}")


def phi_map(g: LaurentLoop, direction, s: SymmetrySpec) -> LaurentLoop:
    """Conjugation by T = diag(i I_n, 1, i I_k), or its inverse.

    direction "sphere_to_hyperbolic" maps orthogonal-membership loops to
    Lorentz-membership loops; "hyperbolic_to_sphere" is the inverse.  Exactly
    a homomorphism in either direction.
    """
    _check_dim(g, s)
    return LaurentLoop(g.lo, g.coeffs * phi_scale(direction, s))
