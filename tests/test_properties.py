"""Invariants of the truncated solves, of the constant solve and of the
sampled-field arrays, checked on random inputs.

Hypothesis runs derandomized and without an example database, so the suite
draws the same examples on every run.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import LinAlgWarning, expm, get_lapack_funcs, lu_factor, lu_solve, sqrtm

from loopsplit import (
    ConnectionForm,
    FrameField,
    Grid2D,
    GroupSpec,
    LaurentLoop,
    IwasawaResult,
    SymmetrySpec,
    apply_tau,
    birkhoff_left,
    birkhoff_right,
    constant,
    distance,
    extract_immersion,
    field_distance,
    from_terms,
    gauge_parallel,
    identity,
    integrate_potential,
    loop_exp,
    maurer_cartan,
    mc_residual,
    merge,
    mul,
    phi_map,
    solve_constant_tau,
    split,
    tau_iwasawa,
    tau_merge,
    truncated_inverse,
)
from loopsplit.errors import ILL_CONDITIONED, BigCellViolation, NotInIwasawaCell, SingularLoop
from loopsplit.factorization import (
    CONDITION_LIMIT,
    MAX_SYSTEM_ORDER,
    ROUNDOFF_FLOOR,
    START_PAD,
    TOL_CONST_PRE,
    TOL_IWASAWA,
    _adaptive_window,
)
from loopsplit.fields import _MID_CENTER, _MID_LEFT, _MID_RIGHT, _times_constant, grid_derivative
from loopsplit.generators import (
    random_basic_pair,
    random_flat_field,
    random_matrix,
    random_minus_unipotent,
    random_skew,
    random_tau_instance,
    rng_for,
)
from loopsplit.loops import (
    TOL_TRIM,
    fnorm,
    gather,
    mirror_stack,
    stack_distance,
    stack_mul,
    stack_wiener,
    trim_stack,
)
from loopsplit.spaceforms import phi_field
from loopsplit.symmetry import apply_sigma, tau_constant

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def one_sided_unit_loop(seed, n, depth, decay, side):
    """I + s with s of the given depth on one side; the spectral norms of
    s sum to less than 1, so the inverse series converges."""
    g = random_minus_unipotent(rng_for(seed), n, depth=depth, scale=0.3, decay=decay)
    return g if side == "minus" else g.mirror()


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), depth=st.integers(1, 5),
       decay=st.floats(0.05, 0.6), N=st.integers(1, 30),
       side=st.sampled_from(["minus", "plus"]))
def test_forward_substitution_matches_toeplitz_solve(seed, n, depth, decay, N, side):
    g = one_sided_unit_loop(seed, n, depth, decay, side)
    exact = truncated_inverse(g, N)
    # 2g is not normalized, so it takes the general block-Toeplitz solve;
    # that section is block triangular here and so exact as well
    general = 2.0 * truncated_inverse(2.0 * g, N)
    assert distance(exact, general) <= 1e-12
    assert (exact.hi <= 0) if side == "minus" else (exact.lo >= 0)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), depth=st.integers(1, 4),
       top=st.integers(1, 4), scale=st.floats(0.05, 0.4), decay=st.floats(0.1, 0.7))
def test_adaptive_birkhoff_matches_wide_window(seed, n, depth, top, scale, decay):
    rng = rng_for(seed)
    gm = random_minus_unipotent(rng, n, depth=depth, scale=scale, decay=decay)
    terms = {d: (scale * decay ** d) * random_matrix(rng, n) / n for d in range(top + 1)}
    terms[0] = terms[0] + np.eye(n)
    g = mul(gm, from_terms(terms))
    adaptive = birkhoff_left(g)
    wide = birkhoff_left(g, N=60)
    assert distance(adaptive.minus, wide.minus) <= 1e-12
    assert distance(adaptive.plus, wide.plus) <= 1e-12


# -- the constant solve ---------------------------------------------------------

# float draws almost never land a -1 eigenvalue on the middle term, so the
# eighth turns that can are drawn on purpose; an example takes a few
# milliseconds, so these tests draw more of them
ANGLE = st.one_of(st.sampled_from([np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi]),
                  st.floats(0.0, np.pi))
REALITIES = st.sampled_from([None, "R2", "Rm1", "Rhat1"])
CONSTANT_SETTINGS = settings(SETTINGS, max_examples=200)


def plane_turn(s, b, plane, angle):
    """exp(angle X) and its inverse for the generator X of a coordinate plane
    in the group of the form diag(b); under Rhat1, X is multiplied by i
    across the Q split, so that its exponentials are Rhat1-real."""
    i, j = plane
    q = np.diag(s.tau_matrix)
    rhat = s.reality == "Rhat1" and q[i] != q[j]
    X = np.zeros((s.dim, s.dim), dtype=complex if rhat else float)
    X[i, j] = 1j if rhat else 1.0
    X[j, i] = -b[i] * b[j] * X[i, j]
    return expm(angle * X), expm(-angle * X)


def middle_term(s, factors):
    """(a, blocks): a = k0^{-1} tau(k0) for k0 the product of the given
    (f, f^{-1}), and whether k0 keeps the sigma blocks, so that a solution
    inside them is known to exist.  a may commute with P while none does:
    a = diag(-1, 1, -1) from k0 = R_02(pi/2) at n = k = 1 is solved only
    across the blocks."""
    k0 = k0_inv = np.eye(s.dim)
    for f, f_inv in factors:
        k0, k0_inv = k0 @ f, f_inv @ k0_inv
    return k0_inv @ tau_constant(k0, s), commutes(k0, s.sigma_matrix)


def commutes(x, P):
    return np.linalg.norm(x @ P - P @ x) <= 1e-10 * max(1.0, np.linalg.norm(x))


def assert_constant_solve(a, blocks, s, b=None, **kw):
    """The defect of k = solve_constant_tau(a, s, **kw), and that k keeps the
    form diag(b) and the reality of a, and its sigma blocks where blocks
    says a solution inside them exists (see middle_term).  A middle term
    whose rounding alone already breaks tau(a) a = I beyond the
    precondition must be rejected with that residual instead."""
    Q, P = s.tau_matrix, s.sigma_matrix
    norm = np.linalg.norm
    pre = norm(tau_constant(a, s) @ a - np.eye(s.dim))
    if pre > 10 * TOL_CONST_PRE * max(1.0, norm(a)):
        with pytest.raises(NotInIwasawaCell) as info:
            solve_constant_tau(a, s, **kw)
        assert info.value.residual == pytest.approx(pre)
        return
    k = solve_constant_tau(a, s, **kw)
    assert norm(np.linalg.inv(k) @ Q @ k @ Q - a) <= 1e-9 * max(1.0, norm(a))
    scale = max(1.0, norm(k))
    if b is not None:
        assert norm(k.T @ np.diag(b) @ k - np.diag(b)) <= 1e-9 * scale ** 2
    if s.reality == "Rhat1":
        assert norm(Q @ k.conj() @ Q - k) <= 1e-9 * scale
    elif not np.any(np.imag(a)):
        assert norm(k.imag) <= 1e-9 * scale
    if blocks:
        assert norm(k @ P - P @ k) <= 1e-9 * scale


@CONSTANT_SETTINGS
@given(n=st.integers(1, 3), k=st.integers(1, 2), reality=REALITIES,
       turns=st.lists(st.tuples(st.integers(0, 63), ANGLE), min_size=1, max_size=3))
def test_constant_solve_sigma_block_rotations(n, k, reality, turns):
    # orthogonal form, detected; under Rhat1 the planes across the Q split
    # turn hyperbolic
    s = SymmetrySpec(n, k, reality)
    b = np.ones(s.dim)
    p = np.diag(s.sigma_matrix)
    planes = [(i, j) for i in range(s.dim) for j in range(i + 1, s.dim) if p[i] == p[j]]
    a, blocks = middle_term(s, [plane_turn(s, b, planes[t % len(planes)], angle)
                                for t, angle in turns])
    assert_constant_solve(a, blocks, s, b)


@CONSTANT_SETTINGS
@given(n=st.integers(1, 3), k=st.integers(1, 2), reality=REALITIES,
       rotation=st.integers(0, 63), boost=st.integers(0, 63), angle=ANGLE,
       rapidity=st.floats(0.0, np.pi))
def test_constant_solve_lorentz_rotation_boost(n, k, reality, rotation, boost, angle,
                                               rapidity):
    s = SymmetrySpec(n, k, reality)
    b = np.ones(s.dim)
    b[n] = -1.0
    planes = [(i, j) for i in range(s.dim) for j in range(i + 1, s.dim)]
    rotations = [pl for pl in planes if n not in pl]
    boosts = [pl for pl in planes if n in pl]
    a, blocks = middle_term(s, [plane_turn(s, b, rotations[rotation % len(rotations)], angle),
                                plane_turn(s, b, boosts[boost % len(boosts)], rapidity)])
    assert_constant_solve(a, blocks, s, b, form="lorentz")


@CONSTANT_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), k=st.integers(1, 2),
       reality=REALITIES, scale=st.floats(0.0, 1.5),
       turns=st.lists(st.tuples(st.integers(0, 63), ANGLE), max_size=2))
def test_constant_solve_general_group(seed, n, k, reality, scale, turns):
    # k0 = (coordinate rotations) exp(scale Z): Z complex without a reality,
    # real under R2 and Rm1, and W-conjugated to Rhat1-real under Rhat1
    s = SymmetrySpec(n, k, reality)
    rng = rng_for(seed)
    Z = rng.standard_normal((s.dim, s.dim))
    if reality is None:
        Z = Z + 1j * rng.standard_normal((s.dim, s.dim))
    elif reality == "Rhat1":
        w = np.where(np.diag(s.tau_matrix) > 0, 1.0, 1j)
        Z = w[:, None] * Z / w[None, :]
    planes = [(i, j) for i in range(s.dim) for j in range(i + 1, s.dim)]
    factors = [plane_turn(s, np.ones(s.dim), planes[t % len(planes)], angle)
               for t, angle in turns]
    a, blocks = middle_term(s, factors + [(expm(scale * Z), expm(-scale * Z))])
    assert_constant_solve(a, blocks, s, group="general")


# -- sampled fields -------------------------------------------------------------


def random_node_loops(seed, nu, nv, n, keep, real=False):
    """{(i, j): loop} on a random subset of the nodes (each kept with
    probability `keep`), every loop on its own random window with
    coefficients of random magnitude."""
    rng = rng_for(seed)
    loops = {}
    for i in range(nu):
        for j in range(nv):
            if rng.uniform() >= keep:
                continue
            lo = int(rng.integers(-3, 3))
            width = int(rng.integers(1, 5))
            loops[i, j] = from_terms(
                {d: 10.0 ** rng.uniform(-3, 1) * random_matrix(rng, n, real=real)
                 for d in range(lo, lo + width)}, n=n)
    return loops


def assert_same_loop(got, ref):
    assert got.window == ref.window
    assert np.array_equal(got.coeffs, ref.coeffs)


def reference_derivative(table, mask, i, j, axis, h):
    """The per-node finite difference the field arrays replaced: central
    inside, one-sided at edges, retreating from masked neighbours; None when
    no stencil of valid nodes exists."""
    size = mask.shape[axis]
    pos = i if axis == 0 else j

    def val(t):
        return table[t][j] if axis == 0 else table[i][t]

    def ok(t):
        return mask[t, j] if axis == 0 else mask[i, t]

    if pos == 0:
        idxs, wts = (0, 1, 2), (-1.5, 2.0, -0.5)
    elif pos == size - 1:
        idxs, wts = (size - 3, size - 2, size - 1), (0.5, -2.0, 1.5)
    else:
        idxs, wts = (pos - 1, pos + 1), (-0.5, 0.5)
    if not all(ok(t) for t in idxs):
        if pos > 1 and all(ok(t) for t in (pos - 2, pos - 1, pos)):
            idxs, wts = (pos - 2, pos - 1, pos), (0.5, -2.0, 1.5)
        elif pos < size - 2 and all(ok(t) for t in (pos, pos + 1, pos + 2)):
            idxs, wts = (pos, pos + 1, pos + 2), (-1.5, 2.0, -0.5)
        else:
            return None
    terms = [(w / h) * val(t) for t, w in zip(idxs, wts)]
    return sum(terms[1:], terms[0])


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(3, 7), nv=st.integers(3, 7),
       n=st.integers(1, 3), keep=st.floats(0.3, 1.0), h=st.floats(0.01, 1.0))
def test_grid_derivative_matches_per_node_reference(seed, nu, nv, n, keep, h):
    loops = random_node_loops(seed, nu, nv, n, keep)
    grid = Grid2D.from_spacing(0.0, h, nu, 0.0, h, nv)
    F = FrameField.from_loops(grid, loops, n=n)
    table = [[loops.get((i, j)) for j in range(nv)] for i in range(nu)]
    for axis in (0, 1):
        deriv, ok = grid_derivative(F.coeffs, F.mask, h, axis)
        for i, j in grid.nodes():
            ref = reference_derivative(table, F.mask, i, j, axis, h) \
                if F.mask[i, j] else None
            assert ok[i, j] == (ref is not None)
            if ref is not None:
                got = LaurentLoop(F.lo, deriv[i, j])
                assert distance(got, ref) <= 1e-12 * max(ref.wiener_norm(), 1e-300)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(1, 6), nv=st.integers(1, 6),
       n=st.integers(1, 4), keep=st.floats(0.0, 1.0))
def test_packing_returns_each_node_loop(seed, nu, nv, n, keep):
    loops = random_node_loops(seed, nu, nv, n, keep)
    grid = Grid2D.from_spacing(0.0, 0.1, nu, 0.0, 0.1, nv)
    form_loops = {(i, j, d): g for (i, j), g in loops.items() for d in (0, 1)}
    for packed, given_loops in ((FrameField.from_loops(grid, loops, n=n), loops),
                                (ConnectionForm.from_loops(grid, form_loops, n=n),
                                 form_loops)):
        back = packed.loops()
        assert back.keys() == given_loops.keys()
        for key, g in given_loops.items():
            assert back[key].window == g.window
            assert np.array_equal(back[key].coeffs, g.coeffs)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), count=st.integers(1, 6))
def test_own_window_stack_arithmetic_matches_lone_loops(seed, n, count):
    # Stacks keep each loop's own window: products, Wiener norms, distances,
    # tau, sigma and the mirror give every loop, bit for bit, what
    # LaurentLoop and symmetry arithmetic give it alone, however wide the
    # window the stack shares
    loops = list(random_node_loops(seed, 2, count, n, 1.0).values())
    xs, ys = loops[:count], loops[count:]

    def stack(gs):
        return trim_stack(*gather([(b, g.lo, g.coeffs) for b, g in enumerate(gs)], (len(gs),), n))

    def assert_rows(x, refs):
        for k, ref in enumerate(refs):
            assert_same_loop(LaurentLoop(x.lo, x.c[k]), ref)
            assert (x.los[k], x.his[k]) == ref.window

    x, y = stack(xs), stack(ys)
    prod = stack_mul(x, y)
    assert_rows(prod, [mul(a, b) for a, b in zip(xs, ys)])
    assert stack_wiener(prod).tolist() == [mul(a, b).wiener_norm() for a, b in zip(xs, ys)]
    assert stack_distance(prod, x).tolist() == [distance(mul(a, b), a) for a, b in zip(xs, ys)]
    m_lo, m = mirror_stack(x.lo, x.c)
    for k, g in enumerate(xs):
        assert_same_loop(LaurentLoop(m_lo, m[k]), g.mirror())
    if n >= 2:
        s = SymmetrySpec(n // 2, n - 1 - n // 2)
        assert_rows(apply_tau(x, s), [apply_tau(g, s) for g in xs])
        assert_rows(apply_sigma(x, s), [apply_sigma(g, s) for g in xs])


# -- splitting ------------------------------------------------------------------


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), nu=st.integers(3, 5),
       nv=st.integers(3, 5), scale=st.floats(0.05, 0.4))
def test_merge_split_round_trip(seed, n, nu, nv, scale):
    # criterion 4 on random dimensions and grid sizes, with its bounds
    grid = Grid2D.centered(0.5, nu, 0.5, nv)
    gm, fp = random_basic_pair(rng_for(seed), grid, n=n, scale=scale)
    F = merge(gm, fp)
    assert F.mask.all(), F.info["failures"]
    g2, f2 = split(F)
    assert g2.mask.all(), g2.info["failures"]
    assert field_distance(merge(g2, f2), F) <= 1e-7
    assert max(field_distance(g2, gm), field_distance(f2, fp)) <= 1e-7


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(3, 5), nv=st.integers(3, 5),
       keep=st.floats(0.0, 1.0),
       case=st.sampled_from([("general", None), ("orthogonal", "R1"), ("lorentz", "R2")]))
def test_tau_merge_nodes_are_independent(seed, nu, nv, keep, case):
    # each node's gauge is fixed by its own factor, so masking other nodes,
    # the base node among them, leaves a node's output bit for bit as it was
    rng = rng_for(seed)
    grid = Grid2D.centered(0.4, nu, 0.4, nv)
    kind, reality = case
    if reality is None:
        _, F = random_basic_pair(rng, grid)
    else:
        F = random_flat_field(rng, grid, reality, GroupSpec(kind, 2, 1))
    s = SymmetrySpec(2, 1, reality)
    group = "general" if reality is None else "auto"
    mask = rng.uniform(size=grid.shape) < keep
    whole = tau_merge(F, s, constant_group=group)
    part = tau_merge(replace(F, mask=mask), s, constant_group=group)
    assert whole.mask.all(), whole.info["failures"]
    assert np.array_equal(part.mask, mask)
    for node in zip(*np.nonzero(mask)):
        assert_same_loop(part.value(*node), whole.value(*node))


# -- tau-Iwasawa against the per-loop code the stack kernel replaced ----------


def reference_decay_window(x):
    """Smallest N such that degrees outside [-N, N] carry no more than the
    round-off floor of x's Wiener norm."""
    norms = np.linalg.norm(x.coeffs.reshape(x.coeffs.shape[0], -1), axis=1)
    reach = np.abs(np.arange(x.lo, x.hi + 1))
    by_reach = np.zeros(x.radius + 2)
    np.add.at(by_reach, reach, norms)
    outside = np.cumsum(by_reach[::-1])[::-1][1:]   # outside[N] = mass beyond N
    return int(np.argmax(outside <= ROUNDOFF_FLOOR * norms.sum()))


def reference_tau_iwasawa_at(x, s, N, tol, constant_group, form):
    """One window of the per-loop tau-Iwasawa, in LaurentLoop arithmetic:
    the result, or the failure a wider window may repair.  A singular
    inverse of x and a structural failure of the constant solve raise, and
    so does a BigCellViolation."""
    xi = truncated_inverse(x, N)
    w = mul(xi, apply_tau(x, s))
    right = birkhoff_right(w, N=max(N, w.radius), tol=tol)
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
        return exc
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
        return BigCellViolation(
            "tau-Iwasawa postconditions failed: "
            f"reconstruction {residuals['reconstruction']:.3e}, "
            f"tau-fixedness {residuals['tau_fixed']:.3e}",
            residual=result.residual, condition=right.condition)
    return result


def reference_tau_iwasawa(x, s, N=None, tol=TOL_IWASAWA, constant_group="auto", form=None):
    """tau_iwasawa of one loop as the per-loop code computed it before the
    stack kernel: LaurentLoop products, distances and inverses, one window
    at a time, a failure no window repairs raised at once."""
    start = reference_decay_window(x) + START_PAD if N is None else N
    limit = start if N is not None else max(start, MAX_SYSTEM_ORDER // (2 * x.n))

    def attempt(w, rows):
        try:
            return [reference_tau_iwasawa_at(x, s, w, tol, constant_group, form)]
        except BigCellViolation as exc:
            return [exc]

    outcome, = _adaptive_window(attempt, [start], [limit], [x.wiener_norm()])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def reference_tau_iwasawa_minus(x, s, **kw):
    res = reference_tau_iwasawa(x.mirror(), s, **kw)
    return IwasawaResult(z=res.z.mirror(), y_plus=res.y_plus.mirror(),
                         k_const=res.k_const, residuals=res.residuals)


def assert_near_loop(got, ref):
    """Equal windows, coefficients within 1e-14 of the reference's scale."""
    assert got.window == ref.window
    assert np.abs(got.coeffs - ref.coeffs).max() <= 1e-14 * max(1.0, np.abs(ref.coeffs).max())


def reference_gauge_factor(m, b_signs, tol):
    """The per-node polar factor tau_merge's gauge stack replaced."""
    if np.linalg.cond(m) > CONDITION_LIMIT:
        raise NotInIwasawaCell("degree-0 coefficient of the tau-fixed factor is singular")
    if b_signs is None:
        return m
    square = (b_signs[:, None] * m.T * b_signs[None, :]) @ m
    reach = tol * max(1.0, np.linalg.norm(square))
    eig = np.linalg.eigvals(square)
    if np.any((eig.real <= reach) & (np.abs(eig.imag) <= reach)):
        raise NotInIwasawaCell("B z_0^T B z_0 has an eigenvalue on the cut (-inf, 0]; "
                               "the gauge has no polar factor")
    return np.linalg.solve(sqrtm(square).T, m.T).T


def reference_tau_merge(F_plus, s, constant_group):
    """tau_merge node by node, as before the stack kernel: one per-loop
    tau-Iwasawa factorization and one polar factor per node."""
    form = F_plus.target.kind if F_plus.target is not None else None
    b_signs = None
    if constant_group != "general":
        b_signs = np.ones(F_plus.dim)
        if form == "lorentz":
            b_signs[s.n] = -1.0
    vals, gauges = {}, np.zeros(F_plus.grid.shape + (F_plus.dim,) * 2, dtype=complex)
    residuals, failures = {}, dict(F_plus.info.get("failures", {}))
    for node in zip(*np.nonzero(F_plus.mask)):
        node = (int(node[0]), int(node[1]))
        try:
            res = reference_tau_iwasawa_minus(F_plus.value(*node), s,
                                              constant_group=constant_group, form=form)
            gauges[node] = np.linalg.inv(reference_gauge_factor(res.z.coeff(0), b_signs,
                                                                TOL_IWASAWA))
        except (BigCellViolation, SingularLoop, NotInIwasawaCell) as exc:
            failures[node] = str(exc)
            continue
        vals[node] = res.z
        residuals[node] = res.residual
    residual = np.full(F_plus.grid.shape, np.nan)
    for node, r in residuals.items():
        residual[node] = r
    info = {"failures": failures, "diagnostics": {"residual": residual}}
    out = FrameField.from_loops(F_plus.grid, vals, n=F_plus.dim, symmetry=s,
                                target=F_plus.target, info=info)
    return _times_constant(out, gauges)


def off_cell_loop(n):
    """diag(lambda, 1/lambda, 1, ...): partial indices (1, -1, 0, ...)."""
    return from_terms({1: np.diag([1.0] + [0.0] * (n - 1)),
                       -1: np.diag([0.0, 1.0] + [0.0] * (n - 2)),
                       0: np.diag([0.0, 0.0] + [1.0] * (n - 2))})


def gaugeless_loop(s, kind):
    """A node whose gauge has no polar factor: in GL a tau-fixed rotation by
    the angle of lambda in the (e_0, e_last) plane, whose degree-0
    coefficient is singular; under the Lorentz form a swap of the timelike
    axis e_n with e_1, on the cut.  The rotation under the plain form."""
    n = s.dim
    if kind == "lorentz":
        swap = list(range(n))
        swap[1], swap[s.n] = s.n, 1
        return constant(np.eye(n)[swap])
    c, d = np.zeros((n, n), dtype=complex), np.eye(n, dtype=complex)
    c[0, 0] = c[-1, -1] = 0.5
    c[0, -1], c[-1, 0] = -0.5j, 0.5j
    d[0, 0] = d[-1, -1] = 0.0
    return from_terms({1: c, 0: d, -1: c.conj()})


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(3, 5), nv=st.integers(3, 5),
       keep=st.floats(0.0, 1.0), odd_nodes=st.booleans(), k=st.integers(1, 2),
       case=st.sampled_from([("general", None), ("orthogonal", "R1"), ("lorentz", "R2")]))
def test_tau_merge_matches_per_node_reference(seed, nu, nv, keep, odd_nodes, k, case):
    # the stack kernel against the node loop it replaced, on masks that
    # may drop the base, with an off-cell node and a node without gauge
    rng = rng_for(seed)
    grid = Grid2D.centered(0.4, nu, 0.4, nv)
    kind, reality = case
    if reality is None:
        _, F = random_basic_pair(rng, grid, n=3 + k)
    else:
        F = random_flat_field(rng, grid, reality, GroupSpec(kind, 2, k))
    s = SymmetrySpec(2, k, reality)
    group = "general" if reality is None else "auto"
    if odd_nodes:
        loops = F.loops()
        loops[1, 2] = off_cell_loop(s.dim)
        loops[nu - 1, 0] = gaugeless_loop(s, kind)
        F = FrameField.from_loops(grid, loops, n=s.dim, symmetry=F.symmetry, target=F.target)
    F = replace(F, mask=rng.uniform(size=grid.shape) < keep)
    got = tau_merge(F, s, constant_group=group)
    ref = reference_tau_merge(F, s, group)
    assert np.array_equal(got.mask, ref.mask)
    assert list(got.info["failures"]) == list(ref.info["failures"])
    if odd_nodes and F.mask[1, 2]:
        assert not got.mask[1, 2]
    residual, condition = got.info["diagnostics"]["residual"], got.info["diagnostics"]["condition"]
    ref_residual = ref.info["diagnostics"]["residual"]
    assert np.array_equal(np.isnan(residual), np.isnan(ref_residual))
    assert np.array_equal(np.isnan(condition), np.isnan(ref_residual))
    for node in zip(*np.nonzero(~np.isnan(ref_residual))):
        # a node's inner Birkhoff residual is summed over the windows its
        # stack shares, so it may differ in the last bit
        assert residual[node] == pytest.approx(ref_residual[node], rel=1e-14)
        assert condition[node] >= 1.0
        assert_near_loop(got.value(*node), ref.value(*node))


@settings(SETTINGS, max_examples=120)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 2),
       N=st.one_of(st.none(), st.integers(2, 14)),
       case=st.sampled_from(["instance", ("general", None), ("orthogonal", "R1"),
                             ("lorentz", "R2"), "off_cell", "gaugeless"]))
def test_tau_iwasawa_matches_per_loop_reference(seed, k, N, case):
    # a lone loop runs through the stack kernel as a stack of one: it gets
    # the factors, residuals and failures of the per-loop code, at drawn
    # windows and at the residual-driven one
    rng = rng_for(seed)
    s = SymmetrySpec(2, k)
    group, form = "general", None
    if case == "instance":
        x = random_tau_instance(rng, s, scale=float(rng.uniform(0.05, 0.4)))[0]
    elif case == "off_cell":
        x = off_cell_loop(s.dim)
    elif case == "gaugeless":
        x = gaugeless_loop(s, "general")
    else:
        grid = Grid2D.centered(0.4, 3, 0.4, 3)
        kind, reality = case
        s = SymmetrySpec(2, k, reality)
        if reality is None:
            F = random_basic_pair(rng, grid, n=3 + k)[1]
        else:
            F = random_flat_field(rng, grid, reality, GroupSpec(kind, 2, k))
            group, form = "auto", kind
        x = F.value(*(int(i) for i in rng.integers(0, 3, size=2)))
    try:
        ref = reference_tau_iwasawa(x, s, N=N, constant_group=group, form=form)
    except (BigCellViolation, SingularLoop, NotInIwasawaCell) as exc:
        with pytest.raises(type(exc)) as info:
            tau_iwasawa(x, s, N=N, constant_group=group, form=form)
        assert str(info.value) == str(exc)
        return
    got = tau_iwasawa(x, s, N=N, constant_group=group, form=form)
    assert_near_loop(got.z, ref.z)
    assert_near_loop(got.y_plus, ref.y_plus)
    assert np.abs(got.k_const - ref.k_const).max() <= 1e-14 * max(1.0, np.abs(ref.k_const).max())
    assert got.residuals.keys() == ref.residuals.keys()
    for key, r in ref.residuals.items():
        assert got.residuals[key] == pytest.approx(r, rel=1e-14, abs=0.0)


# -- array steps against the per-node code they replaced ------------------------


def reference_eval(g, lam):
    """Per-node evaluation: Horner in lam over degrees >= 0 from the top,
    in 1/lam over degrees <= -1 from the bottom."""
    out = np.zeros((g.n, g.n), dtype=complex)
    if g.hi >= 0:
        for deg in range(g.hi, -1, -1):
            out = out * lam
            if deg >= g.lo:
                out = out + g.coeffs[deg - g.lo]
    if g.lo < 0:
        mu = 1.0 / lam
        neg = np.zeros((g.n, g.n), dtype=complex)
        for deg in range(g.lo, 0):
            neg = neg * mu
            if deg <= g.hi:
                neg = neg + g.coeffs[deg - g.lo]
        out = out + neg * mu
    return out


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(1, 6), nv=st.integers(1, 6),
       n=st.integers(1, 3), k=st.integers(0, 2), keep=st.floats(0.0, 1.0),
       direction=st.sampled_from(["sphere_to_hyperbolic", "hyperbolic_to_sphere"]))
def test_phi_field_matches_per_node_phi_map(seed, nu, nv, n, k, keep, direction):
    s = SymmetrySpec(n, k)
    loops = random_node_loops(seed, nu, nv, s.dim, keep)
    F = FrameField.from_loops(Grid2D.from_spacing(0.0, 0.1, nu, 0.0, 0.1, nv), loops,
                              n=s.dim, target=GroupSpec("orthogonal", n, k))
    out = phi_field(F, direction, s)
    assert np.array_equal(out.mask, F.mask)
    assert out.target == GroupSpec("lorentz", n, k)
    for node, g in loops.items():
        assert_same_loop(out.value(*node), phi_map(g, direction, s))


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(1, 6), nv=st.integers(1, 6),
       n=st.integers(1, 4), keep=st.floats(0.0, 1.0), per_node=st.booleans())
def test_constant_right_product_matches_per_node_mul(seed, nu, nv, n, keep, per_node):
    loops = random_node_loops(seed, nu, nv, n, keep)
    F = FrameField.from_loops(Grid2D.from_spacing(0.0, 0.1, nu, 0.0, 0.1, nv), loops, n=n)
    rng = rng_for((seed, 1))
    c = np.array([[random_matrix(rng, n) for _ in range(nv)] for _ in range(nu)]) \
        if per_node else random_matrix(rng, n)
    out = _times_constant(F, c)
    assert np.array_equal(out.mask, F.mask)
    for node, g in loops.items():
        assert_same_loop(out.value(*node), mul(g, constant(c[node] if per_node else c)))


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 5), nu=st.integers(3, 6),
       nv=st.integers(3, 6), scale=st.floats(0.05, 0.4), rate=st.floats(-2.0, 2.0))
def test_gauge_parallel_matches_per_node_inverse_and_product(seed, n, nu, nv, scale, rate):
    # F = F_plus exp(rate (u + v) X): its degree-0 connection is flat, so
    # the gauge exists; the reference redoes the gauge node by node
    rng = rng_for(seed)
    grid = Grid2D.centered(0.4, nu, 0.4, nv)
    _, fp = random_basic_pair(rng, grid, n=n, scale=scale)
    x = from_terms({0: random_skew(rng, n, real=True)})
    F = FrameField.from_loops(grid, {
        (i, j): mul(fp.value(i, j), loop_exp(rate * (grid.us[i] + grid.vs[j]) * x))
        for i, j in grid.nodes()})
    gauged, G = gauge_parallel(F)
    a0 = {key: a.clip(0, 0) for key, a in maurer_cartan(F).loops().items()}
    H = integrate_potential(ConnectionForm.from_loops(grid, a0), check=False)
    for node, h in H.loops().items():
        g = constant(np.linalg.inv(h.coeff(0)))
        assert_same_loop(G.value(*node), g)
        assert_same_loop(gauged.value(*node), mul(F.value(*node), g))


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(1, 6), nv=st.integers(1, 6),
       n=st.integers(2, 4), keep=st.floats(0.0, 1.0),
       lam=st.one_of(st.floats(-3.0, -0.3), st.floats(0.3, 3.0)))
def test_extract_immersion_matches_per_node_evaluation(seed, nu, nv, n, keep, lam):
    # real coefficients are real at real lambda, so every node passes the
    # reality check
    loops = random_node_loops(seed, nu, nv, n, keep, real=True)
    grid = Grid2D.from_spacing(0.0, 0.1, nu, 0.0, 0.1, nv)
    F = FrameField.from_loops(grid, loops, n=n)
    target = GroupSpec("orthogonal", n - 1, 0)
    im = extract_immersion(F, lam, target)
    assert np.array_equal(im.mask, F.mask)
    assert np.isnan(im.points[~F.mask]).all()
    for node, g in loops.items():
        ref = reference_eval(g, complex(lam))
        assert np.array_equal(g.eval(lam), ref)
        assert np.array_equal(im.points[node], ref[:, n - 1].real)


# -- stack kernels against the per-node code they replaced ----------------------
#
# The references below are the per-node factorization and inverse the node
# stacks replaced: one LU factorization and LAPACK's condition estimate per
# mode system, one window search per loop.  Sums now run in another order,
# so coefficients are compared within 1e-12 relative, and the exact
# condition number of a stack must bound the estimate from above.


def reference_neumann(g, N, side):
    c = g.coeffs[::-1] if side == "minus" else g.coeffs
    x = [np.eye(g.n, dtype=complex)]
    for k in range(1, N + 1):
        x.append(-sum(c[j] @ x[k - j] for j in range(1, min(k, len(c) - 1) + 1)))
    x = np.array(x)
    return LaurentLoop(-N, x[::-1]) if side == "minus" else LaurentLoop(0, x)


def reference_inverse(g, N):
    """A loop's truncated inverse, or None where it raises SingularLoop."""
    n = g.n
    if g.window == (0, 0):
        c = g.coeffs[0]
        return None if abs(np.linalg.det(c)) == 0 else constant(np.linalg.inv(c))
    c0 = g.coeff(0)
    if np.linalg.norm(c0 - np.eye(n)) <= 1e-13 * max(1.0, np.linalg.norm(c0)):
        if g.hi <= 0:
            return reference_neumann(g, N, "minus")
        if g.lo >= 0:
            return reference_neumann(g, N, "plus")
    rows = np.arange(-N, N + 1)
    big = np.block([[g.coeff(int(m - j)) for j in rows] for m in rows])
    rhs = np.zeros((len(rows) * n, n))
    rhs[N * n : (N + 1) * n] = np.eye(n)
    x = LaurentLoop(-N, np.linalg.solve(big, rhs).reshape(len(rows), n, n))
    residual = distance(mul(g, x).clip(-N, N), constant(np.eye(n)))
    return x if residual <= 1e-10 else None


def reference_birkhoff_left(g, tol=1e-9):
    """(minus, plus, condition estimate) of a loop's left factorization,
    or None where it raises BigCellViolation."""
    if g.lo >= 0:
        return constant(np.eye(g.n)), g, 1.0
    n = g.n
    N = start = -g.lo + 2
    limit = max(start, 1024 // n)
    floor = 1e-13 * g.wiener_norm()
    best, last = None, np.inf
    while True:
        i = np.arange(1, N + 1)
        big = np.block([[g.coeff(int(j - k)).T for j in i] for k in i])
        rhs = -np.concatenate([g.coeff(int(-k)).T for k in i])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(big)
        rcond, _ = get_lapack_funcs("gecon", (big,))(lu, np.linalg.norm(big, 1))
        if rcond == 0 or not 1.0 / rcond <= 1e12:
            return best
        sol = lu_solve((lu, piv), rhs).reshape(N, n, n).transpose(0, 2, 1)
        y = LaurentLoop(-N, np.concatenate([sol[::-1], np.eye(n)[None]]))
        yg = mul(y, g)
        plus = yg.project("plus")
        minus = reference_neumann(y, N, "minus") if y.lo < 0 else constant(np.eye(n))
        residual = yg.project("strict_minus").wiener_norm() + distance(mul(minus, plus), g)
        if residual <= tol and (best is None or residual < best[3]):
            best = (minus, plus, 1.0 / rcond, residual)
        if not residual > floor or not residual < last or N >= limit:
            return best
        last = residual
        N = min(N + (N + 1) // 2, limit)


def assert_close_loop(got, ref):
    assert got.window == ref.window
    assert distance(got, ref) <= 1e-12 * max(1.0, ref.wiener_norm())


def off_cell(n):
    """diag(lambda, 1/lambda, 1, ...): its mode systems are exactly singular."""
    return from_terms({1: np.diag([1.0] + [0.0] * (n - 1)),
                       -1: np.diag([0.0, 1.0] + [0.0] * (n - 2)),
                       0: np.diag([0.0, 0.0] + [1.0] * (n - 2))}, n=n)


def birkhoff_node_loops(seed, nu, nv, n, keep):
    """{(i, j): g_- g_+} on a random subset of the nodes, with a random
    depth of g_- and degree of g_+ at every node, so windows differ."""
    rng = rng_for(seed)
    loops = {}
    for i in range(nu):
        for j in range(nv):
            if rng.uniform() >= keep:
                continue
            gm = random_minus_unipotent(rng, n, depth=int(rng.integers(1, 4)), scale=0.3,
                                        decay=0.4)
            terms = {d: (0.2 * 0.5 ** d / n) * random_matrix(rng, n)
                     for d in range(int(rng.integers(0, 4)) + 1)}
            terms[0] = terms[0] + np.eye(n)
            loops[i, j] = mul(gm, from_terms(terms))
    return loops


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(1, 5), nv=st.integers(1, 5),
       n=st.integers(2, 5), keep=st.floats(0.3, 1.0), side=st.sampled_from(["left", "right"]),
       singular=st.booleans())
def test_field_birkhoff_matches_per_node_reference(seed, nu, nv, n, keep, side, singular):
    loops = birkhoff_node_loops(seed, nu, nv, n, keep)
    if singular:
        loops[nu // 2, nv // 2] = off_cell(n)
    assume(loops)
    F = FrameField.from_loops(Grid2D.from_spacing(0.0, 0.1, nu, 0.0, 0.1, nv), loops, n=n)
    out = (birkhoff_left if side == "left" else birkhoff_right)(F)
    for node, g in loops.items():
        ref = reference_birkhoff_left(g if side == "left" else g.mirror())
        assert out.minus.mask[node] == out.plus.mask[node] == (ref is not None)
        if ref is None:
            # the lone loop's failure, word for word: cause, windows tried
            with pytest.raises(BigCellViolation) as lone_failure:
                (birkhoff_left if side == "left" else birkhoff_right)(g)
            assert "ill_conditioned" in out.minus.info["failures"][node]
            assert out.minus.info["failures"][node] == str(lone_failure.value)
            continue
        minus, plus = (ref[0], ref[1]) if side == "left" else (ref[1].mirror(), ref[0].mirror())
        assert_close_loop(out.minus.value(*node), minus)
        assert_close_loop(out.plus.value(*node), plus)
        condition = out.minus.info["diagnostics"]["condition"][node]
        assert ref[2] * (1 - 1e-9) <= condition <= 10 * ref[2]
        # the node alone gets the same factors and condition; its residual
        # is summed over the window the field's stack shares, so it may move
        # by round-off
        lone = (birkhoff_left if side == "left" else birkhoff_right)(g)
        assert_same_loop(out.minus.value(*node), lone.minus)
        assert_same_loop(out.plus.value(*node), lone.plus)
        assert condition == lone.condition
        residual = out.minus.info["diagnostics"]["residual"][node]
        assert abs(residual - lone.residual) <= 1e-15 * max(1.0, g.wiener_norm())
    assert not out.minus.mask[~F.mask].any()
    for key in ("residual", "condition"):
        assert np.array_equal(~np.isnan(out.minus.info["diagnostics"][key]), out.minus.mask)
    assert set(out.minus.info["failures"]) == {node for node in loops if not out.minus.mask[node]}
    if singular:
        assert not out.minus.mask[nu // 2, nv // 2]


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(1, 5), nv=st.integers(1, 5),
       n=st.integers(2, 5), keep=st.floats(0.3, 1.0), singular=st.booleans())
def test_field_truncated_inverse_matches_per_node_reference(seed, nu, nv, n, keep, singular):
    # normalized one-sided loops, constants and two-sided loops near I,
    # each inverted to its own window
    rng = rng_for(seed)
    loops = {}
    for i in range(nu):
        for j in range(nv):
            if rng.uniform() >= keep:
                continue
            kind = int(rng.integers(0, 4))
            if kind < 2:
                g = random_minus_unipotent(rng, n, depth=int(rng.integers(1, 4)), scale=0.3)
                loops[i, j] = g if kind == 0 else g.mirror()
            elif kind == 2:
                loops[i, j] = constant(np.eye(n) + 0.3 * random_matrix(rng, n))
            else:
                loops[i, j] = from_terms({d: (np.eye(n) if d == 0 else 0.0)
                                          + 0.1 * random_matrix(rng, n) / n
                                          for d in range(-1, 2)}, n=n)
    if singular:
        loops[nu // 2, nv // 2] = constant(np.zeros((n, n)))
    assume(loops)
    F = FrameField.from_loops(Grid2D.from_spacing(0.0, 0.1, nu, 0.0, 0.1, nv), loops, n=n)
    N = rng.integers(1, 9, size=(nu, nv))
    out = truncated_inverse(F, N)
    for node, g in loops.items():
        ref = reference_inverse(g, int(N[node]))
        assert out.mask[node] == (ref is not None)
        if ref is None:
            assert "singular" in out.info["failures"][node]
        else:
            assert_close_loop(out.value(*node), ref)
    assert set(out.info["failures"]) == {node for node in loops if not out.mask[node]}


def reference_mc_residual(A):
    """The per-node flatness residual the stacked products replaced."""
    dudv, ok_u = grid_derivative(A.coeffs[:, :, 1], A.mask, A.grid.h_u, 0)
    dvdu, ok_v = grid_derivative(A.coeffs[:, :, 0], A.mask, A.grid.h_v, 1)
    worst, grades = 0.0, {}
    for i, j in np.argwhere(ok_u & ok_v):
        au, av = A.value(i, j, 0), A.value(i, j, 1)
        r = (LaurentLoop(A.lo, dudv[i, j]) - LaurentLoop(A.lo, dvdu[i, j])
             + mul(au, av) - mul(av, au))
        for d, c in zip(range(r.lo, r.hi + 1), r.coeffs):
            grades[d] = max(grades.get(d, 0.0), float(np.linalg.norm(c)))
            worst = max(worst, grades[d])
    return worst, grades


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nu=st.integers(3, 6), nv=st.integers(3, 6),
       n=st.integers(1, 4), keep=st.floats(0.3, 1.0), h=st.floats(0.01, 1.0))
def test_mc_residual_matches_per_node_reference(seed, nu, nv, n, keep, h):
    loops = random_node_loops(seed, nu, nv, n, keep)
    more = random_node_loops(seed + 1, nu, nv, n, 1.0)
    A = ConnectionForm.from_loops(
        Grid2D.from_spacing(0.0, h, nu, 0.0, h, nv),
        {(i, j, d): g for (i, j), g0 in loops.items() for d, g in enumerate((g0, more[i, j]))},
        n=n)
    worst, grades = mc_residual(A, per_degree=True)
    ref_worst, ref_grades = reference_mc_residual(A)
    assert grades.keys() == ref_grades.keys()
    scale = 1e-12 * max(1.0, ref_worst)
    assert abs(worst - ref_worst) <= scale
    assert all(abs(grades[d] - ref_grades[d]) <= scale for d in grades)


def reference_midpoint(seq, i):
    """The per-node O(h^4) midpoint of a loop sequence between i and i + 1
    that the stacked weight tables replaced."""
    m = len(seq)
    if m == 2:
        nodes, w = seq, (0.5, 0.5)
    elif m == 3:
        nodes, w = seq, (0.375, 0.75, -0.125) if i == 0 else (-0.125, 0.75, 0.375)
    elif i == 0:
        nodes, w = seq[0:4], _MID_LEFT
    elif i >= m - 2:
        nodes, w = seq[m - 4 : m], _MID_RIGHT
    else:
        nodes, w = seq[i - 1 : i + 3], _MID_CENTER
    terms = [wk * g for wk, g in zip(w, nodes)]
    return sum(terms[1:], terms[0])


def reference_rk4_step(F, a0, amid, a1, h):
    k1 = mul(F, a0)
    k2 = mul(F + (0.5 * h) * k1, amid)
    k3 = mul(F + (0.5 * h) * k2, amid)
    k4 = mul(F + h * k3, a1)
    return F + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_line(start, seq, h, reverse=False):
    """RK4 solution of dF = F A along a sequence of loops, node by node."""
    if reverse:
        seq, h = seq[::-1], -h
    out = [start]
    for t in range(len(seq) - 1):
        out.append(reference_rk4_step(out[-1], seq[t], reference_midpoint(seq, t),
                                      seq[t + 1], h))
    return out[::-1] if reverse else out


def reference_holonomy(grid, loops):
    """Max plaquette deviation of one-step transports, node by node."""
    nu, nv = grid.shape
    eye = identity(loops[0, 0, 0].n)

    def step_u(i, j):
        seq = [loops[t, j, 0] for t in range(nu)]
        return reference_rk4_step(eye, seq[i], reference_midpoint(seq, i), seq[i + 1], grid.h_u)

    def step_v(i, j):
        seq = [loops[i, t, 1] for t in range(nv)]
        return reference_rk4_step(eye, seq[j], reference_midpoint(seq, j), seq[j + 1], grid.h_v)

    return max((distance(mul(step_u(i, j), step_v(i + 1, j)), mul(step_v(i, j), step_u(i, j + 1)))
                for i in range(nu - 1) for j in range(nv - 1)), default=0.0)


def reference_integrate(eta):
    """The per-node transport the stacked RK4 replaced: the base row from
    I both ways, then every column from the base row both ways."""
    grid, loops = eta.grid, eta.loops()
    (bi, bj), (nu, nv) = grid.base, grid.shape
    row = [loops[i, bj, 0] for i in range(nu)]
    start = identity(eta.dim)
    base_row = (reference_line(start, row[: bi + 1], grid.h_u, reverse=True)[:-1]
                + reference_line(start, row[bi:], grid.h_u))
    vals = {}
    for i in range(nu):
        col = [loops[i, j, 1] for j in range(nv)]
        line = (reference_line(base_row[i], col[: bj + 1], grid.h_v, reverse=True)[:-1]
                + reference_line(base_row[i], col[bj:], grid.h_v))
        vals.update({(i, j): g for j, g in enumerate(line)})
    return FrameField.from_loops(grid, vals), reference_holonomy(grid, loops)


def random_window_loop(rng, n, lo, width, tiny):
    """A loop over [lo, lo + width) with unit-size coefficients; with tiny,
    some degrees sit near TOL_TRIM relative to the rest."""
    terms = {}
    for d in range(lo, lo + width):
        size = 10.0 ** rng.uniform(-1.0, 0.3)
        if tiny and rng.uniform() < 0.4:
            size *= TOL_TRIM * 10.0 ** rng.uniform(-1.0, 1.0)
        terms[d] = size * random_matrix(rng, n)
    return from_terms(terms, n=n)


@SETTINGS
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), nu=st.integers(1, 7),
       nv=st.integers(1, 7), n=st.integers(1, 5), lo=st.integers(-2, 0),
       width=st.integers(1, 3), tiny=st.booleans(), flat=st.booleans(),
       h=st.floats(0.02, 0.3))
def test_integrate_potential_matches_per_node_reference(data, seed, nu, nv, n, lo, width,
                                                        tiny, flat, h):
    base = (data.draw(st.integers(0, nu - 1)), data.draw(st.integers(0, nv - 1)))
    grid = Grid2D.from_spacing(0.0, h, nu, 0.0, h, nv, base=base)
    rng = rng_for(seed)
    if flat:
        # A = a(u) X du + b(v) X dv is flat for any scalar samples a, b
        x = random_window_loop(rng, n, lo, width, tiny)
        a, b = rng.uniform(-1.0, 1.0, nu), rng.uniform(-1.0, 1.0, nv)
        loops = {(i, j, d): (a[i] if d == 0 else b[j]) * x
                 for i, j in grid.nodes() for d in (0, 1)}
    else:
        loops = {(i, j, d): random_window_loop(rng, n, lo, width, tiny)
                 for i, j in grid.nodes() for d in (0, 1)}
    eta = ConnectionForm.from_loops(grid, loops, n=n)
    F = integrate_potential(eta, check=False)
    ref, ref_holonomy = reference_integrate(eta)
    assert (F.lo, F.hi) == (ref.lo, ref.hi)
    assert np.array_equal(F.mask, ref.mask)
    for node in grid.nodes():
        assert F.value(*node).window == ref.value(*node).window
    scale = max(1.0, float(np.abs(ref.coeffs).max()))
    assert np.abs(F.coeffs - ref.coeffs).max() <= 1e-14 * scale
    assert abs(F.info["holonomy"] - ref_holonomy) <= 1e-12 * ref_holonomy + 1e-15
