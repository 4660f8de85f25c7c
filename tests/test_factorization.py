"""Pointwise Birkhoff and tau-Iwasawa factorizations."""

from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg import expm

import loopsplit as ls
from loopsplit import (
    SymmetrySpec,
    apply_tau,
    birkhoff_left,
    birkhoff_right,
    constant,
    distance,
    fixed_residual,
    from_terms,
    identity,
    loop_exp,
    mul,
    solve_constant_tau,
    tau_iwasawa,
    tau_iwasawa_minus,
    truncated_inverse,
)
from loopsplit.generators import (
    random_basic_pair,
    random_fixed_loop,
    random_matrix,
    random_minus_unipotent,
    random_tau_instance,
    rng_for,
)
from loopsplit.loops import padded
from loopsplit.symmetry import tau_constant

S = SymmetrySpec(2, 1)


def test_birkhoff_identity_cases():
    out = birkhoff_left(identity(4))
    assert distance(out.minus, identity(4)) == 0.0
    assert distance(out.plus, identity(4)) == 0.0
    assert out.residual == 0.0
    g_plus = from_terms({0: 2 * np.eye(4), 2: np.eye(4)})
    out = birkhoff_left(g_plus)
    assert distance(out.minus, identity(4)) == 0.0
    assert distance(out.plus, g_plus) == 0.0
    g_minus = from_terms({0: np.eye(4), -1: 0.2 * np.ones((4, 4))})
    out = birkhoff_right(g_minus)
    assert distance(out.plus, identity(4)) == 0.0
    assert distance(out.minus, g_minus) == 0.0


def test_birkhoff_construct_then_factor():
    rng = rng_for(11)
    for _ in range(20):
        gm = random_minus_unipotent(rng, 4, scale=0.12)
        gp = loop_exp(from_terms({
            0: 0.1 * rng.standard_normal((4, 4)),
            1: 0.2 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))),
            2: 0.1 * rng.standard_normal((4, 4))}))
        g = mul(gm, gp)
        out = birkhoff_left(g, N=24)
        assert out.residual < 1e-9
        assert distance(out.minus, gm) < 1e-9
        assert distance(out.plus, gp) < 1e-9
        # right factorization through the mirror of the same data
        outr = birkhoff_right(g.mirror(), N=24)
        assert distance(outr.plus, gm.mirror()) < 1e-9
        assert distance(outr.minus, gp.mirror()) < 1e-9
        assert np.linalg.norm(outr.plus.coeff(0) - np.eye(4)) < 1e-12


def test_birkhoff_uniqueness_across_windows():
    rng = rng_for(12)
    gm = random_minus_unipotent(rng, 4, scale=0.15)
    gp = loop_exp(from_terms({1: 0.3 * rng.standard_normal((4, 4))}))
    g = mul(gm, gp)
    a = birkhoff_left(g, N=18)
    b = birkhoff_left(g, N=26)
    assert distance(a.minus.clip(-18, 0), b.minus.clip(-18, 0)) < 1e-9
    assert distance(a.plus, b.plus) < 1e-9


def test_birkhoff_off_big_cell():
    # a homomorphism into the torus: no factorization with trivial middle term
    g = from_terms({1: np.diag([1.0, 0, 0, 0]), -1: np.diag([0.0, 1, 0, 0]),
                    0: np.diag([0.0, 0, 1, 1])})
    with pytest.raises(ls.BigCellViolation):
        birkhoff_left(g, N=8)
    # without a window the first system is already singular: no retry helps
    with pytest.raises(ls.BigCellViolation) as info:
        birkhoff_left(g)
    assert info.value.cause == "ill_conditioned"
    assert len(info.value.windows) == 1
    assert "ill_conditioned" in str(info.value)


@pytest.mark.parametrize("N", [3, 9])  # 12 rows inverted, 36 rows factored by LU
def test_birkhoff_non_finite_right_hand_side(N):
    # the degree -N coefficient enters only the right-hand side -g_{-N} of
    # the window-N mode system: a NaN there makes the system ill-conditioned
    # on both branches, and masks only its own node of a field; g_- has a
    # nilpotent degree -1 term, so its one-sided inverse has depth 3
    gm = from_terms({0: np.eye(4), -1: 0.3 * np.triu(np.ones((4, 4)), 1)})
    good = mul(gm, from_terms({0: np.eye(4), 1: 0.2 * np.ones((4, 4))}))
    nan = np.zeros((4, 4))
    nan[1, 2] = np.nan
    bad = from_terms({**{d: good.coeff(d) for d in range(good.lo, good.hi + 1)}, -N: nan})
    assert bad.lo == -N
    with pytest.raises(ls.BigCellViolation) as info:
        birkhoff_left(bad, N=N)
    assert info.value.cause == "ill_conditioned"
    assert info.value.condition == np.inf
    grid = ls.Grid2D.from_spacing(0.0, 0.1, 2, 0.0, 0.1, 2)
    F = ls.FrameField.from_loops(grid, {(0, 0): good, (0, 1): good, (1, 0): bad, (1, 1): good})
    out = birkhoff_left(F, N=N)
    assert out.minus.mask.tolist() == [[True, True], [False, True]]
    assert list(out.minus.info["failures"]) == [(1, 0)]
    assert "ill_conditioned" in out.minus.info["failures"][1, 0]
    lone = birkhoff_left(good, N=N)
    for node in [(0, 0), (0, 1), (1, 1)]:
        assert distance(out.minus.value(*node), lone.minus) <= 1e-15
        assert distance(out.plus.value(*node), lone.plus) <= 1e-15


def test_birkhoff_window_follows_residual():
    # the fixed window 2*radius + 4 = 6 failed on both sides of this loop
    # (residuals 2.9e-8 and 8.3e-3); the right factor's residual falls about
    # x0.46 per unit of N and reaches round-off only in the mid thirties
    rng = rng_for(7)
    gm = random_minus_unipotent(rng, 4, depth=1)
    g = mul(gm, from_terms({0: np.eye(4), 1: 0.2 * random_matrix(rng, 4)}))
    for fn in (birkhoff_left, birkhoff_right):
        out = fn(g)
        assert out.residual <= 1e-12
        assert distance(out.reconstruction(), g) <= 1e-12
    # twice the old window is still too small, and is reported as such
    with pytest.raises(ls.BigCellViolation) as info:
        birkhoff_right(g, N=12)
    assert info.value.cause == "not_converged"
    assert info.value.windows == [12]
    assert info.value.residual > 1e-9


def test_birkhoff_reconstruction_property():
    rng = rng_for(13)
    gm = random_minus_unipotent(rng, 4)
    gp = loop_exp(from_terms({1: 0.2 * rng.standard_normal((4, 4))}))
    g = mul(gm, gp)
    out = birkhoff_left(g, N=20)
    assert distance(out.reconstruction(), g) <= out.residual + 1e-15


@pytest.mark.parametrize("tags", [("sigma",), ("R1",), ("R2",), ("Rhat1",), ("Rhat2",)])
def test_twisted_preservation(tags):
    rng = rng_for(sum(map(len, tags)))
    s = SymmetrySpec(2, 1, tags[0] if tags[0].startswith("R") else None)
    for _ in range(10):
        g = random_fixed_loop(rng, s, tags, radius=2, scale=0.3)
        assert fixed_residual(g, tags, s) < 1e-12
        out = birkhoff_left(g, tol=1e-8)
        assert fixed_residual(out.minus, tags, s) < 1e-8
        assert fixed_residual(out.plus, tags, s) < 1e-8


# -- the constant-group solve -------------------------------------------------


def test_solve_constant_identity():
    k = solve_constant_tau(np.eye(4), S)
    np.testing.assert_allclose(k, np.eye(4), atol=1e-14)


def test_solve_constant_orthogonal_oracle():
    rng = rng_for(21)
    Q = S.tau_matrix
    for _ in range(10):
        k0 = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        a = np.linalg.inv(k0) @ Q @ k0 @ Q
        k = solve_constant_tau(a, S)
        assert np.linalg.norm(np.linalg.inv(k) @ Q @ k @ Q - a) < 1e-9
        assert np.linalg.norm(k.T @ k - np.eye(4)) < 1e-10
        assert np.linalg.det(k).real > 0


def test_solve_constant_complex_orthogonal():
    rng = rng_for(22)
    Q = S.tau_matrix
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    k0 = expm(0.4 * (m - m.T))  # complex orthogonal
    a = np.linalg.inv(k0) @ Q @ k0 @ Q
    k = solve_constant_tau(a, S)
    assert np.linalg.norm(np.linalg.inv(k) @ Q @ k @ Q - a) < 1e-9
    assert np.linalg.norm(k.T @ k - np.eye(4)) < 1e-9


def test_solve_constant_lorentz_form():
    rng = rng_for(23)
    Q = S.tau_matrix
    J = np.diag([1.0, 1.0, -1.0, 1.0])
    m = rng.standard_normal((4, 4))
    k0 = expm(0.3 * (J @ (m - m.T)))  # real Lorentz group element
    a = np.linalg.inv(k0) @ Q @ k0 @ Q
    k = solve_constant_tau(a, S, form="lorentz")
    assert np.linalg.norm(np.linalg.inv(k) @ Q @ k @ Q - a) < 1e-9
    assert np.linalg.norm(k.T @ J @ k - J) < 1e-9


def test_solve_constant_general_linear():
    rng = rng_for(24)
    Q = S.tau_matrix
    k0 = np.eye(4) + 0.4 * (rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
    a = np.linalg.inv(k0) @ Q @ k0 @ Q
    k = solve_constant_tau(a, S, group="general")
    assert np.linalg.norm(np.linalg.inv(k) @ Q @ k @ Q - a) < 1e-9


def rotation(m, i, j, angle):
    R = np.eye(m)
    R[i, i] = R[j, j] = np.cos(angle)
    R[i, j], R[j, i] = -np.sin(angle), np.sin(angle)
    return R


@pytest.mark.parametrize("s, turns", [
    # -1 eigenvectors of a that shifts with equal weights leave in place
    (SymmetrySpec(2, 1), [(0, 3, 3 * np.pi / 4), (2, 3, np.pi / 2)]),
    (SymmetrySpec(2, 2), [(2, 3, np.pi / 2), (3, 4, np.pi / 4)]),
])
def test_solve_constant_off_the_principal_branch(s, turns):
    k0 = np.eye(s.dim)
    for i, j, angle in turns:
        k0 = k0 @ rotation(s.dim, i, j, angle)
    Q = s.tau_matrix
    a = k0.T @ Q @ k0 @ Q
    assert np.min(np.abs(np.linalg.eigvals(a) + 1)) < 1e-12
    k = solve_constant_tau(a, s)
    assert np.linalg.norm(np.linalg.inv(k) @ Q @ k @ Q - a) < 1e-9
    assert np.linalg.norm(k.T @ k - np.eye(s.dim)) < 1e-9
    assert np.linalg.norm(k.imag) < 1e-9


def test_solve_constant_slightly_off_the_group():
    # a = k0^{-1} tau(k0) with k0 orthogonal only to about 1e-9: no k is
    # closer to the group than that, and the best one is taken
    rng = rng_for(26)
    k0 = np.linalg.qr(rng.standard_normal((4, 4)))[0] @ (
        np.eye(4) + 1e-9 * rng.standard_normal((4, 4)))
    Q = S.tau_matrix
    a = np.linalg.solve(k0, Q @ k0 @ Q)
    k = solve_constant_tau(a, S)
    assert np.linalg.norm(np.linalg.inv(k) @ Q @ k @ Q - a) < 1e-9
    assert np.linalg.norm(k.T @ k - np.eye(4)) < 1e-8


def test_solve_constant_leaves_the_sigma_blocks_when_it_must():
    # a = diag(-1, 1, -1) commutes with P = diag(1, -1, -1), yet no k inside
    # the sigma blocks solves a = k^{-1} tau(k); k = R_02(pi/2) does, across
    # them, and a is no twisted loop's middle term, so the shifts may cross
    s = SymmetrySpec(1, 1)
    a = np.diag([-1.0, 1.0, -1.0]).astype(complex)
    Q, J = s.tau_matrix, np.diag([1.0, -1.0, 1.0])
    k0 = rotation(3, 0, 2, np.pi / 2)
    assert np.linalg.norm(np.linalg.inv(k0) @ Q @ k0 @ Q - a) < 1e-15
    k = solve_constant_tau(a, s, form="lorentz")
    assert np.linalg.norm(np.linalg.inv(k) @ Q @ k @ Q - a) < 1e-9
    assert np.linalg.norm(k.T @ J @ k - J) < 1e-9


def test_solve_constant_spectrum_mismatch():
    # a = Q satisfies tau(a) = a^{-1} but aQ = I has the wrong multiplicities
    with pytest.raises(ls.NotInIwasawaCell):
        solve_constant_tau(np.array(S.tau_matrix, dtype=complex), S)


def test_solve_constant_bad_precondition():
    rng = rng_for(25)
    a = np.eye(4) + 0.5 * rng.standard_normal((4, 4))
    with pytest.raises(ls.NotInIwasawaCell):
        solve_constant_tau(a, S)


# -- tau-Iwasawa ---------------------------------------------------------------


def test_tau_iwasawa_identity():
    out = tau_iwasawa(identity(4), S)
    assert distance(out.z, identity(4)) == 0.0
    assert distance(out.y_plus, identity(4)) == 0.0


def test_tau_iwasawa_tau_fixed_input():
    rng = rng_for(31)
    _, z0, _ = random_tau_instance(rng, S, scale=0.2)
    out = tau_iwasawa(z0, S, constant_group="general")
    # w = I path: y_plus is constant, z reproduces the input up to a constant
    assert out.y_plus.window == (0, 0)
    assert out.residuals["reconstruction"] < 1e-9
    assert out.residuals["tau_fixed"] < 1e-9


def test_tau_iwasawa_constructed_oracle():
    rng = rng_for(32)
    for _ in range(10):
        x, z0, _ = random_tau_instance(rng, S, scale=0.15)
        out = tau_iwasawa(x, S, constant_group="general")
        assert out.residuals["reconstruction"] < 1e-8
        assert out.residuals["tau_fixed"] < 1e-8
        assert out.residuals["middle_reality"] < 1e-9
        d = mul(truncated_inverse(z0, 20), out.z)
        dc = d.coeff(0)
        assert distance(d, constant(dc)) < 1e-7
        assert np.linalg.norm(tau_constant(dc, S) - dc) < 1e-7


def test_tau_iwasawa_nonuniqueness_is_constant():
    rng = rng_for(33)
    x, _, _ = random_tau_instance(rng, S, scale=0.15)
    out1 = tau_iwasawa(x, S, N=18, constant_group="general")
    out2 = tau_iwasawa(x, S, N=26, constant_group="general")
    d = mul(truncated_inverse(out1.z, 26), out2.z)
    dc = d.coeff(0)
    assert distance(d, constant(dc)) < 1e-8
    assert np.linalg.norm(tau_constant(dc, S) - dc) < 1e-8


@pytest.mark.parametrize("residual", [None, 1e-3])
def test_tau_iwasawa_retries_only_residual_failures(monkeypatch, residual):
    # a structural middle-term failure raises at the first window; a
    # precondition defect is retried until it stops falling
    from loopsplit import factorization

    calls = []

    def failing_solve(a, s, *args):
        # the stack solve: every middle term of the window rejected
        calls.append(a)
        rejected = ls.NotInIwasawaCell("middle term rejected", residual=residual)
        return np.broadcast_to(np.eye(a.shape[-1]), a.shape).copy(), dict.fromkeys(
            range(len(a)), rejected)

    monkeypatch.setattr(factorization, "_solve_constants", failing_solve)
    x, _, _ = random_tau_instance(rng_for(36), S, scale=0.15)
    with pytest.raises(ls.NotInIwasawaCell) as info:
        tau_iwasawa(x, S, constant_group="general")
    assert info.value.residual == residual
    assert len(calls) == (1 if residual is None else 2)


def test_adaptive_window_reports_a_structural_failure():
    # a failure without a residual ends the search and is what it reports,
    # whatever an earlier window gave, as a lone loop raises it at once
    from types import SimpleNamespace

    from loopsplit.factorization import _adaptive_window

    earlier = SimpleNamespace(residual=1e-3)
    structural = ls.NotInIwasawaCell("middle term rejected")
    windows = []

    def attempt(N, rows):
        windows.append(N)
        return [earlier if N == 3 else structural for _ in rows]

    assert _adaptive_window(attempt, [3], [100], [1.0]) == [structural]
    assert windows == [3, 5]


def _bits(result):
    """Every field of a factorization result, loops and arrays as bytes."""
    def bits(v):
        if isinstance(v, ls.LaurentLoop):
            return v.lo, v.coeffs.tobytes()
        return v.tobytes() if isinstance(v, np.ndarray) else repr(v)
    return {f.name: bits(getattr(result, f.name)) for f in fields(result)}


@pytest.mark.parametrize("end", [0.0, 1e-17])
def test_a_loop_stored_untrimmed_factors_as_its_trimmed_twin(end):
    # zero or negligible end coefficients kept by trim=False (as a loaded
    # file may hold them) change no factor, residual or condition
    x, _, _ = random_tau_instance(rng_for(39), S, radius=2, scale=0.15)
    for g in (x, mul(random_minus_unipotent(rng_for(40), 4, depth=3), x)):
        c = np.full((g.coeffs.shape[0] + 3, 4, 4), end, dtype=complex)
        c[2:-1] = g.coeffs
        padded_g = ls.LaurentLoop(g.lo - 2, c, trim=False)
        for fn in (birkhoff_left, birkhoff_right, lambda h: tau_iwasawa(h, S)):
            assert _bits(fn(padded_g)) == _bits(fn(g))


def test_tau_iwasawa_field_inverts_the_rows_it_holds(monkeypatch):
    # one truncated_inverse call per window tried, each on the Stack of the
    # rows at that window, and no intermediate field built on the way
    from loopsplit import factorization, loops

    windows, inverted, fields_built = [], [], []
    kernel, inverse, on_nodes = (factorization._tau_iwasawa_at, factorization.truncated_inverse,
                                 loops.on_nodes)

    def at(x, s, N, *args):
        windows.append((N, len(x.c)))
        return kernel(x, s, N, *args)

    def spy_inverse(g, N):
        inverted.append((type(g), N, len(g.c) if isinstance(g, loops.Stack) else None))
        return inverse(g, N)

    def spy_on_nodes(*args, **kwargs):
        fields_built.append(args[0])
        return on_nodes(*args, **kwargs)

    monkeypatch.setattr(factorization, "_tau_iwasawa_at", at)
    monkeypatch.setattr(factorization, "truncated_inverse", spy_inverse)
    monkeypatch.setattr(loops, "on_nodes", spy_on_nodes)
    grid = ls.Grid2D.centered(0.4, 5, 0.4, 5)
    F = random_basic_pair(rng_for(38), grid)[1]
    mask = np.ones(grid.shape, dtype=bool)
    mask[1, 3] = False
    out = tau_iwasawa(replace(F, mask=mask), S, constant_group="general")
    assert len(windows) > 1 and out.z.mask.sum() == 24
    assert inverted == [(ls.loops.Stack, N, rows) for N, rows in windows]
    assert fields_built == []


def test_tau_iwasawa_field_stops_a_structural_failure_at_its_first_window(monkeypatch):
    # a singular constant node has no truncated inverse: that node alone is
    # masked, after one window, and every other node factors as it does alone
    from loopsplit import factorization

    bad_rows = []
    kernel = factorization._tau_iwasawa_at

    def counting(x, s, N, *args):
        const = padded(x.lo, x.c, 0, 0)[:, 0]
        bad_rows.append(int(((x.los == x.his) & (const[:, 0, 0] == 0)).sum()))
        return kernel(x, s, N, *args)

    monkeypatch.setattr(factorization, "_tau_iwasawa_at", counting)
    grid = ls.Grid2D.centered(0.4, 5, 0.4, 5)
    F = random_basic_pair(rng_for(37), grid)[1]
    loops = F.loops()
    loops[3, 1] = constant(np.diag([0.0, 1.0, 1.0, 1.0]))
    F = ls.FrameField.from_loops(grid, loops, n=4)
    out = tau_iwasawa(F, S, constant_group="general")
    assert sum(bad_rows) == 1 and len(bad_rows) > 1
    expected = np.ones(grid.shape, dtype=bool)
    expected[3, 1] = False
    assert np.array_equal(out.z.mask, expected)
    assert list(out.z.info["failures"]) == [(3, 1)]
    assert "singular" in out.z.info["failures"][3, 1]
    for node in zip(*np.nonzero(expected)):
        alone = tau_iwasawa(F.value(*node), S, constant_group="general")
        assert out.z.value(*node).window == alone.z.window
        assert np.array_equal(out.z.value(*node).coeffs, alone.z.coeffs)
        assert out.z.info["diagnostics"]["residual"][node] == alone.residual
    assert np.isnan(out.z.info["diagnostics"]["residual"][3, 1])


@pytest.mark.parametrize("reality", [None, "R1", "R2", "Rm1"])
def test_tau_iwasawa_quarter_turn_middle_term(reality):
    # x^{-1} tau(x) rotates sigma block {2, 3} by pi: eigenvalue -1, which
    # no principal square root takes
    s = SymmetrySpec(2, 1, reality)
    out = tau_iwasawa(constant(rotation(4, 2, 3, np.pi / 2)), s)
    assert out.residuals["reconstruction"] <= 1e-9
    assert out.residuals["tau_fixed"] <= 1e-9
    # the loop is sigma-twisted, so the shift keeps to the sigma blocks
    assert fixed_residual(out.z, "sigma", s) <= 1e-9


def test_tau_iwasawa_minus_mirror():
    rng = rng_for(34)
    x, _, _ = random_tau_instance(rng, S, scale=0.15)
    xm = x.mirror()
    out = tau_iwasawa_minus(xm, S, constant_group="general")
    assert out.y_plus.hi <= 0  # the co-factor lives in Lambda^-
    assert distance(mul(out.z, out.y_plus), xm) < 1e-8
    assert distance(out.z, apply_tau(out.z, S)) < 1e-8


def deep_loop(d, n=4):
    """I + 0.1 I lambda^d + 0.1 ones lambda: depth -d."""
    return from_terms({0: np.eye(n), d: 0.1 * np.eye(n), 1: 0.1 * np.ones((n, n))})


@pytest.fixture
def solved_rows(monkeypatch):
    """The row counts of every mode system and truncated inverse solved."""
    from loopsplit import factorization, loops

    rows = []
    solve, inverse = factorization._toeplitz_solve, loops._toeplitz_inverse

    def spy_solve(lo, coeffs, N):
        rows.append(N * coeffs.shape[-1])
        return solve(lo, coeffs, N)

    def spy_inverse(lo, coeffs, N):
        rows.append((2 * N + 1) * coeffs.shape[-1])
        return inverse(lo, coeffs, N)

    monkeypatch.setattr(factorization, "_toeplitz_solve", spy_solve)
    monkeypatch.setattr(loops, "_toeplitz_inverse", spy_inverse)
    return rows


@pytest.mark.parametrize("case", ["start", "substitute", "tau"])
def test_a_first_window_above_the_cap_fails_without_a_solve(solved_rows, case):
    # depth 258 starts at window 260 > 1024 // 4; N = 1 below the depth is
    # replaced by 2 * 258 + 4 = 520; tau at reach 130 starts at 132 > 1024 // 8
    g = deep_loop(-130 if case == "tau" else -258)
    with pytest.raises(ls.BigCellViolation) as failure:
        if case == "tau":
            tau_iwasawa(g, S)
        else:
            birkhoff_left(g, N=1 if case == "substitute" else None)
    window, cap = {"start": (260, 256), "substitute": (520, 256), "tau": (132, 128)}[case]
    assert failure.value.cause == ls.errors.ABOVE_CAP
    assert failure.value.windows == []
    assert f"first window {window} is above the cap {cap}" in str(failure.value)
    assert solved_rows == []


@pytest.mark.parametrize("case", ["birkhoff", "tau"])
def test_a_field_masks_only_its_node_above_the_cap(solved_rows, case):
    grid = ls.Grid2D.centered(0.4, 2, 0.4, 2)
    fine = {(0, 0): identity(4), (0, 1): constant(np.diag([1.0, 2.0, 1.0, 1.0])),
            (1, 0): from_terms({0: np.eye(4), -1: 0.1 * np.ones((4, 4))})}
    fine[1, 1] = deep_loop(-130 if case == "tau" else -258)
    F = ls.FrameField.from_loops(grid, fine, n=4)
    field = (tau_iwasawa(F, S, constant_group="general").z if case == "tau"
             else birkhoff_left(F).minus)
    assert field.mask.tolist() == [[True, True], [True, False]]
    assert list(field.info["failures"]) == [(1, 1)]
    assert "above_cap" in field.info["failures"][1, 1]
    assert np.isnan(field.info["diagnostics"]["residual"][1, 1])
    assert max(solved_rows, default=0) <= ls.factorization.MAX_SYSTEM_ORDER


def test_an_explicit_window_at_least_the_depth_is_used_as_given(solved_rows):
    # N >= depth is not replaced, so the cap does not apply to it
    out = birkhoff_left(from_terms({0: np.eye(2), -3: 0.1 * np.eye(2)}), N=600)
    assert out.residual <= 1e-12
    assert solved_rows == [1200]


def test_default_window_policy():
    g = from_terms({-3: np.eye(2), 2: np.eye(2)})
    assert ls.default_window(g) == 2 * 3 + 4


def test_general_block_sizes():
    # nothing in the factorization layer is wired to n=2, k=1
    s = SymmetrySpec(3, 2)  # 6x6 matrices, Q = diag(I_4, -I_2)
    rng = rng_for(35)
    x, z0, _ = random_tau_instance(rng, s, radius=1, scale=0.1)
    out = tau_iwasawa(x, s, constant_group="general")
    assert out.residuals["reconstruction"] < 1e-8
    assert out.residuals["tau_fixed"] < 1e-8
    g = random_fixed_loop(rng, s, ("sigma",), radius=2, scale=0.25)
    fact = birkhoff_left(g, tol=1e-8)
    assert fixed_residual(fact.minus, "sigma", s) < 1e-8
    Q = s.tau_matrix
    k0 = np.linalg.qr(rng.standard_normal((6, 6)))[0]
    a = np.linalg.inv(k0) @ Q @ k0 @ Q
    k = solve_constant_tau(a, s)
    assert np.linalg.norm(np.linalg.inv(k) @ Q @ k @ Q - a) < 1e-9


def test_a_right_factorization_failure_names_the_right_side():
    # diag(lambda, 1/lambda, 1, 1) has no right factorization: its mirror's
    # mode systems are singular at every window
    g = from_terms({-1: np.diag([0.0, 1.0, 0.0, 0.0]), 0: np.diag([0.0, 0.0, 1.0, 1.0]),
                    1: np.diag([1.0, 0.0, 0.0, 0.0])})
    with pytest.raises(ls.BigCellViolation) as lone:
        birkhoff_right(g)
    assert str(lone.value).startswith("right factorization failed: ")
    grid = ls.Grid2D.centered(0.4, 2, 0.4, 2)
    F = ls.FrameField.from_loops(grid, {(0, 0): identity(4), (0, 1): identity(4),
                                        (1, 0): identity(4), (1, 1): g}, n=4)
    field = birkhoff_right(F).plus
    assert field.mask.tolist() == [[True, True], [True, False]]
    assert field.info["failures"] == {(1, 1): str(lone.value)}


def test_large_mode_systems_keep_their_singular_handling(rng):
    """Over INVERSE_MAX_ORDER rows each system takes LU: a singular one gets
    an infinite condition and a zero solution, without a warning, and a
    regular one LAPACK's 1-norm condition estimate and its solution."""
    from loopsplit.factorization import INVERSE_MAX_ORDER, _solve_modes
    m = INVERSE_MAX_ORDER + 8
    big = rng.standard_normal((3, m, m)) + 1j * rng.standard_normal((3, m, m))
    big[1, :, 5] = 0.0
    big[2, 0, 0] = np.nan
    rhs = rng.standard_normal((3, m, 2)) + 0j
    condition, sol = _solve_modes(big, rhs)
    assert np.isinf(condition[1:]).all() and not sol[1:].any()
    exact = np.linalg.norm(big[0], 1) * np.linalg.norm(np.linalg.inv(big[0]), 1)
    assert exact / 10 <= condition[0] <= exact * (1 + 1e-12)
    np.testing.assert_allclose(big[0] @ sol[0], rhs[0], atol=1e-10)
