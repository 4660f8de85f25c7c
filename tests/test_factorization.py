"""Pointwise Birkhoff and tau-Iwasawa factorizations."""

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
    random_fixed_loop,
    random_matrix,
    random_minus_unipotent,
    random_tau_instance,
    rng_for,
)
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

    def failing_solve(a, s, **kw):
        calls.append(a)
        raise ls.NotInIwasawaCell("middle term rejected", residual=residual)

    monkeypatch.setattr(factorization, "solve_constant_tau", failing_solve)
    x, _, _ = random_tau_instance(rng_for(36), S, scale=0.15)
    with pytest.raises(ls.NotInIwasawaCell) as info:
        tau_iwasawa(x, S, constant_group="general")
    assert info.value.residual == residual
    assert len(calls) == (1 if residual is None else 2)


@pytest.mark.parametrize("reality", [None, "R1", "R2", "Rm1"])
def test_tau_iwasawa_quarter_turn_middle_term(reality):
    # x^{-1} tau(x) rotates sigma block {2, 3} by pi: eigenvalue -1, which
    # no principal square root takes
    s = SymmetrySpec(2, 1, reality)
    out = tau_iwasawa(constant(rotation(4, 2, 3, np.pi / 2)), s)
    assert out.residuals["reconstruction"] <= 1e-9
    assert out.residuals["tau_fixed"] <= 1e-9


def test_tau_iwasawa_minus_mirror():
    rng = rng_for(34)
    x, _, _ = random_tau_instance(rng, S, scale=0.15)
    xm = x.mirror()
    out = tau_iwasawa_minus(xm, S, constant_group="general")
    assert out.y_plus.hi <= 0  # the co-factor lives in Lambda^-
    assert distance(mul(out.z, out.y_plus), xm) < 1e-8
    assert distance(out.z, apply_tau(out.z, S)) < 1e-8


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
