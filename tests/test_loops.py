"""Laurent-loop arithmetic against brute-force and closed-form oracles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given

import loopsplit as ls
import loopsplit.loops as loops_module
from loopsplit import (
    GroupSpec,
    constant,
    distance,
    from_terms,
    group_residual,
    identity,
    loop_exp,
    mul,
    truncated_inverse,
    zero_loop,
)
from loopsplit.loops import principal_roots
from loopsplit.serialize import loop_from_obj, loop_to_obj

from conftest import random_loop
from test_generators import SETTINGS, exp_stacks


def brute_force_product(x, y):
    """Schoolbook convolution over all index pairs (the mul oracle)."""
    n = x.n
    terms = {}
    for dx in range(x.lo, x.hi + 1):
        for dy in range(y.lo, y.hi + 1):
            acc = terms.setdefault(dx + dy, np.zeros((n, n), dtype=complex))
            acc += x.coeff(dx) @ y.coeff(dy)
    return from_terms(terms, n=n)


def test_mul_identity(rng):
    g = random_loop(rng)
    assert distance(mul(identity(4), g), g) == 0.0
    assert distance(mul(g, identity(4)), g) == 0.0


def test_mul_degree_cancellation():
    lam_i = from_terms({1: np.eye(4)})
    lam_inv_i = from_terms({-1: np.eye(4)})
    assert distance(mul(lam_i, lam_inv_i), identity(4)) == 0.0


def test_mul_against_convolution_oracle(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    c = rng.standard_normal((3, 3)) * 1j
    x = from_terms({-1: a, 0: b})
    y = from_terms({1: c})
    got = mul(x, y)
    assert got.window == (0, 1)
    np.testing.assert_allclose(got.coeff(0), a @ c, atol=1e-15)
    np.testing.assert_allclose(got.coeff(1), b @ c, atol=1e-15)
    for _ in range(10):
        x, y = random_loop(rng, radius=3), random_loop(rng, radius=2)
        assert distance(mul(x, y), brute_force_product(x, y)) < 1e-13


def test_mul_associative(rng):
    for _ in range(10):
        x = random_loop(rng, radius=4, scale=2.0)
        y = random_loop(rng, radius=3, scale=2.0)
        z = random_loop(rng, radius=4, scale=2.0)
        assert distance(mul(mul(x, y), z), mul(x, mul(y, z))) < 1e-12


def test_eval_matches_polynomial(rng):
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    g = from_terms({1: a, -1: b})
    np.testing.assert_allclose(g.eval(1.0), a + b, atol=1e-15)
    lam = 0.8 - 0.6j
    np.testing.assert_allclose(g.eval(lam), a * lam + b / lam, atol=1e-14)
    assert distance(constant(np.eye(4)), identity(4)) == 0.0
    with pytest.raises(ls.ZeroLambda):
        g.eval(0.0)


def test_eval_horner_vs_direct(rng):
    g = random_loop(rng, radius=4)
    lam = 1.3 * np.exp(0.7j)
    direct = sum(g.coeff(d) * lam ** d for d in range(g.lo, g.hi + 1))
    np.testing.assert_allclose(g.eval(lam), direct, atol=1e-13)


def test_project_parts(rng):
    a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
    g = from_terms({-1: a, 0: b, 1: c})
    assert distance(g.project("const"), from_terms({0: b})) == 0.0
    assert distance(g.project("strict_minus"), from_terms({-1: a})) == 0.0
    assert distance(g.project("plus"), from_terms({0: b, 1: c})) == 0.0
    # the two complementary halves reassemble g
    for _ in range(5):
        g = random_loop(rng)
        back = g.project("plus") + g.project("strict_minus")
        assert distance(back, g) < 1e-15
        # idempotence
        assert distance(g.project("plus").project("plus"), g.project("plus")) == 0.0
    assert zero_loop(2).window == (0, 0)
    assert from_terms({2: np.ones((2, 2))}).project("strict_minus").is_zero()


def test_truncated_inverse_identity():
    assert distance(truncated_inverse(identity(3), 5), identity(3)) == 0.0


def test_truncated_inverse_terminating_neumann(rng):
    a = 0.4 * rng.standard_normal((3, 3))
    g = from_terms({0: np.eye(3), -1: a})
    inv = truncated_inverse(g, 2)
    expect = from_terms({0: np.eye(3), -1: -a, -2: a @ a})
    assert distance(inv, expect) < 1e-14


def test_truncated_inverse_exponential_oracle(rng):
    x = 0.3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    g = loop_exp(from_terms({1: x}))
    inv = truncated_inverse(g, 8)
    # series of exp(-x lambda), computed independently
    terms = {}
    power = np.eye(4, dtype=complex)
    for k in range(0, 9):
        terms[k] = power / math.factorial(k)
        power = power @ (-x)
    assert distance(inv.clip(0, 8), from_terms(terms).clip(0, 8)) < 1e-10
    assert distance(mul(g, inv).clip(-8, 8), identity(4)) < 1e-10


def test_truncated_inverse_round_trip(rng):
    for _ in range(6):
        g = identity(4) + random_loop(rng, radius=2, scale=0.3)
        inv = truncated_inverse(g, 10)
        assert distance(mul(g, inv).clip(-10, 10), identity(4)) < 1e-10


def test_truncated_inverse_singular():
    g = constant(np.zeros((3, 3)))
    with pytest.raises(ls.SingularLoop):
        truncated_inverse(g, 4)


@pytest.mark.parametrize("N", [1, 3, 8])
def test_truncated_inverse_of_a_stack_matches_each_loop_alone(rng, N):
    # one stack of every kind of row: constant, normalized one-sided on
    # either side, general, and a singular constant
    a = 0.3 * rng.standard_normal((4, 4))
    rows = [constant(np.eye(4) + 0.2 * rng.standard_normal((4, 4))),
            from_terms({0: np.eye(4), 1: a, 2: 0.5 * a @ a}),
            from_terms({0: np.eye(4), -1: a.T}),
            identity(4) + random_loop(rng, radius=2, scale=0.3),
            constant(np.diag([0.0, 1.0, 1.0, 1.0])),
            from_terms({-1: 0.2 * np.eye(4), 0: np.eye(4), 3: 0.1 * a})]
    stack = loops_module.trim_stack(*loops_module.gather(
        [(b, g.lo, g.coeffs) for b, g in enumerate(rows)], (len(rows),), 4))
    xi, failures = truncated_inverse(stack, N)
    assert list(failures) == [4]
    for b, g in enumerate(rows):
        if b in failures:
            with pytest.raises(ls.SingularLoop) as raised:
                truncated_inverse(g, N)
            assert failures[b] == str(raised.value)
            assert not xi.c[b].any() and (xi.los[b], xi.his[b]) == (0, 0)
            continue
        alone = truncated_inverse(g, N)
        assert (xi.los[b], xi.his[b]) == alone.window
        own = xi.c[b, alone.lo - xi.lo : alone.hi - xi.lo + 1]
        assert own.tobytes() == alone.coeffs.tobytes()
        assert not np.delete(xi.c[b], np.arange(alone.lo, alone.hi + 1) - xi.lo, axis=0).any()


def test_group_residual_identity_and_scaling():
    sph = GroupSpec("orthogonal", 2, 1)
    assert group_residual(identity(4), sph) == 0.0
    # scaling breaks the form: (2I)^T (2I) - I = 3I
    res = group_residual(constant(2.0 * np.eye(4)), sph)
    assert abs(res - 3.0 * np.linalg.norm(np.eye(4))) < 1e-12


def test_group_residual_rotation_loop(rng):
    sph = GroupSpec("orthogonal", 3, 0)
    terms = {d: 0.2 * (lambda m: m - m.T)(rng.standard_normal((4, 4)))
             for d in (-1, 0, 1)}
    g = loop_exp(from_terms(terms))
    assert group_residual(g, sph) < 1e-12


def test_group_residual_lorentz(rng):
    hyp = GroupSpec("lorentz", 2, 1)
    J = hyp.form_matrix
    # exp of a J-skew matrix lies in the Lorentz group
    m = rng.standard_normal((4, 4))
    x = J @ (m - m.T)
    from scipy.linalg import expm
    g = constant(expm(0.3 * x))
    assert group_residual(g, hyp) < 1e-12


def test_group_residual_submultiplicative(rng):
    sph = GroupSpec("orthogonal", 2, 1)
    for _ in range(5):
        x = identity(4) + random_loop(rng, radius=1, scale=0.2)
        y = identity(4) + random_loop(rng, radius=1, scale=0.2)
        bound = (1 + x.wiener_norm()) ** 2 * (1 + y.wiener_norm()) ** 2
        lhs = group_residual(mul(x, y), sph)
        rhs = group_residual(x, sph) + group_residual(y, sph)
        assert lhs <= bound * rhs + 1e-12


def test_trim_canonical_form():
    g = from_terms({-2: 1e-20 * np.ones((2, 2)), 0: np.eye(2),
                    3: 1e-19 * np.ones((2, 2))})
    assert g.window == (0, 0)
    z = zero_loop(2)
    assert z.window == (0, 0) and z.is_zero()


def test_loop_exp_matches_expm(rng):
    from scipy.linalg import expm
    x = 0.4 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    g = loop_exp(from_terms({1: x, -1: 0.5 * x}))
    lam = 0.9 * np.exp(0.4j)
    np.testing.assert_allclose(g.eval(lam), expm(x * lam + 0.5 * x / lam), atol=1e-12)


@SETTINGS
@given(exp_stacks())
def test_loop_exp_matches_expm_on_the_circle(loops):
    """Within 1e-13 of exp(|g(lam)|), the size of the series' largest
    partial sums: where exp(g(lam)) is much smaller than that, the series
    loses digits to cancellation, in any order of summation."""
    from scipy.linalg import expm
    for g in loops:
        out = loop_exp(g)
        for lam in np.exp(1j * np.array([0.3, 2.1, -1.7])):
            ref = expm(g.eval(lam))
            err = np.linalg.norm(out.eval(lam) - ref, 2)
            assert err <= 1e-13 * max(1.0, np.exp(np.linalg.norm(g.eval(lam), 2)))


@SETTINGS
@given(exp_stacks())
def test_loop_exp_keeps_one_sided_loops_one_sided(loops):
    for g in loops:
        out = loop_exp(g)
        for x, y in ((g, out), (g.mirror(), out.mirror())):  # Lambda^+, then Lambda^-
            if x.lo >= 0:
                assert y.lo >= 0
            if x.lo >= 1:
                assert y.coeff(0).tobytes() == np.eye(g.n, dtype=complex).tobytes()


def test_loop_exp_builds_one_loop_and_trims_once(rng, monkeypatch):
    """The series runs on one coefficient array: no loop object and no trim
    per term."""
    g = random_loop(rng, n=4, radius=2)
    counts = {"loops": 0, "_trim": 0, "trim_stack": 0}
    init = loops_module.LaurentLoop.__init__

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(loops_module.LaurentLoop, "__init__", counted("loops", init))
    for name in ("_trim", "trim_stack"):
        monkeypatch.setattr(loops_module, name, counted(name, getattr(loops_module, name)))
    loop_exp(g)
    assert counts["loops"] == 1
    assert counts["_trim"] <= 1 and counts["trim_stack"] <= 1


def test_serialization_bit_exact(rng):
    g = random_loop(rng, radius=3)
    payload = json.dumps(loop_to_obj(g))
    back = loop_from_obj(json.loads(payload))
    assert back.lo == g.lo and back.n == g.n
    assert np.array_equal(back.coeffs, g.coeffs)  # exact, not approximate


def test_loaded_loops_compute_as_their_trimmed_twin(rng):
    # a file may keep zero or negligible end coefficients; the loaded loop
    # gives the trimmed loop's truncated inverse and exponential bit for bit
    for _ in range(6):
        g = ls.identity(4) + 0.3 * random_loop(rng, radius=2)
        want = [truncated_inverse(g, 4), loop_exp(g)]
        for end in (0.0, 1e-17):
            for below, above in ((1, 0), (0, 1), (2, 2)):
                c = np.full((below + len(g.coeffs) + above, g.n, g.n), end, dtype=complex)
                c[below : below + len(g.coeffs)] = g.coeffs
                stored = loop_to_obj(ls.LaurentLoop(g.lo - below, c, trim=False))
                h = loop_from_obj(json.loads(json.dumps(stored)))
                for a, b in zip([truncated_inverse(h, 4), loop_exp(h)], want):
                    assert a.lo == b.lo and a.coeffs.tobytes() == b.coeffs.tobytes()


def test_mirror_and_transpose(rng):
    g = random_loop(rng, radius=3)
    lam = 1.7 - 0.3j
    np.testing.assert_allclose(g.mirror().eval(lam), g.eval(1.0 / lam), atol=1e-13)
    np.testing.assert_allclose(g.transpose().eval(lam), g.eval(lam).T, atol=1e-13)
    assert distance(g.mirror().mirror(), g) == 0.0


# -- principal roots and exponentials of constant stacks ------------------------


def spread_stack(rng, B, n):
    """B complex matrices V diag(exp(z)) V^{-1}: eigenvalues from e^-3 to
    e^3, at most 2.5 radians from the positive axis, so off the cut."""
    V = np.eye(n) + 0.3 * (rng.standard_normal((B, n, n)) + 1j * rng.standard_normal((B, n, n)))
    z = rng.uniform(-3, 3, (B, n)) + 1j * rng.uniform(-2.5, 2.5, (B, n))
    return V @ (np.exp(z)[..., None] * np.linalg.inv(V))


@pytest.mark.parametrize("B", [1, 2, 9, 81])
def test_principal_roots_match_sqrtm(rng, B):
    # the residual is round-off whatever the condition of a; the distance
    # from scipy's root and x y - I grow with the condition of the problem,
    # as they do for any backward stable method
    from scipy.linalg import sqrtm
    for n in (2, 4, 6):
        a = spread_stack(rng, B, n)
        x, y, cut, stalled = principal_roots(a, 1e-14)
        assert not (cut | stalled).any()
        assert (np.linalg.norm(x @ x - a, axis=(1, 2))
                <= 1e-13 * np.linalg.norm(a, axis=(1, 2))).all()
        ref = np.array([sqrtm(m) for m in a])
        assert (np.linalg.norm(x - ref, axis=(1, 2))
                <= 1e-14 * np.linalg.cond(a) * np.linalg.norm(ref, axis=(1, 2))).all()
        assert (np.linalg.norm(x @ y - np.eye(n), axis=(1, 2)) <= 1e-14 * np.linalg.cond(x)).all()
        # each row stops on its own: a row alone gets its stacked bits
        for b in (0, B - 1):
            alone = principal_roots(a[b : b + 1], 1e-14)
            assert alone[0].tobytes() == x[b : b + 1].tobytes()
            assert alone[1].tobytes() == y[b : b + 1].tobytes()


@pytest.mark.parametrize("form", ["orthogonal", "lorentz"])
def test_principal_roots_stay_in_the_group(rng, form):
    # a = exp(S), S in the Lie algebra of the form J with |S|_2 < 2.5, and
    # boosts up to rapidity 6 (eigenvalues e^-6 .. e^6)
    from scipy.linalg import expm
    n = 5
    J = np.diag([1.0, 1.0, -1.0, 1.0, 1.0]) if form == "lorentz" else np.eye(n)
    K = rng.standard_normal((40, n, n)) + 1j * rng.standard_normal((40, n, n))
    S = J @ (K - K.swapaxes(1, 2))
    S *= (rng.uniform(0.1, 2.5, 40) / np.linalg.norm(S, 2, axis=(1, 2)))[:, None, None]
    a = np.array([expm(s) for s in S])
    if form == "lorentz":
        boost = np.zeros((n, n))
        boost[0, 2] = boost[2, 0] = 1.0
        a = np.concatenate([a, [expm(t * boost) @ m for t, m in zip(np.linspace(0, 6, 8), a)]])
    x, y, cut, stalled = principal_roots(a, 1e-14)
    assert not (cut | stalled).any()
    # scipy's sqrtm reads up to 1.2e-13 here, on the boosts
    size = np.maximum(1.0, np.linalg.norm(x, axis=(1, 2))) ** 2
    assert (np.linalg.norm(x.swapaxes(1, 2) @ J @ x - J, axis=(1, 2)) <= 2e-13 * size).all()
    assert (np.linalg.norm(x @ x - a, axis=(1, 2))
            <= 1e-13 * np.linalg.norm(a, axis=(1, 2))).all()


def test_principal_roots_report_the_cut(rng, monkeypatch):
    # an eigenvalue on (-inf, 0] has no principal root: the row is reported
    # with x = y = I, never returned as some other root, and the rows beside
    # it keep their own results
    from scipy.linalg import expm
    V = np.eye(4) + 0.4 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    turn = np.zeros((4, 4))
    turn[0, 1], turn[1, 0] = -np.pi, np.pi
    on_cut = [
        Q @ np.diag([-1.0, 2.0, 3.0, 0.5]) @ Q.T,                    # real, negative
        V @ np.diag([-2.0, 1 + 1j, 3.0, 1.0]) @ np.linalg.inv(V),    # complex, negative
        V @ np.diag([0.0, 1 + 1j, 3.0, 1.0]) @ np.linalg.inv(V),     # singular
        V @ np.diag([-1.0, -1.0, 1.0, 1.0]) @ np.linalg.inv(V),      # a double -1
        Q @ expm(turn) @ Q.T,                                        # a rotation by pi
    ]
    good = spread_stack(rng, 3, 4)
    a = np.concatenate([good[:1], on_cut, good[1:]])
    x, y, cut, stalled = principal_roots(a, 1e-14)
    assert cut.tolist() == [False] + [True] * len(on_cut) + [False, False]
    assert not stalled.any()
    assert (x[cut] == np.eye(4)).all() and (y[cut] == np.eye(4)).all()
    alone = principal_roots(good, 1e-14)[0]
    assert x[~cut].tobytes() == alone.tobytes()
    # a row that has not converged within ROOT_STEPS steps is reported apart
    monkeypatch.setattr(loops_module, "ROOT_STEPS", 2)
    x, y, cut, stalled = principal_roots(good, 1e-14)
    assert stalled.all() and not cut.any()
    assert (x == np.eye(4)).all() and (y == np.eye(4)).all()


def test_shift_constants_match_expm_on_every_generator(monkeypatch):
    # the constants the constant solve retries with (factorization._shifts,
    # stack_exp of constant loops), for every symmetry, form and kind of
    # middle term: within 1e-12 of scipy's expm, whose Pade approximant is
    # itself off by up to 5.6e-13 on the boosts here (a 40-digit reference
    # puts the series within 1.6e-14)
    from scipy.linalg import expm
    import loopsplit.factorization as factorization
    seen, shifts = [], []
    monkeypatch.setattr(factorization, "stack_exp",
                        lambda x: (seen.append(x.c[:, 0]), loops_module.stack_exp(x))[1])
    rng = ls.generators.rng_for(3)
    for n in (1, 2, 3):
        for k in (1, 2):
            for reality in (None, "R1", "R2", "Rm1", "Rhat1", "Rhat2"):
                s = ls.SymmetrySpec(n, k, reality)
                m = s.dim
                for b in (None, np.ones(m), np.where(np.arange(m) == n, -1.0, 1.0)):
                    for a in (np.eye(m), rng.standard_normal((m, m))):
                        c = factorization._shifts(a.astype(complex), s, b, None)
                        assert len(c) in (3, 6)
                        shifts.append(c)
    assert len(seen) == len(shifts) == 3 * 2 * 6 * 3 * 2
    for generators, got in zip(seen, shifts):
        for x, e in zip(generators, got):
            ref = expm(x)
            assert np.linalg.norm(e - ref) <= 1e-12 * np.linalg.norm(ref)
