"""Frame fields: discrete connections, integration, splitting, dressing."""

import numpy as np
import pytest
from scipy.linalg import expm

import loopsplit as ls
from loopsplit import (
    ConnectionForm,
    FrameField,
    Grid2D,
    SymmetrySpec,
    connection_order,
    constant,
    distance,
    dress_minus,
    dress_pair,
    dress_plus,
    field_distance,
    fixed_residual,
    from_terms,
    gauge_parallel,
    identity,
    integrate_potential,
    loop_exp,
    maurer_cartan,
    mc_residual,
    merge,
    mul,
    split,
    tau_merge,
    truncated_inverse,
    zero_loop,
)
from loopsplit.factorization import TOL_IWASAWA
from loopsplit.fields import _gauge_factors
from loopsplit.generators import (
    random_basic_pair,
    random_dressing_element,
    random_flat_field,
    rng_for,
)

GRID = Grid2D.centered(0.4, 7, 0.4, 7)


def uniform_form(grid, a_u, a_v):
    return ConnectionForm.from_loops(grid, {(i, j, d): a for i, j in grid.nodes()
                                            for d, a in enumerate((a_u, a_v))})


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid2D(np.array([0.0, 1.0, 1.5]), np.array([0.0, 1.0]), (0, 0))
    with pytest.raises(ValueError):
        Grid2D(np.array([0.0, 1.0]), np.array([0.0, 1.0]), (5, 0))
    g = Grid2D.centered(0.5, 9, 0.25, 5)
    assert g.base == (4, 2)
    assert abs(g.h_u - 0.125) < 1e-15


def test_maurer_cartan_constant_field():
    g = loop_exp(from_terms({1: 0.3 * np.eye(3)}))
    F = FrameField.constant_field(GRID, g)
    A = maurer_cartan(F)
    worst = max(A.value(i, j, 0).wiener_norm() + A.value(i, j, 1).wiener_norm()
                for i, j in GRID.nodes())
    assert worst < 1e-12


def test_maurer_cartan_exponential_oracle():
    rng = rng_for(41)
    x = 0.3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    target = from_terms({1: x})

    def err_at(h):
        grid = Grid2D.from_spacing(-3 * h, h, 7, -3 * h, h, 7, base=(3, 3))
        F = FrameField.from_loops(grid, {(i, j): loop_exp(from_terms({1: (u + v) * x}))
                                         for i, u in enumerate(grid.us)
                                         for j, v in enumerate(grid.vs)})
        A = maurer_cartan(F)
        return max(max(distance(A.value(i, j, 0), target),
                       distance(A.value(i, j, 1), target))
                   for i, j in grid.nodes())

    e1, e2 = err_at(0.1), err_at(0.05)
    assert e1 < 0.02
    assert e1 / e2 > 3.0  # second-order convergence


def test_connection_order_cases():
    z = uniform_form(GRID, zero_loop(3), zero_loop(3))
    assert connection_order(z) == (0, 0, True)
    a = uniform_form(GRID, from_terms({1: np.eye(3)}), zero_loop(3))
    assert connection_order(a) == (1, 1, False)
    b = uniform_form(GRID, from_terms({-1: np.eye(3), 1: np.eye(3)}),
                     from_terms({3: 1e-9 * np.eye(3)}))
    assert connection_order(b, tol_order=1e-6) == (-1, 1, False)
    assert connection_order(b, tol_order=1e-12) == (-1, 3, False)


def test_mc_residual_nonintegrable_oracle():
    rng = rng_for(42)
    x = rng.standard_normal((4, 4))
    y = rng.standard_normal((4, 4))
    # A_u = X lambda, A_v = u Y lambda: residual = Y lambda + u [X,Y] lambda^2
    A = ConnectionForm.from_loops(GRID, {
        (i, j, d): from_terms({1: x if d == 0 else GRID.us[i] * y})
        for i, j in GRID.nodes() for d in (0, 1)})
    worst, grades = mc_residual(A, per_degree=True)
    assert abs(grades[1] - np.linalg.norm(y)) < 1e-10  # derivative is exact here
    comm = np.linalg.norm(x @ y - y @ x)
    expect2 = np.abs(GRID.us).max() * comm
    assert abs(grades[2] - expect2) < 1e-10


def test_integrate_zero_potential():
    eta = uniform_form(GRID, zero_loop(4), zero_loop(4))
    F = integrate_potential(eta)
    assert field_distance(F, FrameField.constant_field(GRID, identity(4))) == 0.0
    assert F.info["holonomy"] == 0.0


def test_integrate_constant_direction_oracle():
    rng = rng_for(43)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x *= 0.5 / np.linalg.norm(x)

    def err_at(grid):
        eta = uniform_form(grid, from_terms({1: x}), zero_loop(4))
        F = integrate_potential(eta)
        assert F.info["holonomy"] < 1e-12
        assert F.is_based()
        return max(distance(F.value(i, j), loop_exp(from_terms({1: grid.us[i] * x})))
                   for i, j in grid.nodes())

    e1 = err_at(Grid2D.centered(0.4, 7, 0.4, 7))
    e2 = err_at(Grid2D.centered(0.4, 13, 0.4, 13))
    assert e1 < 1e-8  # RK4 at h = 0.133 and a norm-0.5 generator
    assert e1 / e2 > 10.0  # fourth-order convergence


def test_integrate_rejects_nonflat_data():
    rng = rng_for(44)
    x, y = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    A = ConnectionForm.from_loops(GRID, {
        (i, j, d): from_terms({1: x if d == 0 else GRID.us[i] * y})
        for i, j in GRID.nodes() for d in (0, 1)})
    with pytest.raises(ls.IntegrabilityViolation):
        integrate_potential(A)


def test_split_of_plus_field_is_trivial():
    rng = rng_for(45)
    _, fp = random_basic_pair(rng, GRID)
    gm, fp2 = split(fp)
    assert field_distance(fp2, fp) < 1e-12
    assert field_distance(gm, FrameField.constant_field(GRID, identity(4))) < 1e-12


def test_merge_with_identity_minus():
    rng = rng_for(46)
    _, fp = random_basic_pair(rng, GRID)
    eye_field = FrameField.constant_field(GRID, identity(4))
    F = merge(eye_field, fp)
    assert field_distance(F, fp) < 1e-12


def test_split_merge_round_trips():
    rng = rng_for(47)
    gm, fp = random_basic_pair(rng, GRID)
    F = merge(gm, fp)
    assert F.is_based()
    g2, f2 = split(F)
    assert field_distance(g2, gm) < 1e-7
    assert field_distance(f2, fp) < 1e-7
    assert g2.is_based() and f2.is_based()
    F2 = merge(g2, f2)
    assert field_distance(F2, F) < 1e-7
    om = connection_order(maurer_cartan(g2), tol_order=1e-6)
    op = connection_order(maurer_cartan(f2), tol_order=1e-6)
    assert om == (-1, -1, False)
    assert op == (1, 1, False)
    assert connection_order(maurer_cartan(F), tol_order=1e-3)[:2] == (-1, 1)


def test_merge_records_its_left_factorization_diagnostics():
    # a value at every node merge keeps, NaN at the nodes an input masks
    gm, fp = random_basic_pair(rng_for(48), GRID)
    mask = fp.mask.copy()
    mask[1, 2] = mask[3, 0] = False
    F = merge(gm, FrameField(fp.grid, fp.lo, fp.coeffs, mask))
    residual, condition = F.info["diagnostics"]["residual"], F.info["diagnostics"]["condition"]
    assert residual.shape == condition.shape == GRID.shape
    assert np.array_equal(~np.isnan(residual), F.mask)
    assert np.array_equal(~np.isnan(condition), F.mask)
    assert not F.mask[1, 2] and not F.mask[3, 0]
    assert (residual[F.mask] <= 1e-9).all() and (condition[F.mask] >= 1.0).all()


# diag(lambda, 1/lambda, 1, 1): partial indices (1, -1, 0, 0), so neither
# Birkhoff factorization nor the tau-Iwasawa one exists there
OFF_CELL = from_terms({1: np.diag([1.0, 0, 0, 0]), -1: np.diag([0.0, 1, 0, 0]),
                       0: np.diag([0.0, 0, 1, 1])})
OFF_CELL_NODE = (2, 3)


def with_node(F, g):
    loops = F.loops()
    loops[OFF_CELL_NODE] = g
    return FrameField.from_loops(F.grid, loops, n=F.dim, symmetry=F.symmetry,
                                 target=F.target)


def test_split_masks_off_cell_nodes():
    rng = rng_for(48)
    gm, fp = random_basic_pair(rng, GRID)
    F = with_node(merge(gm, fp), OFF_CELL)
    g2, f2 = split(F)
    assert not g2.mask[2, 3] and not f2.mask[2, 3]
    assert g2.mask.sum() == GRID.us.size * GRID.vs.size - 1
    assert (2, 3) in g2.info["failures"]
    # merge propagates the mask and its cause
    F2 = merge(g2, f2)
    assert not F2.mask[2, 3]
    assert F2.info["failures"][2, 3] == g2.info["failures"][2, 3]
    masked_dist = field_distance(F2, F)  # compares only commonly valid nodes
    assert masked_dist < 1e-7


def test_split_records_the_larger_of_its_two_factorizations():
    # under the common mask the elementwise max of the left and right
    # records, NaN at the off-cell node and at a node the input masks
    gm, fp = random_basic_pair(rng_for(48), GRID)
    F = with_node(merge(gm, fp), OFF_CELL)
    F.mask[0, 1] = False
    left, right = ls.birkhoff_left(F).minus, ls.birkhoff_right(F).plus
    g2, f2 = split(F)
    common = left.mask & right.mask
    assert np.array_equal(g2.mask, common) and not common[OFF_CELL_NODE] and not common[0, 1]
    for key in ("residual", "condition"):
        a, b = left.info["diagnostics"][key], right.info["diagnostics"][key]
        for out in (g2, f2):
            got = out.info["diagnostics"][key]
            assert np.array_equal(got[common], np.maximum(a[common], b[common]))
            assert np.isnan(got[~common]).all()
        # both sides decide some node
        assert (a[common] > b[common]).any() and (b[common] > a[common]).any()


def test_split_records_nothing_where_one_side_fails(monkeypatch):
    # a node only the right factorization loses is NaN in split's record,
    # although the left one has a value there
    from loopsplit import fields

    right = fields.birkhoff_right

    def losing(F, tol):
        out = right(F, tol=tol)
        out.plus.mask[4, 4] = False
        out.plus.info["failures"][4, 4] = "lost"
        for d in out.plus.info["diagnostics"].values():
            d[4, 4] = np.nan
        return out

    monkeypatch.setattr(fields, "birkhoff_right", losing)
    gm, fp = random_basic_pair(rng_for(48), GRID)
    g2, f2 = split(merge(gm, fp))
    assert not g2.mask[4, 4] and g2.info["failures"][4, 4] == "lost"
    assert not np.isnan(ls.birkhoff_left(merge(gm, fp)).minus.info["diagnostics"]["residual"][4, 4])
    for out in (g2, f2):
        for d in out.info["diagnostics"].values():
            assert np.isnan(d[4, 4]) and np.array_equal(np.isnan(d), ~g2.mask)


POINTWISE_OPS = {
    "split": lambda gm, fp: split(with_node(merge(gm, fp), OFF_CELL))[1],
    "merge": lambda gm, fp: merge(with_node(gm, OFF_CELL), with_node(fp, identity(4))),
    "dress_plus": lambda gm, fp: dress_plus(identity(4), with_node(fp, OFF_CELL)),
    "dress_minus": lambda gm, fp: dress_minus(identity(4), with_node(gm, OFF_CELL)),
    "dress_pair": lambda gm, fp: dress_pair(identity(4), identity(4),
                                            with_node(merge(gm, fp), OFF_CELL)),
    "tau_merge": lambda gm, fp: tau_merge(with_node(fp, OFF_CELL), SymmetrySpec(2, 1),
                                          constant_group="general"),
}


@pytest.mark.parametrize("op", sorted(POINTWISE_OPS))
def test_pointwise_op_masks_exactly_the_off_cell_node(op):
    gm, fp = random_basic_pair(rng_for(48), GRID)
    out = POINTWISE_OPS[op](gm, fp)
    expected = np.ones(GRID.shape, dtype=bool)
    expected[OFF_CELL_NODE] = False
    assert np.array_equal(out.mask, expected)
    assert list(out.info["failures"]) == [OFF_CELL_NODE]
    assert out.info["failures"][OFF_CELL_NODE]


def test_field_ops_on_a_fully_masked_field():
    empty = FrameField.from_loops(GRID, {}, n=4)
    g_minus, f_plus = split(empty)
    outs = [g_minus, f_plus, merge(g_minus, f_plus), dress_plus(identity(4), f_plus),
            dress_minus(identity(4), g_minus), maurer_cartan(empty),
            truncated_inverse(empty, 3), tau_merge(empty, SymmetrySpec(2, 1)),
            ls.tau_iwasawa(empty, SymmetrySpec(2, 1), constant_group="general").z]
    assert not any(out.mask.any() for out in outs)


def test_tau_merge_identity_field():
    s = SymmetrySpec(2, 1)
    eye_field = FrameField.constant_field(GRID, identity(4))
    F = tau_merge(eye_field, s, constant_group="general")
    assert field_distance(F, eye_field) < 1e-12


def test_tau_merge_random_potential():
    rng = rng_for(49)
    s = SymmetrySpec(2, 1)
    _, fp = random_basic_pair(rng, GRID)
    F = tau_merge(fp, s, constant_group="general")
    assert F.mask.all()
    assert F.is_based(1e-8)
    worst = max(fixed_residual(F.value(i, j), "tau", s) for i, j in GRID.nodes())
    assert worst < 1e-7
    # F = F_plus F_minus with F_minus in Lambda^-
    for i, j in ((0, 0), (3, 5), (6, 6)):
        fm = mul(truncated_inverse(fp.value(i, j), 12), F.value(i, j))
        assert fm.hi <= 0
    order = connection_order(maurer_cartan(F), tol_order=1e-6)
    assert order == (-1, 1, False)
    # the per-node residuals fill the same diagnostics rows as split's
    cols, rows = ls.fields.field_diagnostics_rows(F)
    residual = [row[cols.index("residual")] for row in rows]
    assert len(residual) == F.mask.size and all(0.0 <= r < 1e-7 for r in residual)


# a rotation in the (e_0, e_3) plane by the angle theta of lambda = exp(i theta):
# tau-fixed and invertible at every lambda, with singular degree-0 coefficient
ROTATION_03 = from_terms({1: np.array([[0.5, 0, 0, -0.5j], [0, 0, 0, 0], [0, 0, 0, 0],
                                        [0.5j, 0, 0, 0.5]]),
                          0: np.diag([0.0, 1, 1, 0]),
                          -1: np.array([[0.5, 0, 0, 0.5j], [0, 0, 0, 0], [0, 0, 0, 0],
                                        [-0.5j, 0, 0, 0.5]])})
# swaps the timelike axis e_2 of the Lorentz form with e_1, so B c^T B c =
# diag(1, -1, -1, 1) has eigenvalues on the cut of the principal root
SWAP_12 = np.eye(4)[[0, 2, 1, 3]]
LORENTZ = np.array([1.0, 1, -1, 1])


def test_gauge_factor_polar_and_its_failures():
    # one stack: a factor is computed or refused per row
    rng = rng_for(58)
    m = expm(0.3 * rng.standard_normal((4, 4)))
    h, failures = _gauge_factors(np.stack([m, ROTATION_03.coeff(0)]), None, TOL_IWASAWA)
    assert np.array_equal(h[0], m)
    assert list(failures) == [1] and "singular" in failures[1]
    h, failures = _gauge_factors(np.stack([m, SWAP_12, ROTATION_03.coeff(0)]), LORENTZ,
                                 TOL_IWASAWA)
    assert np.abs(h[0].T @ np.diag(LORENTZ) @ h[0] - np.diag(LORENTZ)).max() < 1e-12
    assert sorted(failures) == [1, 2]
    assert "cut" in failures[1] and "singular" in failures[2]
    assert np.array_equal(h[1:], np.broadcast_to(np.eye(4), (2, 4, 4)))


@pytest.mark.parametrize("case", ["singular", "cut"])
def test_tau_merge_masks_a_node_without_gauge(case):
    if case == "singular":
        _, F = random_basic_pair(rng_for(59), GRID)
        F, s, group = with_node(F, ROTATION_03), SymmetrySpec(2, 1), "general"
    else:
        F = random_flat_field(rng_for(59), GRID, "R2", ls.GroupSpec("lorentz", 2, 1))
        F, s, group = with_node(F, constant(SWAP_12)), SymmetrySpec(2, 1, "R2"), "auto"
    out = tau_merge(F, s, constant_group=group)
    expected = np.ones(GRID.shape, dtype=bool)
    expected[OFF_CELL_NODE] = False
    assert np.array_equal(out.mask, expected)
    assert list(out.info["failures"]) == [OFF_CELL_NODE]
    assert case in out.info["failures"][OFF_CELL_NODE]
    assert out.is_based(1e-12)


def test_gauge_parallel_trivial_and_oracle():
    rng = rng_for(50)
    b = np.zeros((4, 4))
    b[0, 2], b[2, 0] = 1.0, -1.0
    parallel = FrameField.from_loops(
        GRID, {(i, j): loop_exp(from_terms({1: (0.7 * u + 0.4 * v) * b}))
               for i, u in enumerate(GRID.us) for j, v in enumerate(GRID.vs)})
    gauged, G = gauge_parallel(parallel)
    assert field_distance(gauged, parallel) < 1e-10
    worst = max(distance(G.value(i, j), identity(4)) for i, j in GRID.nodes())
    assert worst < 1e-10
    assert G.info["holonomy"] < 1e-10  # the gauge's transport is recorded

    x = np.zeros((4, 4))
    x[0, 1], x[1, 0] = 1.0, -1.0  # constant direction, exact 1-form d(phi)

    def phi(u, v):
        return np.sin(u) + 0.3 * v

    bi, bj = GRID.base
    phi0 = phi(GRID.us[bi], GRID.vs[bj])
    F = FrameField.from_loops(
        GRID, {(i, j): mul(loop_exp(from_terms({1: (0.7 * u + 0.4 * v) * b})),
                           constant(expm(phi(u, v) * x)))
               for i, u in enumerate(GRID.us) for j, v in enumerate(GRID.vs)})
    gauged, G = gauge_parallel(F)
    h2 = max(GRID.h_u, GRID.h_v) ** 2
    worst = max(distance(G.value(i, j),
                         constant(expm(-(phi(GRID.us[i], GRID.vs[j]) - phi0) * x)))
                for i, j in GRID.nodes())
    assert worst < 5.0 * h2  # limited by the finite-difference connection
    lo, hi, zero = connection_order(maurer_cartan(gauged), tol_order=20 * h2)
    assert lo >= 1 and not zero


def test_dress_identity_and_action():
    rng = rng_for(51)
    _, fp = random_basic_pair(rng, GRID, scale=0.3)
    assert field_distance(dress_plus(identity(4), fp), fp) < 1e-12
    g = random_dressing_element(rng, 4, "minus")
    h = random_dressing_element(rng, 4, "minus")
    lhs = dress_plus(mul(g, h), fp)
    rhs = dress_plus(g, dress_plus(h, fp))
    assert field_distance(lhs, rhs) < 1e-7
    # constant dressing acts by conjugation on a plus field
    c = expm(0.3 * rng.standard_normal((4, 4)))
    dressed = dress_plus(constant(c), fp)
    cinv = constant(np.linalg.inv(c))
    conj = FrameField.from_loops(GRID, {node: mul(constant(c), mul(gg, cinv))
                                        for node, gg in fp.loops().items()})
    assert field_distance(dressed, conj) < 1e-8


def test_dress_pair_consistency():
    rng = rng_for(52)
    gm0, fp0 = random_basic_pair(rng, GRID, scale=0.3)
    F = merge(gm0, fp0)
    g = random_dressing_element(rng, 4, "minus")
    gp = random_dressing_element(rng, 4, "plus")
    out = dress_pair(g, gp, F)
    gs, fs = split(F)
    piecewise = merge(dress_minus(gp, gs), dress_plus(g, fs))
    assert field_distance(out, piecewise) < 1e-7
    assert field_distance(dress_pair(identity(4), identity(4), F), F) < 1e-10


def test_based_propagation():
    rng = rng_for(53)
    gm, fp = random_basic_pair(rng, GRID)
    assert gm.is_based() and fp.is_based()
    F = merge(gm, fp)
    assert F.is_based(1e-10)
    g2, f2 = split(F)
    assert g2.is_based(1e-10) and f2.is_based(1e-10)


def test_integrate_basic_pair():
    rng = rng_for(57)
    gm, fp = random_basic_pair(rng, GRID)
    pot = ls.Potential(eta_minus=maurer_cartan(gm), eta_plus=maurer_cartan(fp))
    gm2, fp2 = ls.integrate_basic_pair(pot)
    assert np.isfinite(gm2.info["holonomy"]) and np.isfinite(fp2.info["holonomy"])
    h2 = max(GRID.h_u, GRID.h_v) ** 2
    # the discrete potentials carry O(h^2), the transport another O(h^4)
    assert field_distance(gm2, gm) < 5 * h2
    assert field_distance(fp2, fp) < 5 * h2
    with pytest.raises(ls.IntegrabilityViolation):
        ls.integrate_basic_pair(ls.Potential(eta_minus=None, eta_plus=None))


def test_split_runs_identical():
    rng = rng_for(55)
    gm, fp = random_basic_pair(rng, GRID)
    F = merge(gm, fp)
    g1, f1 = split(F)
    g2, f2 = split(F)
    assert field_distance(g1, g2) == 0.0
    assert field_distance(f1, f2) == 0.0
    assert not np.isnan(g1.info["diagnostics"]["residual"][2, 2])
    assert g1.info["diagnostics"]["condition"][2, 2] >= 1.0


def transpose_field(F):
    grid = Grid2D(F.grid.vs, F.grid.us, (F.grid.base[1], F.grid.base[0]))
    vals = {(j, i): g for (i, j), g in F.loops().items()}
    return FrameField.from_loops(grid, vals, n=F.dim, symmetry=F.symmetry,
                                 target=F.target)


def test_tau_merge_gauge_class_invariance():
    # each node's gauge is fixed by its own data, so a transposed grid, which
    # visits the nodes in another order, gives exactly the same field
    rng = rng_for(56)
    s = SymmetrySpec(2, 1)
    _, fp = random_basic_pair(rng, GRID)
    F1 = tau_merge(fp, s, constant_group="general")
    F2 = transpose_field(tau_merge(transpose_field(fp), s, constant_group="general"))
    assert F1.mask.all() and F2.mask.all()
    assert field_distance(F1, F2) == 0.0


def test_shape_mismatches_raise():
    small = FrameField.constant_field(Grid2D.centered(0.3, 3, 0.3, 3), identity(4))
    large = FrameField.constant_field(Grid2D.centered(0.3, 5, 0.3, 5), identity(4))
    with pytest.raises(ls.DimensionMismatch):
        field_distance(small, large)
    with pytest.raises(ls.DimensionMismatch):
        field_distance(large, small)
    A = uniform_form(GRID, zero_loop(3), zero_loop(3))
    with pytest.raises(ls.DimensionMismatch):
        ConnectionForm(GRID, A.lo, A.coeffs, mask=np.ones((3, 3), dtype=bool))


def test_field_serialization_round_trip():
    rng = rng_for(54)
    gm, fp = random_basic_pair(rng, Grid2D.centered(0.3, 4, 0.3, 3))
    from loopsplit.serialize import frame_field_from_obj, frame_field_to_obj
    import json
    fp.mask[1, 2] = False
    payload = json.dumps(frame_field_to_obj(fp))
    back = frame_field_from_obj(json.loads(payload))
    assert np.array_equal(back.mask, fp.mask)
    assert field_distance(back, fp) == 0.0
    assert np.array_equal(back.grid.us, fp.grid.us)
