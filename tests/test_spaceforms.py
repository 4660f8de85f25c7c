"""Space-form pipelines against the closed-form family and geometric oracles."""

import numpy as np
import pytest

import loopsplit as ls
from loopsplit import (
    ExtendedConnectionSpec,
    mc_residual,
    FrameField,
    Grid2D,
    GroupSpec,
    SymmetrySpec,
    assemble_connection,
    classify_curvature,
    connection_order,
    correspondence_route,
    curvature_c,
    distance,
    example_flat_target,
    example_sphere_family,
    example_sphere_field,
    example_sphere_frame,
    extract_immersion,
    field_distance,
    fixed_residual,
    flat_to_nonflat,
    group_residual,
    maurer_cartan,
    mul,
    nonflat_to_flat,
    tau_merge,
    validate_adapted,
)
from loopsplit.generators import random_flat_field, rng_for, sphere_family_instance
from loopsplit.spaceforms import example_sphere_connection, gauss_curvature_brioschi

SPH = GroupSpec("orthogonal", 2, 1)
HYP = GroupSpec("lorentz", 2, 1)
S_RM1 = SymmetrySpec(2, 1, "Rm1")


def test_curvature_formula():
    assert curvature_c(1.0, SPH) == pytest.approx(1.0)
    assert curvature_c(2j, SPH) == pytest.approx(-16.0 / 9.0)
    assert curvature_c(2j, HYP) == pytest.approx(16.0 / 9.0)
    lam = 0.3 + 1.1j
    assert curvature_c(lam, SPH) == pytest.approx(curvature_c(1.0 / lam, SPH))
    with pytest.raises(ls.DegenerateLambda):
        curvature_c(1j, SPH)
    with pytest.raises(ls.ZeroLambda):
        curvature_c(0.0, SPH)


def test_family_closed_form_vs_loop():
    rng = rng_for(61)
    for _ in range(10):
        u, v = rng.uniform(-1.0, 1.0, 2)
        lam = rng.uniform(0.4, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        got = example_sphere_frame(u, v).eval(lam)
        np.testing.assert_allclose(got, example_sphere_family(u, v, lam), atol=1e-13)
    np.testing.assert_allclose(example_sphere_family(0, 0, 1.7 - 0.2j), np.eye(4),
                               atol=1e-14)


def test_family_symmetries_and_membership():
    g = example_sphere_frame(0.45, -0.3)
    assert fixed_residual(g, ["sigma", "tau", "Rm1"], S_RM1) < 1e-12
    assert group_residual(g, SPH) < 1e-12
    assert g.window == (-2, 2)


def test_family_connection_matches_printed_form():
    grid = Grid2D.centered(0.25, 7, 0.2, 7)
    spec = example_sphere_connection(grid)
    A = assemble_connection(spec)
    assert connection_order(A) == (-1, 1, False)
    i, j = 2, 4
    u, v = grid.us[i], grid.vs[j]
    a_u = A.value(i, j, 0)
    # printed entries: -sin v du at (0,1); (lambda+1/lambda)/2 cos v du at (0,2)
    assert a_u.coeff(0)[0, 1] == pytest.approx(-np.sin(v))
    assert a_u.coeff(1)[0, 2] == pytest.approx(0.5 * np.cos(v))
    assert a_u.coeff(1)[0, 3] == pytest.approx(0.5j * np.cos(v))
    assert a_u.coeff(-1)[0, 3] == pytest.approx(-0.5j * np.cos(v))
    a_v = A.value(i, j, 1)
    assert a_v.coeff(1)[1, 2] == pytest.approx(0.5)
    assert np.abs(a_v.coeff(0)).max() == 0.0
    # finite-difference connection of the sampled frames agrees to O(h^2)
    F = example_sphere_field(grid)
    A_fd = maurer_cartan(F)
    h2 = max(grid.h_u, grid.h_v) ** 2
    worst = max(max(distance(A_fd.value(i, j, 0), A.value(i, j, 0)),
                    distance(A_fd.value(i, j, 1), A.value(i, j, 1)))
                for i, j in grid.nodes() if A_fd.mask[i, j])
    assert worst < 3.0 * h2


def test_assemble_rejects_bad_data():
    grid = Grid2D.centered(0.3, 5, 0.3, 5)
    nu, nv = grid.shape
    # type A with nonzero omega
    omega = np.zeros((nu, nv, 2, 2, 2))
    omega[..., 0, 1] = 1.0
    omega[..., 1, 0] = -1.0
    with pytest.raises(ls.IntegrabilityViolation):
        assemble_connection(ExtendedConnectionSpec("A2", 2, 1, grid, SPH, omega=omega))
    # eta with a nonzero first row
    eta = np.zeros((nu, nv, 2, 2, 2))
    eta[..., 0, 1] = 1.0
    with pytest.raises(ls.IntegrabilityViolation):
        assemble_connection(ExtendedConnectionSpec("B2", 2, 1, grid, SPH, eta=eta))
    # non-closed lambda-block: theta = u dv is not closed
    theta = np.zeros((nu, nv, 2, 2))
    for i, u in enumerate(grid.us):
        theta[i, :, 1, 0] = u
    with pytest.raises(ls.IntegrabilityViolation) as err:
        assemble_connection(ExtendedConnectionSpec("A2", 2, 1, grid, SPH, theta=theta))
    assert 1 in err.value.residuals  # failure concentrated in degree 1


def test_assemble_zero_is_zero():
    grid = Grid2D.centered(0.3, 5, 0.3, 5)
    A = assemble_connection(ExtendedConnectionSpec("B2", 2, 1, grid, SPH))
    assert connection_order(A) == (0, 0, True)


def test_assembled_form_symmetries():
    grid = Grid2D.centered(0.3, 5, 0.25, 5)
    A = assemble_connection(example_sphere_connection(grid))
    worst = max(fixed_residual(A.value(i, j, 0), ["sigma", "tau", "Rm1"], S_RM1)
                for i, j in grid.nodes())
    assert worst < 1e-12


def test_extract_immersion_at_lambda_one():
    grid = Grid2D.centered(0.4, 7, 0.35, 7)
    F = example_sphere_field(grid)
    im = extract_immersion(F, 1.0, SPH)
    for i, j in ((1, 2), (5, 6)):
        u, v = grid.us[i], grid.vs[j]
        expect = [np.sin(u) * np.cos(v), np.sin(v), np.cos(u) * np.cos(v), 0.0]
        np.testing.assert_allclose(im.points[i, j], expect, atol=1e-12)
    bi, bj = grid.base
    np.testing.assert_allclose(im.points[bi, bj], [0, 0, 1, 0], atol=1e-13)
    assert np.nanmax(im.diagnostics["quadric_residual"]) < 1e-10


def test_extract_immersion_off_locus_raises():
    grid = Grid2D.centered(0.3, 5, 0.3, 5)
    F = example_sphere_field(grid)
    with pytest.raises(ls.NonRealFrame):
        extract_immersion(F, 1.5, SPH)  # circle-reality field off the circle


def test_immersivity_flag_degenerates():
    # the coframe drops rank along cos v = 0
    grid = Grid2D.from_spacing(0.1, 0.05, 5, np.pi / 2 - 0.1, 0.05, 5, base=(0, 0))
    F = example_sphere_field(grid)
    im = extract_immersion(F, 1.0, SPH)
    det = im.diagnostics["metric_det"]
    j_degenerate = int(np.argmin(np.abs(grid.vs - np.pi / 2)))
    assert np.nanmin(det[:, j_degenerate]) < np.nanmax(det[:, 0]) * 1e-2


def test_gauss_curvature_against_formula():
    lam = np.exp(1j * np.pi / 6)
    grid = Grid2D.from_spacing(0.25, 0.01, 9, 0.15, 0.01, 9, base=(4, 4))
    F = example_sphere_field(grid)
    im = extract_immersion(F, lam, SPH)
    K = im.diagnostics["gauss_curvature"]
    assert np.nanmax(np.abs(K - curvature_c(lam, SPH))) < 1e-3


def test_integrate_printed_connection_reproduces_frame():
    # the non-abelian route: integrate the printed type-B form by RK4 and
    # land on the printed frames, with fourth-order convergence
    errs = []
    for npts in (9, 17):
        grid = Grid2D.centered(0.4, npts, 0.4, npts)
        eta = assemble_connection(example_sphere_connection(grid))
        F = ls.integrate_potential(eta)
        errs.append(field_distance(F, example_sphere_field(grid)))
    assert errs[0] < 5e-6
    assert errs[0] / errs[1] > 10.0


def test_integration_exactness_property():
    # the discrete flatness residual of a connection extracted from an
    # integrated field shrinks at second order
    def residual_at(npts):
        grid = Grid2D.centered(0.4, npts, 0.4, npts)
        eta = assemble_connection(example_sphere_connection(grid))
        F = ls.integrate_potential(eta)
        return mc_residual(maurer_cartan(F))

    r1, r2 = residual_at(7), residual_at(13)
    assert r1 / r2 > 3.0
    assert r1 < 0.05


def test_phi_bridge_fixed_point_mapping():
    # sphere-side loops fixed by sigma and the first reality condition map to
    # Lorentz-side loops fixed by sigma and the tau-twisted conjugate reality
    rng = rng_for(65)
    grid = Grid2D.centered(0.2, 3, 0.2, 3)
    flat = random_flat_field(rng, grid, "R1", SPH)
    g = flat.value(1, 2)
    assert fixed_residual(g, ["sigma", "R1"], S_RM1) < 1e-12
    bridged = ls.phi_map(g, "sphere_to_hyperbolic", S_RM1)
    assert fixed_residual(bridged, ["sigma", "Rhat1"], S_RM1) < 1e-12
    assert group_residual(bridged, HYP) < 1e-11


def test_flat_example_target():
    np.testing.assert_allclose(example_flat_target(0.0, 0.0, 2j), [0, 0, 1, 0],
                               atol=1e-15)
    rng = rng_for(62)
    J = HYP.form_matrix
    for _ in range(10):
        x, y = rng.uniform(-1, 1, 2)
        t = rng.uniform(0.3, 3.0)
        f = example_flat_target(x, y, 1j * t)
        assert abs(f @ J @ f + 1.0) < 1e-12
        assert f[2] > 0  # upper sheet convention
    with pytest.raises(ls.NonRealFrame):
        example_flat_target(0.1, 0.2, 1.0 + 0.5j)
    xs = np.linspace(-0.5, 0.5, 9)
    grid = Grid2D(xs, xs, (4, 4))
    pts = np.array([[example_flat_target(x, y, 2j) for y in xs] for x in xs])
    K, _ = gauss_curvature_brioschi(pts, grid, J)
    assert np.nanmax(np.abs(K)) < 1e-6


def test_nonflat_to_flat_matches_printed_immersion():
    grid = Grid2D.centered(0.4, 7, 0.35, 7)
    flat = nonflat_to_flat(example_sphere_field(grid), S_RM1)
    assert flat.target.kind == "lorentz"
    assert flat.symmetry.reality == "R1"
    assert flat.is_based()
    h2 = max(grid.h_u, grid.h_v) ** 2
    lo, hi, zero = connection_order(maurer_cartan(flat), tol_order=10 * h2)
    assert (lo, hi, zero) == (1, 1, False)
    lam = 2j
    im = extract_immersion(flat, lam, HYP)
    pts = im.points
    x = pts[:, :, 0] / float((1j * lam).real)
    y = pts[:, :, 1] / float((1j * lam).real)
    s2 = (x * x + y * y) * float((lam * lam).real)
    np.testing.assert_allclose(pts[:, :, 2], 0.5 * (2.0 - s2), atol=1e-10)
    np.testing.assert_allclose(pts[:, :, 3], 0.5 * s2, atol=1e-10)


def test_identity_edge_cases():
    grid = Grid2D.centered(0.3, 5, 0.3, 5)
    eye_field = FrameField.constant_field(grid, ls.identity(4),
                                          symmetry=S_RM1, target=SPH)
    flat = nonflat_to_flat(eye_field, S_RM1)
    assert field_distance(flat, eye_field) < 1e-12
    s2 = SymmetrySpec(2, 1, "R2")
    eye2 = FrameField.constant_field(grid, ls.identity(4), symmetry=s2, target=SPH)
    back = flat_to_nonflat(eye2, s2)
    assert field_distance(back, eye2) < 1e-10


def test_round_trip_up_to_gauge():
    grid = Grid2D.centered(0.35, 7, 0.3, 7)
    F = example_sphere_field(grid)
    flat = nonflat_to_flat(F, S_RM1)
    back = flat_to_nonflat(flat, S_RM1)
    assert back.target.kind == "orthogonal"
    # the gauge factor fixes the distinguished column, so the immersion of
    # the rebuilt frame is literally the original one
    lam = np.exp(1j * np.pi / 6)
    im_f = extract_immersion(F, lam, SPH)
    im_b = extract_immersion(back, lam, SPH, real_tol=1e-6)
    assert np.nanmax(np.abs(im_f.points - im_b.points)) < 1e-12
    P, Q = S_RM1.sigma_matrix, S_RM1.tau_matrix
    for i, j in ((0, 0), (2, 5), (6, 3)):
        d = mul(F.value(i, j).transpose(), back.value(i, j))
        dc = d.coeff(0)
        assert distance(d, ls.constant(dc)) < 1e-6
        assert np.abs(P @ dc @ P - dc).max() < 1e-6
        assert np.abs(Q @ dc @ Q - dc).max() < 1e-6


@pytest.mark.parametrize("kind, reality", [("orthogonal", "R1"), ("lorentz", "R2")])
def test_tau_merge_keeps_based_flat_fields_based_and_in_the_group(kind, reality):
    # scale 1.6 puts the tau-fixed factors far from I, where a gauge that is
    # only approximately in the group would show as a group or base error
    grid = Grid2D.centered(0.4, 9, 0.4, 9)
    target = GroupSpec(kind, 2, 1)
    flat = random_flat_field(rng_for(71), grid, reality, target, scale=1.6)
    assert flat.is_based(1e-12)
    F = tau_merge(flat, SymmetrySpec(2, 1, reality))
    assert F.mask.all(), F.info["failures"]
    assert F.is_based(1e-12)
    assert max(group_residual(F.value(*node), target) for node in grid.nodes()) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind, reality", [("orthogonal", "R1"), ("orthogonal", "R2"),
                                           ("lorentz", "R1"), ("lorentz", "R2")])
def test_codimension_round_trip(kind, reality, k):
    # for k >= 2 the flat generators reach two normal directions, so the
    # tau-fixed factor and its gauge act on a normal block wider than 1
    grid = Grid2D.centered(0.3, 7, 0.3, 7)
    target = GroupSpec(kind, 2, k)
    s = SymmetrySpec(2, k, reality)
    flat = random_flat_field(rng_for((72, k)), grid, reality, target)
    F = flat_to_nonflat(flat, s)
    back = nonflat_to_flat(F, s)
    assert F.mask.all() and back.mask.all()
    assert field_distance(back, flat) <= 1e-7
    assert F.is_based(1e-12) and back.is_based(1e-12)
    assert max(group_residual(F.value(*node), target) for node in grid.nodes()) <= 1e-12


def test_r2_pipeline_flat_shape():
    rng = rng_for(63)
    s2 = SymmetrySpec(2, 1, "R2")
    grid = Grid2D.centered(0.3, 7, 0.3, 7)
    flat = random_flat_field(rng, grid, "R2", SPH)
    F = flat_to_nonflat(flat, s2)
    flat2 = nonflat_to_flat(F, s2)
    assert field_distance(flat2, flat) < 1e-7
    A = maurer_cartan(flat2)
    h2 = max(grid.h_u, grid.h_v) ** 2
    lo, hi, zero = connection_order(A, tol_order=10 * h2)
    assert (lo, hi, zero) == (1, 1, False)
    # lambda-linear coefficient has zero diagonal blocks (parallel frame)
    c1 = A.value(3, 3, 0).coeff(1)
    assert np.abs(c1[:2, :2]).max() < 1e-6 and np.abs(c1[2:, 2:]).max() < 1e-6


def test_validate_adapted():
    grid = Grid2D.centered(0.3, 9, 0.25, 9)
    F = example_sphere_field(grid)
    lam = np.exp(1j * np.pi / 6)
    rep = validate_adapted(F, SPH, lam)
    h2 = max(grid.h_u, grid.h_v) ** 2
    # the discrete connection leaks O(h^2) into the forbidden entries
    assert np.nanmax(rep["adapted"]) < 10 * h2
    assert np.nanmax(rep["curvature"]) < 10 * h2
    assert np.nanmax(rep["normal_flat"]) < 10 * h2
    # gauge invariance: right multiplication by a fixed-subgroup field
    def gauge(u, v):
        ang = 0.3 * u - 0.2 * v
        rot = np.eye(4)
        rot[0, 0] = rot[1, 1] = np.cos(ang)
        rot[0, 1], rot[1, 0] = np.sin(ang), -np.sin(ang)
        return ls.constant(rot)

    vals = {(i, j): mul(F.value(i, j), gauge(grid.us[i], grid.vs[j]))
            for i, j in grid.nodes()}
    G = FrameField.from_loops(grid, vals)
    rep2 = validate_adapted(G, SPH, lam)
    assert np.nanmax(rep2["adapted"]) < 10 * h2
    assert np.nanmax(rep2["curvature"]) < 10 * h2
    im1 = extract_immersion(F, 1.0, SPH)
    im2 = extract_immersion(G, 1.0, SPH)
    assert np.nanmax(np.abs(im1.points - im2.points)) < 1e-12
    # an injected fault mixing the immersion direction into the normal bundle
    # shows up in the adaptedness residual at the size of its derivative
    from scipy.linalg import expm
    eps = 1e-3
    K = np.zeros((4, 4))
    K[2, 3], K[3, 2] = 1.0, -1.0  # forbidden direction: first row/col of eta
    bad_vals = {(i, j): mul(F.value(i, j),
                            ls.constant(expm(eps * np.sin(3.0 * grid.us[i]) * K)))
                for i, j in grid.nodes()}
    rep3 = validate_adapted(FrameField.from_loops(grid, bad_vals), SPH, lam)
    assert 0.5 * eps < np.nanmax(rep3["adapted"]) < 10.0 * eps


def test_correspondence_table_routing():
    table = {
        ("orthogonal", "R1"): ("orthogonal", (-np.inf, 0.0)),
        ("orthogonal", "R2"): ("orthogonal", (0.0, 1.0)),
        ("orthogonal", "Rm1"): ("lorentz", (1.0, np.inf)),
        ("lorentz", "Rm1"): ("orthogonal", (-np.inf, -1.0)),
        ("lorentz", "R2"): ("lorentz", (-1.0, 0.0)),
        ("lorentz", "R1"): ("lorentz", (0.0, np.inf)),
    }
    for key, expect in table.items():
        assert correspondence_route(*key) == expect
    with pytest.raises(ValueError):
        correspondence_route("orthogonal", "Rhat1")
    assert classify_curvature(4.0 / 3.0, "orthogonal") == (1.0, np.inf)
    assert classify_curvature(-0.64, "lorentz") == (-1.0, 0.0)
    assert classify_curvature(1.0, "orthogonal") is None  # boundary flagged


def test_seeded_family_instance_is_valid():
    rng = rng_for(64)
    grid = Grid2D.centered(0.3, 5, 0.3, 5)
    F = sphere_family_instance(rng, grid)
    assert F.is_based(1e-10)
    worst = max(fixed_residual(F.value(i, j), ["sigma", "tau", "Rm1"], S_RM1)
                for i, j in grid.nodes())
    assert worst < 1e-12
    assert max(group_residual(F.value(i, j), SPH) for i, j in grid.nodes()) < 1e-11
