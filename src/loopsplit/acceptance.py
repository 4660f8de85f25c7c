"""The verification suite: every check the package promises, as library code.

Each criterion returns a CriterionResult with named metrics and bounds; the
same functions back both `loopsplit verify` and the pytest acceptance module,
so the command line and the test suite cannot drift apart.  All randomness
flows from the seed through one generator per criterion.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from . import generators as gen
from .factorization import birkhoff_left, tau_iwasawa
from .fields import (
    Grid2D,
    connection_order,
    dress_minus,
    dress_pair,
    dress_plus,
    field_distance,
    maurer_cartan,
    merge,
    split,
)
from .loops import (
    GroupSpec,
    constant,
    distance,
    fnorm,
    from_terms,
    group_residual,
    identity,
    mul,
    truncated_inverse,
)
from .spaceforms import (
    assemble_connection,
    classify_curvature,
    correspondence_route,
    curvature_c,
    example_flat_target,
    example_sphere_connection,
    example_sphere_field,
    extract_immersion,
    gauss_curvature_brioschi,
    nonflat_to_flat,
)
from .symmetry import SymmetrySpec, fixed_residual, phi_map, tau_constant


@dataclass
class Metric:
    label: str
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return bool(np.isfinite(self.value) and self.value <= self.bound)


@dataclass
class CriterionResult:
    number: int
    name: str
    metrics: list = field(default_factory=list)
    seconds: float = 0.0

    def add(self, label, value, bound):
        self.metrics.append(Metric(label, float(value), float(bound)))

    @property
    def passed(self) -> bool:
        return all(m.ok for m in self.metrics)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        worst = max(self.metrics, key=lambda m: m.value / m.bound if m.bound else 1.0,
                    default=None)
        detail = f" [{worst.label}: {worst.value:.3e} <= {worst.bound:.1e}]" if worst else ""
        return f"{status}  criterion {self.number}: {self.name}{detail}"


def criterion_1(seed) -> CriterionResult:
    """Birkhoff reconstruction on 200 seeded products of normalized factors."""
    res = CriterionResult(1, "Birkhoff reconstruction of 200 random products")
    rng = gen.rng_for((seed, 1))
    n, N = 4, 24
    worst_res, worst_rec, worst_norm = 0.0, 0.0, 0.0
    for _ in range(200):
        gm = gen.random_minus_unipotent(rng, n, depth=4, scale=0.1, decay=0.3)
        terms = {}
        for d in range(0, 5):
            m = gen.random_matrix(rng, n)
            terms[d] = (0.06 * 0.55 ** d / np.linalg.norm(m, 2)) * m
        terms[0] = terms[0] + np.eye(n)
        gp = from_terms(terms)
        worst_norm = max(worst_norm, gen.spectral_wiener_norm(gm),
                         gen.spectral_wiener_norm(gp))
        g = mul(gm, gp)
        out = birkhoff_left(g, N=N, tol=1e-9)
        worst_res = max(worst_res, out.residual)
        worst_rec = max(worst_rec, distance(out.minus, gm), distance(out.plus, gp))
    res.add("factor norms (spectral sum)", worst_norm, 1.3)
    res.add("max reconstruction residual", worst_res, 1e-9)
    res.add("max factor recovery error", worst_rec, 1e-8)
    return res


def criterion_2(seed) -> CriterionResult:
    """Both Birkhoff factors of a twist-fixed loop stay twist-fixed."""
    res = CriterionResult(2, "twisted subgroup preservation on 100 fixed loops")
    rng = gen.rng_for((seed, 2))
    s = SymmetrySpec(2, 1)
    worst = 0.0
    for _ in range(100):
        g = gen.random_fixed_loop(rng, s, ("sigma",), radius=2, scale=0.35)
        out = birkhoff_left(g, tol=1e-8)
        worst = max(worst,
                    fixed_residual(out.minus, "sigma", s),
                    fixed_residual(out.plus, "sigma", s))
    res.add("max sigma residual of factors", worst, 1e-8)
    return res


def criterion_3(seed) -> CriterionResult:
    """tau-Iwasawa reconstruction and gauge-constancy on 100 built instances."""
    res = CriterionResult(3, "tau-Iwasawa factorization of 100 constructed loops")
    rng = gen.rng_for((seed, 3))
    s = SymmetrySpec(2, 1)
    worst_rec, worst_tau, worst_const, worst_fix = 0.0, 0.0, 0.0, 0.0
    for _ in range(100):
        x, z0, _ = gen.random_tau_instance(rng, s, radius=2, scale=0.15)
        out = tau_iwasawa(x, s, tol=1e-8, constant_group="general")
        worst_rec = max(worst_rec, out.residuals["reconstruction"])
        worst_tau = max(worst_tau, out.residuals["tau_fixed"])
        d = mul(truncated_inverse(z0, 20), out.z)
        dc = d.coeff(0)
        worst_const = max(worst_const, distance(d, constant(dc)))
        worst_fix = max(worst_fix, fnorm(tau_constant(dc, s) - dc))
    res.add("max reconstruction residual", worst_rec, 1e-8)
    res.add("max tau-fixedness residual", worst_tau, 1e-8)
    res.add("max gauge non-constancy", worst_const, 1e-7)
    res.add("max gauge tau-defect", worst_fix, 1e-7)
    return res


def criterion_4(seed) -> CriterionResult:
    """Split/merge bijection on 50 potential-generated 17x17 frames."""
    res = CriterionResult(4, "split/merge bijection on 50 17x17 frames")
    rng = gen.rng_for((seed, 4))
    grid = Grid2D.centered(0.5, 17, 0.5, 17)
    worst_rt, worst_rec = 0.0, 0.0
    orders_ok = True
    for _ in range(50):
        gm, fp = gen.random_basic_pair(rng, grid, n=4, scale=0.4)
        F = merge(gm, fp)
        g2, f2 = split(F)
        if not (F.mask.all() and g2.mask.all()):
            orders_ok = False
            break
        F2 = merge(g2, f2)
        worst_rt = max(worst_rt, field_distance(F2, F))
        worst_rec = max(worst_rec, field_distance(g2, gm), field_distance(f2, fp))
        om = connection_order(maurer_cartan(g2), tol_order=1e-6)
        op = connection_order(maurer_cartan(f2), tol_order=1e-6)
        if om != (-1, -1, False) or op != (1, 1, False):
            orders_ok = False
    res.add("max merge(split(F)) - F", worst_rt, 1e-7)
    res.add("max basic-pair recovery error", worst_rec, 1e-7)
    res.add("orders after split exactly (-1,-1) and (1,1)", 0.0 if orders_ok else 1.0, 0.5)
    return res


def criterion_5(seed) -> CriterionResult:
    """Closed-form family: connection match and the printed flat partner."""
    res = CriterionResult(5, "closed-form sphere family agreement")
    s = SymmetrySpec(2, 1, "Rm1")
    h = 1e-2
    grid = Grid2D.from_spacing(0.05, h, 9, 0.1, h, 9, base=(4, 4))
    F = example_sphere_field(grid)
    A_fd = maurer_cartan(F)
    A_ref = assemble_connection(example_sphere_connection(grid))
    res.add("connection form vs printed form (h=1e-2)", field_distance(A_fd, A_ref), 1e-3)

    grid_b = Grid2D.centered(0.4, 9, 0.35, 9)
    flat = nonflat_to_flat(example_sphere_field(grid_b), s)
    lam = 2j
    im = extract_immersion(flat, lam, GroupSpec("lorentz", 2, 1))
    pts = im.points
    scale = float((1j * lam).real)
    x = pts[:, :, 0] / scale
    y = pts[:, :, 1] / scale
    s2 = (x * x + y * y) * float((lam * lam).real)
    expect2 = 0.5 * (2.0 - s2)
    expect3 = 0.5 * s2
    err = max(float(np.abs(pts[:, :, 2] - expect2).max()),
              float(np.abs(pts[:, :, 3] - expect3).max()))
    res.add("flat partner vs printed immersion at lambda=2i", err, 1e-5)
    res.add("flat partner Lorentz normalization",
            float(np.nanmax(im.diagnostics["quadric_residual"])), 1e-8)
    return res


def criterion_6(seed) -> CriterionResult:
    """Measured Gauss curvature against 4/(lambda+1/lambda)^2, and flatness
    of the flat partner."""
    res = CriterionResult(6, "curvature reproduction at two lambda values")
    sph = GroupSpec("orthogonal", 2, 1)
    h = 1e-2
    grid = Grid2D.from_spacing(0.25, h, 9, 0.15, h, 9, base=(4, 4))
    F = example_sphere_field(grid)
    for label, lam in (("exp(i pi/6)", np.exp(1j * np.pi / 6)),
                       ("exp(i pi/3)", np.exp(1j * np.pi / 3))):
        im = extract_immersion(F, lam, sph)
        K = im.diagnostics["gauss_curvature"]
        err = float(np.nanmax(np.abs(K - curvature_c(lam, sph))))
        res.add(f"|K - c| at lambda = {label}", err, 1e-3)
    xs = np.linspace(-0.4, 0.4, 9)
    grid_f = Grid2D(xs, xs, (4, 4))
    pts = np.zeros((9, 9, 4))
    for i, xv in enumerate(xs):
        for j, yv in enumerate(xs):
            pts[i, j] = example_flat_target(xv, yv, 2j)
    K, _ = gauss_curvature_brioschi(pts, grid_f, GroupSpec("lorentz", 2, 1).form_matrix)
    res.add("flat image |K|", float(np.nanmax(np.abs(K))), 1e-6)
    return res


def criterion_7(seed) -> CriterionResult:
    """All six rows of the flat/non-flat correspondence table."""
    res = CriterionResult(7, "correspondence-table routing, one instance per row")
    rng = gen.rng_for((seed, 7))
    rows = [("orthogonal", "R1"), ("orthogonal", "R2"), ("orthogonal", "Rm1"),
            ("lorentz", "Rm1"), ("lorentz", "R2"), ("lorentz", "R1")]
    locus_lambda = {"R1": 2j, "R2": 0.5, "Rm1": np.exp(1j * np.pi / 6)}
    grid = Grid2D.centered(0.3, 7, 0.3, 7)
    for target_kind, reality in rows:
        tag = f"{target_kind}/{reality}"
        s = SymmetrySpec(2, 1, reality)
        F = gen.table_instance(rng, target_kind, reality, grid)
        target = GroupSpec(target_kind, 2, 1)
        lam = locus_lambda[reality]
        im = extract_immersion(F, lam, target, real_tol=1e-6)
        K = im.diagnostics["gauss_curvature"]
        c_measured = float(np.nanmedian(K))
        expected_flat_kind, interval = correspondence_route(target_kind, reality)
        got = classify_curvature(c_measured, target_kind)
        res.add(f"{tag}: measured c in the table interval",
                0.0 if got == interval else 1.0, 0.5)
        res.add(f"{tag}: |median K - c(lambda)|",
                abs(c_measured - curvature_c(lam, target)),
                2e-2 * max(1.0, abs(curvature_c(lam, target))))
        flat = nonflat_to_flat(F, s)
        res.add(f"{tag}: flat target is {expected_flat_kind}",
                0.0 if flat.target.kind == expected_flat_kind else 1.0, 0.5)
        flat_lam = 2j if flat.symmetry.reality == "R1" else 0.5
        im_f = extract_immersion(flat, flat_lam, flat.target, real_tol=1e-6)
        Kf = im_f.diagnostics["gauss_curvature"]
        # flatness at the finite-difference accuracy of the h = 0.1 grid
        res.add(f"{tag}: flat side |median K|", abs(float(np.nanmedian(Kf))), 2e-2)
    return res


def criterion_8(seed) -> CriterionResult:
    """Dressing is a left action, and pair dressing matches piecewise dressing."""
    res = CriterionResult(8, "dressing action axioms on 20 seeded instances")
    rng = gen.rng_for((seed, 8))
    grid = Grid2D.centered(0.4, 6, 0.4, 6)
    worst_id, worst_act, worst_pair_id, worst_pair_act, worst_cons = (0.0,) * 5
    for _ in range(20):
        gm0, fp0 = gen.random_basic_pair(rng, grid, n=4, scale=0.3)
        g = gen.random_dressing_element(rng, 4, "minus")
        h = gen.random_dressing_element(rng, 4, "minus")
        eye = identity(4)
        worst_id = max(worst_id, field_distance(dress_plus(eye, fp0), fp0))
        lhs = dress_plus(mul(g, h), fp0)
        rhs = dress_plus(g, dress_plus(h, fp0))
        worst_act = max(worst_act, field_distance(lhs, rhs))
        F = merge(gm0, fp0)
        gp = gen.random_dressing_element(rng, 4, "plus")
        worst_pair_id = max(worst_pair_id, field_distance(dress_pair(eye, eye, F), F))
        hp = gen.random_dressing_element(rng, 4, "plus")
        lhs2 = dress_pair(mul(g, h), mul(gp, hp), F)
        rhs2 = dress_pair(g, gp, dress_pair(h, hp, F))
        worst_pair_act = max(worst_pair_act, field_distance(lhs2, rhs2))
        gsplit, fsplit = split(F)
        piecewise = merge(dress_minus(gp, gsplit), dress_plus(g, fsplit))
        worst_cons = max(worst_cons, field_distance(dress_pair(g, gp, F), piecewise))
    res.add("identity acts trivially (plus)", worst_id, 1e-7)
    res.add("action axiom (plus)", worst_act, 1e-7)
    res.add("identity acts trivially (pair)", worst_pair_id, 1e-7)
    res.add("action axiom (pair)", worst_pair_act, 1e-7)
    res.add("pair vs piecewise dressing", worst_cons, 1e-7)
    return res


def criterion_9(seed) -> CriterionResult:
    """The group bridge: membership mapping and exact homomorphism."""
    res = CriterionResult(9, "sphere/hyperbolic bridge on 100 orthogonal loops")
    rng = gen.rng_for((seed, 9))
    s = SymmetrySpec(2, 1)
    sph = GroupSpec("orthogonal", 2, 1)
    hyp = GroupSpec("lorentz", 2, 1)
    worst_mem, worst_hom = 0.0, 0.0
    prev = None
    for _ in range(100):
        g = gen.random_orthogonal_loop(rng, sph, radius=2, scale=0.4)
        mapped = phi_map(g, "sphere_to_hyperbolic", s)
        worst_mem = max(worst_mem, group_residual(mapped, hyp))
        if prev is not None:
            lhs = phi_map(mul(prev, g), "sphere_to_hyperbolic", s)
            rhs = mul(phi_map(prev, "sphere_to_hyperbolic", s), mapped)
            worst_hom = max(worst_hom, distance(lhs, rhs))
        prev = g
    res.add("max Lorentz membership residual", worst_mem, 1e-10)
    res.add("max homomorphism defect", worst_hom, 1e-13)
    return res


def criterion_10(seed) -> CriterionResult:
    """Byte-identical verification CSVs across repeated seeded runs."""
    res = CriterionResult(10, "determinism of the verification surface")
    # checked on a sub-run (criteria 1,9) to avoid self-recursion
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for name in ("a.csv", "b.csv"):
            path = Path(tmp) / name
            cmd = [sys.executable, "-m", "loopsplit.cli", "verify",
                   "--seed", str(seed), "--only", "1,9", "--out", str(path),
                   "--quiet"]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                res.add("verify sub-run exit code", float(proc.returncode), 0.0)
                return res
            outs.append(path.read_bytes())
    res.add("verify sub-run exit code", 0.0, 0.0)
    res.add("CSV outputs byte-identical", 0.0 if outs[0] == outs[1] else 1.0, 0.5)
    return res


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10,
}


def run(seed, only, progress):
    results = []
    numbers = sorted(only) if only else sorted(CRITERIA)
    for num in numbers:
        t0 = perf_counter()
        try:
            result = CRITERIA[num](seed)
        except Exception as exc:  # a crashed criterion counts as a failure
            result = CriterionResult(num, CRITERIA[num].__doc__.splitlines()[0])
            result.add(f"criterion raised {type(exc).__name__}: {exc}", 1.0, 0.5)
        result.seconds = perf_counter() - t0
        results.append(result)
        if progress:
            progress(result.summary() + f"  ({result.seconds:.1f}s)")
    return results


def results_csv(results):
    """Deterministic CSV payload for the verification run (no timings)."""
    cols = ["criterion", "name", "metric", "value", "bound", "pass"]
    rows = []
    for r in results:
        for m in r.metrics:
            rows.append([r.number, r.name, m.label, m.value, m.bound,
                         1 if m.ok else 0])
        rows.append([r.number, r.name, "criterion verdict",
                     0.0 if r.passed else 1.0, 0.5, 1 if r.passed else 0])
    return cols, rows
