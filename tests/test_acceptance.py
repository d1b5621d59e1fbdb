"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single ``[acceptance] criterion N: PASS/FAIL`` line
(run pytest with -s to see them) and enforces its runtime budget.

Criterion 3 checks the endpoint lower-bound quotient against the exact
supremum Q*(delta) = max over s in (0, 1/2] of s G(s), computed in the test
by a bounded maximisation.  Q* lies between log(2) e^(delta-1)/delta and
log(3) e^(delta-1)/delta, so its log-log slope against 1/delta is 1 - O(delta):
0.880 on delta in {0.05, 0.1, 0.2}, not 1, and the sweep's slope is checked
against that exact slope rather than against a fixed number.
"""

import math
import time

import numpy as np
from scipy import integrate

from conftest import (
    argmax_inside_window,
    exact_lower_bound_supremum,
    random_signed_step,
    random_step,
)
from weaklab import (
    DyadicGrid,
    MatrixWeight,
    Mesh,
    MeshFunction,
    PowerLogWeight,
    SearchSpace,
    a1_characteristic,
    ainfty_characteristic,
    ainfty_scalar_characteristic,
    ap_characteristic,
    apq_characteristic,
    build_sparse_family,
    christ_goldberg_maximal,
    cz_decompose,
    delta_sweep,
    dual_reducing_matrix,
    dyadic_maximal,
    exact_a1_interval_average,
    fractional_maximal,
    hilbert_to_mesh,
    hl_maximal,
    matrix_ap_characteristic,
    multiplier_apply,
    op_norm,
    random_matrix_weight,
    reducing_matrix,
    rh_characteristic,
    scalar_restriction,
    scalar_restriction_characteristic,
    sharp_rh_exponent,
    sharp_rhi_matrix_bound,
    shifted_grids,
    unit_directions,
)
from weaklab.cli import main as cli_main
from weaklab.lowerbound import sweep_slope
from weaklab.sparse import covering_roots, root_cubes
from weaklab.weaktype import quotient_from_output
from weaklab.grid import average

E = math.e

# regression ceilings pinned from the seeded reference run
THM31_CEILING = 1.5
THM32_CEILING = 0.45
THM14_CEILING = 1.0


def report(criterion, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")


def test_criterion_1_closed_form_vs_quadrature():
    t0 = time.time()
    ok = True
    worst = 0.0
    for delta in (0.05, 0.1, 0.25):
        for t in (0.01, 0.1, 1.0):
            closed = exact_a1_interval_average(delta, t)
            quad, _ = integrate.quad(
                lambda x: math.log(E / x) * x ** (delta - 1.0), 0, t,
                limit=400, epsabs=1e-14, epsrel=1e-12,
            )
            rel = abs(closed - quad / t) / abs(quad / t)
            worst = max(worst, rel)
            ok &= rel <= 1e-8
        exact = 1.0 / delta + 1.0 / delta**2
        ok &= exact_a1_interval_average(delta, 1.0) == exact
    elapsed = time.time() - t0
    report(1, ok and elapsed < 1.0, f"worst rel err {worst:.2e}, t=1 exact", elapsed, 1.0)
    assert worst <= 1e-8
    for delta in (0.05, 0.1, 0.25):
        assert exact_a1_interval_average(delta, 1.0) == 1.0 / delta + 1.0 / delta**2
    assert elapsed < 1.0


def test_criterion_2_a1_scaling_of_w_delta():
    t0 = time.time()
    from weaklab.lowerbound import w_delta

    deltas = np.array([0.05, 0.1, 0.2])
    values = []
    for delta in deltas:
        rep = a1_characteristic(w_delta(delta), SearchSpace.anchored_only())
        values.append(rep.value)
        assert rep.value <= 2.0 / delta**2
    slope = float(np.polyfit(np.log(deltas), np.log(values), 1)[0])
    elapsed = time.time() - t0
    ok = -2.2 <= slope <= -1.8 and elapsed < 30
    report(2, ok, f"values {['%.4g' % v for v in values]}, slope {slope:.4f}", elapsed, 30)
    assert -2.2 <= slope <= -1.8
    assert elapsed < 30


def test_criterion_3_lower_bound_experiment():
    t0 = time.time()
    deltas = [0.05, 0.1, 0.2]
    reports = delta_sweep(deltas, compute_nu=False)
    exact = [exact_lower_bound_supremum(r.delta) for r in reports]
    floors_ok = all(r.quotient >= 0.125 / r.delta for r in reports)
    # a true lower bound for the supremum, and within 2% of it
    below_ok = all(r.quotient <= q * (1 + 1e-9) for r, q in zip(reports, exact))
    close_ok = all(r.quotient >= q * (1 - 0.02) for r, q in zip(reports, exact))
    argmax_ok = all(argmax_inside_window(r) for r in reports)
    # the 1/delta law through log 2 <= log((2-s)/(1-s)) <= log 3 on [0, 1/2]
    lead = [math.exp(r.delta - 1) / r.delta for r in reports]
    law_ok = all(
        math.log(2) * c * (1 - 1e-12) <= q <= math.log(3) * c
        and math.log(2) * c * (1 - 0.02) <= r.quotient <= math.log(3) * c
        for r, q, c in zip(reports, exact, lead)
    )
    slope = sweep_slope(reports)
    exact_slope = float(np.polyfit(np.log([1 / r.delta for r in reports]), np.log(exact), 1)[0])
    slope_ok = abs(slope - exact_slope) <= 0.005
    # diagnostic only: on an extended grid the slope climbs toward 1, but at
    # delta = 0.02 the maximiser 4.79 e^(1/delta) lies outside the window
    extended = delta_sweep([0.02, 0.05, 0.1], compute_nu=False)
    ext_slope = sweep_slope(extended)
    ext_bracketed = all(argmax_inside_window(r) for r in extended)
    elapsed = time.time() - t0
    ok = floors_ok and below_ok and close_ok and argmax_ok and law_ok and slope_ok
    detail = (
        f"quotient/Q* {['%.5f' % (r.quotient / q) for r, q in zip(reports, exact)]}, "
        f"argmax {'inside window' if argmax_ok else 'ON WINDOW ENDPOINT'}, "
        f"slope {slope:.4f} vs exact {exact_slope:.4f} (extended grid down to "
        f"delta=0.02: {ext_slope:.4f}, {'bracketed' if ext_bracketed else 'argmax on window endpoint'})"
    )
    report(3, ok and elapsed < 120, detail, elapsed, 120)
    assert floors_ok, [r.quotient for r in reports]
    assert below_ok, [(r.delta, r.quotient, q) for r, q in zip(reports, exact)]
    assert close_ok, [(r.delta, r.quotient, q) for r, q in zip(reports, exact)]
    assert argmax_ok, [(r.best_lambda, r.lambda_star) for r in reports]
    assert law_ok, [(r.delta, r.quotient, q, c) for r, q, c in zip(reports, exact, lead)]
    assert slope_ok, (slope, exact_slope)
    assert elapsed < 120


def test_criterion_4_sharp_reverse_holder():
    t0 = time.time()
    mesh = Mesh(4.0, 9)
    rows = []
    for a in (0.3, 0.6, 0.9):
        w = PowerLogWeight(-a)
        nu = sharp_rh_exponent(w)
        assert rh_characteristic(w, nu, SearchSpace.anchored_only()).value <= 2.0 + 1e-6
        ainf = ainfty_characteristic(w, mesh=mesh).value
        rows.append((a, nu, ainf))
    nus = [r[1] for r in rows]
    ainfs = [r[2] for r in rows]
    monotone = nus[0] > nus[1] > nus[2] > 1.0 and ainfs[0] < ainfs[1] < ainfs[2]
    c0 = min((nu - 1.0) * ai for _, nu, ai in rows)
    elapsed = time.time() - t0
    ok = monotone and c0 > 0 and elapsed < 30
    report(4, ok, f"fitted c0 = {c0:.4f}, nu = {['%.4f' % n for n in nus]}", elapsed, 30)
    assert monotone
    assert c0 > 0
    assert elapsed < 30


def test_criterion_5_cz_decomposition_suite():
    t0 = time.time()
    mesh = Mesh(1.0, 7)
    rng = np.random.default_rng(505)
    p = 2.0
    n_checked = 0
    for trial in range(200):
        f = random_step(mesh, rng)
        h = f.power(p)
        height = float(rng.uniform(0.3, 2.0) * max(h.values.mean(), 1e-4))
        dec = cz_decompose(h, height)
        # 1. reconstruction
        assert np.array_equal(dec.good.values + dec.bad.values, h.values) or np.allclose(
            dec.good.values + dec.bad.values, h.values, rtol=0, atol=1e-15
        )
        # 2. mean zero on every stopping cube (exact arithmetic)
        for q in dec.cubes:
            assert abs(dec.bad.integral(q.left, q.right)) <= 1e-12 * max(1.0, h.integral())
        # 3. support of bad inside Omega
        off = np.setdiff1d(np.arange(mesh.n_cells), dec.omega_cells)
        assert np.all(dec.bad.values[off] == 0.0)
        # 4. L-infinity bound (2^n * height at n = 1) in the classical regime
        if all(average(h, r) <= height for r in root_cubes(mesh, DyadicGrid())):
            assert dec.good.lp_norm(np.inf) <= 2.0 * height + 1e-12
        # 5. L1 bound
        assert dec.good.lp_norm(1) <= h.lp_norm(1) * (1 + 1e-12)
        # 6. disjointness
        ivs = sorted((q.left, q.right) for q in dec.cubes)
        assert all(r1 <= l2 for (_, r1), (l2, _) in zip(ivs, ivs[1:]))
        # decomposition-average identity <f^p>_Q = <good>_Q off Omega,
        # on every cube of the search family (vectorized per level)
        omega_mask = np.zeros(mesh.n_cells, dtype=bool)
        omega_mask[dec.omega_cells] = True
        n = mesh.n_cells
        B = n // 2
        while B >= 1:
            hs = h.values.reshape(-1, B).mean(axis=1)
            gs = dec.good.values.reshape(-1, B).mean(axis=1)
            inside = omega_mask.reshape(-1, B).all(axis=1)
            sel = ~inside
            assert np.allclose(hs[sel], gs[sel], rtol=1e-12, atol=1e-15)
            n_checked += int(sel.sum())
            B //= 2
    elapsed = time.time() - t0
    ok = elapsed < 30
    report(5, ok, f"200 trials, {n_checked} off-Omega cube identities", elapsed, 30)
    assert elapsed < 30


def test_criterion_6_sparse_suite():
    t0 = time.time()
    mesh = Mesh(1.0, 7)
    rng = np.random.default_rng(606)
    # sparseness + pointwise domination on 100 seeded inputs
    for trial in range(100):
        f = random_step(mesh, rng)
        fam = build_sparse_family(f)
        assert fam.verify() == []
        for cube, cells in zip(fam.cubes, fam.designated):
            assert cube.width <= 2 * len(cells) * mesh.h + 1e-12
        md = dyadic_maximal(f, max_level=mesh.aligned_cell_level())
        As = fam.apply(f)
        covered = As.values > 0
        assert np.all(md.values[covered] <= 4.0 * As.values[covered] + 1e-10)
    # empirical sparse domination of the Hilbert transform by 3 shifted families
    wide = Mesh(4.0, 8)
    rng = np.random.default_rng(616)
    grids = shifted_grids(1)
    worst_c = 0.0
    for trial in range(50):
        f = random_step(wide, rng, lo=0.25, hi=1.0, span=(-2.0, 2.0))
        fbig = f.embedded(16.0)
        big = fbig.mesh
        total = np.zeros(big.n_cells)
        for g in grids:
            roots = covering_roots(big, g, (-4.0, 4.0))
            fam = build_sparse_family(fbig.magnitude(), grid=g, roots=roots)
            assert fam.verify() == []
            total += fam.apply(fbig.magnitude()).values
        centers = big.centers()
        sel = (centers >= -4.0) & (centers < 4.0)
        ratio = np.abs(hilbert_to_mesh(fbig).values[sel]) / total[sel]
        worst_c = max(worst_c, float(ratio.max()))
    elapsed = time.time() - t0
    ok = worst_c <= 50.0 and elapsed < 120
    report(6, ok, f"H-domination constant {worst_c:.3f} <= 50", elapsed, 120)
    assert worst_c <= 50.0
    assert elapsed < 120


def test_criterion_7_weak_type_bound_checks():
    t0 = time.time()
    mesh = Mesh(4.0, 8)
    search = SearchSpace.default()
    rng = np.random.default_rng(707)
    p = 2.0
    cmax_31 = 0.0
    for a in (-0.5, 0.0, 0.5):
        w = PowerLogWeight(a)
        product = (
            ap_characteristic(w, p, search).value
            * ainfty_characteristic(w, mesh=mesh).value ** p
        )
        for _ in range(12):
            f = random_step(mesh, rng)
            wv = np.asarray(w(mesh.centers()))
            g = MeshFunction(mesh, np.abs(f.values) * wv ** (-1 / p))
            fam = build_sparse_family(g)
            out = multiplier_apply("AS", w, p, f, family=fam)
            q = quotient_from_output(out.magnitude(), f.lp_norm(p), p)
            cmax_31 = max(cmax_31, q.quotient / product)
    alpha, q_exp = 0.25, 4.0
    cmax_32 = 0.0
    for a in (-0.2, 0.0, 0.2):
        w = PowerLogWeight(a)
        product = (
            apq_characteristic(w, p, q_exp, search).value
            * ainfty_characteristic(w.power(q_exp), mesh=mesh).value ** q_exp
        )
        for _ in range(8):
            f = random_step(mesh, rng)
            wv = np.asarray(w(mesh.centers()))
            g = MeshFunction(mesh, np.abs(f.values) * wv ** (-1.0))
            fam = build_sparse_family(g)
            out = multiplier_apply("ASalpha", w, p, f, family=fam, alpha=alpha, weight_power=1.0)
            q = quotient_from_output(out.magnitude(), f.lp_norm(p), p, q_exp)
            cmax_32 = max(cmax_32, q.quotient / product)
    elapsed = time.time() - t0
    ok = cmax_31 <= THM31_CEILING and cmax_32 <= THM32_CEILING and elapsed < 120
    report(
        7, ok,
        f"empirical constants: sparse {cmax_31:.4f} <= {THM31_CEILING}, "
        f"fractional {cmax_32:.4f} <= {THM32_CEILING}",
        elapsed, 120,
    )
    assert cmax_31 <= THM31_CEILING
    assert cmax_32 <= THM32_CEILING
    assert elapsed < 120


def test_criterion_8_fractional_maximal_norm_bound():
    t0 = time.time()
    mesh = Mesh(4.0, 8)
    rng = np.random.default_rng(808)
    worst_margin = 0.0
    for alpha, p in ((0.25, 2.0), (0.5, 1.5)):
        q = 1.0 / (1.0 / p - alpha)
        const = (1.0 + (p / (p - 1.0)) / q) ** (1.0 - alpha)
        for _ in range(100):
            f = random_signed_step(mesh, rng)
            lhs = fractional_maximal(f, alpha).lp_norm(q)
            rhs = const * f.lp_norm(p)
            assert lhs <= rhs * (1 + 1e-10)
            worst_margin = max(worst_margin, lhs / rhs)
    elapsed = time.time() - t0
    ok = elapsed < 30
    report(8, ok, f"200 functions, worst lhs/rhs = {worst_margin:.4f}", elapsed, 30)
    assert elapsed < 30


def test_criterion_9_matrix_suite():
    t0 = time.time()
    mesh = Mesh(1.0, 6)
    rng = np.random.default_rng(909)
    grid = DyadicGrid()
    cube = grid.cube(mesh.aligned_cell_level() - mesh.level, 0)  # [0, 1)
    p = 2.0
    d = 2
    worst_p2 = 0.0
    worst_ratio_lo, worst_ratio_hi = np.inf, 0.0
    worst_rhi = 0.0
    cmax_14 = 0.0
    for trial in range(20):
        W = random_matrix_weight(mesh, d, rng)
        red2 = reducing_matrix(W, cube, 2.0)
        worst_p2 = max(worst_p2, abs(red2.lower_factor - 1), abs(red2.upper_factor - 1))
        char = matrix_ap_characteristic(W, p).value
        dual = dual_reducing_matrix(W, cube, p)
        ratio = float(op_norm(red2.matrix @ dual.matrix)) / char ** (1.0 / p)
        worst_ratio_lo = min(worst_ratio_lo, ratio)
        worst_ratio_hi = max(worst_ratio_hi, ratio)
        # sharp reverse-Holder bound with nu from sampled directions
        nus = [sharp_rh_exponent(scalar_restriction(W, p, v)) for v in unit_directions(d, 8)]
        worst_rhi = max(worst_rhi, sharp_rhi_matrix_bound(W, p, cube, min(nus)))
        # Theorem (matrix maximal) quotient
        ainf_sc, _ = ainfty_scalar_characteristic(W, p, n_dirs=64)
        fvec = MeshFunction(mesh, rng.uniform(-1, 1, (mesh.n_cells, d)))
        MW = christ_goldberg_maximal(W, p, fvec)
        qq = quotient_from_output(MW.magnitude(), fvec.lp_norm(p), p)
        cmax_14 = max(cmax_14, qq.quotient / (char * ainf_sc**p))
    assert worst_p2 <= 1e-12
    assert 0.25 <= worst_ratio_lo and worst_ratio_hi <= 4.0
    assert worst_rhi <= 4 * d
    assert cmax_14 <= THM14_CEILING
    # scalar-restriction inequality for 100 sampled directions
    W = random_matrix_weight(mesh, d, np.random.default_rng(910))
    char = matrix_ap_characteristic(W, p).value
    for v in unit_directions(d, 100):
        assert scalar_restriction_characteristic(W, p, v).value <= char * (1 + 1e-9)
    # cell-exact identity for the identity weight
    I2 = MatrixWeight(mesh, np.tile(np.eye(d), (mesh.n_cells, 1, 1)))
    fvec = MeshFunction(mesh, np.random.default_rng(911).uniform(-1, 1, (mesh.n_cells, d)))
    MW = christ_goldberg_maximal(I2, p, fvec)
    MS = hl_maximal(fvec.magnitude())
    assert np.max(np.abs(MW.values - MS.values)) <= 1e-12
    elapsed = time.time() - t0
    ok = elapsed < 180
    report(
        9, ok,
        f"p2 err {worst_p2:.1e}, product ratio [{worst_ratio_lo:.3f}, {worst_ratio_hi:.3f}], "
        f"rhi {worst_rhi:.3f} <= {4*d}, maximal constant {cmax_14:.4f}",
        elapsed, 180,
    )
    assert elapsed < 180


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()
    commands = [
        ["characteristic", "--weight", "powerlog:a=-0.5", "--p", "2"],
        ["weaktype", "--operator", "AS", "--weight", "powerlog:a=0.5", "--p", "2",
         "--trials", "3", "--level", "6", "--seed", "5"],
        ["lowerbound", "--delta", "0.2"],
        ["sparse-check", "--seed", "7", "--trials", "5", "--level", "6"],
        ["matrix-check", "--seed", "1", "--trials", "2"],
        ["constants", "--a-list", "0.3"],
    ]
    for i, args in enumerate(commands):
        o1 = tmp_path / f"{i}_a.csv"
        o2 = tmp_path / f"{i}_b.csv"
        assert cli_main(args + ["--output", str(o1)]) == 0
        assert cli_main(args + ["--output", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes(), f"nondeterministic output: {args[0]}"
    elapsed = time.time() - t0
    report(10, True, f"{len(commands)} subcommands byte-identical", elapsed, 60)
