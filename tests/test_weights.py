import dataclasses
import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

import weaklab.weights as weights_module
from weaklab._special import gammaincc
from powerlog_oracle import essinf_batch_oracle, split_integral_batch
from search_oracle import (
    fsum_segment_sums,
    oracle_aligned_intervals,
    oracle_fujii_wilson,
    oracle_fujii_wilson_one_grid,
    oracle_inside_range,
    oracle_intervals,
    oracle_run_averages,
    oracle_run_essinfs,
    oracle_sharp_rh_exponent,
    reduceat_segment_sums,
)
from weaklab import (
    DegenerateWeightError,
    DyadicGrid,
    Mesh,
    MeshFunction,
    NonIntegrableError,
    PowerLogWeight,
    SampledWeight,
    SearchSpace,
    a1_characteristic,
    a1q_characteristic,
    ainfty_characteristic,
    ap_characteristic,
    apq_characteristic,
    dual_exponent,
    rh_characteristic,
    sharp_rh_exponent,
    shifted_grids,
)
from geometry_oracle import enumerate_cubes
from weaklab.grid import Cube, _Geometry, _kept_geometry, default_levels, inside_cubes
from weaklab.lowerbound import w_delta
from weaklab.operators import weak_lp_norm
from weaklab.weaktype import bound_check, proof_constants, quotient_from_output
from weaklab.matrix import (
    MatrixWeight,
    ainfty_scalar_characteristic,
    matrix_a1_characteristic,
    matrix_ap_characteristic,
    random_matrix_weight,
    scalar_restriction,
    unit_directions,
)

E = math.e
ONE = PowerLogWeight(0.0)


# ---------------------------------------------------------------------------
# closed-form integrals
# ---------------------------------------------------------------------------


class TestPowerLogIntegrals:
    def test_pure_power(self):
        w = PowerLogWeight(0.5)
        assert w.integral(0, 1) == pytest.approx(2 / 3, rel=1e-14)
        assert w.integral(-1, 1) == pytest.approx(4 / 3, rel=1e-14)
        assert w.integral(1, 3) == pytest.approx(2.0, rel=1e-14)  # constant branch

    def test_closed_form_matches_gamma_oracle_on_random_parameters(self):
        # independent reference: ∫_0^t x^a log(e/x)^b dx equals
        # e^(a+1) (a+1)^-(b+1) Gamma(b+1, (a+1) log(e/t), inf), evaluated in
        # 30-digit arithmetic
        import mpmath

        mpmath.mp.dps = 30
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.uniform(-0.9, 2.0)
            b = rng.uniform(-1.5, 3.0)
            t = rng.uniform(1e-3, 1.0)
            closed = PowerLogWeight(a, b).integral(0, t)
            ap1 = mpmath.mpf(a) + 1
            U = ap1 * mpmath.log(E / mpmath.mpf(t))
            ref = float(
                mpmath.e**ap1 * ap1 ** (-(mpmath.mpf(b) + 1)) * mpmath.gammainc(mpmath.mpf(b) + 1, U, mpmath.inf)
            )
            assert closed == pytest.approx(ref, rel=1e-10)

    def test_closed_form_matches_adaptive_quadrature_moderate_parameters(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            a = rng.uniform(-0.9, 1.0)
            b = float(rng.integers(0, 3))
            t = rng.uniform(1e-2, 1.0)
            closed = PowerLogWeight(a, b).integral(0, t)
            quad, _ = integrate.quad(
                lambda x: x**a * math.log(E / x) ** b, 0, t, limit=400, epsabs=1e-13, epsrel=1e-11
            )
            assert closed == pytest.approx(quad, rel=1e-8)

    def test_interior_interval_any_exponent(self):
        # a <= -1 is fine away from the origin
        w = PowerLogWeight(-1.5, 2.0)
        quad, _ = integrate.quad(lambda x: x**-1.5 * math.log(E / x) ** 2, 0.25, 0.75)
        assert w.integral(0.25, 0.75) == pytest.approx(quad, rel=1e-9)

    def test_nonintegrable_at_origin_raises(self):
        with pytest.raises(NonIntegrableError):
            PowerLogWeight(-1.0).integral(0, 0.5)

    def test_power_closure(self):
        w = PowerLogWeight(-0.4, 1.0, 2.0)
        ws = w.power(1.7)
        x = np.array([0.3, 0.9, 2.0])
        assert np.allclose(ws(x), w(x) ** 1.7, rtol=1e-13)

    def test_origin_value_is_the_limit_of_the_profile(self):
        # w(0) = lim w(x) as x -> 0: the constant scale at a = b = 0, 0 where
        # the profile vanishes, inf where it blows up; infima read the same
        assert ONE(0.0) == 1.0
        assert PowerLogWeight(0.0, 0.0, 2.5)(np.array([0.0, 1e-300])).tolist() == [2.5, 2.5]
        assert PowerLogWeight(0.0, 0.0, 2.5).essinf(0.0, 0.5) == 2.5
        for w in (PowerLogWeight(0.5), PowerLogWeight(0.0, -1.0, 3.0)):
            assert w(0.0) == 0.0 == w.essinf(0.0, 0.5)
        for w in (PowerLogWeight(-0.5), PowerLogWeight(0.0, 1.0), PowerLogWeight(-0.5, -3.0)):
            assert w(0.0) == math.inf

    def test_essinf_decreasing_weight(self):
        wd = w_delta(0.1)
        assert wd.essinf(0, 0.5) == pytest.approx(float(wd(0.5)), rel=1e-14)
        assert wd.essinf(-0.25, 0.5) == pytest.approx(float(wd(0.5)), rel=1e-14)
        assert wd.essinf(0, 3.0) == pytest.approx(1.0, rel=1e-14)  # outer branch

    def test_essinf_interior_minimum(self):
        # a < 0, b <= a: profile has an interior minimum at e^(1 - b/a)
        w = PowerLogWeight(-1.0, -2.0)
        xstar = math.exp(1 - 2.0)
        lo, hi = xstar / 3, min(3 * xstar, 1.0)
        grid = np.linspace(lo, hi, 20001)
        assert w.essinf(lo, hi) == pytest.approx(float(np.min(w(grid))), rel=1e-6)

    def test_essinf_vanishing_for_increasing_weight(self):
        w = PowerLogWeight(0.5)
        assert w.essinf(0, 0.5) == 0.0

    def test_endpoints_out_of_order_are_named(self):
        w = PowerLogWeight(0.5)
        for batch in (w.integral_batch, w.essinf_batch):
            with pytest.raises(ValueError, match=re.escape("out of order or NaN: [0.5, 0.25]")):
                batch(np.array([0.0, 0.5]), np.array([1.0, 0.25]))


# NaN is pinned by the examples and the body, never drawn: hypothesis also
# draws literals of the code under test, so its draws move with that code
@given(
    a=st.floats(-0.9, 2.0),
    scale=st.floats(0.5, 4.0),
    other=st.floats(-2.0, 2.0),
    nan_first=st.booleans(),
)
@example(a=0.5, scale=1.0, other=0.5, nan_first=True)
@example(a=-0.5, scale=3.0, other=-0.5, nan_first=False)
@example(a=0.0, scale=1.0, other=0.0, nan_first=True)
def test_powerlog_rejects_nan_naming_it(a, scale, other, nan_first):
    """README "Endpoints": a NaN point is a ValueError that names it, also
    for PowerLogWeight's pointwise values, integrals and essential infima."""
    w = PowerLogWeight(a, 0.0, scale)
    with pytest.raises(ValueError, match="point nan is not a number"):
        w(np.array([other, math.nan]))
    lo, hi = (math.nan, other) if nan_first else (other, math.nan)
    named = re.escape(f"out of order or NaN: [{lo}, {hi}]")
    for batch in (w.integral_batch, w.essinf_batch):
        with pytest.raises(ValueError, match=named):
            batch(np.array([0.25, lo]), np.array([0.5, hi]))
    with pytest.raises(ValueError, match=named):
        w.integral(lo, hi)
    with pytest.raises(ValueError, match=named):
        w.essinf(lo, hi)


@pytest.mark.parametrize("interval", [(0.75, 0.25), (0.5, 0.5)], ids=["out-of-order", "empty"])
@pytest.mark.parametrize("call", ["integral", "average", "essinf"])
@pytest.mark.parametrize("kind", ["sampled", "powerlog"])
def test_one_interval_contract_on_both_weight_kinds(kind, call, interval):
    """An interval out of order is a ValueError that names it; an empty one
    integrates to 0.0, and its average and essential infimum are a ValueError
    that names it.  Before, a sampled weight integrated [0.75, 0.25) to 0.0
    and averaged it to -0.0, both kinds' average of [0.5, 0.5) divided by
    zero, and the closed-form weight's essinf of it was a value."""
    mesh = Mesh(1.0, 3)
    w = SampledWeight(mesh, np.linspace(1.0, 2.0, mesh.n_cells)) if kind == "sampled" else PowerLogWeight(-0.5)
    lo, hi = interval
    if lo > hi:
        message = f"interval endpoints out of order or NaN: [{lo}, {hi}]"
    elif call == "integral":
        assert getattr(w, call)(lo, hi) == 0.0
        return
    else:
        message = f"degenerate interval [{lo}, {hi})"
    with pytest.raises(ValueError, match=re.escape(message)):
        getattr(w, call)(lo, hi)


# ---------------------------------------------------------------------------
# A_p
# ---------------------------------------------------------------------------


def _ap_oracle_powerlog(w: PowerLogWeight, p: float, n: int = 160) -> float:
    """Independent dense scan over intervals [-s, t] and [0, t] with exact
    power antiderivatives (no shared search machinery)."""
    a = w.exponent
    pp = dual_exponent(p)
    a_dual = a * (1.0 - pp)
    assert w.log_exponent == 0

    def anch(expo, t):
        t = min(t, 1.0)
        return t ** (expo + 1.0) / (expo + 1.0)

    best = 0.0
    ts = np.geomspace(1e-8, 1.0, n)
    for t in ts:
        q = (anch(a, t) / t) * (anch(a_dual, t) / t) ** (p - 1.0)
        best = max(best, q)
        for s in ts:
            L = s + t
            q = ((anch(a, s) + anch(a, t)) / L) * (
                (anch(a_dual, s) + anch(a_dual, t)) / L
            ) ** (p - 1.0)
            best = max(best, q)
    return best


class TestAp:
    def test_constant_weight(self):
        assert ap_characteristic(ONE, 2.0).value == pytest.approx(1.0, abs=1e-12)
        assert ap_characteristic(PowerLogWeight(0, 0, 7.5), 2.0).value == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_weight_matches_dense_scan_oracle(self):
        # sup over two-sided intervals around the origin; the anchored value
        # is 4/3 but asymmetric intervals push it to 3/2.
        w = PowerLogWeight(0.5)
        oracle = _ap_oracle_powerlog(w, 2.0)
        value = ap_characteristic(w, 2.0).value
        assert oracle == pytest.approx(1.5, rel=2e-3)
        assert value == pytest.approx(oracle, rel=2e-3)
        assert value <= 1.5 + 1e-9

    def test_a1_dominates_ap(self):
        wd = w_delta(0.1)
        search = SearchSpace.anchored_only()
        a1 = a1_characteristic(wd, search).value
        for p in (1.5, 2.0, 3.0):
            assert ap_characteristic(wd, p, search).value <= a1 * (1 + 1e-12)

    def test_nonintegrable_dual_raises_naming_cube(self):
        # w = |x|^0.9, p = 1.5: dual exponent a(1-p') = -1.8 < -1
        with pytest.raises(NonIntegrableError):
            ap_characteristic(PowerLogWeight(0.9), 1.5)

    def test_scale_invariance_exact(self):
        w = PowerLogWeight(0.5)
        base = ap_characteristic(w, 2.0)
        for c in (2.0, 10.0):
            scaled = ap_characteristic(PowerLogWeight(0.5, 0.0, c), 2.0)
            assert scaled.value == pytest.approx(base.value, rel=1e-12)
            # argmax invariance: the scaled witness attains the base maximum
            lo, hi = scaled.witness
            q = w.average(lo, hi) * w.power(-1.0).average(lo, hi)
            assert q == pytest.approx(base.value, rel=1e-9)


class TestA1:
    def test_constant(self):
        assert a1_characteristic(ONE).value == pytest.approx(1.0, abs=1e-12)

    def test_w_delta_anchored_value_and_bound(self):
        # anchored averages obey avg <= (2/delta^2) w_delta(t) for t <= 1
        for delta in (0.05, 0.1, 0.2):
            wd = w_delta(delta)
            for t in (0.01, 0.3, 1.0):
                assert wd.average(0, t) <= (2 / delta**2) * float(wd(t)) * (1 + 1e-12)
            rep = a1_characteristic(wd, SearchSpace.anchored_only())
            assert rep.value == pytest.approx(1 / delta + 1 / delta**2, rel=1e-10)
            assert rep.value <= 2 / delta**2

    def test_loglog_slope_near_minus_two(self):
        deltas = np.array([0.05, 0.1, 0.2])
        vals = [a1_characteristic(w_delta(d), SearchSpace.anchored_only()).value for d in deltas]
        slope = np.polyfit(np.log(deltas), np.log(vals), 1)[0]
        assert -2.2 <= slope <= -1.8

    def test_vanishing_essinf_raises(self):
        with pytest.raises(DegenerateWeightError):
            a1_characteristic(PowerLogWeight(0.5))

    def test_scale_invariance(self):
        wd = w_delta(0.1)
        base = a1_characteristic(wd, SearchSpace.anchored_only()).value
        scaled = a1_characteristic(PowerLogWeight(-0.9, 1.0, 5.0), SearchSpace.anchored_only()).value
        assert scaled == pytest.approx(base, rel=1e-12)


class TestReverseHolder:
    def test_constant(self):
        for s in (1.5, 2.0, 8.0):
            assert rh_characteristic(ONE, s).value == pytest.approx(1.0, abs=1e-12)

    def test_inverse_sqrt_value_and_blowup(self):
        w = PowerLogWeight(-0.5)
        rep = rh_characteristic(w, 1.5)
        # independent dense scan with exact antiderivatives
        def quantity(u, v):
            def anch(expo, t):
                t = min(t, 1.0)
                return t ** (expo + 1) / (expo + 1)
            L = u + v
            avg_s = (anch(-0.75, u) + anch(-0.75, v)) / L
            avg = (anch(-0.5, u) + anch(-0.5, v)) / L
            return avg_s ** (1 / 1.5) / avg
        ts = np.geomspace(1e-8, 1.0, 240)
        oracle = max(quantity(u, v) for u in ts for v in ts)
        assert rep.value == pytest.approx(oracle, rel=1e-2)
        with pytest.raises(NonIntegrableError):
            rh_characteristic(w, 2.0)

    def test_monotone_in_s(self):
        w = PowerLogWeight(-0.3)
        vals = [rh_characteristic(w, s).value for s in (1.2, 1.6, 2.0, 2.5)]
        assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))

    def test_value_at_least_one(self):
        rng = np.random.default_rng(5)
        mesh = Mesh(1.0, 5)
        w = SampledWeight(mesh, rng.uniform(0.5, 2.0, mesh.n_cells))
        assert rh_characteristic(w, 1.7).value >= 1.0 - 1e-12


class TestSharpReverseHolder:
    def test_constant_hits_ceiling(self):
        assert sharp_rh_exponent(ONE, ceiling=32.0) == 32.0

    def test_power_family_product_bounded_below(self):
        # nu - 1 shrinks as A_inf grows; the product stays bounded below
        mesh = Mesh(4.0, 9)
        rows = []
        for a in (0.3, 0.6, 0.9):
            w = PowerLogWeight(-a)
            nu = sharp_rh_exponent(w)
            ainf = ainfty_characteristic(w, mesh=mesh).value
            assert rh_characteristic(w, nu, SearchSpace.anchored_only()).value <= 2.0 + 1e-6
            rows.append((nu, ainf))
        nus = [r[0] for r in rows]
        ainfs = [r[1] for r in rows]
        assert nus[0] > nus[1] > nus[2] > 1.0
        assert ainfs[0] < ainfs[1] < ainfs[2]
        c0 = min((nu - 1) * ai for nu, ai in rows)
        assert c0 > 0

    def test_w_delta_bisection_is_tight(self):
        wd = w_delta(0.1)
        search = SearchSpace.anchored_only(n=48)
        nu = sharp_rh_exponent(wd, search)
        assert rh_characteristic(wd, nu, search).value <= 2.0
        assert rh_characteristic(wd, nu * 1.001, search).value > 2.0

    def test_degenerate_raises(self):
        mesh = Mesh(1.0, 4)
        vals = np.ones(mesh.n_cells)
        vals[0] = 1e12  # wild cell: RH fails right above 1 on the cell pair scan
        w = SampledWeight(mesh, vals)
        nu = sharp_rh_exponent(w, ceiling=8.0)
        assert nu > 1.0  # still finds something: sampled weights are bounded

    @pytest.mark.parametrize("weight", [PowerLogWeight(-1.5), PowerLogWeight(-1.0, 0.5)], ids=["a-1.5", "a-1,b0.5"])
    def test_weight_without_integrable_powers_is_degenerate(self, weight):
        # w itself is not integrable at 0 either: the search must still end
        # in "no exponent found", not in the error of averaging w
        with pytest.raises(DegenerateWeightError, match="no reverse-Holder exponent > 1 found"):
            sharp_rh_exponent(weight)


def _criterion_9_restrictions():
    """The eight direction weights of acceptance criterion 9's first trial."""
    W = random_matrix_weight(Mesh(1.0, 6), 2, np.random.default_rng(909))
    return [scalar_restriction(W, 2.0, v) for v in unit_directions(2, 8)]


SHARP_RH_CASES = (
    [(f"power-{a}", PowerLogWeight(-a), None) for a in (0.3, 0.6, 0.9)]
    + [(f"w_delta-{d}", w_delta(d), SearchSpace.anchored_only(n=48)) for d in (0.05, 0.1, 0.2)]
    + [(f"restriction-{i}", w, None) for i, w in enumerate(_criterion_9_restrictions())]
)


@pytest.mark.parametrize("weight,search", [c[1:] for c in SHARP_RH_CASES], ids=[c[0] for c in SHARP_RH_CASES])
def test_sharp_rh_exponent_matches_bisection_over_rh_characteristic(weight, search):
    assert sharp_rh_exponent(weight, search) == oracle_sharp_rh_exponent(weight, search)


class TestApq:
    def test_constant(self):
        assert apq_characteristic(ONE, 2.0, 4.0).value == pytest.approx(1.0, abs=1e-12)

    def test_equivalence_with_ap_of_power(self):
        # [w]_{A_(p,q)} = [w^q]_{A_(1+q/p')} exactly, interval by interval
        rng = np.random.default_rng(23)
        search = SearchSpace.default(max_level=4)
        for _ in range(20):
            a = rng.uniform(-0.2, 0.2)
            b = rng.uniform(-0.3, 0.3)
            c = rng.uniform(0.5, 2.0)
            p, q = 2.0, 4.0
            w = PowerLogWeight(a, b, c)
            lhs = apq_characteristic(w, p, q, search)
            r = 1.0 + q / dual_exponent(p)
            rhs = ap_characteristic(w.power(q), r, search)
            assert lhs.value == pytest.approx(rhs.value, rel=1e-12)
            assert lhs.witness == rhs.witness

    def test_power_weight_against_dense_oracle(self):
        # w = |x|^-0.2, p = 2, alpha = 1/4 (so q = 4)
        w = PowerLogWeight(-0.2)
        value = apq_characteristic(w, 2.0, 4.0).value
        r = 1.0 + 4.0 / 2.0
        oracle = _ap_oracle_powerlog(w.power(4.0), r, n=200)
        assert value == pytest.approx(oracle, rel=2e-2)

    def test_scale_exponent_is_zero(self):
        # the definition is scale free: rederive the homogeneity exponent
        w = PowerLogWeight(-0.2)
        base = apq_characteristic(w, 2.0, 4.0)
        for c in (2.0, 10.0):
            scaled = apq_characteristic(PowerLogWeight(-0.2, 0.0, c), 2.0, 4.0)
            gamma = math.log(scaled.value / base.value) / math.log(c)
            assert abs(gamma) < 1e-12
            lo, hi = scaled.witness
            q = w.power(4.0).average(lo, hi) * w.power(-2.0).average(lo, hi) ** (4.0 / 2.0)
            assert q == pytest.approx(base.value, rel=1e-9)

    def test_a1q_constant_and_consistency(self):
        assert a1q_characteristic(ONE, 4.0).value == pytest.approx(1.0, abs=1e-12)
        w = PowerLogWeight(-0.2)
        rep = a1q_characteristic(w, 2.0, SearchSpace.anchored_only())
        # esssup w^-q (avg w^q) >= 1 always; anchored value for |x|^-0.2 is
        # (avg_[0,t] x^-0.4) / t^-0.4 = 1/(1 - 0.4)
        assert rep.value == pytest.approx(1.0 / 0.6, rel=1e-10)


class TestAinfty:
    def test_constant_weight_is_exactly_one(self):
        rep = ainfty_characteristic(ONE, mesh=Mesh(4.0, 8))
        assert rep.value == pytest.approx(1.0, abs=1e-10)

    def test_sqrt_weight_against_refined_brute_force(self):
        mesh = Mesh(4.0, 8)
        w = PowerLogWeight(0.5)
        rep = ainfty_characteristic(w, mesh=mesh)
        oracle = _fw_brute_force(w, rep, refine=2)
        assert rep.value == pytest.approx(oracle, rel=0.05)

    def test_below_ap_up_to_grid_slack(self):
        mesh = Mesh(4.0, 8)
        for a, p in ((0.5, 2.0), (-0.3, 2.0)):
            w = PowerLogWeight(a)
            ainf = ainfty_characteristic(w, mesh=mesh).value
            ap = ap_characteristic(w, p).value
            assert ainf <= 6.0 * ap
            assert ainf >= 1.0 - 1e-12

    def test_scale_invariance(self):
        mesh = Mesh(2.0, 7)
        v1 = ainfty_characteristic(PowerLogWeight(-0.4), mesh=mesh).value
        v2 = ainfty_characteristic(PowerLogWeight(-0.4, 0.0, 3.0), mesh=mesh).value
        assert v1 == pytest.approx(v2, rel=1e-12)


def _fw_brute_force(w, rep, refine=2):
    """Brute-force Fujii-Wilson quantity on the witness cube over a refined
    mesh: per refined cell, scan all same-grid cubes inside the witness."""
    from weaklab.grid import DyadicGrid, Mesh as GMesh, MeshFunction

    lo, hi = rep.witness
    label = rep.witness_label  # e.g. 'grid1:k=0,m=-1'
    j = int(label.split(":")[0].removeprefix("grid"))
    grid = DyadicGrid(j)
    k_q = int(label.split("k=")[1].split(",")[0])
    base = GMesh(4.0, 8)
    fine = GMesh(4.0, 8 + refine)
    wbar = MeshFunction(fine, w.cell_averages(fine))
    k_max = 8 + refine - 2  # finest level used by the implementation at level 8 is coarser
    total = 0.0
    centers = fine.centers()
    sel = (centers > lo) & (centers < hi)
    from geometry_oracle import oracle_level_cube_integrals

    mvals = np.zeros(sel.sum())
    pts = centers[sel]
    for k in range(k_q, base.aligned_cell_level() + 1):
        q0, ints = oracle_level_cube_integrals(wbar, grid, k)
        width = 2.0**-k
        for i, x in enumerate(pts):
            m = grid.cube_index_of(k, x)
            c = grid.cube(k, m)
            if float(c.left) >= lo and float(c.right) <= hi:
                mvals[i] = max(mvals[i], ints[m - q0] / width)
    integral = float(np.sum(mvals) * fine.h)
    wq = w.integral(lo, hi)
    return integral / wq


class TestSampledWeights:
    def test_constant_sampled(self, mesh):
        w = SampledWeight(mesh, np.full(mesh.n_cells, 2.0))
        assert ap_characteristic(w, 2.0).value == pytest.approx(1.0, abs=1e-12)
        assert a1_characteristic(w).value == pytest.approx(1.0, abs=1e-12)

    def test_sampled_matches_powerlog_on_aligned_intervals(self):
        mesh = Mesh(1.0, 7)
        w = PowerLogWeight(-0.4)
        ws = SampledWeight(mesh, w.cell_averages(mesh))
        # on cell-aligned intervals the averages agree exactly
        assert ws.average(0.25, 0.75) == pytest.approx(w.average(0.25, 0.75), rel=1e-12)

    def test_outside_domain_rejected(self, mesh):
        w = SampledWeight(mesh, np.ones(mesh.n_cells))
        with pytest.raises(ValueError):
            w.integral(-2, 0)

    def test_values_are_a_read_only_copy(self, mesh):
        v = np.linspace(1.0, 2.0, mesh.n_cells)
        w = SampledWeight(mesh, v)
        before = ap_characteristic(w, 2.0).value
        v[:] = 100.0 * np.arange(1, mesh.n_cells + 1)
        assert v.flags.writeable  # the caller's array stays the caller's
        assert np.array_equal(w.values, np.linspace(1.0, 2.0, mesh.n_cells))
        assert ap_characteristic(w, 2.0).value == before
        with pytest.raises(ValueError, match="read-only"):
            w.values[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            w.power(2.0).values[:] = 1.0

    @pytest.mark.parametrize("radius, level", [(1.0, 7), (4.0, 3), (0.75, 5)])
    def test_points_at_cell_edges_read_their_own_cell(self, radius, level):
        # in floats, x + R rounds up onto the next edge for most points one
        # ulp below an interior edge (191 of 255 edges of Mesh(1.0, 7))
        mesh = Mesh(radius, level)
        w = SampledWeight(mesh, np.arange(1.0, mesh.n_cells + 1))
        edges = mesh.edges()[1:-1]
        x = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf), [-1e-20]])
        assert (w(x) - 1).tolist() == [mesh.cell_of(float(t)) for t in x]

    @pytest.mark.parametrize("x, message", [
        (math.nan, "point nan is not a finite number"),
        (math.inf, "point inf is not a finite number"),
        (-math.inf, "point -inf is not a finite number"),
        (1.0, r"point 1.0 outside the sampled domain \[-1.0, 1.0\)"),
        (-1.5, r"point -1.5 outside the sampled domain"),
    ])
    def test_points_off_the_domain_are_named(self, x, message):
        w = SampledWeight(Mesh(1.0, 3), np.ones(16))
        with pytest.raises(ValueError, match=message):
            w(np.array([0.0, x]))

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.5), (math.nan, 0.5), (0.0, math.nan)])
    def test_non_finite_endpoints_rejected(self, lo, hi):
        w = SampledWeight(Mesh(1.0, 3), np.ones(16))
        with pytest.raises(ValueError, match="non-finite endpoint"):
            w.integral(lo, hi)
        with pytest.raises(ValueError, match="non-finite endpoint"):
            w.essinf(lo, hi)


# ---------------------------------------------------------------------------
# candidate intervals against the per-Cube oracle
# ---------------------------------------------------------------------------


def assert_same_intervals(search):
    lo, hi, label = search.intervals_for(ONE)
    labels = [label(i) for i in range(len(lo))]
    o_lo, o_hi, o_labels = oracle_intervals(search)
    assert lo.dtype == o_lo.dtype == hi.dtype == o_hi.dtype == np.float64
    assert lo.tobytes() == o_lo.tobytes()
    assert hi.tobytes() == o_hi.tobytes()
    assert labels == o_labels
    return lo, hi, labels


# the oracle builds one Cube per candidate, about 16 us each: keep every
# example under roughly 12k grid cubes
def small_enough(width, max_level):
    return width * 2.0**max_level <= 2**10


grid_subsets = st.lists(st.sampled_from(shifted_grids(1)), unique=True, max_size=3)
values = st.one_of(st.floats(-2.0, 12.0), st.sampled_from([0.0, -0.0, 1.0]))


class TestCandidateIntervals:
    @settings(max_examples=30)
    @given(radius=st.floats(0.5, 16.0), max_level=st.integers(0, 12))
    def test_default_matches_oracle(self, radius, max_level):
        assume(small_enough(2 * radius, max_level))
        assert_same_intervals(SearchSpace.default(radius, max_level))

    @pytest.mark.parametrize("radius,max_level", [(0.5, 12), (0.75, 8), (5.25, 9), (16.0, 6)])
    def test_default_extremes_match_oracle(self, radius, max_level):
        assert_same_intervals(SearchSpace.default(radius, max_level))

    @pytest.mark.parametrize("radius,n", [(4.0, 96), (0.5, 48), (16.0, 7)])
    def test_anchored_only_matches_oracle(self, radius, n):
        lo, _, labels = assert_same_intervals(SearchSpace.anchored_only(radius, n))
        assert np.all(lo == 0.0) and all(s.startswith("anchored:") for s in labels)

    @settings(max_examples=60)
    @given(
        a=st.floats(-8.0, 8.0),
        width=st.floats(1e-3, 10.0),
        grids=grid_subsets,
        min_level=st.integers(-4, 8),
        extra=st.integers(-2, 6),
        anchored=st.lists(values, max_size=8),
        two_sided=st.lists(values, max_size=6),
    )
    def test_any_domain_grids_and_families_match_oracle(
        self, a, width, grids, min_level, extra, anchored, two_sided
    ):
        b = a + width
        max_level = min_level + extra
        assume(a < b and small_enough(b - a, max_level))
        search = SearchSpace(
            domain=(a, b),
            grids=tuple(grids),
            min_level=min_level,
            max_level=max_level,
            anchored=tuple(anchored),
            two_sided=tuple(two_sided),
        )
        assert_same_intervals(search)

    @pytest.mark.parametrize("nudge", [-1, 0, 1], ids=["ulp-below", "rounded", "ulp-above"])
    @pytest.mark.parametrize("edge", [Fraction(1, 3), Fraction(-1, 3), Fraction(5, 6), Fraction(-7, 12)])
    def test_domains_ending_at_rounded_shifted_edges(self, edge, nudge):
        """A domain end at a shifted-grid edge rounded to a float (or an ulp
        off it): the cube holding that end can miss the domain in floats, and
        the kept cubes are still the oracle's."""
        x = math.nextafter(float(edge), nudge * math.inf) if nudge else float(edge)
        for domain in ((x, x + 1.5), (x - 1.5, x)):
            assert_same_intervals(SearchSpace(domain=domain, min_level=-2, max_level=8))

    @pytest.mark.parametrize("domain", [(-2.5, 7.3), (0.1, 0.2), (-3.0, -0.5), (1e-3, 5.0)])
    @pytest.mark.parametrize("grids", [(0,), (1,), (2,), (0, 2), (2, 1, 0)])
    def test_non_dyadic_and_one_sided_domains(self, domain, grids):
        search = SearchSpace(
            domain=domain,
            grids=tuple(DyadicGrid(j) for j in grids),
            min_level=-3,
            max_level=7,
            anchored=(0.05, 0.15, 4.0),
            two_sided=(0.1, 0.2, 3.0),
        )
        lo, hi, _ = assert_same_intervals(search)
        assert np.all(lo < hi)

    def test_empty_level_range_has_no_cubes(self):
        search = SearchSpace(min_level=3, max_level=2, anchored=(0.5,), two_sided=(0.25, 1.0))
        _, _, labels = assert_same_intervals(search)
        assert labels == ["anchored:t=0.5"] + [
            f"two-sided:s={s},t={t}" for s in ("0.25", "1") for t in ("0.25", "1")
        ]
        lo, hi, _ = assert_same_intervals(SearchSpace(min_level=3, max_level=2))
        assert lo.shape == hi.shape == (0,) and lo.dtype == np.float64

    def test_anchored_and_two_sided_values_outside_zero_b_are_dropped(self):
        search = SearchSpace(
            domain=(-1.0, 2.0),
            grids=(),
            anchored=(-1.0, 0.0, -0.0, 0.5, 2.0, 2.5, math.nextafter(2.0, 3.0)),
            two_sided=(-0.5, 0.0, 1.0, 2.0, 3.0),
        )
        lo, hi, labels = assert_same_intervals(search)
        assert labels == ["anchored:t=0.5", "anchored:t=2"] + [
            f"two-sided:s={s},t={t}" for s in "12" for t in "12"
        ]
        assert lo.tolist() == [0.0, 0.0, -1.0, -1.0, -2.0, -2.0]
        assert hi.tolist() == [0.5, 2.0, 1.0, 2.0, 1.0, 2.0]


def aligned_candidates(radius, level):
    mesh = Mesh(radius, level)
    return mesh, SearchSpace.aligned_cubes().intervals_for(SampledWeight(mesh, np.ones(mesh.n_cells)))


class TestAlignedCubes:
    @pytest.mark.parametrize("radius", [0.25, 0.5, 1.0, 2.0, 4.0, 1024.0])
    def test_endpoints_match_the_cell_edge_loop(self, radius):
        for level in range(12):
            mesh, (lo, hi, _) = aligned_candidates(radius, level)
            o_lo, o_hi = oracle_aligned_intervals(mesh)
            assert lo.dtype == hi.dtype == np.float64
            assert lo.tobytes() == o_lo.tobytes() and hi.tobytes() == o_hi.tobytes()

    @pytest.mark.parametrize("radius,level", [(0.25, 6), (0.5, 9), (1.0, 0), (1.0, 5), (4.0, 7), (1024.0, 3)])
    def test_labels_name_the_cube_they_cover(self, radius, level):
        _, (lo, hi, label) = aligned_candidates(radius, level)
        for i in range(len(lo)):
            j, k, m = map(int, re.fullmatch(r"grid(\d+):k=(-?\d+),m=(-?\d+)", label(i)).groups())
            assert j == 0 and Cube(k, m).interval() == (lo[i], hi[i])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_error_names_the_aligned_cube(self):
        mesh = Mesh(1.0, 4)
        w = SampledWeight(mesh, np.where(np.arange(mesh.n_cells) % 2, 1e200, 1e-200))
        with pytest.raises(NonIntegrableError, match=re.escape("on cube [-1, 0) (grid0:k=0,m=-1)")):
            ap_characteristic(w, 2.0, SearchSpace.aligned_cubes())


class TestSearchSpaceDomain:
    def test_far_left_domain_keeps_every_cube(self):
        # level-0 cubes of [-1.5e6, -1.4e6): a left-side clip at -1e6 once dropped all of them
        search = SearchSpace(domain=(-1.5e6, -1.4e6), grids=(DyadicGrid(),), min_level=0, max_level=0)
        lo, hi, _ = search.intervals_for(ONE)
        assert len(lo) == 100_000
        assert lo[0] == -1.5e6 and hi[-1] == -1.4e6 and np.all(np.diff(lo) == 1.0)

    def test_deep_level_keeps_cubes_left_of_the_old_clip(self):
        # at level 20 the old clip sat at -2^-20 * 1e6 = -0.954, inside this domain
        grid = DyadicGrid(1)
        search = SearchSpace(domain=(-1.0, -0.9), grids=(grid,), min_level=20, max_level=20)
        lo, hi, label = search.intervals_for(ONE)
        cubes = enumerate_cubes(grid, (-1.0, -0.9), 20, 20)
        assert len(lo) == len(cubes) > 100_000
        assert lo[0] == float(cubes[0].left) and hi[-1] == float(cubes[-1].right)
        assert label(0) == f"grid1:k=20,m={cubes[0].index}"

    @pytest.mark.parametrize(
        "domain",
        [(-4.0, math.inf), (-math.inf, 4.0), (math.nan, 1.0), (0.0, math.nan), (-4.0, -4.0), (4.0, -4.0)],
        ids=["b-inf", "a-inf", "a-nan", "b-nan", "a-eq-b", "a-gt-b"],
    )
    def test_unbounded_or_empty_domain_rejected(self, domain):
        with pytest.raises(ValueError, match="finite with a < b"):
            SearchSpace(domain=domain)

    @pytest.mark.parametrize(
        "domain", [(2.0**43 - 0.5, 2.0**43), (-(2.0**43), 0.5 - 2.0**43)], ids=["right", "left"]
    )
    def test_endpoints_exact_at_the_width_bound(self, domain):
        # |3m + 3 + sj| just under 2^53 at level 8
        search = SearchSpace(domain=domain, min_level=8, max_level=8)
        lo, _, _ = assert_same_intervals(search)
        assert len(lo) == 3 * 128 + 2

    @pytest.mark.parametrize("factory", [SearchSpace.default, SearchSpace.anchored_only], ids=["default", "anchored"])
    @pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan], ids=["0", "-1", "inf", "nan"])
    def test_radius_not_positive_and_finite_rejected(self, factory, radius):
        # default(0) and default(-1) ended in "math domain error"
        with pytest.raises(ValueError, match=f"search radius must be positive and finite, got {radius}"):
            factory(radius)

    def test_too_many_cubes_rejected_before_any_is_built(self, monkeypatch):
        # the default radius reaches level 16 (3.1 million cubes, 300 MiB at
        # its peak); level 20 had 50 million and ran out of memory
        class Built(Exception):
            pass

        def arange(*args, **kwargs):
            raise Built

        searches = {level: SearchSpace.default(max_level=level) for level in (16, 17, 20)}
        wide = SearchSpace(domain=(-(2.0**43), 1.0), max_level=8)  # constructing it is allowed
        monkeypatch.setattr(weights_module.np, "arange", arange)
        with pytest.raises(Built):
            searches[16].intervals_for(ONE)
        for level, cubes in ((17, "6,291,496"), (20, "50,331,694")):
            with pytest.raises(ValueError, match=f"max_level {level} over .* has {cubes} dyadic cubes, above the limit"):
                searches[level].intervals_for(ONE)
        with pytest.raises(ValueError, match="above the limit of 4,194,304"):
            wide.intervals_for(ONE)

    def test_domain_too_wide_for_exact_endpoints_rejected(self):
        SearchSpace(domain=(-(2.0**43), 1.0), max_level=8)  # 2^51 exactly: allowed
        with pytest.raises(ValueError, match="too wide"):
            SearchSpace(domain=(-(2.0**43), 1.0), max_level=9)
        with pytest.raises(ValueError, match="too wide"):
            SearchSpace(domain=(0.0, 2.0**44), max_level=8)


def oracle_search(monkeypatch):
    def candidates(self):
        lo, hi, labels = oracle_intervals(self)
        return lo, hi, labels.__getitem__, weights_module._Folded(lo, hi)

    monkeypatch.setattr(SearchSpace, "_candidates", property(candidates))


def same_report(a, b):
    return (a.value, a.witness, a.witness_label) == (b.value, b.witness, b.witness_label)


CHARACTERISTICS = [
    (PowerLogWeight(-0.5), lambda w, s: ap_characteristic(w, 2.0, s)),
    (PowerLogWeight(0.5), lambda w, s: ap_characteristic(w, 3.0, s)),
    (PowerLogWeight(-0.9, 1.0), lambda w, s: ap_characteristic(w, 2.0, s)),
    (PowerLogWeight(-0.3), lambda w, s: apq_characteristic(w, 2.0, 3.0, s)),
    (PowerLogWeight(-0.5), a1_characteristic),
    (w_delta(0.1), a1_characteristic),
    (PowerLogWeight(-0.5), lambda w, s: rh_characteristic(w, 1.5, s)),
    (PowerLogWeight(0.4, 0.5, 2.0), lambda w, s: rh_characteristic(w, 3.0, s)),
]


@pytest.mark.parametrize("case", range(len(CHARACTERISTICS)))
@pytest.mark.parametrize(
    "search",
    [SearchSpace.default(), SearchSpace.default(0.75, 5), SearchSpace.anchored_only()],
    ids=["default", "r0.75", "anchored"],
)
def test_characteristic_reports_match_oracle_intervals(case, search, monkeypatch):
    weight, characteristic = CHARACTERISTICS[case]
    new = characteristic(weight, search)
    oracle_search(monkeypatch)
    assert same_report(characteristic(weight, search), new)


ERRORS = [
    (NonIntegrableError, lambda s: ap_characteristic(PowerLogWeight(-0.99, 0.0, 1e300), 2.0, s)),
    (DegenerateWeightError, lambda s: a1_characteristic(PowerLogWeight(0.5), s)),
    (DegenerateWeightError, lambda s: a1q_characteristic(PowerLogWeight(0.5), 2.0, s)),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", range(len(ERRORS)))
@pytest.mark.parametrize("search", [SearchSpace.default(), SearchSpace.default(0.75, 5)], ids=["default", "r0.75"])
def test_errors_name_the_oracle_label(case, search, monkeypatch):
    error, characteristic = ERRORS[case]
    with pytest.raises(error) as new:
        characteristic(search)
    oracle_search(monkeypatch)
    with pytest.raises(error) as old:
        characteristic(search)
    assert str(new.value) == str(old.value)
    assert re.search(r"\((grid\d|anchored|two-sided):[^()]*\)$", str(new.value))


# ---------------------------------------------------------------------------
# Fujii-Wilson range of inside cubes against the Fraction scans
# ---------------------------------------------------------------------------

FW_RADII = (0.5, 0.75, 1.0, 3.0, 4.0, 5.25, 16.0)


@pytest.mark.parametrize("radius", FW_RADII)
def test_inside_range_matches_fraction_scan(radius):
    """``grid.inside_cubes``, the integer range the Fujii-Wilson sweep and the
    matrix characteristics take, equals the inward ``Fraction`` scan from the
    cubes holding the domain edges, at every level the sweep visits."""
    for level in (3, 6, 9):
        mesh = Mesh(radius, level)
        k_fine = math.floor(math.log2(1.0 / mesh.h))
        for grid in shifted_grids(1):
            for k in range(-math.ceil(math.log2(2 * radius)), k_fine + 1):
                q0, q1 = grid.cube_index_of(k, -radius), grid.cube_index_of(k, radius)
                first, last = oracle_inside_range(mesh, grid, k, q0, q1 - q0 + 1)
                assert inside_cubes(mesh, grid, k) == range(first, last + 1)


@pytest.mark.parametrize("radius", FW_RADII)
def test_ainfty_report_matches_fraction_scan(radius):
    mesh = Mesh(radius, 7)
    sampled = SampledWeight(mesh, np.random.default_rng(int(radius * 4)).uniform(0.1, 3.0, mesh.n_cells))
    k_top, k_fine = default_levels(mesh)
    for w in (PowerLogWeight(-0.4), PowerLogWeight(0.5, 1.0), sampled):
        wbar = MeshFunction(mesh, w.cell_averages(mesh))
        for g in shifted_grids(1):
            report = ainfty_characteristic(w, mesh=mesh, grids=[g])
            value, k, m = oracle_fujii_wilson_one_grid(wbar, g, k_top, k_fine)
            cube = g.cube(k, m)
            assert (report.value, report.witness, report.witness_label) == (value, cube.interval(), cube.label)
            assert (report.search_levels, report.grids_used) == ((k_top, k_fine), 1)


@pytest.mark.parametrize("radius", FW_RADII)
def test_fujii_wilson_segment_sums_match_fsum(radius):
    """The segment sums of ``test_ainfty_report_matches_fraction_scan``'s
    oracle, which copies the implementation's rule, against ``math.fsum``;
    and the implementation's value against the oracle summing by ``fsum``."""
    mesh = Mesh(radius, 7)
    sampled = SampledWeight(mesh, np.random.default_rng(int(radius * 4)).uniform(0.1, 3.0, mesh.n_cells))
    k_top, k_fine = default_levels(mesh)

    def checked(mass, seg):
        got = reduceat_segment_sums(mass, seg)
        want = fsum_segment_sums(mass, seg)
        assert np.all((got == 0) == (seg[1:] == seg[:-1]))
        assert np.all(np.abs(got - want) <= 1e-13 * want)
        return got

    for w in (PowerLogWeight(-0.4), PowerLogWeight(0.5, 1.0), sampled):
        wbar = MeshFunction(mesh, w.cell_averages(mesh))
        for g in shifted_grids(1):
            value = weights_module._fujii_wilson(wbar, [g], k_top, k_fine)[0].max()
            assert oracle_fujii_wilson_one_grid(wbar, g, k_top, k_fine, checked)[0] == value
            want = oracle_fujii_wilson_one_grid(wbar, g, k_top, k_fine, fsum_segment_sums)[0]
            assert value == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("components", [None, 3, 16], ids=["scalar", "3", "16"])
@pytest.mark.parametrize("radius", [0.75, 1.0, 4.0, 5.25])
def test_stacked_fujii_wilson_matches_level_loop(radius, components):
    """The one stacked pass per grid against the loop one level at a time it
    replaced (``oracle_fujii_wilson``): the same floats, bit for bit, and
    the same cubes, on mesh levels 2-9, for a single grid and three, from
    the default coarsest level, from the finest level alone, and from above
    the finest level, where both find no cube."""
    rng = np.random.default_rng(int(radius * 4) + (components or 1))
    for level in range(2, 10):
        mesh = Mesh(radius, level)
        k_top, k_fine = default_levels(mesh)
        values = rng.lognormal(0.0, 2.0, (mesh.n_cells,) if components is None else (mesh.n_cells, components))
        for grids in (shifted_grids(1), [DyadicGrid(1)]):
            for k_lo in (k_top, k_fine):
                got, blocks = weights_module._fujii_wilson(MeshFunction(mesh, values), grids, k_lo, k_fine)
                want, want_blocks = oracle_fujii_wilson(MeshFunction(mesh, values), grids, k_lo, k_fine)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert [(g, k, m.tolist()) for g, k, m in blocks] == [(g, k, m.tolist()) for g, k, m in want_blocks]
            for sweep in (weights_module._fujii_wilson, oracle_fujii_wilson):
                with pytest.raises(ValueError, match="no grid cube fits inside the mesh domain"):
                    sweep(MeshFunction(mesh, values), grids, k_fine + 1, k_fine)


@pytest.mark.parametrize("radius, level", [(1.0, 5), (0.75, 6), (3.0, 4), (4.0, 9)])
def test_constant_weight_ainfty_is_one_within_a_few_ulp(radius, level):
    """Not exactly 1: the shifted grids' cubes split cells, so ∫_Q M(w χ_Q),
    summed over the finest cubes, and w(Q) round differently (2.5 on
    Mesh(1.0, 5) gives 1 + 2^-52).  At most 3 ulp above 1 was seen on 520
    constant sampled weights, so the bound is 4 ulp."""
    mesh = Mesh(radius, level)
    for value in (1.0, 2.5, math.pi, 1e-3, 7.3):
        report = ainfty_characteristic(SampledWeight(mesh, np.full(mesh.n_cells, value)))
        assert abs(report.value - 1.0) <= 4 * np.finfo(float).eps
    assert ainfty_characteristic(PowerLogWeight(0.0, 0.0, 2.5), mesh=mesh).value == pytest.approx(1.0, rel=4 * np.finfo(float).eps, abs=0.0)


def test_ainfty_keeps_no_table_on_its_function(monkeypatch):
    """``ainfty_characteristic`` builds its discretized weight per call, so
    the Fujii-Wilson sweep integrates its own window and keeps no table on
    it: nothing would read one again."""
    made = []

    class Recorded(MeshFunction):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(weights_module, "MeshFunction", Recorded)
    mesh = Mesh(1.0, 6)
    ainfty_characteristic(PowerLogWeight(-0.3), mesh=mesh)
    ainfty_characteristic(SampledWeight(mesh, np.linspace(0.5, 2.0, mesh.n_cells)))
    assert len(made) == 2 and all(f._tables == f._windows == {} for f in made)


# ---------------------------------------------------------------------------
# candidate order: every report takes the first maximum (the tie rule)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("radius, level", [(1.0, 5), (0.75, 6), (3.0, 4), (4.0, 9)])
def test_constant_weight_ainfty_witness_is_finest_leftmost_cube_of_grid0(radius, level):
    """A constant weight makes every cube's value 1 (exactly, for the value
    3 on these meshes; the shifted grids' cubes split cells, so other
    constants can round a few of them to 1 + 2^-52).  Grid 0 comes first,
    and within it the finest level, left to right."""
    mesh = Mesh(radius, level)
    k_top, k_fine = default_levels(mesh)
    grid0 = DyadicGrid(0)
    cube = grid0.cube(k_fine, inside_cubes(mesh, grid0, k_fine)[0])
    for value, grids in ((3.0, shifted_grids(1)), (2.5, [grid0])):
        weight = SampledWeight(mesh, np.full(mesh.n_cells, value))
        values, _ = weights_module._fujii_wilson(weight.as_mesh_function(), grids, k_top, k_fine)
        assert np.all(values == 1.0)  # every candidate ties
        report = ainfty_characteristic(weight, grids=grids)
        assert (report.value, report.witness, report.witness_label) == (1.0, cube.interval(), cube.label)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("radius, level", [(1.0, 3), (0.5, 5), (2.0, 4)])
def test_identity_matrix_weight_witness_is_coarsest_left_cube(radius, level, d):
    """Every aligned cube ties at 1; the coarsest level (width R) comes
    first, and within it the cube [-R, 0)."""
    mesh = Mesh(radius, level)
    W = MatrixWeight(mesh, np.broadcast_to(np.eye(d), (mesh.n_cells, d, d)))
    cube = DyadicGrid().cube_containing(mesh.aligned_cell_level() - level, -radius)
    for report in (matrix_ap_characteristic(W, 2.0), matrix_ap_characteristic(W, 3.0), matrix_a1_characteristic(W)):
        assert report.value == pytest.approx(1.0, rel=1e-14)
        assert (report.witness, report.witness_label) == ((-radius, 0.0), cube.label)


def test_ainfty_scalar_characteristic_takes_the_first_direction_on_a_tie():
    """A multiple of the identity at d = 2 makes every direction weight
    constant, and every direction's value 1 exactly."""
    mesh = Mesh(1.0, 5)
    W = MatrixWeight(mesh, np.broadcast_to(3.0 * np.eye(2), (mesh.n_cells, 2, 2)))
    value, direction = ainfty_scalar_characteristic(W, 2.0, n_dirs=16)
    assert value == 1.0
    assert np.array_equal(direction, unit_directions(2, 16)[0])


# ---------------------------------------------------------------------------
# log powers against mpmath oracles
# ---------------------------------------------------------------------------


def _anchored_oracle(a, b, t):
    """∫_0^t x^a log(e/x)^b dx = e^c c^-(b+1) Γ(b+1, c log(e/t)), c = a + 1 > 0."""
    import mpmath

    with mpmath.workdps(40):
        c, b = mpmath.mpf(a) + 1, mpmath.mpf(b)
        U = c * mpmath.log(mpmath.e / mpmath.mpf(t))
        return float(mpmath.e**c * c ** (-(b + 1)) * mpmath.gammainc(b + 1, U, mpmath.inf))


def _interior_oracle(a, b, u, v, panels=24):
    """∫_u^v x^a log(e/x)^b dx = ∫ e^(c(1-s)) s^b ds over [log(e/v), log(e/u)].

    For c = a + 1 > 0 it is e^c c^-(b+1) (Γ(b+1, c s_lo) - Γ(b+1, c s_hi)),
    ``mpmath.gammainc`` in 60 digits: on all 124 c > 0 cases of this file it
    gives the floats of the panel rule below, 45 times faster.  For c <= 0
    the panel rule: 40 digits, split into panels.  The integrand is divided
    by its largest value at an end or at the interior peak s = b/c, so
    mpmath's absolute tolerance is relative to the integral (unscaled,
    ``mpmath.quad`` in x or s was 1e-8 to 1e-6 off on small integrals such
    as a = 20 on [1e-3, 2e-3])."""
    import mpmath

    if a + 1 > 0:
        with mpmath.workdps(60):
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            c = a + 1
            s_lo, s_hi = (mpmath.log(mpmath.e / mpmath.mpf(x)) for x in (v, u))
            return float(mpmath.e**c * c ** (-(b + 1)) * mpmath.gammainc(b + 1, c * s_lo, c * s_hi))
    with mpmath.workdps(40):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        c = a + 1
        s_lo, s_hi = (mpmath.log(mpmath.e / mpmath.mpf(x)) for x in (v, u))
        log_g = lambda s: c * (1 - s) + b * mpmath.log(s)  # noqa: E731
        peak = [b / c] if c > 0 and s_lo < b / c < s_hi else []
        top = max(log_g(s) for s in [s_lo, s_hi, *peak])
        edges = sorted(set(mpmath.linspace(s_lo, s_hi, panels) + peak))
        return float(mpmath.exp(top) * mpmath.quad(lambda s: mpmath.exp(log_g(s) - top), edges))


def _assert_positive_and_close(got, want, rel):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.isfinite(got)) and np.all(got > 0)
    err = np.abs(got / want - 1.0)
    assert err.max() <= rel, f"worst relative error {err.max():.3g} at entry {err.argmax()}"


# the incomplete gamma function of the anchored core: s = b + 1 in (0, 202],
# x = c S with c = a + 1 in (0, 41] and S = log(e/t) in [1, 28.7]
_GAMMA_S = st.one_of(st.floats(0.01, 202.0), st.sampled_from([2.0, 2.000001, 2.06, 2.09, 10.0, 202.0]))
_GAMMA_X = st.one_of(
    st.floats(0.0, 1200.0, exclude_min=True),
    st.floats(1e-3, 10.0),
    st.sampled_from([1e-300, 1e-9, 5.828, 5.83, 3.0, 203.0, 1200.0]),
)


def _mp_gammaincc(s: float, x: float):
    import mpmath

    with mpmath.workdps(40):
        return mpmath.gammainc(mpmath.mpf(s), mpmath.mpf(x), mpmath.inf, regularized=True)


@settings(max_examples=120, deadline=None)
@given(s=_GAMMA_S, x=st.lists(_GAMMA_X, max_size=20), u=st.lists(st.floats(0.0, 2.5, exclude_min=True), max_size=30))
def test_gammaincc_is_elementwise(s, x, u):
    # every element stops on its own test: a batch gives each element the
    # bytes it gets alone, whatever else the batch holds.  u scales the point
    # where the series hands over to the continued fraction
    x = np.array(x + [ui * (s + 1 + 2 * math.sqrt(s)) for ui in u])
    assume(len(x) > 0)
    full = gammaincc(s, x)
    assert [full[i].tobytes() for i in range(len(x))] == [gammaincc(s, x[i : i + 1])[0].tobytes() for i in range(len(x))]
    assert gammaincc(s, x[::-1]).tobytes() == full[::-1].tobytes()


@pytest.mark.parametrize("s", [0.5, 2.06, 9.5, 50.0])
def test_gammaincc_is_elementwise_on_a_dense_batch(s):
    # a terms row added past an element's own stop moves its sum by less than
    # an ulp, so only a few hundredths of a percent of elements would show it
    x = np.random.default_rng(6).uniform(0.0, 1.5 * (s + 1 + 2 * math.sqrt(s)), 3000)
    full = gammaincc(s, x)
    assert [v.tobytes() for v in full] == [gammaincc(s, x[i : i + 1])[0].tobytes() for i in range(len(x))]


@settings(max_examples=60, deadline=None)
@given(s=_GAMMA_S, c=st.floats(1e-3, 41.0), S=st.lists(st.floats(1.0, 28.7), min_size=1, max_size=8))
def test_gammaincc_within_1e12_of_mpmath(s, c, S):
    # where Q underflows the anchored core switches to its tail rule, so there
    # Q only has to fall below the smallest normal float as well
    x = c * np.array(S)
    tiny = np.finfo(float).tiny
    for xi, q in zip(x, gammaincc(s, x)):
        ref = _mp_gammaincc(s, xi)
        if ref >= tiny:
            assert abs(q - ref) <= 1e-12 * ref, (s, xi, q, float(ref))
        else:
            assert q < tiny * (1 + 1e-12), (s, xi, q, float(ref))


@pytest.mark.parametrize("s, bound", [(0.003, 1e-12), (0.001, 5e-12), (0.0001, 5e-11)])
def test_gammaincc_below_s_001(s, bound):
    # below the anchored core's tested range Q = -expm1(log P) loses the digits
    # of P/Q: on these 300 points the worst errors are 3.6e-13, 1.2e-12 and
    # 1.9e-11 (scipy's Temme expansion stays below 1e-13)
    x = np.exp(np.random.default_rng(5).uniform(math.log(1e-3), math.log(700.0), 300))
    ref = [float(_mp_gammaincc(s, xi)) for xi in x]
    err = [abs(q - r) / r for q, r in zip(gammaincc(s, x), ref) if r > 1e-300]
    assert max(err) < bound


# non-integer b (integer b has its own cases in TestIntegerLogPowers)
ANCHORED_EXPONENTS = [
    (0.5, -0.5),
    (0.3, 1.7),
    (-0.5, 0.01),
    (-0.9, 2.5),
    (0.8, -1.2),
    (-0.2, -1.1),
    (5.0, -0.5),
    (20.0, 2.5),
    (-0.99, 0.3),
    (0.5 * 63.9, 2.5 * 63.9),  # PowerLogWeight(0.5, 2.5).power(63.9): b = 159.75
    (40.0, 200.5),  # Γ(b+1) overflows: the log-space prefactor
]
INTERIOR_EXPONENTS = ANCHORED_EXPONENTS + [(-1.5, 0.7), (-3.0, -2.0), (-1.0, -2.0), (-1.0, 0.5), (-20.0, 3.3)]
INTERIOR_INTERVALS = [
    (1 - 2.0**-20, 1.0),
    (0.5, 0.5 + 1e-9),
    (2.0**-40, 1.0),
    (0.25, 0.75),
    (1e-3, 2e-3),
    (2.0**-30, 2.0**-29),
    (0.1, 1.0),
]


class TestNonIntegerLogPowers:
    @pytest.mark.parametrize("a, b", ANCHORED_EXPONENTS)
    def test_anchored_matches_incomplete_gamma_oracle(self, a, b):
        # t log-uniform over the range SearchSpace.anchored_only() searches
        t = np.sort(2.0 ** np.random.default_rng(7).uniform(-40.0, 0.0, 12))
        t[0] = 1e-11
        got = PowerLogWeight(a, b).integral_batch(np.zeros_like(t), t)
        _assert_positive_and_close(got, [_anchored_oracle(a, b, x) for x in t], 1e-12)

    def test_anchored_tiny_t_within_1e12(self):
        # adaptive quad with epsabs=1e-13 was 2.4e-6 off here, with no warning
        for a, b, t in ((0.5, -0.5, 1e-11), (0.3, 1.7, 1e-12)):
            got = PowerLogWeight(a, b).integral(0.0, t)
            assert got == pytest.approx(_anchored_oracle(a, b, t), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("a, b", INTERIOR_EXPONENTS)
    def test_interior_matches_log_variable_oracle(self, a, b):
        u, v = np.array(INTERIOR_INTERVALS).T
        got = PowerLogWeight(a, b).integral_batch(u, v)
        _assert_positive_and_close(got, [_interior_oracle(a, b, x, y) for x, y in INTERIOR_INTERVALS], 1e-12)

    def test_negative_side_and_two_sided_intervals(self):
        w = PowerLogWeight(-0.3, 0.7)
        assert w.integral(-0.75, -0.25) == w.integral(0.25, 0.75)
        two_sided = w.integral(-0.25, 0.5)
        assert two_sided == pytest.approx(_anchored_oracle(-0.3, 0.7, 0.25) + _anchored_oracle(-0.3, 0.7, 0.5), rel=1e-13)

    @pytest.mark.parametrize("lo, hi", [(0.0, 2.2e-311), (2.2e-311, 1.0), (5e-324, 1e-320), (1e-310, 0.5)])
    def test_subnormal_endpoints(self, lo, hi):
        # e/x and (v-u)/u overflow below x = 1.5e-308
        want = _anchored_oracle(-0.5, 1.5, hi) if lo == 0 else _interior_oracle(-0.5, 1.5, lo, hi)
        assert PowerLogWeight(-0.5, 1.5).integral(lo, hi) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_pointwise_at_subnormal_points(self):
        # w and essinf share the integrals' log(e/x) = 1 - log x where e/x overflows
        w = PowerLogWeight(0.0, 1.5)
        want = (1.0 - math.log(2e-311)) ** 1.5
        assert want == pytest.approx(19175.35, rel=1e-6)
        assert w(np.array([2e-311, -2e-311])).tolist() == pytest.approx([want, want], rel=1e-15)
        assert w.essinf(0.0, 2e-311) == pytest.approx(want, rel=1e-15)
        assert w.essinf(-2e-311, 5e-324) == w.essinf(0.0, 2e-311)  # folds onto [0, 2e-311]
        assert w.essinf(5e-324, 1e-320) == w(1e-320)  # decreasing

    def test_underflowing_gamma_tail_still_positive(self):
        # Q(b+1, cS) underflows here, though the integral (about 3e-302) does not
        got = PowerLogWeight(30.0, 0.5).integral(0.0, 2e-10)
        assert got == pytest.approx(_anchored_oracle(30.0, 0.5, 2e-10), rel=1e-12, abs=0.0)


INTEGER_ANCHORED_EXPONENTS = [(0.5, 1.0), (-0.9, 1.0), (-0.995, 1.0), (2.0, 2.0), (-0.5, 3.0), (32.0, 160.0)]
INTEGER_INTERIOR_EXPONENTS = INTEGER_ANCHORED_EXPONENTS + [(-1.0, 1.0), (-1.5, 2.0), (-3.0, 3.0)]


class TestIntegerLogPowers:
    """Integer b >= 1 goes through the same incomplete-gamma and Gauss-Legendre
    rules as every other b != 0; the parts recursion that served it cancelled."""

    @pytest.mark.parametrize("a, b", INTEGER_ANCHORED_EXPONENTS)
    def test_anchored_matches_incomplete_gamma_oracle(self, a, b):
        t = np.sort(2.0 ** np.random.default_rng(8).uniform(-40.0, 0.0, 12))
        t[0] = 1e-11
        got = PowerLogWeight(a, b).integral_batch(np.zeros_like(t), t)
        _assert_positive_and_close(got, [_anchored_oracle(a, b, x) for x in t], 1e-12)

    @pytest.mark.parametrize("a, b", INTEGER_INTERIOR_EXPONENTS)
    def test_interior_matches_log_variable_oracle(self, a, b):
        # includes the 1e-9-wide interval [0.5, 0.5 + 1e-9]
        u, v = np.array(INTERIOR_INTERVALS).T
        got = PowerLogWeight(a, b).integral_batch(u, v)
        _assert_positive_and_close(got, [_interior_oracle(a, b, x, y) for x, y in INTERIOR_INTERVALS], 1e-12)

    @pytest.mark.parametrize(
        "a, b, lo, hi",
        [
            (32.0, 160.0, 0.25, 0.75),  # the recursion gave 1.483e40, 14 times the integral
            (0.5, 2.0, 0.5, 0.5 + 1e-9),  # the recursion was 2.5e-8 off
            (32.0, 160.0, 0.0, 9.1e-13),  # the recursion gave 0: t^33 underflows
        ],
    )
    def test_cases_the_parts_recursion_lost(self, a, b, lo, hi):
        want = _anchored_oracle(a, b, hi) if lo == 0 else _interior_oracle(a, b, lo, hi)
        assert PowerLogWeight(a, b).integral(lo, hi) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_underflowing_anchored_value(self):
        assert _anchored_oracle(32.0, 160.0, 9.1e-13) == pytest.approx(3.4075098278734e-166, rel=1e-13)


_FOLD_EXPONENTS = st.one_of(
    st.tuples(st.floats(-0.99, 3.0), st.just(0.0)),
    st.tuples(st.floats(-0.99, 3.0), st.floats(-3.0, 4.0).filter(lambda b: not b.is_integer())),
    st.just((-1.0, -2.0)),
    st.tuples(st.just(-1.0), st.floats(-4.0, -1.01)),
)
_FOLD_POINTS = st.one_of(
    st.just(0.0), st.just(1.0), st.just(-1.0), st.floats(-3.0, 3.0), st.floats(1e-12, 1e-3), st.floats(-1e-3, -1e-12)
)


@settings(max_examples=80)
@given(
    exponents=_FOLD_EXPONENTS,
    scale=st.sampled_from([1.0, 0.3, 7.5]),
    ends=st.lists(st.tuples(_FOLD_POINTS, _FOLD_POINTS), min_size=1, max_size=16),
)
# subnormal endpoints, where e/x overflows, pinned rather than left to the draw
@example(exponents=(-0.99, 2.5), scale=7.5, ends=[(0.0, 2.2e-311), (5e-324, 1e-320)])
@example(exponents=(-1.0, -2.0), scale=1.0, ends=[(0.0, 2.2e-311), (5e-324, 1e-320)])
def test_folded_pieces_match_the_anchored_one_sided_split(exponents, scale, ends):
    # straddling, 0-touching (either side), negative and beyond-1 intervals, in
    # one batch: b = 0 keeps its elementary arithmetic and non-integer b its
    # rule, so folding onto |x| changes no bit
    w = PowerLogWeight(*exponents, scale)
    lo, hi = np.sort(np.array(ends), axis=1).T
    assert w.integral_batch(lo, hi).tobytes() == split_integral_batch(w, lo, hi).tobytes()


@settings(max_examples=40)
@given(
    exponents=st.tuples(st.floats(-4.0, -1.0), st.one_of(st.just(0.0), st.floats(-0.99, 3.0))),
    ends=st.lists(st.tuples(st.floats(1e-9, 3.0), st.floats(1e-9, 3.0)), min_size=1, max_size=8),
    side=st.sampled_from([1.0, -1.0]),
)
def test_folded_pieces_away_from_zero_match_the_split_for_any_a(exponents, ends, side):
    w = PowerLogWeight(*exponents)
    lo, hi = np.sort(side * np.array(ends), axis=1).T
    assert w.integral_batch(lo, hi).tobytes() == split_integral_batch(w, lo, hi).tobytes()


_ESSINF_EXPONENTS = st.one_of(
    st.tuples(st.floats(-3.0, 3.0), st.floats(-5.0, 5.0)),
    st.floats(-3.0, 3.0).filter(lambda a: a != 0.0).map(lambda a: (a, 2.0 * a)),  # x* = 1/e
    st.tuples(st.just(0.0), st.floats(-5.0, 5.0)),
)
_ESSINF_POINTS = st.one_of(
    _FOLD_POINTS,
    st.floats(1.0, 4.0),
    st.floats(-4.0, -1.0),
    st.sampled_from([5e-324, -5e-324, 1e-320, 2.2e-311, -2.2e-311]),
)


def _recorded(batch, *args):
    """``batch(*args)`` and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = batch(*args)
    return out, {str(w.message) for w in caught}


@settings(max_examples=150)
@given(
    exponents=_ESSINF_EXPONENTS,
    scale=st.sampled_from([1.0, 0.3, 7.5]),
    ends=st.lists(
        st.one_of(st.tuples(_ESSINF_POINTS, _ESSINF_POINTS), _ESSINF_POINTS.map(lambda x: (x, x))),
        min_size=1,
        max_size=16,
    ),
)
# a straddling interval whose shorter piece ends within rounding of x* = 1/e:
# the least over both pieces read 1 ulp below the infimum of the longer one
@example(exponents=(-1.0, -2.0), scale=1.0, ends=[(-0.36787944242223247, 0.75)])
@example(exponents=(-0.5, -1.0), scale=7.5, ends=[(-0.3678794413185941, 0.75)])
# the shorter piece of a straddle ends at a subnormal, where x^a overflows
@example(exponents=(-1.0, -2.0), scale=1.0, ends=[(-5e-324, 0.5), (-0.5, 5e-324)])
# x* = 1 (b = a), degenerate, signed-zero, past-1 and origin-touching intervals
@example(exponents=(-0.7, -0.7), scale=0.3, ends=[(-0.99999999, 1.5), (1.0, 1.0), (-1.0, -1.0), (-0.0, 0.0), (2.0, 3.0)])
@example(exponents=(0.5, 1.0), scale=1.0, ends=[(0.0, 0.25), (-0.25, 0.0), (0.0, 0.0), (-3.0, 2.0), (1.0, 4.0)])
@example(exponents=(-0.99, 2.5), scale=7.5, ends=[(0.0, 2.2e-311), (5e-324, 1e-320), (-2.2e-311, 5e-324)])
def test_essinf_batch_matches_the_unfolded_oracle(exponents, scale, ends):
    # infima read the pieces of the fold the integrals read: the same bytes as
    # the parent's own fold onto [min |x|, max |x|], and no warning it lacked
    w = PowerLogWeight(*exponents, scale)
    lo, hi = np.sort(np.array(ends), axis=1).T
    new, new_warned = _recorded(w.essinf_batch, lo, hi)
    old, old_warned = _recorded(essinf_batch_oracle, w, lo, hi)
    assert new.tobytes() == old.tobytes()
    assert new_warned <= old_warned


_INFIMUM_WEIGHTS = [
    PowerLogWeight(-0.5),
    PowerLogWeight(-0.3, 1.0),
    PowerLogWeight(-0.9, 1.0, 5.0),
    PowerLogWeight(-0.2, 0.5, 3.0),
    PowerLogWeight(-0.5, -1.0),  # x* = 1/e
    PowerLogWeight(-0.4, -2.0, 0.3),  # x* = e^-4
    PowerLogWeight(-0.7, -0.7),  # x* = 1
    PowerLogWeight(-1.0, -2.0),
    PowerLogWeight(0.0, 1.0),
    PowerLogWeight(0.0, 0.0, 2.5),
    PowerLogWeight(0.0, -1.0),  # vanishes at the origin
    PowerLogWeight(0.5),
    PowerLogWeight(0.3, 1.0),
    PowerLogWeight(-2.0),  # not integrable at the origin
    w_delta(0.1),
    w_delta(0.05),
]


def _infimum_reports(w, search):
    out = []
    for call in (a1_characteristic, lambda w, s: a1q_characteristic(w, 2.0, s)):
        try:
            rep = call(w, search)
        except (DegenerateWeightError, NonIntegrableError) as e:
            out.append((type(e).__name__, str(e)))
        else:
            out.append((rep.value.hex(), rep.witness, rep.witness_label, rep.search_levels, rep.grids_used))
    return out


@pytest.mark.parametrize("search", ["default", "anchored_only"])
@pytest.mark.parametrize("w", _INFIMUM_WEIGHTS, ids=repr)
def test_infimum_reports_match_the_unfolded_oracle(w, search, monkeypatch):
    # A_1 and A_(1,q): value, witness and label, or the error, as with the
    # parent's essinf_batch on the candidates
    new = _infimum_reports(w, getattr(SearchSpace, search)())
    space = getattr(SearchSpace, search)()

    def essinfs(weight, folded):
        lo, hi, _, kept = space._candidates
        assert folded is kept
        return essinf_batch_oracle(weight, lo, hi)

    monkeypatch.setattr(PowerLogWeight, "_essinfs", essinfs)
    assert _infimum_reports(w, space) == new


def test_plan_infima_read_the_kept_fold(monkeypatch):
    # after the plan is built, its infima fold nothing: they read the fold
    # the search keeps, as its averages do
    w, search = PowerLogWeight(-0.3, 1.0), SearchSpace.default(0.75, 5)
    plan = weights_module._Plan(w, search)
    calls = []
    folded_init, ordered = weights_module._Folded.__init__, weights_module._ordered
    monkeypatch.setattr(weights_module._Folded, "__init__", lambda self, lo, hi: calls.append("_Folded") or folded_init(self, lo, hi))
    monkeypatch.setattr(weights_module, "_ordered", lambda lo, hi: calls.append("_ordered") or ordered(lo, hi))
    plan.essinfs()
    a1_characteristic(w, search)
    a1q_characteristic(w, 2.0, search)
    assert calls == []
    w.essinf_batch(np.array([-0.5]), np.array([0.25]))  # the counters see a fold
    assert calls == ["_Folded", "_ordered"]


@pytest.mark.parametrize("a, b", [(-1.0, 0.0), (-1.0, 1.0), (-1.0, -0.5), (-1.5, 0.0), (-1.5, 2.0), (-2.0, 0.3)])
def test_nonintegrable_error_has_one_message(a, b):
    # a piece [0, 0.5] from the right, the left, or a straddling interval: one
    # rule rejects all three, with one message
    w = PowerLogWeight(a, b)
    want = f"PowerLog(a={a}, b={b}) is not integrable on an interval touching 0 (first witness hi=0.5)"
    for lo, hi in ((0.0, 0.5), (-0.5, 0.0), (-0.25, 0.5)):
        with pytest.raises(NonIntegrableError) as err:
            w.integral(lo, hi)
        assert str(err.value) == want
    assert w.integral(0.0, 0.0) == 0.0


class TestLogarithmicEndpoint:
    """a = -1: x^-1 log(e/x)^b is integrable at 0 exactly when b < -1."""

    def test_closed_form_for_b_below_minus_one(self):
        w = PowerLogWeight(-1.0, -2.0)
        assert w.anchored_integrable
        # ∫_0^t x^-1 log(e/x)^-2 dx = 1/log(e/t)
        assert w.integral(0.0, 0.5) == pytest.approx(1.0 / math.log(2 * E), rel=1e-15)
        assert w.integral(-0.25, 0.5) == pytest.approx(1.0 / math.log(2 * E) + 1.0 / math.log(4 * E), rel=1e-15)
        assert PowerLogWeight(-1.0, -1.5).integral(0.0, 0.5) == pytest.approx(2.0 / math.sqrt(math.log(2 * E)), rel=1e-15)

    @pytest.mark.parametrize("b", [-1.0, -0.5, 0.0, 1.0, 1.5])
    def test_b_at_least_minus_one_still_raises(self, b):
        w = PowerLogWeight(-1.0, b)
        assert not w.anchored_integrable
        with pytest.raises(NonIntegrableError):
            w.integral(0.0, 0.5)
        with pytest.raises(NonIntegrableError):
            w.integral(-0.25, 0.5)


# ---------------------------------------------------------------------------
# local sums for sampled weights and the Fujii-Wilson segments
# ---------------------------------------------------------------------------


def _heavy_left(mesh, heavy, light):
    n = mesh.n_cells
    return SampledWeight(mesh, np.concatenate((np.full(n // 2, heavy), light)))


def test_sampled_averages_sum_each_interval_locally():
    # 0.412 on the left half and 1e-9 on the right: differencing one global
    # prefix sum put the average over [0, 1) 3.5e-6 off; the scan sums its
    # 128 cells alone, left to right (1.8e-15 off)
    mesh = Mesh(1.0, 7)
    w = _heavy_left(mesh, 0.412, np.full(mesh.n_cells // 2, 1e-9))
    plan = weights_module._Plan(w, SearchSpace())
    got = plan.averages(w)
    (right,) = np.flatnonzero((plan.lo == 0.0) & (plan.hi == 1.0))
    assert got[right] == np.cumsum(w.values[mesh.n_cells // 2 :] * mesh.h)[-1]
    assert got[right] == pytest.approx(1e-9, rel=1e-14, abs=0.0)
    pick = np.random.default_rng(3).choice(len(got), 3000, replace=False)
    i_lo, i_hi = (np.round((x[pick] + 1.0) / mesh.h).astype(int) for x in (plan.lo, plan.hi))
    want = [math.fsum(w.values[i:j]) / (j - i) for i, j in zip(i_lo, i_hi)]
    _assert_positive_and_close(got[pick], want, 1e-13)


def _running_candidates(kind):
    # every cell-aligned interval and the nested aligned cubes, as a plan
    # reads them; random cell pairs (repeated and nested ones among them),
    # which no search lays out, as the run-layout oracle reads them
    mesh = Mesh(1.0, 5)
    w = SampledWeight(mesh, np.random.default_rng(4).lognormal(0.0, 3.0, mesh.n_cells))
    if kind == "random":
        ends = np.sort(np.random.default_rng(5).choice(mesh.n_cells + 1, (500, 2)), axis=1)
        ends = ends[ends[:, 0] < ends[:, 1]]
        lo, hi = mesh.edges()[ends[:, 0]], mesh.edges()[ends[:, 1]]
        averages, essinfs = oracle_run_averages(w, lo, hi), oracle_run_essinfs(w, lo, hi)
    else:
        plan = weights_module._Plan(w, SearchSpace() if kind == "cells" else SearchSpace.aligned_cubes())
        lo, hi, averages, essinfs = plan.lo, plan.hi, plan.averages(w), plan.essinfs()
    i_lo, i_hi = (np.round((x + 1.0) / mesh.h).astype(int) for x in (lo, hi))
    return w, averages, essinfs, i_lo, i_hi


@pytest.mark.parametrize("kind", ["cells", "aligned", "random"])
def test_sampled_running_sums_match_fsum(kind):
    w, averages, _, i_lo, i_hi = _running_candidates(kind)
    _assert_positive_and_close(averages, [math.fsum(w.values[i:j]) / (j - i) for i, j in zip(i_lo, i_hi)], 1e-13)


@pytest.mark.parametrize("kind", ["cells", "aligned", "random"])
def test_sampled_running_minima_match_slices(kind):
    w, _, essinfs, i_lo, i_hi = _running_candidates(kind)
    assert essinfs.tolist() == [w.values[i:j].min() for i, j in zip(i_lo, i_hi)]


_CELL_VALUES = {
    "lognormal": lambda rng, n: rng.lognormal(0.0, 2.0, n),
    "uniform": lambda rng, n: rng.uniform(0.5, 1.5, n),
    "blocky": lambda rng, n: np.repeat(rng.lognormal(0.0, 1.0, n), rng.integers(1, 9, n))[:n],
}


@settings(max_examples=40, deadline=None)
@given(
    radius=st.sampled_from([0.5, 1.0, 3.0, 4.0]),
    level=st.integers(0, 9),  # at most 1,024 cells
    values=st.sampled_from(sorted(_CELL_VALUES)),
    seed=st.integers(0, 2**32 - 1),
    search=st.sampled_from(["cells", "domain", "aligned"]),
    ends=st.tuples(st.floats(-1.25, 1.25), st.floats(-1.25, 1.25)),
    power=st.sampled_from([1.0, -1.0, 0.37, 2.5, -0.61]),
)
def test_sampled_plan_matches_the_run_layout_oracle(radius, level, values, seed, search, ends, power):
    # each candidate's own left-to-right sum and running minimum give the
    # floats of the block-and-row layout, bit for bit, on a full scan, a
    # narrowed domain (clipped to the mesh, or missing it) and the aligned cubes
    mesh = Mesh(radius, level)
    assume(search != "aligned" or mesh.is_power_of_two())
    w = SampledWeight(mesh, _CELL_VALUES[values](np.random.default_rng(seed), mesh.n_cells))
    a, b = sorted(radius * x for x in ends)
    assume(search != "domain" or a < b)
    space = {"cells": SearchSpace, "domain": lambda: SearchSpace(domain=(a, b)), "aligned": SearchSpace.aligned_cubes}[search]()
    plan = weights_module._Plan(w, space)
    if search == "cells":
        assert len(plan.lo) == mesh.n_cells * (mesh.n_cells + 1) // 2
    for v in (w, w.power(power)):
        assert plan.averages(v).tobytes() == oracle_run_averages(v, plan.lo, plan.hi).tobytes()
    if len(plan.lo):
        assert plan.essinfs().tobytes() == oracle_run_essinfs(w, plan.lo, plan.hi).tobytes()


def test_a_scan_above_its_limit_is_refused_by_name():
    # a spike on U(0.5, 1.5) noise at 2,048 cells: the largest A_2 of any
    # cell interval is 5000.5, on cells 1025-1026, and a scan of every second
    # edge misses it (2950.68 on [0, 0.0039)); so the full scan is refused,
    # and a narrowed domain still scans every interval in it
    mesh = Mesh(1.0, 10)
    v = np.random.default_rng(0).uniform(0.5, 1.5, mesh.n_cells)
    v[1025], v[1026] = 1e4, 0.5
    w = SampledWeight(mesh, v)
    msg = "a cell scan of 2,048 cells has 2,098,176 intervals, above the limit of 2,097,152"
    for call in (lambda: ap_characteristic(w, 2.0), lambda: a1_characteristic(w), lambda: SearchSpace().intervals_for(w)):
        with pytest.raises(ValueError, match=re.escape(msg)):
            call()
    rep = ap_characteristic(w, 2.0, SearchSpace(domain=(0.0, 0.25)))
    assert rep.witness == (mesh.edges()[1025], mesh.edges()[1027]) and rep.witness_label == "cells"
    assert rep.value == pytest.approx((1e4 + 0.5) / 2 * (1e-4 + 2.0) / 2, rel=1e-14)
    assert len(SearchSpace(domain=(-1.0, -1.0 + 2047 * mesh.h)).intervals_for(w)[0]) == 2047 * 2048 // 2


def _sampled(level, seed):
    mesh = Mesh(1.0, level)
    return SampledWeight(mesh, np.random.default_rng(seed).uniform(0.2, 3.0, mesh.n_cells))


ONE_BUILD = {
    "ap": lambda w, s: ap_characteristic(w, 2.0, s),
    "a1": a1_characteristic,
    "rh": lambda w, s: rh_characteristic(w, 1.5, s),
    "apq": lambda w, s: apq_characteristic(w, 2.0, 3.0, s),
    "a1q": lambda w, s: a1q_characteristic(w, 2.0, s),
    "sharp_rh": sharp_rh_exponent,
}


@pytest.mark.parametrize("call", ONE_BUILD, ids=list(ONE_BUILD))
@pytest.mark.parametrize(
    "weight,search",
    [(PowerLogWeight(-0.3), SearchSpace.default(0.75, 5)), (_sampled(5, 6), SearchSpace()),
     (_sampled(5, 7), SearchSpace.aligned_cubes())],
    ids=["powerlog", "sampled-cells", "sampled-aligned"],
)
def test_one_candidate_build_per_call(call, weight, search, monkeypatch):
    # a bisection or a second power reads the candidates of the first build.
    # A second call on an equal search builds no closed-form candidates (they
    # stay on the search) and lays out no aligned cubes (grid keeps them per
    # mesh and search); a cell scan is laid out once per call
    search = dataclasses.replace(search)  # an equal search with no kept candidates
    _kept_geometry.cache_clear()  # and no kept aligned layout
    built = []
    if isinstance(weight, PowerLogWeight):  # the candidates depend on the search alone
        build, planned = weights_module._grid_cubes, (search.grids, search.min_level, search.max_level, search.domain)
        monkeypatch.setattr(weights_module, "_grid_cubes", lambda *args: built.append(args) or build(*args))
    else:
        build, planned = SearchSpace._sampled_layout, weight
        monkeypatch.setattr(SearchSpace, "_sampled_layout", lambda self, w: built.append(w) or build(self, w))
    aligned = 1 if isinstance(weight, SampledWeight) and search.sampled_aligned_cubes else 0
    ONE_BUILD[call](weight, search)
    same = (lambda b: b == planned) if isinstance(weight, PowerLogWeight) else (lambda b: b is planned)
    assert len(built) == 1 and same(built[0])
    assert _kept_geometry.cache_info().misses == aligned
    ONE_BUILD[call](weight, search)
    assert len(built) == (1 if isinstance(weight, PowerLogWeight) else 2) and same(built[-1])
    assert _kept_geometry.cache_info().misses == aligned


def _report_key(rep):
    return rep.value.hex(), rep.witness, rep.witness_label, rep.search_levels, rep.grids_used


def test_kept_sampled_layouts_are_keyed_by_mesh_and_search(monkeypatch):
    # two meshes of 64 cells, one twice as wide, and a cell scan, a narrower
    # cell scan and the aligned cubes, interleaved: every report equals the
    # one from a freshly built layout
    meshes = [Mesh(1.0, 5), Mesh(2.0, 5)]
    weights = [SampledWeight(m, np.random.default_rng(i).lognormal(0.0, 1.0, m.n_cells)) for i, m in enumerate(meshes)]
    searches = [SearchSpace(), SearchSpace(domain=(-0.75, 1.5)), SearchSpace.aligned_cubes()]
    calls = [lambda w, s: ap_characteristic(w, 2.0, s), a1_characteristic, lambda w, s: rh_characteristic(w, 1.5, s)]
    cases = [(w, s, c) for _ in range(2) for w in weights for s in searches for c in calls]
    kept = [_report_key(c(w, s)) for w, s, c in cases]
    for w in weights:  # a scan lists the pairs of mesh edges in its domain (edges of both meshes)
        for s in searches[:2]:
            lo, hi, label = s.intervals_for(w)
            a, b = max(s.domain[0], -w.mesh.radius), min(s.domain[1], w.mesh.radius)
            pairs = list(itertools.combinations([e for e in w.mesh.edges() if a <= e <= b], 2))
            assert list(zip(lo, hi)) == pairs and label(0) == "cells"
    monkeypatch.setattr(weights_module, "_geometry", _Geometry)  # a fresh layout on every call
    fresh = [_report_key(c(w, s)) for w, s, c in cases]
    assert kept == fresh


def test_degenerate_sharp_rh_builds_candidates_once(monkeypatch):
    built = []
    build = weights_module._grid_cubes
    monkeypatch.setattr(weights_module, "_grid_cubes", lambda *args: built.append(args) or build(*args))
    w, search = PowerLogWeight(-1.5), SearchSpace.anchored_only()
    with pytest.raises(DegenerateWeightError):
        sharp_rh_exponent(w)  # the default search, a new one on every call
    assert len(built) == 1
    for _ in range(2):  # the first call on a search builds, the second reads
        with pytest.raises(DegenerateWeightError):
            sharp_rh_exponent(w, search)
    assert len(built) == 2 and built[1] == (search.grids, search.min_level, search.max_level, search.domain)


KEPT_SEARCH = SearchSpace.default(0.75, 5)


@pytest.mark.parametrize("w", [PowerLogWeight(-0.5, 0.0, 1.3), PowerLogWeight(0.4, 1.5), PowerLogWeight(-2.0, -0.5), PowerLogWeight(-1.2)])
def test_kept_fold_gives_the_floats_of_integral_batch(w):
    # every weight on one search reads the candidates folded by the first
    plan = weights_module._Plan(w, KEPT_SEARCH)
    try:
        want = w.integral_batch(plan.lo, plan.hi) / (plan.hi - plan.lo)
    except NonIntegrableError as e:
        with pytest.raises(NonIntegrableError, match=re.escape(str(e))):
            plan.averages(w)
    else:
        assert plan.averages(w).tobytes() == want.tobytes()


def test_kept_candidates_leave_equality_and_hashing_alone():
    kept, fresh = SearchSpace.default(0.75, 5), SearchSpace.default(0.75, 5)
    before = hash(kept)
    ap_characteristic(PowerLogWeight(-0.3), 2.0, kept)
    assert "_candidates" in vars(kept) and "_candidates" not in vars(fresh)
    assert kept == fresh and hash(kept) == hash(fresh) == before and repr(kept) == repr(fresh)
    assert {fresh: "found"}[kept] == "found"
    lo, hi, label, folded = kept._candidates
    want_lo, want_hi, _ = fresh.intervals_for(ONE)
    assert lo.tobytes() == want_lo.tobytes() and hi.tobytes() == want_hi.tobytes()
    for a in (lo, hi, folded.both, folded.u1, folded.v1, folded.outer, folded.touching):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def _fw_fsum_oracle(w, k, m):
    """Fujii-Wilson ratio of standard-grid cube (k, m) whose cells are the
    finest cubes: every cube average and integral an exact-rounded fsum."""
    mesh = w.mesh
    per = 2 ** (mesh.level - k)  # cells per level-k cube
    first = m * per + mesh.n_cells // 2  # cube m of level k starts at m 2^-k
    cells = w.values[first : first + per]
    profile = np.zeros(per)
    for j in range(k, mesh.level + 1):
        size = 2 ** (mesh.level - j)
        avgs = [math.fsum(cells[i : i + size]) / size for i in range(0, per, size)]
        profile = np.maximum(profile, np.repeat(avgs, size))
    return math.fsum(profile) / math.fsum(cells)


def test_fujii_wilson_segments_sum_locally():
    # about 1e9 on the left half, a rough weight near 1 on the right; the
    # supremum sits on the light side, where a global prefix sum was 1e-6 off
    mesh = Mesh(1.0, 7)
    light = np.random.default_rng(5).uniform(0.5, 1.5, mesh.n_cells // 2)
    light[::16] = 40.0
    w = _heavy_left(mesh, 1e9, light)
    rep = ainfty_characteristic(w, mesh=mesh, grids=[DyadicGrid(0)], min_level=0)
    k, m = (int(x) for x in re.findall(r"-?\d+", rep.witness_label)[1:])
    assert rep.witness[0] >= 0.0
    assert rep.value == pytest.approx(_fw_fsum_oracle(w, k, m), rel=1e-13)
    best = max(_fw_fsum_oracle(w, j, i) for j in range(0, mesh.level + 1) for i in range(-(2**j), 2**j))
    assert rep.value == pytest.approx(best, rel=1e-13)


_GUARD_MESH = Mesh(1.0, 4)
_GUARD_F = MeshFunction(_GUARD_MESH, np.linspace(0.5, 2.0, _GUARD_MESH.n_cells))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ap_characteristic(PowerLogWeight(-0.5), math.nan), "A_p requires p > 1 and finite, got nan"),
        (lambda: ap_characteristic(PowerLogWeight(-0.5), math.inf), "A_p requires p > 1 and finite, got inf"),
        (lambda: rh_characteristic(ONE, math.nan), "reverse Holder requires s > 1 and finite, got nan"),
        (lambda: rh_characteristic(PowerLogWeight(-0.3), math.inf), "reverse Holder requires s > 1 and finite, got inf"),
        (lambda: a1q_characteristic(ONE, math.nan), "A_(1,q) requires q > 1 and finite, got nan"),
        (lambda: a1q_characteristic(PowerLogWeight(-0.3), math.inf), "A_(1,q) requires q > 1 and finite, got inf"),
        (lambda: apq_characteristic(ONE, math.nan, 3.0), "A_(p,q) with p = 1 is a1q_characteristic; got p=nan"),
        (lambda: apq_characteristic(ONE, 2.0, math.nan), "A_(p,q) requires q > p and finite, got p=2.0, q=nan"),
        (lambda: apq_characteristic(PowerLogWeight(-0.3), 2.0, math.inf),
         "A_(p,q) requires q > p and finite, got p=2.0, q=inf"),
        (lambda: sharp_rh_exponent(ONE, ceiling=math.nan), "reverse Holder requires s > 1 and finite, got nan"),
        (lambda: sharp_rh_exponent(PowerLogWeight(-0.3), ceiling=math.inf),
         "reverse Holder requires s > 1 and finite, got inf"),
        (lambda: dual_exponent(math.nan), "dual exponent needs p > 1 and finite, got nan"),
        (lambda: dual_exponent(math.inf), "dual exponent needs p > 1 and finite, got inf"),
        (lambda: weak_lp_norm(_GUARD_F, math.nan), "weak norm needs p >= 1, got nan"),
        (lambda: quotient_from_output(_GUARD_F, 1.0, math.nan), "weak-type quotients need p >= 1, got nan"),
        (lambda: quotient_from_output(_GUARD_F, 1.0, 2.0, math.nan), "need a finite q >= p, got p=2.0, q=nan"),
        (lambda: quotient_from_output(_GUARD_F, math.nan, 2.0), "f must have positive norm"),
        (lambda: proof_constants(math.nan, 2.0), "sharp reverse-Holder exponent requires nu > 1 and finite, got nan"),
        (lambda: proof_constants(math.inf, 2.0), "sharp reverse-Holder exponent requires nu > 1 and finite, got inf"),
        (lambda: proof_constants(2.0, math.nan), "p must be >= 1 and finite, got nan"),
        (lambda: proof_constants(2.0, math.inf), "p must be >= 1 and finite, got inf"),
        (lambda: bound_check("T", math.nan, [_GUARD_F], [1.0], 2.0), "characteristic product must be positive"),
        (lambda: _GUARD_F.lp_norm(0), "L^p norm needs p > 0, got 0"),
        (lambda: MeshFunction.constant(_GUARD_MESH, 2.0).lp_norm(-1), "L^p norm needs p > 0, got -1"),
    ],
    ids=[
        "ap", "ap-inf", "rh", "rh-inf", "a1q", "a1q-inf", "apq-p", "apq-q", "apq-q-inf", "sharp-rh-ceiling",
        "sharp-rh-ceiling-inf", "dual", "dual-inf", "weak-norm", "quotient-p", "quotient-q", "quotient-f-norm",
        "proof-nu", "proof-nu-inf", "proof-p", "proof-p-inf", "bound-product", "lp-norm-0", "lp-norm-neg",
    ],
)
def test_exponent_guards_name_nan_and_out_of_range_values(call, message):
    # each guard states the condition that must hold, so NaN fails it, and an
    # exponent is finite (weak_lp_norm and lp_norm alone read inf, as the sup norm)
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
