import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

import weaklab.weights as weights_module
from search_oracle import (
    fsum_segment_sums,
    oracle_aligned_intervals,
    oracle_fujii_wilson_one_grid,
    oracle_inside_range,
    oracle_intervals,
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
from weaklab.grid import Cube, _level_affine, default_levels
from weaklab.lowerbound import w_delta
from weaklab.matrix import random_matrix_weight, scalar_restriction, unit_directions

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

    def test_domain_too_wide_for_exact_endpoints_rejected(self):
        SearchSpace(domain=(-(2.0**43), 1.0), max_level=8)  # 2^51 exactly: allowed
        with pytest.raises(ValueError, match="too wide"):
            SearchSpace(domain=(-(2.0**43), 1.0), max_level=9)
        with pytest.raises(ValueError, match="too wide"):
            SearchSpace(domain=(0.0, 2.0**44), max_level=8)


def oracle_search(monkeypatch):
    def intervals_for(self, weight):
        lo, hi, labels = oracle_intervals(self)
        return lo, hi, labels.__getitem__

    monkeypatch.setattr(SearchSpace, "intervals_for", intervals_for)


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
    """The integer range ``_fujii_wilson_one_grid`` takes from ``_level_affine``
    equals the inward ``Fraction`` scan at every level it visits."""
    for level in (3, 6, 9):
        mesh = Mesh(radius, level)
        k_fine = math.floor(math.log2(1.0 / mesh.h))
        for grid in shifted_grids(1):
            for k in range(-math.ceil(math.log2(2 * radius)), k_fine + 1):
                a0, step, den = _level_affine(mesh, grid, k)
                q0, q1 = a0 // den, -(-(a0 + mesh.n_cells * step) // den) - 1
                expected = oracle_inside_range(mesh, grid, k, q0, q1 - q0 + 1)
                assert (-(-a0 // den), (a0 + mesh.n_cells * step) // den - 1) == expected


@pytest.mark.parametrize("radius", FW_RADII)
def test_ainfty_report_matches_fraction_scan(radius, monkeypatch):
    mesh = Mesh(radius, 7)
    sampled = SampledWeight(mesh, np.random.default_rng(int(radius * 4)).uniform(0.1, 3.0, mesh.n_cells))
    for w in (PowerLogWeight(-0.4), PowerLogWeight(0.5, 1.0), sampled):
        for grids in ([g] for g in shifted_grids(1)):
            new = ainfty_characteristic(w, mesh=mesh, grids=grids)
            with monkeypatch.context() as mp:
                mp.setattr(weights_module, "_fujii_wilson_one_grid", oracle_fujii_wilson_one_grid)
                old = ainfty_characteristic(w, mesh=mesh, grids=grids)
            assert same_report(new, old)


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
            value = weights_module._fujii_wilson_one_grid(wbar, g, k_top, k_fine)[0]
            assert oracle_fujii_wilson_one_grid(wbar, g, k_top, k_fine, checked)[0] == value
            want = oracle_fujii_wilson_one_grid(wbar, g, k_top, k_fine, fsum_segment_sums)[0]
            assert value == pytest.approx(want, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# non-integer log powers against mpmath oracles
# ---------------------------------------------------------------------------


def _anchored_oracle(a, b, t):
    """∫_0^t x^a log(e/x)^b dx = e^c c^-(b+1) Γ(b+1, c log(e/t)), c = a + 1 > 0."""
    import mpmath

    with mpmath.workdps(40):
        c, b = mpmath.mpf(a) + 1, mpmath.mpf(b)
        U = c * mpmath.log(mpmath.e / mpmath.mpf(t))
        return float(mpmath.e**c * c ** (-(b + 1)) * mpmath.gammainc(b + 1, U, mpmath.inf))


def _interior_oracle(a, b, u, v, panels=24):
    """∫_u^v x^a log(e/x)^b dx = ∫ e^(c(1-s)) s^b ds over [log(e/v), log(e/u)],
    in 40 digits, split into panels.  The integrand is divided by its largest
    value at an end or at the interior peak s = b/c, so mpmath's absolute
    tolerance is relative to the integral (unscaled, ``mpmath.quad`` in x
    or s was 1e-8 to 1e-6 off on small integrals such as a = 20 on
    [1e-3, 2e-3])."""
    import mpmath

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


# non-integer b (the parts recursion serves integer b >= 0)
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

    def test_underflowing_gamma_tail_still_positive(self):
        # Q(b+1, cS) underflows here, though the integral (about 3e-302) does not
        got = PowerLogWeight(30.0, 0.5).integral(0.0, 2e-10)
        assert got == pytest.approx(_anchored_oracle(30.0, 0.5, 2e-10), rel=1e-12, abs=0.0)


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
    # prefix sum put the average over [0, 1) 3.5e-6 off
    mesh = Mesh(1.0, 7)
    w = _heavy_left(mesh, 0.412, np.full(mesh.n_cells // 2, 1e-9))
    assert _plan(w, np.array([0.0]), np.array([1.0])).averages(w)[0] == pytest.approx(1e-9, rel=1e-15, abs=0.0)
    lo, hi, _ = SearchSpace().intervals_for(w)
    pick = np.random.default_rng(3).choice(len(lo), 3000, replace=False)
    got = _plan(w, lo[pick], hi[pick]).averages(w)
    i_lo, i_hi = (np.round((x[pick] + 1.0) / mesh.h).astype(int) for x in (lo, hi))
    want = [math.fsum(w.values[i:j]) / (j - i) for i, j in zip(i_lo, i_hi)]
    _assert_positive_and_close(got, want, 1e-13)


class _Given:
    """Explicit candidates, handed to the plan the way a ``SearchSpace`` hands its own."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def intervals_for(self, weight):
        return self.lo, self.hi, lambda i: "given"

    def levels_for(self, weight):
        return (0, -1), 0


def _plan(w, lo, hi):
    return weights_module._Plan(w, _Given(lo, hi))


def _running_candidates(kind):
    # every cell-aligned interval, the nested aligned cubes, and random
    # cell pairs (repeated and nested ones among them)
    mesh = Mesh(1.0, 5)
    w = SampledWeight(mesh, np.random.default_rng(4).lognormal(0.0, 3.0, mesh.n_cells))
    if kind == "random":
        ends = np.sort(np.random.default_rng(5).choice(mesh.n_cells + 1, (500, 2)), axis=1)
        ends = ends[ends[:, 0] < ends[:, 1]]
        lo, hi = mesh.edges()[ends[:, 0]], mesh.edges()[ends[:, 1]]
    else:
        lo, hi, _ = (SearchSpace() if kind == "cells" else SearchSpace.aligned_cubes()).intervals_for(w)
    i_lo, i_hi = (np.round((x + 1.0) / mesh.h).astype(int) for x in (lo, hi))
    return w, lo, hi, i_lo, i_hi


@pytest.mark.parametrize("kind", ["cells", "aligned", "random"])
def test_sampled_running_sums_match_fsum(kind):
    w, lo, hi, i_lo, i_hi = _running_candidates(kind)
    got = _plan(w, lo, hi).averages(w)
    _assert_positive_and_close(got, [math.fsum(w.values[i:j]) / (j - i) for i, j in zip(i_lo, i_hi)], 1e-13)


@pytest.mark.parametrize("kind", ["cells", "aligned", "random"])
def test_sampled_running_minima_match_slices(kind):
    w, lo, hi, i_lo, i_hi = _running_candidates(kind)
    assert _plan(w, lo, hi).essinfs().tolist() == [w.values[i:j].min() for i, j in zip(i_lo, i_hi)]


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
    # a bisection or a second power reads the candidates of the first build
    built = []
    intervals_for = SearchSpace.intervals_for
    monkeypatch.setattr(SearchSpace, "intervals_for", lambda self, w: built.append(w) or intervals_for(self, w))
    ONE_BUILD[call](weight, search)
    assert len(built) == 1 and built[0] is weight


def test_degenerate_sharp_rh_builds_candidates_once(monkeypatch):
    built = []
    intervals_for = SearchSpace.intervals_for
    monkeypatch.setattr(SearchSpace, "intervals_for", lambda self, w: built.append(w) or intervals_for(self, w))
    with pytest.raises(DegenerateWeightError):
        sharp_rh_exponent(PowerLogWeight(-1.5))
    assert len(built) == 1


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
