import itertools
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_step
from geometry_oracle import cells_inside
from weaklab import (
    DyadicGrid,
    Mesh,
    MeshFunction,
    PowerLogWeight,
    SearchSpace,
    ainfty_characteristic,
    ap_characteristic,
    bound_check,
    build_sparse_family,
    dual_weak_estimate,
    multiplier_apply,
    proof_constants,
    quotient_from_output,
    weak_lp_norm,
    weak_quotient,
)
from weaklab.grid import _fractional_exponent
from weaklab.operators import distribution
from weaklab.sparse import SparseFamily

ONE = PowerLogWeight(0.0)


class TestQuotient:
    def test_indicator_output(self, mesh):
        out = MeshFunction.indicator(mesh, -0.5, 0.5)
        wq = quotient_from_output(out, f_norm=1.0, p=2.0)
        assert wq.quotient == pytest.approx(1.0, rel=1e-12)  # |E| = 1
        assert wq.best_lambda == 1.0

    def test_single_cube_sparse_identity(self, mesh):
        # T = A_S on one cube, w = 1, f = chi_Q, p = 2: quotient = 1
        q = DyadicGrid().cube(0, 0)
        fam = SparseFamily(mesh, DyadicGrid(), [q], [cells_inside(mesh, q)])
        f = MeshFunction.indicator(mesh, 0, 1)
        wq = weak_quotient("AS", ONE, 2.0, f, family=fam)
        assert wq.quotient == pytest.approx(1.0, rel=1e-12)

    def test_invariance_under_scaling_f(self, mesh):
        rng = np.random.default_rng(14)
        f = random_step(mesh, rng)
        fam = build_sparse_family(f)
        w1 = weak_quotient("AS", ONE, 2.0, f, family=fam)
        w2 = weak_quotient("AS", ONE, 2.0, f * 7.5, family=fam)
        assert w1.quotient == pytest.approx(w2.quotient, rel=1e-12)

    def test_sparse_tag_builds_its_own_family(self, mesh):
        # with w = 1, g = f w^(-1/p) is f exactly, so the family built on g
        # is build_sparse_family(f)
        f = random_step(mesh, np.random.default_rng(17))
        assert weak_quotient("AS", ONE, 2.0, f) == weak_quotient("AS", ONE, 2.0, f, family=build_sparse_family(f))

    def test_lambda_grid_refinement_never_increases(self, mesh):
        rng = np.random.default_rng(15)
        f = random_step(mesh, rng)
        out = multiplier_apply("Md", ONE, 2.0, f)
        wq = quotient_from_output(out.magnitude(), f.lp_norm(2.0), 2.0)
        curve = distribution(out.magnitude())
        lam_grid = np.geomspace(max(curve.thresholds[-1] * 1e-3, 1e-9), curve.thresholds[-1] * 2, 997)
        refined = max(l**2 * curve.measure_above(l) for l in lam_grid) / f.lp_norm(2.0) ** 2
        assert refined <= wq.quotient * (1 + 1e-12)

    def test_weak_norm_consistency(self, mesh):
        # quotient^{1/p} equals the weak norm of the output when ||f||_p = 1
        rng = np.random.default_rng(16)
        f = random_step(mesh, rng)
        f = f * (1.0 / f.lp_norm(2.0))
        out = multiplier_apply("Md", ONE, 2.0, f)
        wq = quotient_from_output(out.magnitude(), 1.0, 2.0)
        assert wq.quotient ** 0.5 == pytest.approx(weak_lp_norm(out, 2.0), rel=1e-12)


class TestFractionalExponent:
    """q of 1/p - 1/q = alpha, the one rule every fractional quotient and
    matrix class reads."""

    @given(p=st.floats(1.0, 64.0), share=st.floats(1e-6, 0.999))
    def test_rule_is_the_relation_bit_for_bit(self, p, share):
        alpha = share * min(1.0, 1.0 / p)  # a fractional order below 1/p
        assert _fractional_exponent(p, alpha).hex() == (1.0 / (1.0 / p - alpha)).hex()

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.0])
    def test_alpha_just_below_one_over_p_gives_a_finite_q(self, p):
        q = _fractional_exponent(p, np.nextafter(1.0 / p, 0.0))
        assert p < q < np.inf

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.0])
    def test_alpha_at_one_over_p_names_both(self, p):
        with pytest.raises(ValueError, match=re.escape(f"alpha = {1.0 / p} must lie below 1/p = {1.0 / p}")):
            _fractional_exponent(p, 1.0 / p)

    @pytest.mark.parametrize("alpha", [1e-9, 0.25, 0.5, float(np.nextafter(1.0, 0.0))])
    def test_p_one_takes_every_fractional_order(self, alpha):
        assert _fractional_exponent(1.0, alpha) == 1.0 / (1.0 - alpha)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.25, np.nan])
    def test_an_alpha_that_is_no_order_is_named_as_such(self, alpha):
        with pytest.raises(ValueError, match=re.escape(f"0 < alpha < n = 1, got {alpha}")):
            _fractional_exponent(1.0, alpha)

    @pytest.mark.parametrize("T", ["Ialpha", "Malpha", "AS"])
    def test_weak_quotient_takes_q_from_alpha(self, mesh, T):
        w, f = PowerLogWeight(0.2), random_step(mesh, np.random.default_rng(23))
        got = weak_quotient(T, w, 2, f, alpha=0.25, weight_power=1.0)
        output = multiplier_apply(T, w, 2, f, alpha=0.25, weight_power=1.0)
        want = quotient_from_output(output.magnitude(), f.lp_norm(2), 2, 4.0, operator=T)
        assert got == want and got.q == 4.0
        assert np.float64(got.quotient).tobytes() == np.float64(want.quotient).tobytes()


class TestDualEstimate:
    def test_sparse_tag_builds_its_own_family(self, mesh):
        f = random_step(mesh, np.random.default_rng(18))
        f = f * (1.0 / f.lp_norm(2.0))
        e_cells = np.arange(40, 90)
        est = dual_weak_estimate("AS", ONE, 2.0, f, e_cells)
        assert est == dual_weak_estimate("AS", ONE, 2.0, f, e_cells, family=build_sparse_family(f))

    @pytest.mark.parametrize("cells", [[0, 1, 1, 1], [0, 1, -3], [0, 1, 40]], ids=["repeated", "negative", "past-the-end"])
    def test_cells_that_are_not_distinct_mesh_cells_rejected(self, cells):
        # they read 0.2165 for [0, 1, 1, 1] (|E| counted 1 twice, [0, 1] gives 0.3062), the
        # estimate of [0, 1, 29] for [0, 1, -3], and an IndexError for [0, 1, 40]
        mesh = Mesh(1.0, 4)  # 32 cells
        f = MeshFunction.indicator(mesh, -1.0, -0.5)
        f = f * (1.0 / f.lp_norm(2.0))
        with pytest.raises(ValueError, match=f"cell {cells[-1]} is"):
            dual_weak_estimate("M", ONE, 2.0, f, np.array(cells))

    def test_hand_value_single_cube(self, mesh):
        q = DyadicGrid().cube(0, 0)  # [0, 1)
        fam = SparseFamily(mesh, DyadicGrid(), [q], [cells_inside(mesh, q)])
        f = MeshFunction.indicator(mesh, 0, 1)
        f = f * (1.0 / f.lp_norm(2.0))
        e_cells = cells_inside(mesh, q)
        est = dual_weak_estimate("AS", ONE, 2.0, f, e_cells, K=4.0, family=fam)
        # output = <f>_Q chi_Q = chi_Q (since <f>_Q = 1 after normalization);
        # far from the support M(f^2) is small, so E' = E and the functional is
        # |E|^(1/p-1) * <output, chi_E> = 1^(-1/2) * 1 = 1
        assert est.eprime_measure <= est.e_measure
        assert est.value == pytest.approx(
            est.e_measure ** (-0.5) * est.eprime_measure * 1.0, rel=1e-12
        )

    def test_upper_bound_against_weak_norm(self, mesh):
        # dual estimate <= 2 * weak norm (p = 2), seeded configurations
        rng = np.random.default_rng(17)
        p = 2.0
        for _ in range(50):
            f = random_step(mesh, rng)
            f = f * (1.0 / f.lp_norm(p))
            fam = build_sparse_family(f.magnitude())
            out = multiplier_apply("AS", ONE, p, f, family=fam)
            wnorm = weak_lp_norm(out, p)
            n_e = int(rng.integers(2, mesh.n_cells // 2))
            start = int(rng.integers(0, mesh.n_cells - n_e))
            est = dual_weak_estimate("AS", ONE, p, f, np.arange(start, start + n_e), K=4.0, family=fam)
            assert est.value <= 2.0 * wnorm + 1e-12

    def test_weak_norm_below_exhaustive_dual_sup(self):
        # weak norm <= 2^(1/p) sup over all E of the dual functional
        mesh = Mesh(1.0, 2)  # 8 cells: exhaustive over nonempty subsets
        p = 2.0
        rng = np.random.default_rng(18)
        for _ in range(8):
            vals = rng.uniform(0, 1, mesh.n_cells) * (rng.uniform(0, 1, mesh.n_cells) > 0.3)
            if not vals.any():
                vals[0] = 1.0
            f = MeshFunction(mesh, vals)
            f = f * (1.0 / f.lp_norm(p))
            fam = build_sparse_family(f.magnitude())
            out = multiplier_apply("AS", ONE, p, f, family=fam)
            wnorm = weak_lp_norm(out, p)
            best = 0.0
            for r in range(1, mesh.n_cells + 1):
                for E in itertools.combinations(range(mesh.n_cells), r):
                    est = dual_weak_estimate("AS", ONE, p, f, np.array(E), K=4.0, family=fam)
                    best = max(best, est.value)
            assert wnorm <= 2 ** (1 / p) * best + 1e-12

    def test_eprime_stays_large(self, mesh):
        # K > 2 forces |E'| > |E|/2 even when E sits inside Omega candidates
        rng = np.random.default_rng(19)
        f = random_step(mesh, rng)
        f = f * (1.0 / f.lp_norm(2.0))
        fam = build_sparse_family(f.magnitude())
        support = np.nonzero(f.values)[0]
        est = dual_weak_estimate("AS", ONE, 2.0, f, support, K=4.0, family=fam)
        assert est.eprime_measure > est.e_measure / 2


class TestProofConstants:
    def test_worked_example(self):
        pc = proof_constants(nu=2.0, p=2.0)
        assert pc.r_prime == pytest.approx(5.0, abs=1e-15)
        assert pc.r == pytest.approx(1.25, abs=1e-15)
        assert pc.p_nu_prime == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert pc.p_r_prime == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert pc.p_r_prime / pc.p_nu_prime == pytest.approx(pc.r, rel=1e-12)

    def test_fractional_branch(self):
        # the fractional argument takes the bookkeeping at q: r' = q nu' + 1
        q, nu = 4.0, 1.5
        pc = proof_constants(nu, q)
        assert pc.r_prime == pytest.approx(q * (nu / (nu - 1)) + 1.0, rel=1e-15)
        pc.validate()

    def test_r_between_one_and_nu(self):
        for nu in (1.01, 1.3, 2.0, 5.0):
            for p in (1.0, 1.5, 2.0, 3.0):
                pc = proof_constants(nu, p)
                assert 1.0 < pc.r < nu * (1 + 1e-12)

    def test_blowup_trend_as_nu_decreases(self):
        # nu -> 1+: r -> 1+ and (r')^r grows like nu'
        mesh = Mesh(4.0, 8)
        rows = []
        for a in (0.3, 0.6, 0.9):
            w = PowerLogWeight(-a)
            from weaklab import sharp_rh_exponent

            nu = sharp_rh_exponent(w)
            pc = proof_constants(nu, 2.0)
            nu_prime = nu / (nu - 1.0)
            rows.append((nu, pc.r, pc.r_prime_power, nu_prime))
        nus, rs, powers, nuprimes = zip(*rows)
        assert rs[0] > rs[1] > rs[2] > 1.0
        assert powers[0] < powers[1] < powers[2]
        ratios = [pw / npr for pw, npr in zip(powers, nuprimes)]
        assert max(ratios) / min(ratios) < 8.0  # (r')^r tracks nu' within a fixed factor

    def test_invalid_nu_rejected(self):
        with pytest.raises(ValueError):
            proof_constants(1.0, 2.0)


class TestBoundCheck:
    def test_unit_weight_family_constant_below_four(self, mesh):
        rng = np.random.default_rng(20)
        outputs, norms = [], []
        p = 2.0
        for _ in range(20):
            f = random_step(mesh, rng)
            fam = build_sparse_family(f.magnitude())
            outputs.append(multiplier_apply("AS", ONE, p, f, family=fam))
            norms.append(f.lp_norm(p))
        report = bound_check("sparse-weak", product=1.0, outputs=outputs, f_norms=norms, p=p)
        assert report.max_constant <= 4.0
        assert len(report.constants) == 20

    def test_one_norm_per_output(self, mesh):
        # zip would drop the outputs past the last norm and report fewer constants
        f = random_step(mesh, np.random.default_rng(22))
        with pytest.raises(ValueError, match="got 3 outputs and 1 norms"):
            bound_check("T", 1.0, [f, f, f], [1.0], 2.0)
        with pytest.raises(ValueError, match="got 1 outputs and 2 norms"):
            bound_check("T", 1.0, [f], [1.0, 1.0], 2.0)

    def test_power_weight_family_bounded(self, wide_mesh):
        rng = np.random.default_rng(21)
        p = 2.0
        search = SearchSpace.default()
        for a in (-0.5, 0.0, 0.5):
            w = PowerLogWeight(a)
            char1 = ap_characteristic(w, p, search).value
            char2 = ainfty_characteristic(w, mesh=wide_mesh).value
            outputs, norms = [], []
            for _ in range(8):
                f = random_step(wide_mesh, rng)
                wv = np.asarray(w(wide_mesh.centers()))
                g = MeshFunction(wide_mesh, np.abs(f.values) * wv ** (-1 / p))
                fam = build_sparse_family(g)
                outputs.append(multiplier_apply("AS", w, p, f, family=fam))
                norms.append(f.lp_norm(p))
            report = bound_check(
                "sparse-weak", product=char1 * char2**p, outputs=outputs, f_norms=norms, p=p
            )
            assert report.max_constant <= 8.0  # absolute desk-scale ceiling
