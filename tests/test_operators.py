import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import random_signed_step, random_step
from weaklab import (
    Mesh,
    MeshFunction,
    PowerLogWeight,
    distribution,
    dyadic_maximal,
    fractional_integral,
    fractional_maximal,
    hilbert_transform,
    hl_maximal,
    multiplier_apply,
    weak_lp_norm,
)
from weaklab.lowerbound import w_delta
from weaklab.operators import hilbert_weighted


class TestDistribution:
    def test_two_step_example(self, wide_mesh):
        g = MeshFunction.indicator(wide_mesh, 0, 1) * 2 + MeshFunction.indicator(wide_mesh, 1, 3)
        d = distribution(g)
        assert d.measure_above(1.5) == pytest.approx(1.0, abs=1e-14)
        assert d.measure_above(0.5) == pytest.approx(3.0, abs=1e-14)
        assert d.measure_above(2.0) == 0.0

    def test_zero_function(self, mesh):
        d = distribution(MeshFunction.zeros(mesh))
        assert d.measure_above(0.0) == 0.0
        assert d.support_measure == 0.0

    def test_against_per_cell_count_oracle(self, mesh):
        rng = np.random.default_rng(17)
        for _ in range(10):
            f = random_signed_step(mesh, rng)
            d = distribution(f)
            for lam in rng.uniform(0, 1.2, 5):
                brute = np.sum(np.abs(f.values) > lam) * mesh.h
                assert d.measure_above(lam) == pytest.approx(brute, abs=1e-14)

    def test_measures_nonincreasing(self, mesh):
        rng = np.random.default_rng(3)
        f = random_step(mesh, rng)
        d = distribution(f)
        assert np.all(np.diff(d.measures) <= 1e-15)
        assert d.measure_above(0.0) <= d.support_measure + 1e-15


class TestWeakNorm:
    def test_indicator(self, wide_mesh):
        g = MeshFunction.indicator(wide_mesh, -1, 1)
        for p in (1.0, 2.0, 3.0):
            assert weak_lp_norm(g, p) == pytest.approx(2.0 ** (1 / p), rel=1e-12)

    def test_two_level_example(self, wide_mesh):
        g = MeshFunction.indicator(wide_mesh, 0, 1) * 2 + MeshFunction.indicator(wide_mesh, 1, 3)
        assert weak_lp_norm(g, 1.0) == pytest.approx(3.0, rel=1e-14)

    @given(c=st.floats(0.1, 50, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_scaling(self, c):
        mesh = Mesh(1.0, 5)
        rng = np.random.default_rng(9)
        g = random_step(mesh, rng)
        assert weak_lp_norm(g * c, 2.0) == pytest.approx(c * weak_lp_norm(g, 2.0), rel=1e-12)

    def test_weak_below_strong(self, mesh):
        rng = np.random.default_rng(29)
        for _ in range(20):
            g = random_signed_step(mesh, rng)
            for p in (1.0, 1.5, 2.0):
                assert weak_lp_norm(g, p) <= g.lp_norm(p) * (1 + 1e-12)


class TestDyadicMaximal:
    def test_constant(self, mesh):
        f = MeshFunction.constant(mesh, 3.0)
        m = dyadic_maximal(f)
        assert np.allclose(m.values, 3.0, rtol=1e-13)

    def test_ancestor_example(self, wide_mesh):
        f = MeshFunction.indicator(wide_mesh, 0, 1)
        m = dyadic_maximal(f)
        c = wide_mesh.centers()
        assert np.allclose(m.values[(c > 1) & (c < 2)], 0.5, rtol=1e-13)
        assert np.allclose(m.values[(c > 0) & (c < 1)], 1.0, rtol=1e-13)

    def test_dominates_function(self, mesh):
        rng = np.random.default_rng(7)
        for _ in range(5):
            f = random_signed_step(mesh, rng)
            m = dyadic_maximal(f)
            assert np.all(m.values >= np.abs(f.values) - 1e-12)

    def test_sublinear_and_homogeneous(self, mesh):
        rng = np.random.default_rng(13)
        f = random_signed_step(mesh, rng)
        g = random_signed_step(mesh, rng)
        mf, mg, mfg = dyadic_maximal(f), dyadic_maximal(g), dyadic_maximal(f + g)
        assert np.all(mfg.values <= mf.values + mg.values + 1e-12)
        assert np.allclose(dyadic_maximal(f * -2.5).values, 2.5 * mf.values, rtol=1e-12)

    def test_block_maxima_with_a_tiny_mass_beside_a_large_one(self, mesh):
        # a 1.66e-6 root mass behind a left half of mass 0.24: numpy block
        # maxima within 1e-12 (prefix-sum differences were 3.7e-12 off)
        v = np.zeros(mesh.n_cells)
        v[30:105] = 0.4121718062597689
        v[255] = 0.0002123938356576316
        out = np.zeros(mesh.n_cells)
        for size in (2 ** j for j in range(mesh.level + 1)):
            out = np.maximum(out, np.repeat(v.reshape(-1, size).mean(axis=1), size))
        md = dyadic_maximal(MeshFunction(mesh, v), max_level=mesh.aligned_cell_level())
        np.testing.assert_allclose(md.values, out, rtol=1e-12, atol=0)

    def test_hl_dominates_single_grid(self, mesh):
        rng = np.random.default_rng(21)
        f = random_step(mesh, rng)
        md = dyadic_maximal(f)
        mhl = hl_maximal(f)
        assert np.all(mhl.values >= md.values - 1e-14)


class TestFractionalMaximal:
    def test_indicator_value_one(self, wide_mesh):
        f = MeshFunction.indicator(wide_mesh, 0, 1)
        m = fractional_maximal(f, 0.5)
        c = wide_mesh.centers()
        # sup over ancestors of |Q|^(1/2) <f>_Q is attained at Q = [0,1)
        assert np.allclose(m.values[(c > 0) & (c < 1)], 1.0, rtol=1e-13)

    def test_envelope_between_scaled_maximal(self, mesh):
        rng = np.random.default_rng(31)
        f = random_step(mesh, rng)
        alpha = 0.5
        k_lo = -math.ceil(math.log2(2 * mesh.radius))
        k_hi = math.floor(math.log2(1.0 / mesh.h))
        m0 = dyadic_maximal(f)
        ma = fractional_maximal(f, alpha)
        w_min, w_max = 2.0**-k_hi, 2.0**-k_lo
        assert np.all(ma.values <= w_max**alpha * m0.values + 1e-12)
        pos = m0.values > 0
        assert np.all(ma.values[pos] >= w_min**alpha * f.magnitude().values[pos] - 1e-12)

    def test_alpha_range_validated(self, mesh):
        f = MeshFunction.constant(mesh, 1.0)
        for bad in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError):
                fractional_maximal(f, bad)

    def test_norm_inequality_lemma(self, wide_mesh):
        # ||M_alpha^D f||_q <= (1 + p'/q)^(1-alpha) ||f||_p
        rng = np.random.default_rng(101)
        for alpha, p in ((0.25, 2.0), (0.5, 1.5)):
            q = 1.0 / (1.0 / p - alpha)
            const = (1 + (p / (p - 1)) / q) ** (1 - alpha)
            for _ in range(25):
                f = random_signed_step(wide_mesh, rng)
                lhs = fractional_maximal(f, alpha).lp_norm(q)
                assert lhs <= const * f.lp_norm(p) * (1 + 1e-10)


def dense_fractional_integral(f, alpha, xs):
    """Oracle: the point-by-cell kernel matrix that fractional_integral built
    for cell centres before the Toeplitz convolution, applied by one product."""
    edges = f.mesh.edges()
    u = xs[:, None] - edges[None, :-1]
    v = xs[:, None] - edges[None, 1:]
    au = np.abs(u) ** alpha
    av = np.abs(v) ** alpha
    k = np.where(v >= 0, au - av, np.where(u <= 0, av - au, au + av)) / alpha
    return k @ f.values


class TestFractionalIntegral:
    @pytest.mark.parametrize("radius,level", [(4.0, 8), (1.0, 0), (3.0, 7)])
    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.9])
    @pytest.mark.parametrize("shape", [(), (3,)], ids=["scalar", "vector"])
    def test_toeplitz_centres_match_dense_kernel(self, radius, level, alpha, shape):
        m = Mesh(radius, level)
        rng = np.random.default_rng(level)
        f = MeshFunction(m, rng.standard_normal((m.n_cells,) + shape))
        out = fractional_integral(f, alpha)
        ref = dense_fractional_integral(f, alpha, m.centers())
        assert out.values.shape == f.values.shape
        assert np.max(np.abs(out.values - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_explicit_points_keep_the_dense_kernel(self, alpha):
        m = Mesh(3.0, 7)
        rng = np.random.default_rng(7)
        f = MeshFunction(m, rng.standard_normal(m.n_cells))
        xs = np.concatenate([m.centers()[::5], m.edges()[::7], rng.uniform(-4, 4, 20)])
        assert np.array_equal(fractional_integral(f, alpha, points=xs), dense_fractional_integral(f, alpha, xs))

    @pytest.mark.parametrize("radius,level", [(1.0, 3), (3.0, 7)])
    def test_explicit_points_of_a_vector_are_the_scalar_calls_per_component(self, radius, level):
        m = Mesh(radius, level)
        rng = np.random.default_rng(level)
        f = MeshFunction(m, rng.standard_normal((m.n_cells, 3)))
        xs = np.concatenate([m.centers()[::5], rng.uniform(-1.5 * radius, 1.5 * radius, 20)])
        out = fractional_integral(f, 0.5, points=xs)
        assert out.shape == (len(xs), 3)
        for c in range(3):
            assert out[:, c].tobytes() == fractional_integral(MeshFunction(m, f.values[:, c]), 0.5, points=xs).tobytes()

    def test_closed_form_point(self, wide_mesh):
        f = MeshFunction.indicator(wide_mesh, 0, 1)
        val = fractional_integral(f, 0.5, points=np.array([2.0]))[0]
        assert val == pytest.approx(2 * (math.sqrt(2) - 1), rel=1e-12)

    def test_positivity_and_symmetry(self, mesh):
        f = MeshFunction.indicator(mesh, -0.5, 0.5)
        out = fractional_integral(f, 0.5)
        assert np.all(out.values > 0)
        assert np.allclose(out.values, out.values[::-1], rtol=1e-11)

    def test_matches_quadrature(self, mesh):
        rng = np.random.default_rng(41)
        f = random_step(mesh, rng)
        alpha = 0.3
        x0 = 0.3 + mesh.h / 2  # a cell center
        val = fractional_integral(f, alpha, points=np.array([x0]))[0]
        ref, _ = integrate.quad(
            lambda y: np.interp(y, mesh.centers(), f.values) * abs(x0 - y) ** (alpha - 1),
            -1, 1, points=[x0], limit=400,
        )
        assert val == pytest.approx(ref, rel=5e-2)  # interp smears cell edges

    def test_alpha_validated(self, mesh):
        with pytest.raises(ValueError):
            fractional_integral(MeshFunction.constant(mesh, 1.0), 1.2)


class TestHilbert:
    def test_unit_interval_at_zero(self, wide_mesh):
        H = hilbert_transform(MeshFunction.indicator(wide_mesh, 1, 2))
        assert H(0.0) == pytest.approx(-math.log(2), rel=1e-14)
        assert abs(H(0.0)) > 0.5

    def test_magnitude_exceeds_half_left_of_support(self, wide_mesh):
        H = hilbert_transform(MeshFunction.indicator(wide_mesh, 1, 2))
        for x in (0.0, 0.25, 0.49):
            expected = math.log((2 - x) / (1 - x))
            assert abs(H(x)) == pytest.approx(expected, rel=1e-13)
            assert abs(H(x)) > 0.5

    def test_kernel_antisymmetry(self, wide_mesh):
        bump = MeshFunction.indicator(wide_mesh, -1, 1)
        H = hilbert_transform(bump)
        for x in (1.5, 2.0, 3.7):
            assert H(x) == pytest.approx(-H(-x), rel=1e-13)

    def test_jump_point_rejected(self, wide_mesh):
        H = hilbert_transform(MeshFunction.indicator(wide_mesh, 1, 2))
        with pytest.raises(ValueError):
            H(2.0)

    def test_principal_value_inside_support(self, wide_mesh):
        H = hilbert_transform(MeshFunction.indicator(wide_mesh, 1, 2))
        assert H(1.5) == pytest.approx(0.0, abs=1e-14)

    def test_closed_form_vs_cauchy_quadrature(self, mesh):
        # p.v. ∫ f(y)/(x-y) dy = -quad(f, weight='cauchy', wvar=x)
        rng = np.random.default_rng(51)
        f = random_step(mesh, rng)
        H = hilbert_transform(f)
        edges = mesh.edges()
        for x in (1.25 + mesh.h / 2, -0.9 + mesh.h / 2, 0.33 + mesh.h / 2):
            ref = 0.0
            for j in np.nonzero(f.values)[0]:
                a, b = edges[j], edges[j + 1]
                if a < x < b:
                    continue
                pv, _ = integrate.quad(lambda y: 1.0, a, b, weight="cauchy", wvar=x)
                ref -= f.values[j] * pv
            inside = None
            for j in np.nonzero(f.values)[0]:
                if edges[j] < x < edges[j + 1]:
                    inside = j
            if inside is not None:
                a, b = edges[inside], edges[inside + 1]
                ref += f.values[inside] * (math.log(abs(x - a)) - math.log(abs(x - b)))
            assert H(x) == pytest.approx(ref, rel=1e-8)

    def test_weighted_quadrature_path_matches_closed_form(self, mesh):
        # constant weight: the weighted path must reproduce the step closed form,
        # including the principal value inside the support
        f = MeshFunction.indicator(mesh, 0.25, 0.75)
        H = hilbert_transform(f)
        Hw = hilbert_weighted(f, PowerLogWeight(0.0), power=1.0)
        for x in (-0.6 + mesh.h / 2, 0.5 + mesh.h / 2):
            assert Hw(x) == pytest.approx(H(x), rel=1e-8, abs=1e-10)

    def test_weighted_path_with_genuine_weight(self, mesh):
        # f * w^(-1) with w = |x|^(-0.5): integrand |y|^(1/2) chi_[0.25, 0.75)
        f = MeshFunction.indicator(mesh, 0.25, 0.75)
        Hw = hilbert_weighted(f, PowerLogWeight(-0.5), power=-1.0)
        x = -0.5 + mesh.h / 2
        ref, _ = integrate.quad(lambda y: y**0.5 / (x - y), 0.25, 0.75, limit=200)
        assert Hw(x) == pytest.approx(ref, rel=1e-9)


class TestMultiplier:
    def test_unit_weight_reduces_to_plain_operator(self, mesh):
        rng = np.random.default_rng(61)
        f = random_step(mesh, rng)
        one = PowerLogWeight(0.0)
        out = multiplier_apply("Md", one, 2.0, f)
        assert np.allclose(out.values, dyadic_maximal(f).values, rtol=1e-13)

    def test_single_cube_lower_bound(self, mesh):
        # on Q the maximal output dominates w^(1/p)(x) <w^(-1/p) f>_Q
        rng = np.random.default_rng(71)
        f = random_step(mesh, rng, span=(0.0, 1.0))
        w = PowerLogWeight(-0.4)
        p = 2.0
        out = multiplier_apply("M", w, p, f)
        wv = np.asarray(w(mesh.centers()))
        g = np.where(f.values != 0, f.values * wv ** (-1 / p), 0.0)
        gf = MeshFunction(mesh, g)
        avg = gf.integral(0, 1) / 1.0
        c = mesh.centers()
        sel = (c > 0) & (c < 1)
        assert np.all(out.values[sel] >= wv[sel] ** (1 / p) * avg - 1e-10)

    def test_endpoint_weight_output_matches_closed_form(self, wide_mesh):
        wd = w_delta(0.1)
        f = MeshFunction.indicator(wide_mesh, 1, 2)
        out = multiplier_apply("H", wd, 1.0, f)
        c = wide_mesh.centers()
        sel = (c > 0) & (c < 0.5)
        expected = np.asarray(wd(c[sel])) * np.log((2 - c[sel]) / (1 - c[sel]))
        assert np.allclose(np.abs(out.values[sel]), expected, rtol=1e-12)

    def test_vanishing_weight_on_support_rejected(self, mesh):
        f = MeshFunction.indicator(mesh, -0.25, 0.25)
        vals = np.ones(mesh.n_cells)
        vals[mesh.cell_of(0.1)] = 0.0
        from weaklab import SampledWeight

        with pytest.raises(ValueError):
            # sampled weights must be positive, so emulate through a zeroing mask
            SampledWeight(mesh, vals * 0.0 + np.where(vals > 0, vals, 0))
        # PowerLog weight vanishing at the origin limit is fine off-support
        out = multiplier_apply("Md", PowerLogWeight(0.5), 2.0, f)
        assert np.all(np.isfinite(out.values))
