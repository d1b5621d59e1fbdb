import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import random_signed_step, random_step
from hilbert_oracle import _HILBERT_ENTRIES, HilbertTransform, hilbert_weighted
from weaklab import (
    Mesh,
    MeshFunction,
    PowerLogWeight,
    SampledWeight,
    ainfty_scalar_characteristic,
    build_sparse_family,
    distribution,
    dominating_scalar_sparse,
    dyadic_maximal,
    fractional_integral,
    fractional_maximal,
    hilbert_to_mesh,
    hl_maximal,
    multiplier_apply,
    random_matrix_weight,
    sparse_apply,
    weak_lp_norm,
    weak_quotient,
)
from weaklab.lowerbound import w_delta


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
    """Oracle: I_alpha f at any points ``xs``, by the point-by-cell kernel
    matrix that fractional_integral built (at cell centres before the Toeplitz
    convolution, and at explicit points until it served centres only),
    applied by one product."""
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

    @pytest.mark.parametrize("radius,level", [(1.0, 3), (3.0, 7)])
    def test_explicit_points_of_a_vector_are_the_scalar_calls_per_component(self, radius, level):
        m = Mesh(radius, level)
        rng = np.random.default_rng(level)
        f = MeshFunction(m, rng.standard_normal((m.n_cells, 3)))
        xs = np.concatenate([m.centers()[::5], rng.uniform(-1.5 * radius, 1.5 * radius, 20)])
        out = dense_fractional_integral(f, 0.5, xs)
        centres = fractional_integral(f, 0.5).values
        assert out.shape == (len(xs), 3)
        for c in range(3):
            fc = MeshFunction(m, f.values[:, c])
            ref = dense_fractional_integral(fc, 0.5, xs)
            assert np.max(np.abs(out[:, c] - ref)) <= 1e-14 * np.max(np.abs(ref))
            assert centres[:, c].tobytes() == fractional_integral(fc, 0.5).values.tobytes()

    def test_closed_form_point(self, wide_mesh):
        f = MeshFunction.indicator(wide_mesh, 0, 1)
        val = dense_fractional_integral(f, 0.5, np.array([2.0]))[0]
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
        val = dense_fractional_integral(f, alpha, np.array([x0]))[0]
        ref, _ = integrate.quad(
            lambda y: np.interp(y, mesh.centers(), f.values) * abs(x0 - y) ** (alpha - 1),
            -1, 1, points=[x0], limit=400,
        )
        assert val == pytest.approx(ref, rel=5e-2)  # interp smears cell edges

    def test_alpha_validated(self, mesh):
        with pytest.raises(ValueError):
            fractional_integral(MeshFunction.constant(mesh, 1.0), 1.2)


class TestHilbert:
    """The dense jump-sum oracle of ``hilbert_to_mesh``, at arbitrary points."""

    def test_more_than_two_to_the_27_entries_refused_before_allocating(self):
        # 8,192 jumps at 2^14 points is the limit; one point more is refused (the
        # array would take 1 GiB, its temporaries formerly three times that)
        mesh = Mesh(1.0, 12)
        v = np.arange(1.0, mesh.n_cells + 1)
        v[-1] = v[-2]
        H = HilbertTransform(MeshFunction(mesh, v))
        assert len(H.edges) == 8192 and _HILBERT_ENTRIES == 2**14 * 8192 >= 8192 * 8193
        with pytest.raises(ValueError, match=r"16385 x 8192 array, above its limit of 2\^27 entries"):
            H(np.linspace(-0.99, 0.99, 2**14 + 1) + 1e-7)

    def test_array_of_points_keeps_its_shape(self, wide_mesh):
        # a 2-D array of points was read by rows: one value per row, from its first point
        H = HilbertTransform(MeshFunction.indicator(wide_mesh, 1, 2))
        x = np.array([[0.1, 0.2, 0.3], [1.6, 2.5, -3.0]])
        out = H(x)
        assert out.shape == x.shape and out.tobytes() == H(x.ravel()).tobytes()

    def test_unit_interval_at_zero(self, wide_mesh):
        H = HilbertTransform(MeshFunction.indicator(wide_mesh, 1, 2))
        assert H(0.0) == pytest.approx(-math.log(2), rel=1e-14)
        assert abs(H(0.0)) > 0.5

    def test_magnitude_exceeds_half_left_of_support(self, wide_mesh):
        H = HilbertTransform(MeshFunction.indicator(wide_mesh, 1, 2))
        for x in (0.0, 0.25, 0.49):
            expected = math.log((2 - x) / (1 - x))
            assert abs(H(x)) == pytest.approx(expected, rel=1e-13)
            assert abs(H(x)) > 0.5

    def test_kernel_antisymmetry(self, wide_mesh):
        bump = MeshFunction.indicator(wide_mesh, -1, 1)
        H = HilbertTransform(bump)
        for x in (1.5, 2.0, 3.7):
            assert H(x) == pytest.approx(-H(-x), rel=1e-13)

    def test_jump_point_rejected(self, wide_mesh):
        H = HilbertTransform(MeshFunction.indicator(wide_mesh, 1, 2))
        with pytest.raises(ValueError):
            H(2.0)

    def test_principal_value_inside_support(self, wide_mesh):
        H = HilbertTransform(MeshFunction.indicator(wide_mesh, 1, 2))
        assert H(1.5) == pytest.approx(0.0, abs=1e-14)

    def test_closed_form_vs_cauchy_quadrature(self, mesh):
        # p.v. ∫ f(y)/(x-y) dy = -quad(f, weight='cauchy', wvar=x)
        rng = np.random.default_rng(51)
        f = random_step(mesh, rng)
        H = HilbertTransform(f)
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
        H = HilbertTransform(f)
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

    def test_multiplier_converges_to_weighted_quadrature(self):
        # multiplier_apply("H") folds w^(-1/p) into f at cell centres; the
        # quadrature integrates against w itself.  Off the support the
        # midpoint error is O(h^2), at a principal value inside it O(h).
        w = PowerLogWeight(-0.5)
        Hw = hilbert_weighted(MeshFunction.indicator(Mesh(1.0, 2), 0.25, 0.75), w, power=-0.5)
        outside, inside = (-0.6, -0.1, 0.1, 0.9), (0.4, 0.6)
        errs = []
        for level in (4, 6, 8):
            mesh = Mesh(1.0, level)
            out = multiplier_apply("H", w, 2.0, MeshFunction.indicator(mesh, 0.25, 0.75)).values
            cells = [mesh.cell_of(x) for x in outside + inside]
            x = mesh.centers()[cells]
            errs.append(np.abs(out[cells] / (w(x) ** 0.5 * np.array([Hw(c) for c in x])) - 1))
        errs = np.array(errs)
        n = len(outside)
        assert np.all(errs[1:, :n] < errs[:-1, :n] / 12) and np.all(errs[-1, :n] < 1e-5)
        assert np.all(errs[1:, n:] < errs[:-1, n:] / 3) and np.all(errs[-1, n:] < 3e-3)


HILBERT_RADII = [1.0, 0.75, 3.0, 5.25]
HILBERT_INPUTS = ["wide", "spike", "two-scale", "narrow", "full", "zero"]


def hilbert_input(mesh, kind, seed):
    """Cell values of one differential-test input for ``hilbert_to_mesh``."""
    rng = np.random.default_rng(seed)
    n = mesh.n_cells
    v = np.zeros(n)
    if kind == "wide":  # magnitudes over 22 decades, random signs
        v = np.exp(rng.uniform(-25.0, 25.0, n)) * rng.choice([-1.0, 1.0], n)
    elif kind == "spike":  # one cell at 1e8, the rest at 1e-6
        v = np.full(n, 1e-6)
        v[rng.integers(n)] = 1e8
    elif kind == "two-scale":
        v = np.where(rng.uniform(size=n) < 0.5, 1e6, 1e-6) * rng.standard_normal(n)
    elif kind == "narrow":
        a = rng.integers(n)
        v[a : a + 4] = rng.standard_normal(len(v[a : a + 4]))
    elif kind == "full":
        v = rng.standard_normal(n)
    return MeshFunction(mesh, v)


def hilbert_scale(f):
    """Per centre i: sum_j |f_j| |K(i - j)| with K(d) = log|d + 1/2| - log|d - 1/2|."""
    n = f.mesh.n_cells
    d = np.arange(1 - n, n)
    k = np.abs(np.log(np.abs(d + 0.5)) - np.log(np.abs(d - 0.5)))
    return np.convolve(np.abs(f.values), k)[n - 1 : 2 * n - 1]


def dense_rounding_bound(H, x):
    """Rounding bound of the dense oracle's sum_j c_j log|x - e_j| at x
    (Higham's gamma_(J+2) times the sum of absolute terms), 256 points at a
    time.  On a spike input its cancellation costs far more than 1e-12 of
    the scale: the 40-digit check below is the strict one there."""
    terms = [np.abs(np.log(np.abs(x[a : a + 256, None] - H.edges))) @ np.abs(H.coeffs) for a in range(0, len(x), 256)]
    return (len(H.edges) + 2) * 2.0**-53 * np.concatenate(terms)


def mp_hilbert_centre(f, i):
    """sum_j f_j K(i - j) at centre i in 40-digit arithmetic."""
    import mpmath

    with mpmath.workdps(40):
        half = mpmath.mpf(1) / 2
        offsets = [(int(i) - int(j), float(f.values[j])) for j in np.flatnonzero(f.values)]
        return float(mpmath.fsum(v * (mpmath.log(abs(d + half)) - mpmath.log(abs(d - half))) for d, v in offsets))


class TestHilbertToMesh:
    @settings(max_examples=60)
    @example(radius=5.25, level=11, kind="full", seed=0)
    @example(radius=0.75, level=11, kind="spike", seed=1)
    @given(
        radius=st.sampled_from(HILBERT_RADII),
        level=st.integers(0, 11),
        kind=st.sampled_from(HILBERT_INPUTS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_dense_jump_sum(self, radius, level, kind, seed):
        f = hilbert_input(Mesh(radius, level), kind, seed)
        out = hilbert_to_mesh(f).values
        x = f.mesh.centers()
        H = HilbertTransform(f)
        ref = np.concatenate([H(x[a : a + 256]) for a in range(0, len(x), 256)])
        assert out.shape == f.values.shape
        assert np.all(np.abs(out - ref) <= 1e-12 * hilbert_scale(f) + dense_rounding_bound(H, x))
        if kind == "zero":
            assert not np.any(out)

    @pytest.mark.parametrize("radius", HILBERT_RADII)
    @pytest.mark.parametrize("kind", HILBERT_INPUTS[:-1])
    def test_cells_match_a_40_digit_sum(self, radius, kind):
        f = hilbert_input(Mesh(radius, 9), kind, 3)
        out = hilbert_to_mesh(f).values
        scale = hilbert_scale(f)
        top = int(np.argmax(np.abs(f.values)))
        n = f.mesh.n_cells
        for i in {0, n - 1, n // 3, max(top - 1, 0), top, min(top + 1, n - 1)}:
            assert abs(out[i] - mp_hilbert_centre(f, i)) <= 1e-12 * scale[i]

    def test_far_offsets_keep_their_relative_accuracy(self):
        # one cell: Hf(x_i) = K(i), which at i ~ 1e5 is ~1e-5; the log
        # difference log|i + 1/2| - log|i - 1/2| would lose 1e-10 of it
        f = MeshFunction(Mesh(1.0, 16), np.eye(1, 2**17)[0])
        out = hilbert_to_mesh(f).values
        for i in (1, 2, 1000, 2**16, 2**17 - 1):
            assert abs(out[i] - mp_hilbert_centre(f, i)) <= 1e-12 * abs(out[i])

    def test_vector_function_is_a_type_error(self, mesh):
        with pytest.raises(TypeError, match="vector function"):
            hilbert_to_mesh(MeshFunction(mesh, np.ones((mesh.n_cells, 2))))


def _kernel_peak_bytes_per_cell(operator, level):
    """tracemalloc peak of live bytes per cell over one call on a function
    supported on a sixteenth of the mesh, with its own value in every cell."""
    mesh = Mesh(1.0, level)
    n = mesh.n_cells
    values = np.zeros(n)
    values[n // 2 : n // 2 + n // 16] = np.random.default_rng(level).uniform(0.5, 1.0, n // 16)
    f = MeshFunction(mesh, values)
    tracemalloc.start()
    try:
        operator(f)
        return tracemalloc.get_traced_memory()[1] / n
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "operator", [hilbert_to_mesh, lambda f: fractional_integral(f, 0.5)], ids=["H", "I_alpha"]
)
def test_kernel_operators_peak_bytes_per_cell_stay_within_twice_from_level_10_to_14(operator):
    """Memory is O(n): a dense (cells x jumps) array would read 16 times
    higher per cell at L = 14 (32,768 cells, 4,097 jumps) than at L = 10."""
    assert _kernel_peak_bytes_per_cell(operator, 14) <= 2.0 * _kernel_peak_bytes_per_cell(operator, 10)


class TestMultiplier:
    def test_unit_weight_reduces_to_plain_operator(self, mesh):
        rng = np.random.default_rng(61)
        f = random_step(mesh, rng)
        one = PowerLogWeight(0.0)
        out = multiplier_apply("Md", one, 2.0, f)
        assert np.allclose(out.values, dyadic_maximal(f).values, rtol=1e-13)

    def test_fractional_m_is_the_three_grid_fractional_maximal(self, mesh):
        rng = np.random.default_rng(67)
        f = random_signed_step(mesh, rng)
        w = PowerLogWeight(0.2)
        wv = np.asarray(w(mesh.centers()))
        g = MeshFunction(mesh, f.values * wv**-1.0)  # g = f w^(-1), as multiplier_apply forms it
        out = multiplier_apply("M", w, 1.6, f, alpha=0.25, weight_power=1.0)
        assert out.values.tobytes() == (wv * hl_maximal(g, alpha=0.25).values).tobytes()
        one_grid = multiplier_apply("Malpha", w, 1.6, f, alpha=0.25, weight_power=1.0)
        assert np.all(out.values >= one_grid.values) and np.any(out.values > one_grid.values)
        # no alpha (or alpha 0): the plain three-grid maximal function
        plain = multiplier_apply("M", w, 2.0, f).values.tobytes()
        assert plain == (wv**0.5 * hl_maximal(MeshFunction(mesh, f.values * wv**-0.5)).values).tobytes()
        assert multiplier_apply("M", w, 2.0, f, alpha=0.0).values.tobytes() == plain
        for bad in (1.0, 1.5, -0.2, math.nan):
            with pytest.raises(ValueError, match="fractional order"):
                multiplier_apply("M", w, 2.0, f, alpha=bad)

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

    @pytest.mark.parametrize("T, alpha, power", [("AS", None, None), ("ASalpha", 0.25, 1.0)])
    @pytest.mark.parametrize("sampled", [False, True], ids=["powerlog", "sampled"])
    def test_sparse_family_defaults_to_one_built_on_its_own_g(self, mesh, T, alpha, power, sampled):
        rng = np.random.default_rng(83)
        w = SampledWeight(mesh, rng.uniform(0.5, 2.0, mesh.n_cells)) if sampled else PowerLogWeight(0.5)
        kwargs = {"alpha": alpha, "weight_power": power}
        for f in [random_step(mesh, rng) for _ in range(4)] + [random_signed_step(mesh, rng)]:
            # g = f w^(-1/p) with w at cell centres (or the sampled values)
            g = MeshFunction(mesh, f.values * np.asarray(w(mesh.centers())) ** -(power or 0.5))
            given = multiplier_apply(T, w, 2.0, f, family=build_sparse_family(g.magnitude()), **kwargs)
            assert multiplier_apply(T, w, 2.0, f, **kwargs).values.tobytes() == given.values.tobytes()

    def test_vanishing_weight_on_support_rejected(self, mesh):
        f = MeshFunction.indicator(mesh, -0.25, 0.25)
        vals = np.ones(mesh.n_cells)
        vals[mesh.cell_of(0.1)] = 0.0
        with pytest.raises(ValueError):
            # sampled weights must be positive, so emulate through a zeroing mask
            SampledWeight(mesh, vals * 0.0 + np.where(vals > 0, vals, 0))
        # PowerLog weight vanishing at the origin limit is fine off-support
        out = multiplier_apply("Md", PowerLogWeight(0.5), 2.0, f)
        assert np.all(np.isfinite(out.values))


_ORDER_MESH = Mesh(1.0, 4)
_ORDER_F = MeshFunction(_ORDER_MESH, np.linspace(0.5, 2.0, _ORDER_MESH.n_cells))
_ORDER_FAMILY = build_sparse_family(_ORDER_F)
_ORDER_W = random_matrix_weight(_ORDER_MESH, 2, np.random.default_rng(35))
_ORDER_ONE = PowerLogWeight(0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: multiplier_apply("ASalpha", _ORDER_ONE, 2.0, _ORDER_F), "ASalpha requires alpha"),
        (lambda: multiplier_apply("AS", _ORDER_ONE, 2.0, _ORDER_F, alpha=1.5), "got 1.5"),
        (lambda: multiplier_apply("ASalpha", _ORDER_ONE, 2.0, _ORDER_F, alpha=-0.3), "got -0.3"),
        (lambda: multiplier_apply("H", _ORDER_ONE, 2.0, _ORDER_F, alpha=0.3), "H has no fractional order, got alpha=0.3"),
        (lambda: hl_maximal(_ORDER_F, alpha=2.0), "got 2.0"),
        (lambda: hl_maximal(_ORDER_F, alpha=math.nan), "got nan"),
        (lambda: dyadic_maximal(_ORDER_F, alpha=2.0), "got 2.0"),
        (lambda: sparse_apply(_ORDER_FAMILY, _ORDER_F, alpha=2.0), "got 2.0"),
        (lambda: dominating_scalar_sparse(_ORDER_W, 2.0, _ORDER_FAMILY, _ORDER_F, alpha=2.0), "got 2.0"),
        (lambda: dominating_scalar_sparse(_ORDER_W, 2.0, _ORDER_FAMILY, _ORDER_F, alpha=0.6),
         "alpha = 0.6 must lie below 1/p = 0.5"),
        (lambda: ainfty_scalar_characteristic(_ORDER_W, 2.0, alpha=2.0), "got 2.0"),
        (lambda: ainfty_scalar_characteristic(_ORDER_W, 3.0, alpha=0.5), "alpha = 0.5 must lie below 1/p = 0.333"),
        (lambda: weak_quotient("Ialpha", _ORDER_ONE, 2.0, _ORDER_F, alpha=0.5), "alpha = 0.5 must lie below 1/p = 0.5"),
    ],
    ids=["ASalpha-without", "AS-1.5", "ASalpha-neg", "H-0.3", "hl-2", "hl-nan", "dyadic-2", "sparse-apply-2", "dominating-2",
         "dominating-above-1/p", "ainfty-scalar-2", "ainfty-scalar-above-1/p", "weak-quotient-at-1/p"],
)
def test_every_operator_that_takes_alpha_refuses_one_outside_the_rule(call, message):
    # the rule: alpha == 0, or a fractional order 0 < alpha < 1 below 1/p
    # where the operator reads q (1/p - 1/q = alpha)
    if message.startswith("got"):
        message = f"fractional order must satisfy 0 < alpha < n = 1, {message}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_md_with_alpha_is_the_fractional_dyadic_maximal():
    # the alpha rule of AS: the tag with alpha is its fractional form
    w = PowerLogWeight(0.5)
    md = multiplier_apply("Md", w, 2.0, _ORDER_F, alpha=0.3, weight_power=1.0).values
    assert md.tobytes() == multiplier_apply("Malpha", w, 2.0, _ORDER_F, alpha=0.3, weight_power=1.0).values.tobytes()
    assert md.tobytes() != multiplier_apply("Md", w, 2.0, _ORDER_F, weight_power=1.0).values.tobytes()


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.3, 0.5])
def test_the_orders_callers_pass_stay_legal(alpha):
    hl_maximal(_ORDER_F, alpha=alpha)
    dyadic_maximal(_ORDER_F, alpha=alpha)
    sparse_apply(_ORDER_FAMILY, _ORDER_F, alpha=alpha)
    multiplier_apply("AS", _ORDER_ONE, 2.0, _ORDER_F, alpha=alpha)
    multiplier_apply("ASalpha", _ORDER_ONE, 2.0, _ORDER_F, alpha=alpha)
    multiplier_apply("M", _ORDER_ONE, 2.0, _ORDER_F, alpha=alpha)
