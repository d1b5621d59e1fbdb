import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_step
from weaklab import (
    DyadicGrid,
    MatrixWeight,
    Mesh,
    MeshFunction,
    PowerLogWeight,
    SampledWeight,
    alt_norm_sum,
    ap_characteristic,
    build_sparse_family,
    christ_goldberg_maximal,
    dominating_scalar_sparse,
    dual_reducing_matrix,
    fractional_reducing_matrix,
    hl_maximal,
    matrix_a1_characteristic,
    matrix_a1q_characteristic,
    matrix_ap_characteristic,
    matrix_apq_characteristic,
    op_norm,
    random_matrix_weight,
    reducing_matrix,
    scalar_restriction,
    scalar_restriction_characteristic,
    sharp_rhi_matrix_bound,
    unit_directions,
)
from weaklab.matrix import _rho_values
from weaklab.weights import SearchSpace, sharp_rh_exponent


@pytest.fixture
def mmesh():
    return Mesh(1.0, 6)  # 128 cells


def identity_weight(mesh, d=2):
    return MatrixWeight(mesh, np.tile(np.eye(d), (mesh.n_cells, 1, 1)))


def diag_weight(mesh,*diags):
    cols = [np.broadcast_to(np.asarray(dv, dtype=float), (mesh.n_cells,)) for dv in diags]
    n, d = mesh.n_cells, len(cols)
    mats = np.zeros((n, d, d))
    for i, cv in enumerate(cols):
        mats[:, i, i] = cv
    return MatrixWeight(mesh, mats)


class TestOperatorNorms:
    def test_diag_example(self):
        m = np.diag([3.0, 1.0])
        assert op_norm(m) == pytest.approx(3.0, rel=1e-14)
        assert alt_norm_sum(m) == pytest.approx(4.0, rel=1e-14)

    def test_identity_dimension_dependence(self):
        for d in (2, 3):
            assert op_norm(np.eye(d)) == pytest.approx(1.0)
            assert alt_norm_sum(np.eye(d)) == pytest.approx(float(d))

    def test_sandwich_on_random_spd(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            d = int(rng.integers(2, 4))
            a = rng.standard_normal((d, d))
            m = a @ a.T + 0.1 * np.eye(d)
            on, alt = op_norm(m), alt_norm_sum(m)
            assert on <= alt + 1e-12
            assert alt <= d * on + 1e-12
            # oracle: largest eigenvalue of the SPD matrix
            assert on == pytest.approx(np.linalg.eigvalsh(m)[-1], rel=1e-12)

    def test_commutation_in_norm(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            a = rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2))
            W = a @ a.T + 0.05 * np.eye(2)
            V = b @ b.T + 0.05 * np.eye(2)
            assert op_norm(W @ V) == pytest.approx(op_norm(V @ W), rel=1e-10)


class TestReducingMatrices:
    def test_constant_diag_p2_exact(self, mmesh):
        W = diag_weight(mmesh, 4.0, 1.0)
        red = reducing_matrix(W, DyadicGrid().cube(0, 0), 2.0)
        assert np.allclose(red.matrix, np.diag([2.0, 1.0]), atol=1e-13)
        assert red.lower_factor == pytest.approx(1.0, abs=1e-12)
        assert red.upper_factor == pytest.approx(1.0, abs=1e-12)

    def test_identity_any_p(self, mmesh):
        W = identity_weight(mmesh)
        for p in (1.5, 2.0, 3.0):
            red = reducing_matrix(W, DyadicGrid().cube(0, 0), p)
            assert np.allclose(red.matrix, np.eye(2), atol=1e-9)

    def test_cache_keeps_nearby_exponents_apart(self, mmesh):
        # 3.0000001 prints as "3" under %g: the cache must key on the float
        W = random_matrix_weight(mmesh, 2, np.random.default_rng(0))
        cube = DyadicGrid().cube(0, 0)
        red = reducing_matrix(W, cube, 3.0)
        near = reducing_matrix(W, cube, 3.0000001)
        assert red.exponent == 3.0
        assert near is not red and near.exponent == 3.0000001
        assert reducing_matrix(W, cube, 3.0) is red
        dual = dual_reducing_matrix(W, cube, 3.0000001)
        assert dual.exponent == pytest.approx(3.0000001 / 2.0000001, rel=1e-15)
        assert dual is not dual_reducing_matrix(W, cube, 3.0)

    def test_p3_certified_factors_within_sqrt2(self, mmesh):
        rng = np.random.default_rng(7)
        W = random_matrix_weight(mmesh, 2, rng)
        cube = DyadicGrid().cube(0, 0)
        red = reducing_matrix(W, cube, 3.0)
        assert red.lower_factor <= 1.0 <= red.upper_factor
        assert red.upper_factor / red.lower_factor <= math.sqrt(2)
        # oracle: dense direction sampling at 10x the fit density
        field = W.power(1 / 3.0)[W.cells_of(cube)]
        dirs = unit_directions(2, 64 * 2 * 10)
        rho = _rho_values(field, 3.0, dirs)
        mv = np.linalg.norm(dirs @ red.matrix.T, axis=1)
        ratios = rho / mv
        # certificates hold on the fit sample; dense directions may slip past
        # them only by the sampling slack
        assert ratios.min() >= red.lower_factor * (1 - 1e-4)
        assert ratios.max() <= red.upper_factor * (1 + 1e-4)
        assert ratios.max() / ratios.min() <= math.sqrt(2)

    def test_product_bound_tracks_characteristic(self, mmesh):
        # sup_Q ||W_Q^p Wbar_Q^p'|| within dimensional factors of [W]^(1/p)
        rng = np.random.default_rng(15)
        p = 2.0
        grid = DyadicGrid()
        for _ in range(5):
            W = random_matrix_weight(mmesh, 2, rng)
            char = matrix_ap_characteristic(W, p).value
            prod = 0.0
            k_cell = mmesh.aligned_cell_level()
            for k in range(k_cell - mmesh.level, k_cell + 1):
                q0 = grid.cube_index_of(k, Fraction(-mmesh.radius))
                q1 = grid.cube_index_of(k, Fraction(mmesh.radius))
                for m in range(q0, q1):
                    cube = grid.cube(k, m)
                    if cube.right > Fraction(mmesh.radius):
                        continue
                    r1 = reducing_matrix(W, cube, p)
                    r2 = dual_reducing_matrix(W, cube, p)
                    prod = max(prod, float(op_norm(r1.matrix @ r2.matrix)))
            ratio = prod / char ** (1 / p)
            assert 0.25 <= ratio <= 4.0


class TestMatrixCharacteristics:
    def test_identity_is_one(self, mmesh):
        assert matrix_ap_characteristic(identity_weight(mmesh), 2.0).value == pytest.approx(1.0)
        assert matrix_a1_characteristic(identity_weight(mmesh)).value == pytest.approx(1.0)
        assert matrix_apq_characteristic(identity_weight(mmesh), 2.0, 4.0).value == pytest.approx(1.0)

    def test_scalar_embedding_is_exact(self, mmesh):
        # a d=2 weight with equal diagonal entries reduces to the scalar
        # quantity cube by cube; compare against a direct per-cube oracle over
        # the same aligned family (the scalar search uses a richer family)
        w = PowerLogWeight(-0.4).cell_averages(mmesh)
        W = diag_weight(mmesh, w, w)
        p = 2.0
        mat = matrix_ap_characteristic(W, p).value
        dual = w ** (1.0 - p / (p - 1.0))
        best = 0.0
        n = mmesh.n_cells
        B = n // 2  # widest aligned cube inside the domain has width R
        while B >= 1:
            for s in range(0, n, B):
                aw = w[s : s + B].mean()
                ad = dual[s : s + B].mean()
                best = max(best, aw * ad ** (p - 1.0))
            B //= 2
        assert mat == pytest.approx(best, rel=1e-10)

    def test_diagonal_weight_sandwich(self, mmesh):
        # max_i [w_i]_{A_p} <= [W]_{A_p} <= 2^(1 + p/p') max_i [w_i]_{A_p}
        w1 = PowerLogWeight(0.5).cell_averages(mmesh)
        w2 = PowerLogWeight(-0.25).cell_averages(mmesh)
        W = diag_weight(mmesh, w1, w2)
        p = 2.0
        mat = matrix_ap_characteristic(W, p).value
        s1 = ap_characteristic(SampledWeight(mmesh, w1), p).value
        s2 = ap_characteristic(SampledWeight(mmesh, w2), p).value
        lo = max(s1, s2)
        assert lo <= mat * (1 + 1e-12)
        assert mat <= 2.0 ** (1 + p / (p / (p - 1))) * lo

    def test_value_at_least_one(self, mmesh):
        rng = np.random.default_rng(6)
        W = random_matrix_weight(mmesh, 2, rng)
        assert matrix_ap_characteristic(W, 2.0).value >= 1.0 - 1e-12
        assert matrix_a1_characteristic(W).value >= 1.0 - 1e-12

    @pytest.mark.parametrize(
        "characteristic",
        [
            lambda W: matrix_ap_characteristic(W, 2.0),
            matrix_a1_characteristic,
            lambda W: matrix_apq_characteristic(W, 2.0, 4.0),
            lambda W: matrix_a1q_characteristic(W, 2.0),
        ],
        ids=["ap", "a1", "apq", "a1q"],
    )
    def test_every_characteristic_refuses_a_large_mesh(self, characteristic):
        W = random_matrix_weight(Mesh(1.0, 9), 2, np.random.default_rng(0))  # 1024 cells
        with pytest.raises(ValueError, match="desk-scale: use meshes of <= 512 cells"):
            characteristic(W)


class TestScalarRestriction:
    def test_identity_gives_unit_weight(self, mmesh):
        rep = scalar_restriction_characteristic(identity_weight(mmesh), 2.0, np.array([1.0, 0.0]))
        assert rep.value == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_picks_the_diagonal(self, mmesh):
        w1 = PowerLogWeight(-0.4).cell_averages(mmesh)
        W = diag_weight(mmesh, w1, np.ones(mmesh.n_cells))
        rep = scalar_restriction_characteristic(W, 2.0, np.array([1.0, 0.0]))
        scalar = ap_characteristic(SampledWeight(mmesh, w1), 2.0, SearchSpace.aligned_cubes()).value
        assert rep.value == pytest.approx(scalar, rel=1e-12)

    def test_restriction_below_matrix_characteristic(self, mmesh):
        rng = np.random.default_rng(44)
        W = random_matrix_weight(mmesh, 2, rng)
        p = 2.0
        char = matrix_ap_characteristic(W, p).value
        for v in unit_directions(2, 100):
            assert scalar_restriction_characteristic(W, p, v).value <= char * (1 + 1e-9)

    def test_witness_labels_agree_when_witnesses_agree(self):
        # both reports name the aligned cube they found; the same cube must
        # get the same name
        agreed = 0
        for seed in range(4):
            W = random_matrix_weight(Mesh(1.0, 5), 2, np.random.default_rng(seed))
            for p in (2.0, 3.0):
                mat = matrix_ap_characteristic(W, p)
                for v in unit_directions(2, 8):
                    rep = scalar_restriction_characteristic(W, p, v)
                    if rep.witness == mat.witness:
                        agreed += 1
                        assert rep.witness_label == mat.witness_label
        assert agreed >= 10


class TestChristGoldberg:
    def test_identity_matches_scalar_maximal_cell_exactly(self, mmesh):
        rng = np.random.default_rng(3)
        f = MeshFunction(mmesh, rng.uniform(-1, 1, (mmesh.n_cells, 2)))
        MW = christ_goldberg_maximal(identity_weight(mmesh), 2.0, f)
        MS = hl_maximal(f.magnitude())
        assert np.array_equal(MW.values, MS.values)

    def test_diagonal_reduces_to_scalar_path(self, mmesh):
        w1 = PowerLogWeight(-0.4).cell_averages(mmesh)
        W = diag_weight(mmesh, w1, np.ones(mmesh.n_cells))
        rng = np.random.default_rng(8)
        f1 = random_step(mmesh, rng)
        fvec = MeshFunction(mmesh, np.stack([f1.values, np.zeros(mmesh.n_cells)], axis=1))
        p = 2.0
        MW = christ_goldberg_maximal(W, p, fvec)
        # scalar multiplier maximal: w1^(1/p)(x) M(w1^(-1/p) f1)(x)
        g = MeshFunction(mmesh, w1 ** (-1 / p) * f1.values)
        MS = hl_maximal(g)
        expected = w1 ** (1 / p) * MS.values
        assert np.allclose(MW.values, expected, rtol=1e-11)

    def test_homogeneity(self, mmesh):
        rng = np.random.default_rng(12)
        W = random_matrix_weight(mmesh, 2, rng)
        f = MeshFunction(mmesh, rng.uniform(-1, 1, (mmesh.n_cells, 2)))
        m1 = christ_goldberg_maximal(W, 2.0, f)
        m2 = christ_goldberg_maximal(W, 2.0, f * (-3.0))
        assert np.allclose(m2.values, 3.0 * m1.values, rtol=1e-12)


class TestDominatingScalarSparse:
    def test_identity_weight_reduces_to_plain_averages(self, mmesh):
        rng = np.random.default_rng(21)
        f = random_step(mmesh, rng)
        fam = build_sparse_family(f)
        out = dominating_scalar_sparse(identity_weight(mmesh), 2.0, fam, f)
        expected = np.zeros(mmesh.n_cells)
        for cube in fam.cubes:
            avgp = (f.power(2.0).integral(cube.left, cube.right) / cube.width) ** 0.5
            cells = identity_weight(mmesh).cells_of(cube)
            expected[cells] += avgp
        assert np.allclose(out.values, expected, rtol=1e-12)

    def test_constant_weight_coefficient_is_one(self, mmesh):
        # constant W: ||W^(1/2) (avg W)^(-1/2)|| = 1 on every cube at p = 2
        W = diag_weight(mmesh, 4.0, 1.0)
        f = MeshFunction.indicator(mmesh, 0, 0.5)
        fam = build_sparse_family(f)
        out = dominating_scalar_sparse(W, 2.0, fam, f)
        plain = dominating_scalar_sparse(identity_weight(mmesh), 2.0, fam, f)
        assert np.allclose(out.values, plain.values, rtol=1e-12)

    def test_reducing_estimate_chain(self, mmesh):
        # <|W_Q^p W^(-1/p) f|>_Q <= C <|f|>_{p,Q} [W]_{A_p}^{1/p} with small C
        rng = np.random.default_rng(40)
        p = 2.0
        for _ in range(10):
            W = random_matrix_weight(mmesh, 2, rng)
            char = matrix_ap_characteristic(W, p).value
            f = MeshFunction(mmesh, rng.uniform(-1, 1, (mmesh.n_cells, 2)))
            cube = DyadicGrid().cube(0, int(rng.integers(-1, 1)))
            red = reducing_matrix(W, cube, p)
            cells = W.cells_of(cube)
            g = np.einsum("ij,xjk,xk->xi", red.matrix, W.power(-1 / p)[cells], f.values[cells])
            lhs = np.linalg.norm(g, axis=1).mean()
            favg = (np.linalg.norm(f.values[cells], axis=1) ** p).mean() ** (1 / p)
            assert lhs <= 8.0 * favg * char ** (1 / p)

    def test_fractional_variant_runs(self, mmesh):
        rng = np.random.default_rng(41)
        W = random_matrix_weight(mmesh, 2, rng)
        f = random_step(mmesh, rng)
        fam = build_sparse_family(f)
        p, alpha = 2.0, 0.25
        q = 1.0 / (1.0 / p - alpha)
        out = dominating_scalar_sparse(W, p, fam, f, alpha=alpha, q=q)
        assert np.all(out.values >= 0)
        assert out.values.max() > 0


class TestFractionalMatrix:
    def test_direction_ainfty_below_apq_characteristic(self, mmesh):
        # [W^q]_{A_inf^sc} <= [W]_{A_(p,q)} over sampled directions
        rng = np.random.default_rng(26)
        p, q = 2.0, 4.0
        from weaklab import ainfty_scalar_characteristic, matrix_apq_characteristic

        for _ in range(5):
            W = random_matrix_weight(mmesh, 2, rng)
            apq = matrix_apq_characteristic(W, p, q).value
            ainf_sc, _ = ainfty_scalar_characteristic(
                W, p, n_dirs=32, matrix_power=1.0, norm_power=q
            )
            assert ainf_sc <= apq * (1 + 1e-9)

    def test_fractional_reducing_product_tracks_characteristic(self, mmesh):
        # sup-style check on one cube: ||V_Q^q Vbar_Q^p'|| within dimensional
        # factors of [W]_{A_(p,q)}^(1/q)
        from weaklab.matrix import fractional_dual_reducing_matrix
        from weaklab import matrix_apq_characteristic

        rng = np.random.default_rng(27)
        p, q = 2.0, 4.0
        cube = DyadicGrid().cube(0, 0)
        for _ in range(5):
            W = random_matrix_weight(mmesh, 2, rng)
            apq = matrix_apq_characteristic(W, p, q).value
            r1 = fractional_reducing_matrix(W, cube, q)
            r2 = fractional_dual_reducing_matrix(W, cube, p)
            ratio = float(op_norm(r1.matrix @ r2.matrix)) / apq ** (1.0 / q)
            assert 0.25 <= ratio <= 4.0

    def test_fractional_christ_goldberg_identity_weight(self, mmesh):
        # with W = Id the fractional operator collapses to the scalar
        # fractional maximal of |f| over the same grids
        rng = np.random.default_rng(28)
        f = MeshFunction(mmesh, rng.uniform(-1, 1, (mmesh.n_cells, 2)))
        alpha = 0.25
        MW = christ_goldberg_maximal(identity_weight(mmesh), 2.0, f, alpha=alpha)
        MS = hl_maximal(f.magnitude(), alpha=alpha)
        assert np.array_equal(MW.values, MS.values)

    def test_fractional_christ_goldberg_homogeneity(self, mmesh):
        rng = np.random.default_rng(29)
        W = random_matrix_weight(mmesh, 2, rng)
        f = MeshFunction(mmesh, rng.uniform(-1, 1, (mmesh.n_cells, 2)))
        m1 = christ_goldberg_maximal(W, 2.0, f, alpha=0.5)
        m2 = christ_goldberg_maximal(W, 2.0, f * 2.0, alpha=0.5)
        assert np.allclose(m2.values, 2.0 * m1.values, rtol=1e-12)


class TestSharpRhiBound:
    def test_identity_is_one(self, mmesh):
        W = identity_weight(mmesh)
        val = sharp_rhi_matrix_bound(W, 2.0, DyadicGrid().cube(0, 0), nu=2.0)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_monotone_in_nu(self, mmesh):
        rng = np.random.default_rng(9)
        W = random_matrix_weight(mmesh, 2, rng)
        cube = DyadicGrid().cube(0, 0)
        vals = [sharp_rhi_matrix_bound(W, 2.0, cube, nu) for nu in (1.1, 1.5, 2.0)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_dimensional_ceiling_with_searched_nu(self, mmesh):
        rng = np.random.default_rng(10)
        p = 2.0
        cube = DyadicGrid().cube(0, 0)
        for _ in range(5):
            W = random_matrix_weight(mmesh, 2, rng)
            nus = []
            for v in unit_directions(2, 16):
                nus.append(sharp_rh_exponent(scalar_restriction(W, p, v)))
            val = sharp_rhi_matrix_bound(W, p, cube, min(nus))
            assert val <= 4 * W.d
