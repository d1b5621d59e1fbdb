import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_step
from geometry_oracle import oracle_scalar_restriction_values
from weaklab import (
    DyadicGrid,
    MatrixWeight,
    Mesh,
    MeshFunction,
    PowerLogWeight,
    ReducingMatrix,
    SampledWeight,
    ainfty_scalar_characteristic,
    alt_norm_sum,
    ap_characteristic,
    build_sparse_family,
    christ_goldberg_maximal,
    dominating_scalar_sparse,
    dual_reducing_matrix,
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
from weaklab import weights as weights_module
from weaklab.grid import _aligned_layout
from weaklab.matrix import _cached_reduce, _field_power, _rho_values
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


class TestImmutableMatrixWeight:
    """values, every cached power and every reducing matrix are read-only, so
    a cached result cannot go stale."""

    def test_a_write_cannot_stale_the_cached_reducing_matrix(self):
        W = random_matrix_weight(Mesh(1.0, 6), 2, np.random.default_rng(0))
        cube = DyadicGrid().cube(0, 0)
        first = reducing_matrix(W, cube, 2.0).matrix.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            W.values[:] = 4 * W.values
        fresh = reducing_matrix(MatrixWeight(W.mesh, W.values), cube, 2.0).matrix.tobytes()
        assert reducing_matrix(W, cube, 2.0).matrix.tobytes() == fresh == first

    def test_writes_raise(self, mmesh):
        W = random_matrix_weight(mmesh, 2, np.random.default_rng(1))
        cube = DyadicGrid().cube(0, 0)
        arrays = [W.values, W.power(1.0), W.power(0.5), W.power(-1.0)]
        arrays += [reducing_matrix(W, cube, p).matrix for p in (2.0, 3.0)] + [dual_reducing_matrix(W, cube, 3.0).matrix]
        arrays += [reducing_matrix(W, cube, 3.0).inverse]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2.0

    def test_values_are_copied_from_the_caller(self, mmesh):
        mats = np.tile(np.diag([4.0, 1.0]), (mmesh.n_cells, 1, 1))
        W = MatrixWeight(mmesh, mats)
        mats[:] = np.eye(2)
        assert mats.flags.writeable
        assert np.array_equal(W.values[0], np.diag([4.0, 1.0]))
        m = np.eye(2)
        red = ReducingMatrix(DyadicGrid().cube(0, 0), 2.0, m, 1.0, 1.0)
        m[0, 0] = 3.0
        assert red.matrix[0, 0] == 1.0 and not red.matrix.flags.writeable


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

    @pytest.mark.parametrize("d", [2, 3])
    def test_search_levels_agree_with_matrix_report(self, d):
        # both search the one aligned family of Mesh(1, 5), grid._aligned_layout:
        # levels 0 (width R) to 5 (one cell) of the standard grid; a sampled
        # aligned plan reads its very arrays and labels
        W = random_matrix_weight(Mesh(1.0, 5), d, np.random.default_rng(0))
        v = np.eye(d)[0]
        lo, hi, label, _, levels = _aligned_layout(W.mesh)
        plan = weights_module._Plan(scalar_restriction(W, 2.0, v), SearchSpace.aligned_cubes())
        assert plan.lo is lo and plan.hi is hi and plan.label is label
        rep = scalar_restriction_characteristic(W, 2.0, v)
        mat = matrix_ap_characteristic(W, 2.0)
        assert rep.search_levels == mat.search_levels == levels == (0, 5)
        assert rep.grids_used == mat.grids_used == 1
        # a full cell scan searches no dyadic cube
        full = ap_characteristic(scalar_restriction(W, 2.0, v), 2.0)
        assert (full.search_levels, full.grids_used) == ((0, -1), 0)

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


    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([2, 3]),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.5]),
        level=st.integers(1, 6),
        direction=st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3).filter(lambda u: 1e-3 < np.linalg.norm(u[:2])),
    )
    def test_direction_weight_is_the_einsums_bit_for_bit(self, seed, d, p, level, direction):
        # one expression for a direction weight: scalar_restriction reads
        # _image_norms, as ainfty_scalar_characteristic does, with the floats
        # of the einsum it replaced
        W = random_matrix_weight(Mesh(1.0, level), d, np.random.default_rng(seed))
        v = np.array(direction[:d])
        got = scalar_restriction(W, p, v).values
        assert got.tobytes() == oracle_scalar_restriction_values(W, p, v).tobytes()


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

    def test_a_cached_weight_inverts_no_reducing_matrix_again(self, mmesh, monkeypatch):
        # each reducing matrix keeps its inverse, so a second call on the
        # same weight makes no np.linalg.inv call for any of the 10 cubes
        W = random_matrix_weight(mmesh, 2, np.random.default_rng(0))
        f = MeshFunction(mmesh, np.random.default_rng(2).lognormal(0.0, 2.0, mmesh.n_cells))
        fam = build_sparse_family(f)
        assert len(fam.cubes) == 10
        inverted, inv = [], np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or inv(a))
        first = dominating_scalar_sparse(W, 2.0, fam, f).values.tobytes()
        assert len(inverted) == 10
        assert dominating_scalar_sparse(W, 2.0, fam, f).values.tobytes() == first
        assert len(inverted) == 10
        red = reducing_matrix(W, fam.cubes[0], 2.0)
        assert red.inverse is red.inverse and red.inverse.tobytes() == inv(red.matrix).tobytes()

    def test_fractional_variant_runs(self, mmesh):
        rng = np.random.default_rng(41)
        W = random_matrix_weight(mmesh, 2, rng)
        f = random_step(mmesh, rng)
        fam = build_sparse_family(f)
        out = dominating_scalar_sparse(W, 2.0, fam, f, alpha=0.25)
        assert np.all(out.values >= 0)
        assert out.values.max() > 0


class TestFractionalMatrix:
    def test_direction_ainfty_below_apq_characteristic(self, mmesh):
        # [W^q]_{A_inf^sc} <= [W]_{A_(p,q)} over sampled directions
        rng = np.random.default_rng(26)
        p, q, alpha = 2.0, 4.0, 0.25  # 1/p - 1/q = alpha
        from weaklab import ainfty_scalar_characteristic, matrix_apq_characteristic

        for _ in range(5):
            W = random_matrix_weight(mmesh, 2, rng)
            apq = matrix_apq_characteristic(W, p, q).value
            ainf_sc, _ = ainfty_scalar_characteristic(W, p, n_dirs=32, alpha=alpha)
            assert ainf_sc <= apq * (1 + 1e-9)

    def test_fractional_reducing_product_tracks_characteristic(self, mmesh):
        # sup-style check on one cube: ||V_Q^q Vbar_Q^p'|| within dimensional
        # factors of [W]_{A_(p,q)}^(1/q)
        from weaklab import matrix_apq_characteristic

        rng = np.random.default_rng(27)
        p, q, pp = 2.0, 4.0, 2.0
        cube = DyadicGrid().cube(0, 0)
        for _ in range(5):
            W = random_matrix_weight(mmesh, 2, rng)
            apq = matrix_apq_characteristic(W, p, q).value
            r1 = _cached_reduce(W, cube, 1.0, q)
            r2 = _cached_reduce(W, cube, -1.0, pp)
            ratio = float(op_norm(r1.matrix @ r2.matrix)) / apq ** (1.0 / q)
            assert 0.25 <= ratio <= 4.0

    def test_fractional_dominating_reduces_w_at_the_rules_q(self, mmesh):
        # at order alpha the dominating operator reduces W at the q of
        # 1/p - 1/q = alpha, on the key (cube, 1.0, q) that the retired
        # fractional reducing matrix used, with the floats a fresh W gives
        rng = np.random.default_rng(29)
        for p, alpha in ((2.0, 0.25), (3.0, 0.1), (1.5, 0.5)):
            W = random_matrix_weight(mmesh, 2, rng)
            f = MeshFunction(mmesh, rng.uniform(0.5, 2.0, mmesh.n_cells))
            fam = build_sparse_family(f)
            dominating_scalar_sparse(W, p, fam, f, alpha=alpha)
            q = 1.0 / (1.0 / p - alpha)
            assert set(W._reducing) == {(cube, 1.0, q) for cube in fam.cubes}
            fresh = MatrixWeight(W.mesh, W.values)
            for (cube, _, _), red in W._reducing.items():
                want = _cached_reduce(fresh, cube, 1.0, q)
                assert red.matrix.tobytes() == want.matrix.tobytes()
                assert (red.exponent, red.lower_factor, red.upper_factor) == (q, want.lower_factor, want.upper_factor)

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
        # the fractional field W reads no p, so any order runs at any p
        for p in (1.0, 3.0):
            assert christ_goldberg_maximal(W, p, f, alpha=0.5).values.tobytes() == m1.values.tobytes()


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


_BAD_MESH = Mesh(1.0, 4)
_BAD_W = random_matrix_weight(_BAD_MESH, 2, np.random.default_rng(35))
_BAD_ROOT = DyadicGrid().cube(_BAD_MESH.aligned_cell_level() - _BAD_MESH.level, 0)  # [0, 1)
_BAD_F = MeshFunction(_BAD_MESH, np.linspace(0.5, 2.0, _BAD_MESH.n_cells))


def _exponent_message(p):
    return f"matrix exponent must be finite and >= 1, got {p}"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: reducing_matrix(_BAD_W, _BAD_ROOT, 0.0), _exponent_message(0.0)),
        (lambda: reducing_matrix(_BAD_W, _BAD_ROOT, -2.0), _exponent_message(-2.0)),
        (lambda: reducing_matrix(_BAD_W, _BAD_ROOT, 0.5), _exponent_message(0.5)),
        (lambda: reducing_matrix(_BAD_W, _BAD_ROOT, math.inf), _exponent_message(math.inf)),
        (lambda: reducing_matrix(_BAD_W, _BAD_ROOT, math.nan), _exponent_message(math.nan)),
        (lambda: dual_reducing_matrix(_BAD_W, _BAD_ROOT, math.inf), _exponent_message(math.inf)),
        (
            lambda: dominating_scalar_sparse(_BAD_W, 0.5, build_sparse_family(_BAD_F), _BAD_F, alpha=0.25),
            _exponent_message(0.5),
        ),
        (lambda: scalar_restriction(_BAD_W, 0.0, np.array([1.0, 0.0])), _exponent_message(0.0)),
        (lambda: ainfty_scalar_characteristic(_BAD_W, 0.0), _exponent_message(0.0)),
        (lambda: ainfty_scalar_characteristic(_BAD_W, -1.0), _exponent_message(-1.0)),
        (
            lambda: dominating_scalar_sparse(_BAD_W, math.nan, build_sparse_family(_BAD_F), _BAD_F),
            _exponent_message(math.nan),
        ),
        (lambda: matrix_ap_characteristic(_BAD_W, math.nan), "matrix A_p requires p > 1 and finite, got nan"),
        (lambda: matrix_a1q_characteristic(_BAD_W, math.nan), "A_(1,q) requires q > 1 and finite, got nan"),
        (
            lambda: matrix_apq_characteristic(_BAD_W, 2.0, math.inf),
            "fractional matrix class requires 1 < p < q and q finite, got p=2.0, q=inf",
        ),
        (
            lambda: scalar_restriction(_BAD_W, 2.0, np.zeros(2)),
            "direction must be a nonzero finite vector of length 2, got [0. 0.]",
        ),
        (
            lambda: ainfty_scalar_characteristic(_BAD_W, 2.0, n_dirs=0),
            "the number of directions must be a positive integer, got 0",
        ),
        (lambda: _field_power(0.5, 0.0), _exponent_message(0.5)),
        (lambda: _field_power(math.inf, 0.25), _exponent_message(math.inf)),
        (lambda: _field_power(math.nan, 0.0), _exponent_message(math.nan)),
        (lambda: _field_power(2.0, 1.0), "fractional order must satisfy 0 < alpha < n = 1, got 1.0"),
        (lambda: _field_power(2.0, -0.25), "fractional order must satisfy 0 < alpha < n = 1, got -0.25"),
        (lambda: _field_power(2.0, math.nan), "fractional order must satisfy 0 < alpha < n = 1, got nan"),
    ],
    ids=[
        "reducing-0", "reducing-neg", "reducing-half", "reducing-inf", "reducing-nan", "dual-reducing-inf",
        "fractional-dominating-half", "restriction-0", "ainf-sc-0", "ainf-sc-neg", "dominating-nan",
        "matrix-ap-nan", "matrix-a1q-nan", "matrix-apq-q-inf", "restriction-zero-direction", "ainf-sc-no-directions",
        "field-power-half", "field-power-inf", "field-power-nan", "field-power-order-1", "field-power-order-neg",
        "field-power-order-nan",
    ],
)
def test_matrix_layer_names_a_bad_exponent(call, message):
    # exponents are finite and >= 1, checked where they enter, before any 1 / p
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_field_power_is_one_over_p_at_order_zero_and_one_at_a_fractional_order():
    assert [_field_power(p, 0.0).hex() for p in (1.0, 1.5, 3.0)] == [(1.0 / p).hex() for p in (1.0, 1.5, 3.0)]
    assert [_field_power(p, alpha) for p, alpha in ((2.0, 0.25), (2.0, 0.5), (3.0, 0.75))] == [1.0] * 3
