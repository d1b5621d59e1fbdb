"""The 2 x 2 closed-form operator norm against mpmath, and the pair-norm
table behind the matrix characteristics against the batched-SVD oracle."""

import mpmath
import numpy as np
import pytest

from pair_norm_oracle import full_square_characteristics, svd_pair_norms, top_cube_pairs
from weaklab import (
    MatrixWeight,
    Mesh,
    matrix_a1_characteristic,
    matrix_a1q_characteristic,
    matrix_ap_characteristic,
    matrix_apq_characteristic,
    op_norm,
    random_matrix_weight,
)
from weaklab import matrix as matrix_module

REL_TOL = 4e-16


def mp_sigma_max(m: np.ndarray) -> mpmath.mpf:
    """Largest singular value of the float matrix m, to 40 digits."""
    with mpmath.workdps(40):
        M = mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in m])
        return mpmath.svd_r(M, compute_uv=False)[0]


def assert_matches_mpmath(mats: np.ndarray) -> None:
    got = op_norm(mats)
    for m, g in zip(mats, got):
        ref = mp_sigma_max(m)
        assert ref > 0
        rel = abs(mpmath.mpf(float(g)) - ref) / ref
        assert rel <= REL_TOL, (m, float(g), ref)


def random_2x2(rng, n, scale_exp=5.0):
    return rng.standard_normal((n, 2, 2)) * 10.0 ** rng.uniform(-scale_exp, scale_exp, (n, 1, 1))


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestClosedFormAgainstMpmath:
    def test_random_matrices(self):
        rng = np.random.default_rng(1401)
        assert_matches_mpmath(random_2x2(rng, 300))

    def test_extreme_scales(self):
        # hypot keeps the squares of the entries out of over- and underflow
        rng = np.random.default_rng(1402)
        mats = rng.standard_normal((40, 2, 2))
        assert_matches_mpmath(np.concatenate([mats * 1e-150, mats * 1e150]))

    def test_ill_conditioned_products(self):
        rng = np.random.default_rng(1403)
        mats = []
        for _ in range(60):
            # U diag(1, 1/kappa) V with kappa up to 1e12, rounded to floats
            kappa = 10.0 ** rng.uniform(6, 12)
            U, V = rotation(rng.uniform(0, 2 * np.pi)), rotation(rng.uniform(0, 2 * np.pi))
            mats.append(U @ np.diag([1.0, 1.0 / kappa]) @ V * 10.0 ** rng.uniform(-3, 3))
            # products of two SPD factors of condition 1e6 each
            A = rotation(rng.uniform(0, np.pi)) @ np.diag([1.0, 1e-6]) @ rotation(rng.uniform(0, np.pi)).T
            B = rotation(rng.uniform(0, np.pi)) @ np.diag([1e-6, 1.0]) @ rotation(rng.uniform(0, np.pi)).T
            mats.append(A @ B)
        mats = np.array(mats)
        assert np.linalg.cond(mats).max() > 1e11
        assert_matches_mpmath(mats)

    def test_rank_one(self):
        rng = np.random.default_rng(1404)
        u, v = rng.standard_normal((50, 2)), rng.standard_normal((50, 2))
        mats = np.einsum("ni,nj->nij", u, v)
        mats = np.concatenate([mats, [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 3.0]], [[0.0, -5.0], [0.0, 0.0]]]])
        assert_matches_mpmath(mats)

    def test_zero_matrix_is_exactly_zero(self):
        assert op_norm(np.zeros((2, 2))) == 0.0
        assert np.array_equal(op_norm(np.zeros((3, 2, 2))), np.zeros(3))

    def test_negative_determinant(self):
        rng = np.random.default_rng(1405)
        mats = random_2x2(rng, 200)
        mats = mats[np.linalg.det(mats) < 0]
        a, b = rng.standard_normal((2, 20))
        reflections = np.stack([np.stack([a, b], -1), np.stack([b, -a], -1)], -2)
        mats = np.concatenate([mats, reflections, [[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [1.0, 0.0]]]])
        assert (np.linalg.det(mats) < 0).all()
        assert_matches_mpmath(mats)

    def test_diagonal_and_anti_diagonal(self):
        rng = np.random.default_rng(1406)
        x = rng.standard_normal((60, 2)) * 10.0 ** rng.uniform(-8, 8, (60, 2))
        diag = np.zeros((60, 2, 2))
        diag[:, 0, 0], diag[:, 1, 1] = x[:, 0], x[:, 1]
        anti = np.zeros((60, 2, 2))
        anti[:, 0, 1], anti[:, 1, 0] = x[:, 0], x[:, 1]
        assert_matches_mpmath(np.concatenate([diag, anti]))
        # the largest absolute entry, exactly
        assert np.array_equal(op_norm(diag), np.abs(x).max(axis=1))
        assert np.array_equal(op_norm(anti), np.abs(x).max(axis=1))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_weight_products(self, p):
        W = random_matrix_weight(Mesh(1.0, 6), 2, np.random.default_rng(14))
        A, B = W.power(1.0 / p), W.power(-1.0 / p)
        xs, ys = np.arange(0, 128, 7), np.arange(3, 128, 9)
        assert_matches_mpmath(np.einsum("xij,yjk->xyik", A[xs], B[ys]).reshape(-1, 2, 2))


class TestOpNormContract:
    def test_single_matrix_returns_python_float(self):
        for d in (2, 3):
            out = op_norm(np.eye(d) * 2.5)
            assert type(out) is float and out == 2.5
        assert type(op_norm([[1.0, 2.0], [3.0, 4.0]])) is float

    def test_batched_equals_one_at_a_time(self):
        mats = random_2x2(np.random.default_rng(1407), 24).reshape(2, 3, 4, 2, 2)
        batched = op_norm(mats)
        assert batched.shape == (2, 3, 4)
        for idx in np.ndindex(2, 3, 4):
            assert batched[idx] == op_norm(mats[idx])

    def test_d3_is_the_svd(self):
        mats = np.random.default_rng(1408).standard_normal((50, 3, 3))
        assert np.array_equal(op_norm(mats), np.linalg.svd(mats, compute_uv=False)[:, 0])

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entry_raises(self, d, bad):
        m = np.eye(d)
        m[0, d - 1] = bad
        with pytest.raises(ValueError, match="finite"):
            op_norm(m)
        batch = np.tile(np.eye(d), (5, 1, 1))
        batch[3, 1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            op_norm(batch)


# ---------------------------------------------------------------------------
# pair-norm table and the four matrix characteristics
# ---------------------------------------------------------------------------


def characteristics(W):
    return [
        matrix_ap_characteristic(W, 2.0),
        matrix_ap_characteristic(W, 3.0),
        matrix_a1_characteristic(W),
        matrix_apq_characteristic(W, 2.0, 3.0),
        matrix_a1q_characteristic(W, 2.0),
    ]


def oracle_characteristics(W, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(matrix_module, "_pair_norms", lambda Wx, Wy: top_cube_pairs(svd_pair_norms(Wx, Wy)))
        return characteristics(W)


def cli_seed0_weights():
    """The weights of `weaklab matrix-check --seed 0 --trials 3` (its golden)."""
    mesh, rng = Mesh(1.0, 6), np.random.default_rng(0)
    weights = []
    for _ in range(3):
        weights.append(random_matrix_weight(mesh, 2, rng))
        rng.standard_normal(2)  # the trial's scalar-restriction direction
    return weights


def assert_same_witness_close_value(got, ref, rel):
    for g, r in zip(got, ref):
        assert g.quantity == r.quantity
        assert g.witness == r.witness and g.witness_label == r.witness_label
        assert g.search_levels == r.search_levels
        assert g.value == pytest.approx(r.value, rel=rel, abs=0)


class TestPairNormsAgainstSvdOracle:
    @pytest.mark.parametrize("level", [3, 4, 5, 6, 7, 8])
    def test_d2_table_and_characteristics(self, level, monkeypatch):
        W = random_matrix_weight(Mesh(1.0, level), 2, np.random.default_rng(140 + level))
        for s in (0.5, 1.0 / 3.0, 1.0):
            P = matrix_module._pair_norms(W.power(s), W.power(-s))
            ref = top_cube_pairs(svd_pair_norms(W.power(s), W.power(-s)))
            assert np.max(np.abs(P - ref) / ref) <= 1e-15
        assert_same_witness_close_value(characteristics(W), oracle_characteristics(W, monkeypatch), 1e-14)

    def test_cli_seed0_weights(self, monkeypatch):
        for W in cli_seed0_weights():
            assert_same_witness_close_value(characteristics(W), oracle_characteristics(W, monkeypatch), 1e-14)

    @pytest.mark.parametrize("level", [3, 4, 5])
    def test_d3_is_bit_identical(self, level, monkeypatch):
        W = random_matrix_weight(Mesh(1.0, level), 3, np.random.default_rng(240 + level))
        assert np.array_equal(matrix_module._pair_norms(W.values, W.power(-1.0)),
                              top_cube_pairs(svd_pair_norms(W.values, W.power(-1.0))))
        got, ref = characteristics(W), oracle_characteristics(W, monkeypatch)
        assert_same_witness_close_value(got, ref, 0.0)
        assert [g.value for g in got] == [r.value for r in ref]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("level", [0, 1, 3, 6])
@pytest.mark.parametrize("p, q", [(2.0, 3.0), (3.0, 4.5), (1.5, 2.0)])
def test_top_cube_pairs_give_the_full_square_characteristics(d, level, p, q):
    """The four characteristics read only the pairs of the two top cubes, and
    each gives the full-square engine's value (bit for bit), witness and label."""
    W = random_matrix_weight(Mesh(1.0, level), d, np.random.default_rng(330 + 10 * d + level))
    got = [
        matrix_ap_characteristic(W, p),
        matrix_a1_characteristic(W),
        matrix_apq_characteristic(W, p, q),
        matrix_a1q_characteristic(W, q),
    ]
    for g, r in zip(got, full_square_characteristics(W, p, q)):
        assert (g.quantity, g.value.hex(), g.witness, g.witness_label) == (r.quantity, r.value.hex(), r.witness, r.witness_label)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_matrix_weight_rejects_non_finite_entries(bad):
    # an infinite diagonal entry used to pass the symmetry and definiteness
    # checks and reach the characteristics as a NaN power
    mesh = Mesh(1.0, 3)
    values = np.tile(np.eye(2), (mesh.n_cells, 1, 1))
    values[3, 0, 0] = bad
    with pytest.raises(ValueError, match="must be finite"):
        MatrixWeight(mesh, values)
