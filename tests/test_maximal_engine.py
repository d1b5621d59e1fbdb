"""The matrix consumers on the per-level engine against the loops they
replaced (``geometry_oracle``): the Christ-Goldberg maximal function cube by
cube, and the scalar ``A_inf`` characteristic direction by direction; and the
component-wise level tables both of them read.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometry_oracle import oracle_ainfty_scalar_characteristic, oracle_christ_goldberg_maximal
from weaklab.grid import DyadicGrid, Mesh, MeshFunction, average, default_levels, level_cube_integrals, shifted_grids
from weaklab.matrix import (
    MatrixWeight,
    ainfty_scalar_characteristic,
    christ_goldberg_maximal,
    random_matrix_weight,
    unit_directions,
)


def within_ulps(a: np.ndarray, b: np.ndarray, n: int) -> bool:
    return bool(np.all(np.abs(a - b) <= n * np.spacing(np.maximum(np.abs(a), np.abs(b)))))


def block_zeroed(rng, n_cells: int, d: int) -> np.ndarray:
    """Random d-vectors per cell with about a third of eight blocks set to zero."""
    values = rng.uniform(-1, 1, (n_cells, d))
    blocks = np.array_split(np.arange(n_cells), 8)
    for cells in blocks:
        if rng.uniform() < 0.35:
            values[cells] = 0.0
    return values


@settings(max_examples=30, deadline=None)
@given(
    radius=st.sampled_from([0.75, 1.0, 3.0, 5.25]),
    level=st.integers(3, 7),
    d=st.sampled_from([2, 3]),
    alpha=st.sampled_from([0.0, 0.25, 0.5]),
    p=st.sampled_from([2.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_christ_goldberg_matches_per_cube_loop(radius, level, d, alpha, p, seed, data):
    """Whole-cell sums plus straddle shares against a dot product with the
    overlap widths, and |Q|^(alpha-1) * integral against |Q|^alpha * (dot / |Q|):
    the summation order differs, so the floats agree within 8 ulp, and the
    zero pattern exactly."""
    mesh = Mesh(radius, level)
    rng = np.random.default_rng(seed)
    W = random_matrix_weight(mesh, d, rng)
    f = MeshFunction(mesh, block_zeroed(rng, mesh.n_cells, d))
    grids = data.draw(st.sampled_from([None, [DyadicGrid(0)], [DyadicGrid(1), DyadicGrid(2)]]))
    k_top, k_fine = default_levels(mesh)
    min_level = data.draw(st.sampled_from([None, k_top + 1, k_fine - 1]))
    max_level = data.draw(st.sampled_from([None, k_fine - 1, k_fine + 1]))
    got = christ_goldberg_maximal(W, p, f, grids, min_level, max_level, alpha).values
    want = oracle_christ_goldberg_maximal(W, p, f, grids, min_level, max_level, alpha)
    assert np.array_equal(got != 0, want != 0)
    assert within_ulps(got, want, 8)


@pytest.mark.parametrize(
    "radius, level, d, powers",
    [
        (1.0, 5, 2, {}),
        (0.75, 5, 3, {}),
        (3.0, 4, 2, {"matrix_power": 1.0, "norm_power": 3.0}),
        (5.25, 4, 3, {"matrix_power": 1.0, "norm_power": 3.0}),
    ],
)
@pytest.mark.parametrize("grids", [None, [DyadicGrid(2)]])
def test_ainfty_scalar_matches_per_direction_loop(radius, level, d, powers, grids):
    mesh = Mesh(radius, level)
    W = random_matrix_weight(mesh, d, np.random.default_rng(level * 10 + d))
    value, direction = ainfty_scalar_characteristic(W, 2.0, n_dirs=24, grids=grids, **powers)
    want_value, want_direction = oracle_ainfty_scalar_characteristic(W, 2.0, n_dirs=24, grids=grids, **powers)
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
    assert direction.tobytes() == want_direction.tobytes()


def test_ainfty_scalar_first_direction_wins_a_tie():
    # W = Id: every direction weight is the constant 1, so all directions tie
    mesh = Mesh(1.0, 4)
    W = MatrixWeight(mesh, np.tile(np.eye(2), (mesh.n_cells, 1, 1)))
    value, direction = ainfty_scalar_characteristic(W, 2.0, n_dirs=8)
    assert value == oracle_ainfty_scalar_characteristic(W, 2.0, n_dirs=8)[0]
    assert direction.tobytes() == unit_directions(2, 8)[0].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    radius=st.sampled_from([0.5, 0.75, 1.0, 3.0, 5.25]),
    level=st.integers(1, 7),
    shift=st.sampled_from([0, 1, 2]),
    dk=st.integers(-3, 3),
    r=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_vector_level_tables_equal_scalar_tables_per_component(radius, level, shift, dk, r, seed):
    """Components sharing one zero pattern give, column by column, the floats
    of the scalar table; levels past the cell level split cells."""
    mesh = Mesh(radius, level)
    rng = np.random.default_rng(seed)
    support = rng.uniform(size=mesh.n_cells) < 0.6
    values = rng.uniform(0.5, 2.0, (mesh.n_cells, r)) * 10.0 ** rng.integers(-6, 6, (mesh.n_cells, r))
    f = MeshFunction(mesh, values * support[:, None])
    grid = DyadicGrid(shift)
    k = math.floor(math.log2(1.0 / mesh.h)) + dk
    q0, ints = level_cube_integrals(f, grid, k)
    assert ints.shape[1] == r
    for c in range(r):
        q0_c, ints_c = level_cube_integrals(MeshFunction(mesh, f.values[:, c]), grid, k)
        assert q0_c == q0 and ints[:, c].tobytes() == ints_c.tobytes()


def test_vector_level_tables_with_different_zero_patterns_stay_accurate():
    mesh = Mesh(1.0, 6)
    rng = np.random.default_rng(5)
    values = rng.uniform(0, 1, (mesh.n_cells, 3)) * (rng.uniform(size=(mesh.n_cells, 3)) < 0.5)
    f = MeshFunction(mesh, values)
    for grid in shifted_grids(1):
        for k in range(*default_levels(mesh)):
            _, ints = level_cube_integrals(f, grid, k)
            for c in range(3):
                _, ints_c = level_cube_integrals(MeshFunction(mesh, values[:, c]), grid, k)
                assert np.allclose(ints[:, c], ints_c, rtol=4 * mesh.n_cells * 2.0**-53, atol=0.0)


def test_vector_functions_have_no_scalar_integral():
    f = MeshFunction(Mesh(1.0, 3), np.ones((16, 2)))
    with pytest.raises(TypeError):
        f.integral(0.0, 0.5)
    with pytest.raises(TypeError):
        average(f, DyadicGrid().cube(0, 0))
