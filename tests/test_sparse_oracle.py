"""Differential tests: the table-driven stopping-time walks of
``weaklab.sparse`` against the per-cube reference walks in
``sparse_oracle.py``, compared with exact equality (cube order, the bytes of
every designated set, of ``apply`` and of the CZ outputs)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_step
from geometry_oracle import oracle_sparse_apply
from sparse_oracle import oracle_cz_decompose, oracle_sparse_family
from weaklab import DyadicGrid, Mesh, MeshFunction, build_sparse_family, cz_decompose, shifted_grids
from weaklab.sparse import covering_roots

seeds = st.integers(0, 2**32 - 1)


def step_function(mesh, seed, dyadic_heights, span=None):
    """Seeded step function; dyadic heights make exact stopping ties likely."""
    f = random_step(mesh, np.random.default_rng(seed), span=span)
    if dyadic_heights:
        f = MeshFunction(mesh, np.ceil(f.values * 8) / 8)
    return f


def keys(cubes):
    return [(c.level, c.index, c.grid.shift_index) for c in cubes]


def assert_same_family(f, **kwargs):
    new = build_sparse_family(f, **kwargs)
    old = oracle_sparse_family(f, **kwargs)
    assert keys(new.cubes) == keys(old.cubes)
    assert len(new.designated) == len(old.designated)
    for a, b in zip(new.designated, old.designated):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for alpha in (0.0, 0.25):
        assert new.apply(f, alpha).values.tobytes() == oracle_sparse_apply(old, f, alpha).tobytes()
    return new


def assert_same_cz(h, height, roots=None):
    new = cz_decompose(h, height, roots=roots)
    old = oracle_cz_decompose(h, height, roots=roots)
    assert keys(new.cubes) == keys(old.cubes)
    assert new.good.values.tobytes() == old.good.values.tobytes()
    assert new.bad.values.tobytes() == old.bad.values.tobytes()
    assert new.omega_cells.tobytes() == old.omega_cells.tobytes()


@settings(max_examples=40)
@given(
    radius=st.sampled_from([0.5, 1.0, 4.0, 16.0]),
    level=st.integers(3, 8),
    seed=seeds,
    dyadic_heights=st.booleans(),
    min_width_cells=st.sampled_from([None, 1, 32]),
)
def test_standard_family_matches_oracle(radius, level, seed, dyadic_heights, min_width_cells):
    f = step_function(Mesh(radius, level), seed, dyadic_heights)
    assert_same_family(f, min_width_cells=min_width_cells)


@settings(max_examples=40)
@given(
    radius=st.sampled_from([0.5, 1.0, 3.0, 4.0]),
    level=st.integers(3, 7),
    shift=st.sampled_from([1, 2]),
    seed=seeds,
    dyadic_heights=st.booleans(),
    min_width_cells=st.sampled_from([None, 1, 32]),
)
def test_shifted_family_on_embedded_mesh_matches_oracle(
    radius, level, shift, seed, dyadic_heights, min_width_cells
):
    small = step_function(Mesh(radius, level), seed, dyadic_heights)
    big = small.embedded(4 * radius)
    grid = DyadicGrid(shift)
    roots = covering_roots(big.mesh, grid, (-radius, radius))
    assert_same_family(big, grid=grid, roots=roots, min_width_cells=min_width_cells)


@settings(max_examples=30)
@given(
    level=st.integers(3, 7),
    shift=st.sampled_from([0, 1, 2]),
    seed=seeds,
    dyadic_heights=st.booleans(),
)
def test_default_shifted_roots_match_oracle(level, shift, seed, dyadic_heights):
    mesh = Mesh(4.0, level)
    f = step_function(mesh, seed, dyadic_heights, span=(-2, 2))
    assert_same_family(f, grid=DyadicGrid(shift))


@settings(max_examples=30)
@given(
    radius=st.sampled_from([0.5, 1.0, 3.0]),
    level=st.integers(3, 7),
    shift=st.sampled_from([0, 1, 2]),
    k_offset=st.integers(-2, 1),
    seed=seeds,
    min_width_cells=st.sampled_from([None, 1, 32]),
)
def test_roots_partly_off_domain_match_oracle(radius, level, shift, k_offset, seed, min_width_cells):
    # cubes about as wide as the domain, straddling its edges or beyond it
    mesh = Mesh(radius, level)
    f = step_function(mesh, seed, False)
    grid = DyadicGrid(shift)
    k = -int(np.ceil(np.log2(radius))) + k_offset
    roots = [grid.cube_containing(k, x) for x in (-radius, radius - mesh.h, 3 * radius)]
    assert_same_family(f, grid=grid, roots=roots, min_width_cells=min_width_cells)


@pytest.mark.parametrize("shift", [0, 1, 2])
def test_all_zero_root_matches_oracle(shift):
    mesh = Mesh(1.0, 6)
    f = MeshFunction.indicator(mesh, -1.0, -0.5)  # zero on the right half
    grid = DyadicGrid(shift)
    roots = [grid.cube_containing(1, x) for x in (-0.75, 0.25, 0.75)]
    fam = assert_same_family(f, grid=grid, roots=roots)
    assert keys(fam.cubes)[-1] == keys(roots[-1:])[0]
    assert fam.verify() == []
    assert_same_family(MeshFunction.zeros(mesh), grid=grid, roots=roots)


@settings(max_examples=60)
@given(
    radius=st.sampled_from([0.5, 1.0, 4.0, 16.0]),
    level=st.integers(3, 9),
    seed=seeds,
    dyadic_heights=st.booleans(),
    rel_height=st.floats(0.1, 3.0),
)
def test_cz_matches_oracle(radius, level, seed, dyadic_heights, rel_height):
    h = step_function(Mesh(radius, level), seed, dyadic_heights)
    height = rel_height * max(float(h.values.mean()), 1e-3)
    if dyadic_heights:
        height = float(np.ceil(height * 8) / 8)  # ties between average and height
    assert_same_cz(h, height)


@settings(max_examples=30)
@given(level=st.integers(3, 7), seed=seeds, rel_height=st.floats(0.1, 3.0), k_offset=st.integers(-2, 1))
def test_cz_roots_partly_off_domain_match_oracle(level, seed, rel_height, k_offset):
    mesh = Mesh(1.0, level)
    h = step_function(mesh, seed, False)
    grid = DyadicGrid()
    roots = [grid.cube_containing(k_offset, x) for x in (-1.0, 0.0, 2.5)]
    assert_same_cz(h, rel_height * max(float(h.values.mean()), 1e-3), roots=roots)


def test_roots_from_another_grid_rejected():
    mesh = Mesh(1.0, 5)
    f = MeshFunction.constant(mesh, 1.0)
    with pytest.raises(ValueError, match="grid"):
        build_sparse_family(f, roots=[shifted_grids(1)[1].cube(0, 0)])
    with pytest.raises(ValueError, match="grid"):
        cz_decompose(f, 2.0, roots=[shifted_grids(1)[2].cube(0, 0)])
