"""The integer cube-to-cell map (``grid.cube_span``) and cube locator
(``DyadicGrid.cube_index_of``) against the ``Fraction`` geometry they
replaced (``geometry_oracle``), byte for byte; the all-level tables, read
through the geometry cached per mesh, grid and level window, against the
one-level builders they replaced, and that geometry against the per-level
spans joined; its int64 headroom at the extreme meshes; and the
rules that only ``grid.py`` imports ``fractions``, reads a grid's
``shift_index``, touches a function's cube tables, caches results (on
frozen keys only) and writes the cube-label format, that only ``matrix.py``
touches a matrix weight's caches, that sparse families are built in two
places only, and that no module imports or loads ``scipy``.
"""

import ast
import inspect
import math
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometry_oracle import (
    cells_inside,
    mesh_h,
    mesh_left,
    oracle_average,
    oracle_cells_inside,
    oracle_cells_of,
    oracle_covering_roots,
    oracle_cube_index_of,
    oracle_cube_indices_per_cell,
    oracle_integral,
    oracle_level_affine,
    oracle_level_cube_integrals,
    oracle_level_window,
    oracle_sparse_apply,
)
import weaklab
from weaklab.grid import (
    DyadicGrid,
    Mesh,
    MeshFunction,
    _CACHED_CELLS,
    _geometry,
    _kept_geometry,
    _level_affine,
    _Spans,
    average,
    cell_cube_integrals,
    cube_indices_per_cell,
    cube_span,
    default_levels,
    level_cube_integrals,
    shifted_grids,
)
from weaklab.matrix import MatrixWeight, christ_goldberg_maximal, random_matrix_weight
from weaklab.operators import hl_maximal
from weaklab.sparse import SparseFamily, build_sparse_family, covering_roots, sparse_apply

RADII = [0.25, 0.75, 1.0, 3.0, 5.25, 1000.0, 2.0**-10, 2.0**20 - 1]
GRIDS = shifted_grids(1)


def level_range(mesh: Mesh) -> range:
    """From one level above the coarsest default (cubes about 2R wide) to two
    levels below the finest (cubes about one cell wide)."""
    k_top = -math.ceil(math.log2(2 * mesh.radius))
    k_fine = math.floor(math.log2(1.0 / mesh.h))
    return range(k_top - 1, k_fine + 3)


def edge_cube_indices(mesh: Mesh, grid: DyadicGrid, k: int) -> tuple[int, int]:
    """Indices of the level-k cubes holding the first and the last domain point."""
    a0, step, den = oracle_level_affine(mesh, grid, k)
    return a0 // den, -(-(a0 + mesh.n_cells * step) // den) - 1


def cube_indices(mesh, grid, k, data, n_random) -> list[int]:
    """Cubes wholly off, straddling and just inside both domain edges, plus
    random ones between them."""
    q0, q1 = edge_cube_indices(mesh, grid, k)
    ms = set(range(q0 - 2, q0 + 3)) | set(range(q1 - 2, q1 + 3))
    ms |= set(data.draw(st.lists(st.integers(q0, q1), max_size=n_random)))
    return sorted(ms)


def same_float(x: float, y: float) -> bool:
    return np.float64(x).tobytes() == np.float64(y).tobytes()


# points a caller supplies: floats, dyadic Fractions, and Fractions with
# denominator 3 * 2^t such as ``Cube.right`` (cube edges of every grid)
POINTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.builds(Fraction, st.integers(-(2**60), 2**60), st.integers(0, 60).map(lambda t: 2**t)),
    st.builds(Fraction, st.integers(-(2**60), 2**60), st.integers(0, 60).map(lambda t: 3 * 2**t)),
)


@settings(max_examples=400, deadline=None)
@given(j=st.integers(0, 2), k=st.integers(-12, 25), x=POINTS)
def test_cube_index_of_matches_fraction(j, k, x):
    grid = DyadicGrid(j)
    m = grid.cube_index_of(k, x)
    assert type(m) is int and m == oracle_cube_index_of(grid, k, x)
    assert grid.cube_left(k, m) <= Fraction(x) < grid.cube_left(k, m + 1)


@settings(max_examples=200, deadline=None)
@given(j=st.integers(0, 2), k=st.integers(-12, 25), m=st.integers(-(2**40), 2**40), data=st.data())
def test_cube_edges_locate_their_own_cube(j, k, m, data):
    # a cube's left edge, read at its own or any coarser or finer level
    grid = DyadicGrid(j)
    left = grid.cube_left(k, m)
    assert grid.cube_index_of(k, left) == m
    level = data.draw(st.integers(-12, 25))
    assert grid.cube_index_of(level, left) == oracle_cube_index_of(grid, level, left)
    assert grid.index_at(level, grid.numerator(k, m), 3, k) == oracle_cube_index_of(grid, level, left)


@settings(max_examples=150, deadline=None)
@given(
    j=st.integers(0, 2),
    k=st.integers(-12, 25),
    scale=st.integers(-12, 25),
    den=st.sampled_from([1, 3, 5]),
    nums=st.lists(st.integers(-(2**30), 2**30), min_size=1, max_size=8),
)
def test_index_at_on_int64_arrays_matches_fraction(j, k, scale, den, nums):
    grid = DyadicGrid(j)
    got = grid.index_at(k, np.array(nums, dtype=np.int64), den, scale)
    points = [Fraction(n, den) / Fraction(2) ** scale for n in nums]
    assert got.dtype == np.int64 and got.tolist() == [oracle_cube_index_of(grid, k, x) for x in points]


def test_cube_index_of_accepts_numpy_scalars():
    grid = DyadicGrid(1)
    for x in (np.int64(-3), np.float64(0.3)):
        assert grid.cube_index_of(5, x) == oracle_cube_index_of(grid, 5, x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float64(np.nan)])
def test_cube_index_of_rejects_points_that_are_not_finite(x):
    with pytest.raises(ValueError, match="is not a finite number"):
        DyadicGrid(2).cube_index_of(3, x)


def test_level_affine_matches_fraction_everywhere():
    cases = 0
    for radius in RADII:
        for level in range(21):
            mesh = Mesh(radius, level)
            for grid in GRIDS:
                for k in level_range(mesh):
                    assert _level_affine(mesh, grid, k) == oracle_level_affine(mesh, grid, k), (radius, level, grid, k)
                    cases += 1
    assert cases == 7560  # 8 radii, 21 mesh levels, 3 grids, L + 5 levels each


@settings(max_examples=150, deadline=None)
@given(
    radius=st.sampled_from(RADII),
    level=st.integers(0, 20),
    j=st.integers(0, 2),
    data=st.data(),
)
def test_cube_cell_questions_match_fraction(radius, level, j, data):
    mesh, grid = Mesh(radius, level), DyadicGrid(j)
    k = data.draw(st.sampled_from(level_range(mesh)))
    # MatrixWeight.cells_of reads only the mesh: no level-20 matrix field needed
    holder = SimpleNamespace(mesh=mesh)
    for m in cube_indices(mesh, grid, k, data, 6):
        cube = grid.cube(k, m)
        lo, hi, den = cube_span(mesh, cube)
        assert Fraction(lo, den) == (cube.left - mesh_left(mesh)) / mesh_h(mesh)
        assert Fraction(hi, den) == (cube.right - mesh_left(mesh)) / mesh_h(mesh)
        got, want = cells_inside(mesh, cube), oracle_cells_inside(mesh, cube)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        try:
            want = oracle_cells_of(mesh, cube)
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                MatrixWeight.cells_of(holder, cube)
        else:
            assert MatrixWeight.cells_of(holder, cube) == want


@settings(max_examples=120, deadline=None)
@given(
    radius=st.sampled_from(RADII),
    level=st.integers(0, 10),
    j=st.integers(0, 2),
    alpha=st.sampled_from([0.0, 0.5]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_averages_and_sparse_apply_match_fraction(radius, level, j, alpha, seed, data):
    mesh, grid = Mesh(radius, level), DyadicGrid(j)
    rng = np.random.default_rng(seed)
    f = MeshFunction(mesh, rng.uniform(0, 1, mesh.n_cells) * (rng.uniform(size=mesh.n_cells) < 0.6))
    cubes = []
    for k in data.draw(st.lists(st.sampled_from(level_range(mesh)), min_size=1, max_size=4, unique=True)):
        cubes += [grid.cube(k, m) for m in cube_indices(mesh, grid, k, data, 3)]
    for cube in cubes:
        assert same_float(average(f, cube), oracle_average(f, cube))
    family = SparseFamily(mesh, grid, cubes, [np.arange(0)] * len(cubes))
    assert sparse_apply(family, f, alpha).values.tobytes() == oracle_sparse_apply(family, f, alpha).tobytes()
    # integrals between points a caller supplies, inside and beyond the domain
    a, b = sorted(data.draw(st.lists(st.floats(-2 * radius, 2 * radius), min_size=2, max_size=2)))
    assert same_float(f.integral(a, b), oracle_integral(f, a, b))


@settings(max_examples=150, deadline=None)
@given(
    radius=st.sampled_from(RADII),
    level=st.integers(0, 12),
    j=st.integers(0, 2),
    data=st.data(),
)
def test_covering_roots_match_fraction(radius, level, j, data):
    mesh, grid = Mesh(radius, level), DyadicGrid(j)
    # cell edges (the domain edges and one cell beyond them included) or any points
    edge = st.integers(-1, mesh.n_cells + 1).map(lambda i: -radius + i * mesh.h)
    point = st.one_of(edge, st.floats(-1.25 * radius, 1.25 * radius))
    span = tuple(sorted(data.draw(st.tuples(point, point))))

    def outcome(roots_of):
        try:
            return [(c.level, c.index) for c in roots_of(mesh, grid, span)]
        except ValueError as err:
            return str(err)

    assert outcome(covering_roots) == outcome(oracle_covering_roots)


@pytest.mark.parametrize(
    "radius, level, components",
    [(1.0, 0, None), (0.75, 5, None), (16.0, 10, None), (4.0, 6, 128)],
    ids=["two-cells", "radius-0.75", "mesh-16-10", "vector-128"],
)
def test_range_tables_match_per_level_oracle(radius, level, components):
    """One call for all default levels of a grid gives, level by level, the
    bytes of the one-level builders: the tables (a 128-component f is the
    Christ-Goldberg shape) and the cell indices.  Two levels past the cell
    level are included: there each level's ``den`` differs, while over the
    default levels of one grid it is the same."""
    mesh = Mesh(radius, level)
    rng = np.random.default_rng(level)
    shape = (mesh.n_cells,) if components is None else (mesh.n_cells, components)
    f = MeshFunction(mesh, rng.uniform(0, 1, shape) * (rng.uniform(size=shape) < 0.6))
    k_top, k_fine = default_levels(mesh)
    k_deep = k_fine + 2
    for grid in GRIDS:
        tables = level_cube_integrals(f, grid, k_top, k_deep)
        q, contained = cube_indices_per_cell(mesh, grid, k_top, k_deep)
        assert len(tables) == len(q) == len(contained) == k_deep - k_top + 1
        for k, (q0, ints), q_k, cont_k in zip(range(k_top, k_deep + 1), tables, q, contained):
            want_q0, want_ints = oracle_level_cube_integrals(f, grid, k)
            assert q0 == want_q0 and ints.shape == want_ints.shape and ints.tobytes() == want_ints.tobytes()
            want_q, want_cont = oracle_cube_indices_per_cell(mesh, grid, k)
            assert np.array_equal(q_k, want_q) and np.array_equal(cont_k, want_cont)
    assert level_cube_integrals(f, GRIDS[0], k_fine + 1, k_fine) == []
    assert cube_indices_per_cell(mesh, GRIDS[0], k_fine + 1, k_fine)[0].shape == (0, mesh.n_cells)


@settings(max_examples=80, deadline=None)
@given(
    radius=st.sampled_from([0.75, 1.0, 3.0, 5.25]),
    level=st.integers(0, 12),
    j=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_cached_geometry_matches_one_level_oracle(radius, level, j, seed, data):
    """Tables and cell-cube integrals read through the geometry cached per
    (mesh, grid, level window) equal the one-level oracle bit for bit, whichever
    windows, in whatever order, built the function's tables.  A vector f has
    one component per cell (the Christ-Goldberg shape, read with ``comp``),
    so it is drawn only on meshes of at most 128 cells."""
    mesh, grid = Mesh(radius, level), DyadicGrid(j)
    vector = mesh.n_cells <= 128 and data.draw(st.booleans())
    rng = np.random.default_rng(seed)
    shape = (mesh.n_cells, mesh.n_cells) if vector else (mesh.n_cells,)
    f = MeshFunction(mesh, rng.uniform(0, 1, shape) * (rng.uniform(size=shape) < 0.6))
    levels = level_range(mesh)
    window = st.tuples(st.sampled_from(levels), st.sampled_from(levels)).map(sorted)
    windows = data.draw(st.lists(window, min_size=1, max_size=4))
    for k0, k1 in windows:
        tables = level_cube_integrals(f, grid, k0, k1)
        q, contained = cube_indices_per_cell(mesh, grid, k0, k1)
        cells = cell_cube_integrals(f, grid, k0, k1)
        assert len(tables) == len(q) == len(contained) == len(cells) == k1 - k0 + 1
        for k, (q0, ints), q_k, cont_k, cells_k in zip(range(k0, k1 + 1), tables, q, contained, cells):
            want_q0, want_ints = oracle_level_cube_integrals(f, grid, k)
            assert q0 == want_q0 and ints.shape == want_ints.shape and ints.tobytes() == want_ints.tobytes()
            want_q, want_cont = oracle_cube_indices_per_cell(mesh, grid, k)
            assert np.array_equal(q_k, want_q) and np.array_equal(cont_k, want_cont)
            x = np.flatnonzero(want_cont)
            want_cells = np.zeros(mesh.n_cells)
            want_cells[x] = want_ints[want_q[x] - want_q0, x] if vector else want_ints[want_q[x] - want_q0]
            assert cells_k.tobytes() == want_cells.tobytes()


def _arrays(part) -> list:
    """Every array in a kept geometry part: tuples and ``_Spans`` opened."""
    if isinstance(part, np.ndarray):
        return [part]
    if isinstance(part, _Spans):
        return [getattr(part, name) for name in _Spans.__slots__]
    return [a for p in part for a in _arrays(p)] if isinstance(part, tuple) else []


def test_cached_geometry_is_read_only():
    mesh, grid = Mesh(3.0, 5), GRIDS[1]
    k_top, k_fine = default_levels(mesh)
    spans = [_geometry(mesh, grid, (k,)).window for k in (k_top, k_fine)]
    spans.append(_geometry(mesh, grid, (k_top, k_fine)).window)
    for a in [getattr(s, name) for s in spans for name in _Spans.__slots__]:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
    # every part of a whole window, its ranges and offsets, on a shifted grid
    # and on the cell-aligned standard grid that lays out aligned cubes
    aligned = Mesh(1.0, 5)
    for geometry, parts in (
        (_geometry(mesh, grid, tuple(range(k_top, k_fine + 1))), ("window", "index", "pairs", "sweep")),
        (_geometry(aligned, GRIDS[0], tuple(range(0, 6))), ("window", "index", "pairs", "sweep", "aligned_layout")),
    ):
        assert isinstance(geometry.cubes, tuple) and all(isinstance(c, range) for c in geometry.cubes)
        arrays = [geometry.at] + [a for part in parts for a in _arrays(getattr(geometry, part))]
        assert len(arrays) > len(parts)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = a[(0,) * a.ndim]


@settings(max_examples=120, deadline=None)
@given(
    mesh=st.one_of(
        st.builds(Mesh, st.sampled_from([0.75, 1.0, 3.0, 5.25]), st.integers(0, 10)),
        st.just(Mesh(1.0, 13)),
    ),
    j=st.integers(0, 2),
    data=st.data(),
)
def test_level_window_matches_joined_per_level_spans(mesh, j, data):
    """The span batch kept per (mesh, grid, level window) equals the
    per-level spans joined, field for field in hex, at the positions of the
    table layout (``at``), with an empty span at each zero between them,
    for contiguous and non-contiguous windows in any order;
    ``Mesh(1.0, 13)`` is past ``_CACHED_CELLS`` and derives its window per
    call."""
    grid, levels = DyadicGrid(j), level_range(mesh)
    window = data.draw(
        st.one_of(
            st.tuples(st.sampled_from(levels), st.sampled_from(levels)).map(lambda ks: tuple(range(min(ks), max(ks) + 1))),
            st.lists(st.sampled_from(levels), min_size=1, max_size=5, unique=True).map(tuple),
        )
    )
    geometry = _geometry(mesh, grid, window)
    want_q0s, want_sizes, want = oracle_level_window(mesh, grid, window)
    assert tuple(c.start for c in geometry.cubes) == want_q0s and [len(c) for c in geometry.cubes] == want_sizes
    spans = geometry.window
    assert len(spans) == geometry.at[-1] == sum(want_sizes) + len(window) + 1
    cubes = np.concatenate([at + np.arange(len(c)) for at, c in zip(geometry.at, geometry.cubes)])
    zeros = np.setdiff1d(np.arange(len(spans)), cubes)
    assert np.array_equal(zeros, np.append(0, geometry.at[1:] - 1))
    for name in _Spans.__slots__:
        got, ref = getattr(spans.take(cubes), name), getattr(want, name)
        assert got.dtype == ref.dtype and got.tobytes().hex() == ref.tobytes().hex(), name
        assert not getattr(spans.take(zeros), name).any(), name  # empty spans at cell 0


def test_fine_meshes_keep_no_geometry():
    """Past ``_CACHED_CELLS`` cells the level spans are derived per table
    batch and the cache is not consulted; the tables still equal the
    oracle's."""
    mesh, grid = Mesh(1.0, 13), GRIDS[2]
    assert mesh.n_cells == 2 * _CACHED_CELLS
    k_top, k_fine = default_levels(mesh)
    f = MeshFunction(mesh, np.random.default_rng(13).uniform(0, 1, mesh.n_cells))
    lookups = _kept_geometry.cache_info()[:2]  # hits, misses
    for k, (q0, ints) in enumerate(level_cube_integrals(f, grid, k_top, k_fine), k_top):
        want_q0, want_ints = oracle_level_cube_integrals(f, grid, k)
        assert q0 == want_q0 and ints.tobytes() == want_ints.tobytes()
    assert _kept_geometry.cache_info()[:2] == lookups


def test_sweep_geometry_is_read_only_and_kept_for_small_meshes_only():
    """Every array of the Fujii-Wilson sweep geometry and the cell-to-cube
    index of the maximal sweep is read-only, on a mesh that keeps it and on
    one past ``_CACHED_CELLS`` cells, which is derived per call without
    consulting the cache."""
    for mesh, kept in ((Mesh(3.0, 5), True), (Mesh(1.0, 13), False)):
        grid, (k_top, k_fine) = GRIDS[1], default_levels(mesh)
        levels = tuple(range(k_top, k_fine + 1))
        for part in ("sweep", "index"):
            lookups = _kept_geometry.cache_info()[:2]  # hits, misses
            getattr(_geometry(mesh, grid, levels), part)
            assert (_kept_geometry.cache_info()[:2] != lookups) == kept, part
        *arrays, blocks = _geometry(mesh, grid, levels).sweep
        assert blocks and all(g == grid for g, _, _ in blocks)
        index = _geometry(mesh, grid, levels).index
        assert index.shape == (k_fine - k_top + 1, mesh.n_cells)
        for a in arrays + [m for _, _, m in blocks] + [index]:
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = a[(0,) * a.ndim]


def test_christ_goldberg_builds_its_pairs_once_per_grid():
    """Two Christ-Goldberg calls on one mesh, with W and with the identity,
    lay out the (cube, cell) pairs once per grid; the pairs are read-only
    and run cell by cell, coarse to fine."""
    mesh = Mesh(1.0, 4)
    k_top, k_fine = default_levels(mesh)
    rng = np.random.default_rng(11)
    W = random_matrix_weight(mesh, 2, rng)
    f = MeshFunction(mesh, rng.uniform(-1, 1, (mesh.n_cells, 2)))
    _kept_geometry.cache_clear()
    christ_goldberg_maximal(W, 2.0, f)
    christ_goldberg_maximal(MatrixWeight(mesh, np.tile(np.eye(2), (mesh.n_cells, 1, 1))), 2.0, f)
    assert _kept_geometry.cache_info()[:2] == (len(GRIDS), len(GRIDS))  # hits, misses
    for grid in GRIDS:
        at, comp, spans = _geometry(mesh, grid, tuple(range(k_top, k_fine + 1))).pairs
        level = at // mesh.n_cells
        assert np.array_equal(comp, at % mesh.n_cells) and np.all(np.diff(comp) >= 0)
        assert np.all(np.diff(level)[np.diff(comp) == 0] > 0)
        for a in (at, comp, spans.ends, spans.i_lo, spans.w_lo, spans.w_hi):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]


def test_only_kept_reads_past_the_cache():
    # one size rule decides which geometry is kept (``grid._geometry``, which
    # picks the cache or the class): no code reaches past an lru_cache to the
    # function it wraps
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "weaklab"
    users = set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        defs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]  # outer before inner
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "__wrapped__") or (
                isinstance(node, ast.Constant) and node.value == "__wrapped__"
            ):
                inside = [d.name for d in defs if d.lineno <= node.lineno <= d.end_lineno]
                users.add(".".join([path.stem] + inside[-1:]))
    assert users == set()


def test_out_of_range_levels_raise_on_every_call():
    """A level whose integers pass 2^53 is never cached: the second call
    raises the first call's ``ValueError`` again."""
    mesh, grid = Mesh(1.0, 3), GRIDS[2]
    f = MeshFunction.indicator(mesh, -0.5, 0.25)
    calls = [
        lambda: _level_affine(mesh, grid, -60),
        lambda: _geometry(mesh, grid, (-60,)),
        lambda: level_cube_integrals(f, grid, -60, 0),
        lambda: cube_indices_per_cell(mesh, grid, -60, 0),
        lambda: cell_cube_integrals(MeshFunction(mesh, np.eye(mesh.n_cells)), grid, -60, 0),
    ]
    for call in calls:
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError, match="too coarse") as err:
                call()
            messages.append(str(err.value))
        assert messages[0] == messages[1]
    assert f._tables == f._windows == {}


@pytest.mark.parametrize("radii", [(1.0, 3.0), (0.75, 5.25)], ids=["1-3", "0.75-5.25"])
def test_meshes_with_equal_cell_counts_never_share_geometry(radii):
    """Meshes of one level have the same cells in number but not in width:
    each gets its own cube map and tables, both equal to the oracle's."""
    meshes = [Mesh(radius, 5) for radius in radii]
    values = np.random.default_rng(5).uniform(0, 1, meshes[0].n_cells)
    k0 = min(default_levels(mesh)[0] for mesh in meshes)
    k1 = max(default_levels(mesh)[1] for mesh in meshes)
    for grid in GRIDS:
        for k in range(k0, k1 + 1):
            affines = [_level_affine(mesh, grid, k) for mesh in meshes]
            assert affines == [oracle_level_affine(mesh, grid, k) for mesh in meshes]
            assert affines[0] != affines[1]
        for mesh in meshes:
            f = MeshFunction(mesh, values)
            for k, (q0, ints) in enumerate(level_cube_integrals(f, grid, k0, k1), k0):
                want_q0, want_ints = oracle_level_cube_integrals(f, grid, k)
                assert q0 == want_q0 and ints.tobytes() == want_ints.tobytes()


@pytest.mark.parametrize("radius", [2.0**20, 2.0**-10, 2.0**20 - 1, (2.0**20 - 1) / 1024])
def test_level_affine_int64_headroom(radius):
    """At the extreme meshes (level 20) every integer of the map stays below
    2^53 on every grid and every level from a cube about 2R wide to one
    about a cell wide, so int64 arrays and float conversions are exact."""
    mesh = Mesh(radius, 20)
    n = mesh.n_cells
    k_top = -math.ceil(math.log2(2 * mesh.radius))
    k_fine = math.floor(math.log2(1.0 / mesh.h))
    widest = 0
    for grid in GRIDS:
        for k in range(k_top, k_fine + 1):
            a0, step, den = _level_affine(mesh, grid, k)
            q0, q1 = a0 // den, -(-(a0 + n * step) // den) - 1
            # cube-edge numerators m den - a0 of the cubes meeting the domain
            edges = (q0 * den - a0, (q1 + 1) * den - a0)
            widest = max(widest, *(abs(v).bit_length() for v in (a0, step, den, a0 + n * step, *edges)))
    assert widest < 53


@pytest.mark.parametrize("grid", GRIDS)
def test_coarse_levels_raise_naming_the_coarsest_exact_level(grid):
    """Far below ``default_levels`` the map's integers pass 2^53: a
    ``ValueError`` names the coarsest level that keeps them below it."""
    mesh = Mesh(1.0, 3)
    f = MeshFunction.indicator(mesh, -0.5, 0.25)
    with pytest.raises(ValueError, match="too coarse") as err:
        level_cube_integrals(f, grid, -60, 0)
    coarsest = int(re.search(r"coarsest level .* is (-?\d+)$", str(err.value)).group(1))
    assert -52 <= coarsest <= -45  # den = 3 * 2^(3 - k) reaches 2^53 near k = -48
    tables = level_cube_integrals(f, grid, coarsest, 0)
    for k, (_, ints) in enumerate(tables, coarsest):
        a0, step, den = _level_affine(mesh, grid, k)
        assert abs(a0) + mesh.n_cells * step + den < 2**53
        assert math.fsum(ints) == f.integral()  # each level's cubes partition the line
    with pytest.raises(ValueError, match=f"coarsest level .* is {coarsest}$"):
        level_cube_integrals(f, grid, coarsest - 1, 0)
    with pytest.raises(ValueError, match=f"coarsest level .* is {coarsest}$"):
        build_sparse_family(f, grid=grid, roots=[grid.cube(-60, 0)])


def test_hl_maximal_far_below_default_levels_raises_value_error():
    f = MeshFunction.indicator(Mesh(1.0, 3), -0.5, 0.25)
    with pytest.raises(ValueError, match="too coarse"):
        hl_maximal(f, min_level=-60)


def test_fine_levels_raise_naming_the_finest_exact_level():
    mesh = Mesh(2.0**20, 20)
    with pytest.raises(ValueError, match=r"too fine .* finest level .* is \d+$"):
        _level_affine(mesh, GRIDS[1], 60)


def test_only_grid_imports_fractions():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "weaklab"
    importers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(name.split(".")[0] == "fractions" for name in names):
                importers.add(path.name)
    assert importers == {"grid.py"}


def test_sparse_reads_no_fraction_geometry():
    # the stopping-time walk keeps its cubes as integer arrays until the
    # report, and covering_roots keeps its position as an integer ratio: no
    # exact Cube.left/Cube.right and no Fraction of its own
    readers = _modules_naming("Fraction") | _modules_touching("left") | _modules_touching("right")
    assert "sparse.py" not in readers


def _src_trees() -> dict[str, ast.Module]:
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "weaklab"
    return {path.name: ast.parse(path.read_text()) for path in src.glob("*.py")}


def _modules_naming(name: str) -> set[str]:
    """The modules that name ``name``: a variable, an import, an attribute or
    a string (getattr/setattr)."""
    users = set()
    for module, tree in _src_trees().items():
        for node in ast.walk(tree):
            named = (
                (isinstance(node, ast.Name) and node.id == name)
                or (isinstance(node, ast.alias) and node.name == name)
                or (isinstance(node, ast.Attribute) and node.attr == name)
                or (isinstance(node, ast.Constant) and node.value == name)
            )
            if named:
                users.add(module)
    return users


def test_only_weights_report_builds_characteristic_reports():
    # every supremum is reported by one rule, weights._report: the first
    # maximum in candidate order, and a named non-finite candidate
    def builds(node):
        callee = getattr(node, "func", None)
        return getattr(callee, "id", getattr(callee, "attr", None)) == "CharacteristicReport"

    trees = _src_trees()
    calls = {module: [n for n in ast.walk(tree) if builds(n)] for module, tree in trees.items()}
    report = next(n for n in ast.walk(trees["weights.py"]) if isinstance(n, ast.FunctionDef) and n.name == "_report")
    assert {module for module, nodes in calls.items() if nodes} == {"weights.py"}
    assert calls["weights.py"] == [n for n in ast.walk(report) if builds(n)] and len(calls["weights.py"]) == 1


def test_only_the_fold_orders_power_log_intervals():
    # a closed-form weight's integrals and infima read one fold of [lo, hi]
    # onto |x| (weights._Folded); another caller of _ordered is another fold
    def calls_ordered(fn):
        return any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_ordered" for n in ast.walk(fn))

    tree = _src_trees()["weights.py"]
    callers = {
        f"{top.name}.{fn.name}" if fn is not top else fn.name
        for top in tree.body
        if isinstance(top, (ast.ClassDef, ast.FunctionDef))
        for fn in (top.body if isinstance(top, ast.ClassDef) else [top])
        if isinstance(fn, ast.FunctionDef) and calls_ordered(fn)
    }
    assert callers == {"_Folded.__init__"} and _modules_naming("_ordered") == {"weights.py"}


def test_exported_functions_keep_their_defaulted_parameters():
    # an option stays only while a caller sets it: a defaulted parameter added
    # to (or retired from) a function weaklab exports shows up here by name
    defaulted = sorted(
        f"{name}({param.name})"
        for name, obj in vars(weaklab).items()
        if inspect.isfunction(obj) and not name.startswith("_")
        for param in inspect.signature(obj).parameters.values()
        if param.default is not inspect.Parameter.empty
    )
    assert len(defaulted) == 39, "\n".join(defaulted)


def test_only_field_power_picks_a_power_of_w_from_alpha():
    # matrix operators of order alpha read W^s with s = matrix._field_power(p,
    # alpha) and the weak-type exponent grid._weak_exponent(p, alpha): no other
    # conditional in matrix.py branches on alpha to pick a power or exponent
    path = pathlib.Path(__file__).resolve().parents[1] / "src" / "weaklab" / "matrix.py"
    tree = ast.parse(path.read_text())
    rules = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_field_power"]
    allowed = {id(n) for fn in rules for n in ast.walk(fn)}
    branches = [
        ast.unparse(node.test)
        for node in ast.walk(tree)
        if isinstance(node, (ast.IfExp, ast.If)) and id(node) not in allowed
        and any(isinstance(n, ast.Name) and n.id == "alpha" for n in ast.walk(node.test))
    ]
    assert (len(rules), branches) == (1, [])


def test_only_grid_names_level_affine():
    # other modules ask grid.cube_span or grid.inside_cubes
    assert _modules_naming("_level_affine") == {"grid.py"}


def test_only_grid_calls_mesh_position():
    # the Fraction position of a caller's point; elsewhere a float comparison
    # with the domain edges is exact
    assert _modules_naming("_position") == {"grid.py"}


def test_only_grid_reads_shift_index():
    # the sign rule (-1)^k j lives in DyadicGrid.numerator; matrix caches key
    # on the hashable Cube itself
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "weaklab"
    readers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "shift_index":
                readers.add(path.name)
    assert readers == {"grid.py"}


def _modules_touching(attr: str) -> set[str]:
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "weaklab"
    users = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == attr:
                users.add(path.name)
            elif isinstance(node, ast.Constant) and node.value == attr:  # getattr/setattr
                users.add(path.name)
    return users


def test_only_grid_touches_cube_tables():
    # the one table per grid kept on a MeshFunction, and its level window,
    # are read and filled only by grid._cube_table; every other module asks
    # grid for them
    # and so is the run layout the span kernel reads (``_runs``)
    assert _modules_touching("_tables") == _modules_touching("_windows") == _modules_touching("_runs") == {"grid.py"}


def test_caches_live_in_grid_on_frozen_keys():
    # caches never return a result computed for different parameters: only
    # grid.py caches, with a fixed size and typed keys, and only functions
    # whose parameters are all frozen values (a mesh, a grid, ints)
    frozen = {"Mesh", "DyadicGrid", "int", "tuple[int, ...]"}
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "weaklab"
    users, cached = set(), {}
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache"):
                users.add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                users.update(path.name for a in node.names if a.name in ("lru_cache", "cache"))
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    if "lru_cache" in ast.unparse(dec):
                        cached[node.name] = (dec, node.args)
    assert users == {"grid.py"}
    assert set(cached) == {"_level_affine", "_kept_geometry"}
    for name, (dec, args) in cached.items():
        assert isinstance(dec, ast.Call) and not dec.args, name
        options = {kw.arg: kw.value for kw in dec.keywords}
        assert set(options) == {"maxsize", "typed"}, name
        assert isinstance(options["maxsize"], ast.Constant) and type(options["maxsize"].value) is int, name
        assert isinstance(options["typed"], ast.Constant) and options["typed"].value is True, name
        params = args.posonlyargs + args.args + args.kwonlyargs
        assert args.vararg is None and args.kwarg is None and params, name
        assert all(p.annotation is not None and ast.unparse(p.annotation) in frozen for p in params), name


def test_only_matrix_touches_matrix_weight_caches():
    # a MatrixWeight's cached powers and reducing matrices are filled only by
    # MatrixWeight.power and matrix._cached_reduce
    assert _modules_touching("_powers") == _modules_touching("_reducing") == {"matrix.py"}


def test_sparse_families_are_built_in_two_places():
    # multiplier_apply builds the family on the g = f w^(-1/p) it applies it
    # to, and sparse-check on its own f; a second site would fit a family to
    # another discretization of the function the operator acts on
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "weaklab"
    callers = set()
    for path in src.glob("*.py"):
        tree = ast.parse(path.read_text())
        defs = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]  # outer before inner
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and "build_sparse_family" in (
                getattr(call.func, "id", None), getattr(call.func, "attr", None)
            ):
                inside = [d.name for d in defs if d.lineno <= call.lineno <= d.end_lineno]
                callers.add(".".join([path.stem] + inside[-1:]))
    assert callers == {"operators.multiplier_apply", "cli.cmd_sparse_check"}


def test_no_module_imports_scipy_integrate():
    # no module imports scipy at all.  Power-log integrals are closed forms and
    # a fixed Gauss-Legendre rule; the quadrature Hilbert transform is the test
    # oracle tests/hilbert_oracle.py.  Roots are closed forms or a vector Newton
    # solve: brentq survives only as the test oracle tests/lowerbound_oracle.py.
    # Ellipsoid fits solve their Newton systems with numpy: the dense LU solve
    # is tests/mvee_oracle.py.  The incomplete gamma function and Lambert W are
    # weaklab._special, checked against mpmath in test_weights/test_lowerbound
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "weaklab"
    importers = {}
    for path in src.glob("*.py"):
        imported = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported += [f"{node.module}.{a.name}" for a in node.names] + [node.module or ""]
        found = [name for name in imported if name == "scipy" or name.startswith("scipy.")]
        if found:
            importers[path.name] = found
    assert importers == {}


@pytest.mark.parametrize("module", ["weaklab", "weaklab.cli"])
def test_import_loads_no_scipy(module):
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_only_grid_writes_the_cube_label_format():
    # every report names a cube through Cube.label; tests/search_oracle.py
    # keeps its own literal because it is the independent oracle
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "weaklab"
    writers = []
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.JoinedStr):
                text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = node.value
            else:
                continue
            if re.search(r"grid.*:k=.*,m=", text):
                writers.append(path.name)
    assert writers == ["grid.py"]
