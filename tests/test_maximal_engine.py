"""The matrix consumers on the level tables against the loops they replaced
(``geometry_oracle``): the Christ-Goldberg maximal function cube by cube
and against the all-components sweep, the scalar ``A_inf`` characteristic
direction by direction, and the reducing-matrix sparse operator average by
average; the component-wise level tables and per-cell pair integrals they
read; and the level windows and exponents the shared sweep accepts.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weaklab.operators
from geometry_oracle import (
    all_components_christ_goldberg_maximal,
    oracle_ainfty_scalar_characteristic,
    oracle_cell_cube_integrals,
    oracle_christ_goldberg_maximal,
    oracle_dominating_scalar_sparse,
    oracle_span_integrals,
)
from weaklab.grid import (
    DyadicGrid,
    Mesh,
    MeshFunction,
    _Spans,
    _span_integrals,
    average,
    cell_cube_integrals,
    cube_indices_per_cell,
    default_levels,
    level_cube_integrals,
    shifted_grids,
)
from weaklab.operators import dyadic_maximal, fractional_maximal, hl_maximal
from weaklab.sparse import build_sparse_family
from weaklab.matrix import (
    MatrixWeight,
    _image_norms,
    ainfty_scalar_characteristic,
    christ_goldberg_maximal,
    dominating_scalar_sparse,
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
def test_christ_goldberg_is_byte_identical_to_all_components_sweep(radius, level, d, alpha, p, seed, data):
    """Integrating only the (cube, cell) pairs read sums the same cells in
    the same order as integrating every component over every cube."""
    mesh = Mesh(radius, level)
    rng = np.random.default_rng(seed)
    W = random_matrix_weight(mesh, d, rng)
    f = MeshFunction(mesh, block_zeroed(rng, mesh.n_cells, d))
    grids = data.draw(st.sampled_from([None, [DyadicGrid(0)], [DyadicGrid(1), DyadicGrid(2)]]))
    k_top, k_fine = default_levels(mesh)
    min_level = data.draw(st.sampled_from([None, k_top + 1, k_fine - 1]))
    max_level = data.draw(st.sampled_from([None, k_fine - 1, k_fine + 1]))
    got = christ_goldberg_maximal(W, p, f, grids, min_level, max_level, alpha).values
    want = all_components_christ_goldberg_maximal(W, p, f, grids, min_level, max_level, alpha)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", range(1, 10))
def test_image_norms_are_the_norms_of_the_whole_einsum(d):
    """One image coordinate at a time gives the floats of ``norm`` over the
    (y, x, d) ``einsum``, in both layouts the matrix path reads, on either
    side of the eight terms where ``norm`` starts adding pairwise."""
    rng = np.random.default_rng(d)
    A = rng.normal(size=(37, d, d)) * rng.lognormal(0.0, 3.0, (37, 1, 1))
    g = rng.normal(size=(23, d)) * rng.lognormal(0.0, 3.0, (23, 1))
    got = _image_norms(A, g)
    assert got.tobytes() == np.linalg.norm(np.einsum("xij,yj->yxi", A, g), axis=2).tobytes()
    assert np.ascontiguousarray(got.T).tobytes() == np.linalg.norm(np.einsum("xij,nj->xni", A, g), axis=2).tobytes()


def _gather(tables, q, contained, column=False):
    """Entry [j, x]: the level-j table's entry for cube q[j, x] (its column x
    if ``column``), 0 where cell x is not contained."""
    out = np.zeros(q.shape)
    for j, (q0, ints) in enumerate(tables):
        for x in np.flatnonzero(contained[j]):
            out[j, x] = ints[q[j, x] - q0, x] if column else ints[q[j, x] - q0]
    return out


@settings(max_examples=40, deadline=None)
@given(
    radius=st.sampled_from([0.5, 0.75, 1.0, 3.0, 5.25]),
    level=st.integers(1, 6),
    shift=st.sampled_from([0, 1, 2]),
    dk=st.integers(-2, 1),
    vector=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_cell_cube_integrals_gather_the_level_tables(radius, level, shift, dk, vector, seed):
    """A scalar f reads its cube's table entry; a vector f reads column x of
    it, bit for bit; both are 0 where no cube of the level holds the cell."""
    mesh = Mesh(radius, level)
    rng = np.random.default_rng(seed)
    shape = (mesh.n_cells, mesh.n_cells) if vector else (mesh.n_cells,)
    support = rng.uniform(size=mesh.n_cells) < 0.6  # zero cells, and zero entries in some components
    values = rng.uniform(0.5, 2.0, shape) * (rng.uniform(size=shape) < 0.8)
    f = MeshFunction(mesh, values * (support[:, None] if vector else support))
    grid = DyadicGrid(shift)
    k_top, k_fine = default_levels(mesh)
    k0, k1 = k_top, k_fine + dk
    q, contained = cube_indices_per_cell(mesh, grid, k0, k1)
    want = _gather(level_cube_integrals(f, grid, k0, k1), q, contained, column=vector)
    got = cell_cube_integrals(f, grid, k0, k1)
    assert got.shape == (k1 - k0 + 1, mesh.n_cells)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    level=st.integers(1, 5),
    r=st.integers(1, 4),
    den=st.sampled_from([1, 3, 7, 48]),
    seed=st.integers(0, 2**32 - 1),
)
def test_span_integrals_of_one_component_equal_its_column(level, r, den, seed):
    """Arbitrary spans, straddling cells or inside one, each reading one
    component: the floats of that column of the all-components call, which
    are those of the one-pass oracle.  Blocks of one height make spans whose
    whole cells sum to ``count * v``."""
    mesh = Mesh(1.0, level)
    rng = np.random.default_rng(seed)
    block = 2 ** int(rng.integers(0, level + 1))
    heights = rng.choice([0.0, 0.1, 1 / 3], (mesh.n_cells // block, r))
    f = MeshFunction(mesh, np.repeat(heights, block, axis=0))
    ends = np.sort(rng.integers(0, mesh.n_cells * den + 1, (50, 2)), axis=1)
    comp = rng.integers(0, r, 50)
    spans = _Spans(ends[:, 0], ends[:, 1], den)
    every = _span_integrals(f, spans)
    assert every.tobytes() == oracle_span_integrals(f, ends[:, 0], ends[:, 1], den).tobytes()
    got = _span_integrals(f, spans, comp=comp)
    assert got.tobytes() == every[np.arange(50), comp].tobytes()


def _windows(mesh: Mesh) -> dict[str, tuple[int, int]]:
    k_top, k_fine = default_levels(mesh)
    return {
        "full": (k_top, k_fine),
        "inner": (k_top + 1, k_fine - 1),
        "finest": (k_fine, k_fine),
        "past-coarsest": (k_top - 2, k_fine),
        "reversed": (k_fine, k_fine - 1),
    }


@pytest.mark.parametrize("level", range(13))
@pytest.mark.parametrize("radius", [0.75, 1.0, 4.0, 5.25])
def test_cell_cube_integrals_match_the_scatter_oracle(radius, level):
    """Read through the kept cell-to-cube index, every window of every grid
    gives the bytes of the per-call repeat/scatter pairs: a scalar f on
    every mesh, and a vector f (one component per cell, whole blocks of
    cells and of components zero) on meshes of at most 256 cells."""
    mesh = Mesh(radius, level)
    rng = np.random.default_rng(level)
    f = MeshFunction(mesh, rng.uniform(0, 1, mesh.n_cells) * (rng.uniform(size=mesh.n_cells) < 0.6))
    functions = [f]
    if mesh.n_cells <= 256:
        values = block_zeroed(rng, mesh.n_cells, mesh.n_cells)  # blocks of cells zero
        values[:, block_zeroed(rng, mesh.n_cells, 1)[:, 0] == 0] = 0.0  # and blocks of components
        functions.append(MeshFunction(mesh, values))
    for g in functions:
        for grid in shifted_grids(1):
            for name, (k0, k1) in _windows(mesh).items():
                got = cell_cube_integrals(g, grid, k0, k1)
                want = oracle_cell_cube_integrals(g, grid, k0, k1)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (name, g.is_vector)


@pytest.mark.parametrize("level", [0, 2, 5, 7, 10])
@pytest.mark.parametrize("radius", [0.75, 1.0, 4.0, 5.25])
def test_maximal_operators_match_the_scatter_oracle(monkeypatch, radius, level):
    """The four maximal operators on the kept index give the bytes they gave
    on the repeat/scatter pairs (Christ-Goldberg on meshes of at most 256
    cells)."""
    mesh = Mesh(radius, level)
    rng = np.random.default_rng(level)
    f = MeshFunction(mesh, (np.abs(mesh.centers()) + 1e-3) ** -0.3 * rng.uniform(0, 1, mesh.n_cells))
    k_top, k_fine = default_levels(mesh)
    calls = {
        "hl_maximal": lambda: hl_maximal(f),
        "hl_maximal-inner": lambda: hl_maximal(f, k_top + 1, k_fine),
        "dyadic_maximal": lambda: dyadic_maximal(f, k_top - 2, k_fine),
        "dyadic_maximal-alpha": lambda: dyadic_maximal(f, alpha=0.3),
        "fractional_maximal": lambda: fractional_maximal(f, 0.5),
    }
    if mesh.n_cells <= 256:
        W = random_matrix_weight(mesh, 2, rng)
        fv = MeshFunction(mesh, block_zeroed(rng, mesh.n_cells, 2))
        calls["christ_goldberg_maximal"] = lambda: christ_goldberg_maximal(W, 2.0, fv)
        calls["christ_goldberg_maximal-alpha"] = lambda: christ_goldberg_maximal(W, 3.0, fv, alpha=0.25)
    got = {name: call().values.tobytes() for name, call in calls.items()}
    monkeypatch.setattr(weaklab.operators, "cell_cube_integrals", oracle_cell_cube_integrals)
    for name, call in calls.items():
        assert got[name] == call().values.tobytes(), name


def _spy_windows(monkeypatch) -> list[tuple[int, int]]:
    windows = []
    real = weaklab.operators.cell_cube_integrals

    def spy(f, grid, k0, k1):
        windows.append((k0, k1))
        return real(f, grid, k0, k1)

    monkeypatch.setattr(weaklab.operators, "cell_cube_integrals", spy)
    return windows


@pytest.mark.parametrize("max_level", [20, 40])
def test_the_sweep_stops_at_the_cell_level(monkeypatch, max_level):
    """A level past the cell level has cubes narrower than a cell: clipping
    the window there leaves the output as it was, and no finer table is asked for."""
    mesh = Mesh(1.0, 3)
    k_top, k_fine = default_levels(mesh)
    rng = np.random.default_rng(3)
    W = random_matrix_weight(mesh, 2, rng)
    f = MeshFunction(mesh, rng.uniform(-1, 1, (mesh.n_cells, 2)))
    want_cg = christ_goldberg_maximal(W, 2.0, f).values
    want_hl = hl_maximal(f).values
    windows = _spy_windows(monkeypatch)
    assert christ_goldberg_maximal(W, 2.0, f, max_level=max_level).values.tobytes() == want_cg.tobytes()
    assert hl_maximal(f, max_level=max_level).values.tobytes() == want_hl.tobytes()
    assert windows == [(k_top, k_fine)] * 6


def test_a_window_past_the_cell_level_is_zero():
    """Clipped at the cell level, the window is empty: no table is built."""
    mesh = Mesh(1.0, 3)
    _, k_fine = default_levels(mesh)
    f = MeshFunction(mesh, np.ones((mesh.n_cells, 2)))
    W = random_matrix_weight(mesh, 2, np.random.default_rng(0))
    assert not dyadic_maximal(f, min_level=k_fine + 1, max_level=k_fine + 3).values.any()
    assert not christ_goldberg_maximal(W, 2.0, f, min_level=k_fine + 1, max_level=k_fine + 3).values.any()


def _maximal_calls(mesh: Mesh):
    rng = np.random.default_rng(0)
    W = random_matrix_weight(mesh, 2, rng)
    f = MeshFunction(mesh, rng.uniform(-1, 1, (mesh.n_cells, 2)))
    return {
        "christ_goldberg_maximal": lambda **kw: christ_goldberg_maximal(W, 2.0, f, **kw),
        "hl_maximal": lambda **kw: hl_maximal(f, **kw),
        "dyadic_maximal": lambda **kw: dyadic_maximal(f, **kw),
    }


@pytest.mark.parametrize("operator", ["christ_goldberg_maximal", "hl_maximal", "dyadic_maximal"])
def test_an_empty_level_window_raises(operator):
    call = _maximal_calls(Mesh(1.0, 3))[operator]
    with pytest.raises(ValueError, match="empty level window"):
        call(min_level=5, max_level=2)
    with pytest.raises(ValueError, match="empty level window"):
        call(min_level=5)  # past the default max_level, the cell level 3
    assert call(min_level=2, max_level=2).values.shape == (16,)


@pytest.mark.parametrize("p", [0.0, -1.0, 0.5, math.inf, math.nan])
def test_christ_goldberg_rejects_an_exponent_below_one(p):
    mesh = Mesh(1.0, 3)
    W = random_matrix_weight(mesh, 2, np.random.default_rng(0))
    with pytest.raises(ValueError, match="exponent"):
        christ_goldberg_maximal(W, p, MeshFunction(mesh, np.ones((mesh.n_cells, 2))))
    with pytest.raises(ValueError, match="exponent"):  # before the shape of f is looked at
        christ_goldberg_maximal(W, p, MeshFunction(mesh, np.ones(mesh.n_cells)))


def _peak_bytes_per_cell(operator, level: int) -> float:
    """tracemalloc peak of live bytes per cell over one call on a fresh
    function, after a first call has filled the kept geometry."""
    mesh = Mesh(1.0, level)
    values = (np.abs(mesh.centers()) + 1e-3) ** -0.3 * np.random.default_rng(level).uniform(0.5, 1.0, mesh.n_cells)
    operator(MeshFunction(mesh, values))
    f = MeshFunction(mesh, values)
    tracemalloc.start()
    try:
        operator(f)
        return tracemalloc.get_traced_memory()[1] / mesh.n_cells
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("operator", [dyadic_maximal, hl_maximal])
def test_peak_bytes_per_cell_stay_within_twice_from_level_10_to_14(operator):
    """The per-cell cost grows with the level count only (12 levels at
    L = 10, 16 at L = 14; about 330-370 against 460-490 bytes a cell):
    a cost that grew with the cell count would read 16 times higher."""
    assert _peak_bytes_per_cell(operator, 14) <= 2.0 * _peak_bytes_per_cell(operator, 10)


def test_christ_goldberg_names_its_cell_limit(monkeypatch):
    """Past 4,096 cells (level 11 on radius 1) the n x n integrand is
    refused before a matrix power is taken for it: at 8,192 cells it alone
    would take 512 MiB."""

    def formed(*_):
        raise AssertionError("the integrand is being formed")

    for mesh in (Mesh(1.0, 12), Mesh(0.75, 12)):
        W = MatrixWeight(mesh, np.tile(np.eye(2), (mesh.n_cells, 1, 1)))
        f = MeshFunction(mesh, np.ones((mesh.n_cells, 2)))
        with monkeypatch.context() as patch:
            patch.setattr(MatrixWeight, "power", formed)
            for alpha in (0.0, 0.5):
                with pytest.raises(ValueError, match="use meshes of <= 4096 cells"):
                    christ_goldberg_maximal(W, 2.0, f, alpha=alpha)


@pytest.mark.parametrize("alpha", [-0.25, 1.0, 1.5])
def test_christ_goldberg_names_the_fractional_range_as_the_scalar_operators_do(alpha):
    mesh = Mesh(1.0, 3)
    W = MatrixWeight(mesh, np.tile(np.eye(2), (mesh.n_cells, 1, 1)))
    with pytest.raises(ValueError, match=rf"0 < alpha < n = 1, got {alpha}"):
        christ_goldberg_maximal(W, 2.0, MeshFunction(mesh, np.ones((mesh.n_cells, 2))), alpha=alpha)


def test_christ_goldberg_accepts_an_exponent_of_one():
    mesh = Mesh(1.0, 3)
    W = MatrixWeight(mesh, np.tile(np.eye(2), (mesh.n_cells, 1, 1)))
    f = MeshFunction(mesh, np.random.default_rng(1).uniform(-1, 1, (mesh.n_cells, 2)))
    assert christ_goldberg_maximal(W, 1.0, f).values.tobytes() == hl_maximal(f).values.tobytes()


@pytest.mark.parametrize(
    "radius, level, d, powers",
    [
        (1.0, 5, 2, {}),
        (0.75, 5, 3, {}),
        (3.0, 4, 2, {"alpha": 0.5 - 1 / 3}),  # q = 3.0 exactly at p = 2
        (5.25, 4, 3, {"alpha": 0.5 - 1 / 3}),
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


@pytest.mark.parametrize("p, alpha", [(2.0, 0.0), (3.0, 0.0), (2.0, 0.25)])
def test_dominating_sparse_matches_per_cube_average(p, alpha):
    """One table over the family's levels against one ``grid.average`` call
    per cube: the same spans summed alike, so the same floats."""
    mesh = Mesh(1.0, 6)
    deepest = set()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        W = random_matrix_weight(mesh, 2, rng)
        block = 2 ** (seed % 4)  # blocks of 1-8 cells: families stop at different depths
        n_blocks = mesh.n_cells // block
        heights = np.abs(block_zeroed(rng, n_blocks, 1)[:, 0]) * 10.0 ** rng.integers(-2, 3, n_blocks)
        f = MeshFunction(mesh, np.repeat(heights, block))
        family = build_sparse_family(f)
        deepest.add(max(c.level for c in family.cubes))
        got = dominating_scalar_sparse(W, p, family, f, alpha=alpha).values
        assert got.tobytes() == oracle_dominating_scalar_sparse(W, p, family, f, alpha=alpha).tobytes()
    assert len(deepest) > 1  # families stopping at different depths


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
    [(q0, ints)] = level_cube_integrals(f, grid, k, k)
    assert ints.shape[1] == r
    for c in range(r):
        [(q0_c, ints_c)] = level_cube_integrals(MeshFunction(mesh, f.values[:, c]), grid, k, k)
        assert q0_c == q0 and ints[:, c].tobytes() == ints_c.tobytes()


def test_vector_level_tables_with_different_zero_patterns_stay_accurate():
    mesh = Mesh(1.0, 6)
    rng = np.random.default_rng(5)
    values = rng.uniform(0, 1, (mesh.n_cells, 3)) * (rng.uniform(size=(mesh.n_cells, 3)) < 0.5)
    f = MeshFunction(mesh, values)
    for grid in shifted_grids(1):
        tables = level_cube_integrals(f, grid, *default_levels(mesh))
        for c in range(3):
            tables_c = level_cube_integrals(MeshFunction(mesh, values[:, c]), grid, *default_levels(mesh))
            for (_, ints), (_, ints_c) in zip(tables, tables_c, strict=True):
                assert np.allclose(ints[:, c], ints_c, rtol=4 * mesh.n_cells * 2.0**-53, atol=0.0)


def test_vector_functions_have_no_scalar_integral():
    f = MeshFunction(Mesh(1.0, 3), np.ones((16, 2)))
    with pytest.raises(TypeError):
        f.integral(0.0, 0.5)
    with pytest.raises(TypeError):
        average(f, DyadicGrid().cube(0, 0))
