"""The integer cube-to-cell map (``grid.cube_span``) against the ``Fraction``
geometry it replaced (``geometry_oracle``), byte for byte; the all-level
tables against the one-level builders they replaced; its int64 headroom at
the extreme meshes; and the rules that only ``grid.py`` imports
``fractions`` and writes the cube-label format.
"""

import ast
import math
import pathlib
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geometry_oracle import (
    mesh_h,
    mesh_left,
    oracle_average,
    oracle_cells_inside,
    oracle_cells_of,
    oracle_covering_roots,
    oracle_cube_indices_per_cell,
    oracle_integral,
    oracle_level_affine,
    oracle_level_cube_integrals,
    oracle_sparse_apply,
)
from weaklab.grid import (
    DyadicGrid,
    Mesh,
    MeshFunction,
    _level_affine,
    average,
    cells_inside,
    cube_indices_per_cell,
    cube_span,
    default_levels,
    level_cube_integrals,
    shifted_grids,
)
from weaklab.matrix import MatrixWeight
from weaklab.sparse import SparseFamily, covering_roots, sparse_apply

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


def test_weights_does_not_import_scipy_integrate():
    # power-log integrals are closed forms and a fixed Gauss-Legendre rule
    path = pathlib.Path(__file__).resolve().parents[1] / "src" / "weaklab" / "weights.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module}.{a.name}" for a in node.names] + [node.module or ""]
    assert not [name for name in imported if name.startswith("scipy.integrate")]


def test_weights_and_lower_bound_run_without_quad(monkeypatch):
    from scipy import integrate

    from weaklab import PowerLogWeight, ap_characteristic
    from weaklab.lowerbound import lower_bound_experiment

    def no_quad(*args, **kwargs):
        raise AssertionError("scipy.integrate.quad called")

    monkeypatch.setattr(integrate, "quad", no_quad)
    assert lower_bound_experiment(0.1).quotient > 0
    assert ap_characteristic(PowerLogWeight(-0.3, 0.7), 2.0).value > 1


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
