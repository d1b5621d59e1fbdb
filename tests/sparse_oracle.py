"""Reference stopping-time walks: the per-cube recursion over ``Cube``
objects that ``weaklab.sparse`` used before its per-level cube tables.

Every average and cell set here comes from the ``Fraction`` geometry of
``geometry_oracle`` on a freshly built cube, and off-domain cubes are
recognised by ``Cube.intersects``.  The differential tests in
``test_sparse_oracle.py`` require the table-driven walks to agree with
these byte for byte.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from geometry_oracle import edge_fraction, mesh_left, mesh_right, oracle_average, oracle_cells_inside
from weaklab.grid import Cube, DyadicGrid, MeshFunction
from weaklab.sparse import CZDecomposition, SparseFamily, covering_roots, root_cubes


def oracle_sparse_family(
    f: MeshFunction,
    grid: DyadicGrid | None = None,
    roots: Sequence[Cube] | None = None,
    threshold: float = 4.0,
    min_width_cells: int | None = None,
) -> SparseFamily:
    mesh = f.mesh
    grid = grid or DyadicGrid()
    if roots is None:
        if grid.is_standard():
            roots = root_cubes(mesh, grid)
        else:
            support = np.nonzero(f.values)[0]
            if len(support):
                span = (edge_fraction(mesh, int(support[0])), edge_fraction(mesh, int(support[-1]) + 1))
            else:
                span = (-mesh.radius / 2, mesh.radius / 2)
            roots = covering_roots(mesh, grid, span)
    if min_width_cells is None:
        min_width_cells = 1 if grid.is_standard() else 32
    max_level = math.floor(math.log2(1.0 / (min_width_cells * mesh.h)))

    cubes: list[Cube] = []
    designated: list[np.ndarray] = []

    def descend(cube: Cube, base_avg: float) -> list[Cube]:
        found: list[Cube] = []
        stack = list(cube.children())
        while stack:
            c = stack.pop()
            if c.level > max_level:
                continue
            if not c.intersects(mesh_left(mesh), mesh_right(mesh)):
                continue
            avg_c = oracle_average(f, c)
            if avg_c > 0 and avg_c >= threshold * base_avg:
                found.append(c)
            else:
                stack.extend(c.children())
        return found

    for root in roots:
        queue = [root]
        while queue:
            cube = queue.pop()
            avg = oracle_average(f, cube)
            if avg == 0.0 and cube is not root:
                continue
            stopping = descend(cube, avg) if avg > 0 else []
            inside = oracle_cells_inside(mesh, cube)
            if len(stopping) > 0:
                excluded = np.concatenate([oracle_cells_inside(mesh, c) for c in stopping])
                e_cells = np.setdiff1d(inside, excluded)
            else:
                e_cells = inside
            cubes.append(cube)
            designated.append(e_cells)
            queue.extend(stopping)
    return SparseFamily(mesh=mesh, grid=grid, cubes=cubes, designated=designated)


def oracle_cz_decompose(
    h: MeshFunction,
    height: float,
    roots: Sequence[Cube] | None = None,
) -> CZDecomposition:
    mesh = h.mesh
    grid = DyadicGrid()
    if roots is None:
        roots = root_cubes(mesh, grid)
    k_cell = mesh.aligned_cell_level()

    stopping: list[Cube] = []
    stack = [r for r in roots if r.intersects(mesh_left(mesh), mesh_right(mesh))]
    while stack:
        cube = stack.pop()
        if oracle_average(h, cube) > height:
            stopping.append(cube)
        elif cube.level < k_cell:
            stack.extend(cube.children())

    good = h.values.copy()
    omega = []
    for cube in stopping:
        cells = oracle_cells_inside(mesh, cube)
        good[cells] = oracle_average(h, cube)
        omega.append(cells)
    omega_cells = np.sort(np.concatenate(omega)) if omega else np.arange(0)
    return CZDecomposition(
        height=height,
        cubes=stopping,
        good=MeshFunction(mesh, good),
        bad=MeshFunction(mesh, h.values - good),
        omega_cells=omega_cells,
        grid=grid,
    )
