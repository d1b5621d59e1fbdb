"""Reference stopping-time walks: the per-cube recursion over ``Cube``
objects that ``weaklab.sparse`` used before its per-level cube tables.

Every average here comes from ``grid.average`` on a freshly built cube, and
off-domain cubes are recognised by ``Cube.intersects``.  The differential
tests in ``test_sparse_oracle.py`` require the table-driven walks to agree
with these byte for byte.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from weaklab.grid import Cube, DyadicGrid, MeshFunction, average
from weaklab.sparse import (
    CZDecomposition,
    SparseFamily,
    _cells_inside,
    covering_roots,
    root_cubes,
)


def oracle_sparse_family(
    f: MeshFunction,
    grid: DyadicGrid | None = None,
    roots: Sequence[Cube] | None = None,
    threshold: float | None = None,
    min_width_cells: int | None = None,
) -> SparseFamily:
    mesh = f.mesh
    grid = grid or DyadicGrid()
    if threshold is None:
        threshold = 2.0 ** (grid.dimension + 1)
    if roots is None:
        if grid.is_standard():
            roots = root_cubes(mesh, grid)
        else:
            support = np.nonzero(f.values)[0]
            if len(support):
                span = (mesh.edge_fraction(int(support[0])), mesh.edge_fraction(int(support[-1]) + 1))
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
            if not c.intersects(mesh.left_frac, mesh.right_frac):
                continue
            avg_c = average(f, c)
            if avg_c > 0 and avg_c >= threshold * base_avg:
                found.append(c)
            else:
                stack.extend(c.children())
        return found

    for root in roots:
        queue = [root]
        while queue:
            cube = queue.pop()
            avg = average(f, cube)
            if avg == 0.0 and cube is not root:
                continue
            stopping = descend(cube, avg) if avg > 0 else []
            inside = _cells_inside(mesh, cube)
            if len(stopping) > 0:
                excluded = np.concatenate([_cells_inside(mesh, c) for c in stopping])
                e_cells = np.setdiff1d(inside, excluded)
            else:
                e_cells = inside
            cubes.append(cube)
            designated.append(e_cells)
            queue.extend(stopping)
    return SparseFamily(mesh=mesh, grid=grid, cubes=cubes, designated=designated)


def oracle_apply(family: SparseFamily, f: MeshFunction, alpha: float = 0.0) -> np.ndarray:
    centers = family.mesh.centers()
    out = np.zeros(family.mesh.n_cells)
    for cube in family.cubes:
        avg = average(f, cube)
        sel = (centers >= float(cube.left)) & (centers < float(cube.right))
        out[sel] += cube.width**alpha * avg
    return out


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
    stack = [r for r in roots if r.intersects(mesh.left_frac, mesh.right_frac)]
    while stack:
        cube = stack.pop()
        if average(h, cube) > height:
            stopping.append(cube)
        elif cube.level < k_cell:
            stack.extend(cube.children())

    good = h.values.copy()
    omega = []
    for cube in stopping:
        cells = _cells_inside(mesh, cube)
        good[cells] = average(h, cube)
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
