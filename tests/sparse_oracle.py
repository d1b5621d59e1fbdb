"""Reference stopping-time walks for the level-synchronous walk of
``weaklab.sparse``.

``oracle_sparse_family`` and ``oracle_cz_decompose`` are the per-cube
recursion over ``Cube`` objects: every average and cell set comes from the
``Fraction`` geometry of ``geometry_oracle`` on a freshly built cube, and
off-domain cubes are recognised by ``geometry_oracle.intersects``.

``table_sparse_family``, ``table_cz_decompose`` and
``table_verify_sparseness`` are the per-cube stacks over integer ``(k, m)``
pairs that ``weaklab.sparse`` ran before the level-synchronous walk: they
read the same ``level_cube_integrals`` tables, so they are fast enough for
wider differential tests, and the set-based verify loop fixes the message
list.  They read averages through ``_cube_averages``, the per-cube closure
over those tables that ``weaklab.sparse`` once shared with ``matrix``.  The
tests in ``test_sparse_oracle.py`` require the walk to agree with all of
them byte for byte.

``oracle_covering_roots`` is ``covering_roots`` as it stood before it kept
its position as an integer ratio: ``Fraction`` positions on ``Cube.right``.
``level_scan_covering_roots`` is the integer version before it bisected the
levels: it asks every level from the coarsest for an inside cube.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from geometry_oracle import (
    cells_inside,
    child_left_index,
    children,
    edge_fraction,
    intersects,
    mesh_left,
    mesh_right,
    oracle_average,
    oracle_cells_inside,
)
from weaklab.grid import Cube, DyadicGrid, Mesh, MeshFunction, default_levels, exact_ratio, inside_cubes, level_cube_integrals
from weaklab.sparse import CZDecomposition, SparseFamily, covering_roots, root_cubes


def oracle_covering_roots(mesh: Mesh, grid: DyadicGrid, span: tuple[float, float]) -> list[Cube]:
    """``sparse.covering_roots`` as it was before it worked in integers: the
    position an exact ``Cube.right`` (a ``Fraction``), each cube from
    ``DyadicGrid.cube_containing``."""
    lo, hi = span
    for x in span:
        if not math.isfinite(x):
            raise ValueError(f"point {x} is not a finite number")
    if lo < -mesh.radius or hi > mesh.radius:
        raise ValueError(f"span [{lo}, {hi}) leaves the mesh domain")
    roots: list[Cube] = []
    k_top, k_cell = default_levels(mesh)
    pos = lo
    while pos < hi:  # pos becomes an exact Cube.right; the comparison stays exact
        placed = None
        for k in range(k_top, k_cell + 1):
            c = grid.cube_containing(k, pos)
            if c.index in inside_cubes(mesh, grid, k):
                placed = c
                break
        if placed is None:
            raise ValueError(
                f"no grid cube inside the domain covers x = {float(pos):.6g}; "
                "embed the data into a larger mesh"
            )
        roots.append(placed)
        pos = placed.right
    return roots


def level_scan_covering_roots(mesh: Mesh, grid: DyadicGrid, span: tuple[float, float]) -> list[Cube]:
    """``sparse.covering_roots`` with each root's level found by a scan from
    ``k_top`` down to the first level whose cube holding the position lies
    inside the domain."""
    (num, den), (end, end_den) = (exact_ratio(x) for x in span)
    lo, hi = span
    if lo < -mesh.radius or hi > mesh.radius:
        raise ValueError(f"span [{lo}, {hi}) leaves the mesh domain")
    if hi < lo:
        raise ValueError(f"span [{lo}, {hi}) ends before it starts")
    roots: list[Cube] = []
    k_top, k_cell = default_levels(mesh)
    while num * end_den < end * den:  # position num / den < hi
        for k in range(k_top, k_cell + 1):
            m = grid.index_at(k, num, den)
            if m in inside_cubes(mesh, grid, k):
                break
        else:
            raise ValueError(
                f"no grid cube inside the domain covers x = {num / den:.6g}; "
                "embed the data into a larger mesh"
            )
        roots.append(grid.cube(k, m))
        num, den = grid.numerator(k, m + 1) << max(-k, 0), 3 << max(k, 0)  # its right edge
    return roots


def _cube_averages(f: MeshFunction, grid: DyadicGrid, cubes: Sequence[Cube], k_deep: int):
    """avg(k, m) = <f> over grid cube (k, m), None off the domain, for k from
    the coarsest given cube down to k_deep or the deepest one: a per-cube
    closure over the ``level_cube_integrals`` tables."""
    if any(c.grid != grid for c in cubes):
        raise ValueError("root cubes must belong to the construction's grid")
    levels = [c.level for c in cubes]
    k0, k1 = min(levels, default=k_deep), max(levels + [k_deep])
    tables = [(q0, (ints / 2.0**-k).tolist()) for k, (q0, ints) in enumerate(level_cube_integrals(f, grid, k0, k1), k0)]

    def avg(k: int, m: int) -> float | None:
        q0, avgs = tables[k - k0]
        j = m - q0
        return avgs[j] if 0 <= j < len(avgs) else None

    return avg


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
        stack = list(children(cube))
        while stack:
            c = stack.pop()
            if c.level > max_level:
                continue
            if not intersects(c, mesh_left(mesh), mesh_right(mesh)):
                continue
            avg_c = oracle_average(f, c)
            if avg_c > 0 and avg_c >= threshold * base_avg:
                found.append(c)
            else:
                stack.extend(children(c))
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
    stack = [r for r in roots if intersects(r, mesh_left(mesh), mesh_right(mesh))]
    while stack:
        cube = stack.pop()
        if oracle_average(h, cube) > height:
            stopping.append(cube)
        elif cube.level < k_cell:
            stack.extend(children(cube))

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
    )


def _default_roots(f: MeshFunction, grid: DyadicGrid) -> list[Cube]:
    mesh = f.mesh
    if grid.is_standard():
        return root_cubes(mesh, grid)
    support = np.nonzero(f.values)[0]
    if len(support):
        edges = mesh.edges()  # exact floats
        span = (float(edges[support[0]]), float(edges[support[-1] + 1]))
    else:
        span = (-mesh.radius / 2, mesh.radius / 2)
    return covering_roots(mesh, grid, span)


def table_sparse_family(
    f: MeshFunction,
    grid: DyadicGrid | None = None,
    roots: Sequence[Cube] | None = None,
    threshold: float = 4.0,
    min_width_cells: int | None = None,
) -> SparseFamily:
    mesh = f.mesh
    grid = grid or DyadicGrid()
    if roots is None:
        roots = _default_roots(f, grid)
    if min_width_cells is None:
        min_width_cells = 1 if grid.is_standard() else 32
    max_level = math.floor(math.log2(1.0 / (min_width_cells * mesh.h)))

    avg = _cube_averages(f, grid, roots, max_level)
    cubes: list[Cube] = []
    designated: list[np.ndarray] = []

    def descend(k0: int, m0: int, base_avg: float) -> list[Cube]:
        found: list[Cube] = []
        lo = child_left_index(grid, k0, m0)
        stack = [(k0 + 1, lo), (k0 + 1, lo + 1)]
        while stack:
            k, m = stack.pop()
            if k > max_level or (avg_c := avg(k, m)) is None:
                continue
            if avg_c > 0 and avg_c >= threshold * base_avg:
                found.append(grid.cube(k, m))
            else:
                lo = child_left_index(grid, k, m)
                stack += ((k + 1, lo), (k + 1, lo + 1))
        return found

    for root in roots:
        queue = [root]
        while queue:
            cube = queue.pop()
            a = avg(cube.level, cube.index) or 0.0  # a root off the domain averages 0
            if a == 0.0 and cube is not root:
                continue
            stopping = descend(cube.level, cube.index, a) if a > 0 else []
            inside = cells_inside(mesh, cube)
            if len(stopping) > 0:
                excluded = np.concatenate([cells_inside(mesh, c) for c in stopping])
                e_cells = np.setdiff1d(inside, excluded)
            else:
                e_cells = inside
            cubes.append(cube)
            designated.append(e_cells)
            queue.extend(stopping)
    return SparseFamily(mesh=mesh, grid=grid, cubes=cubes, designated=designated)


def table_cz_decompose(
    h: MeshFunction,
    height: float,
    roots: Sequence[Cube] | None = None,
) -> CZDecomposition:
    mesh = h.mesh
    grid = DyadicGrid()
    if roots is None:
        roots = root_cubes(mesh, grid)
    k_cell = mesh.aligned_cell_level()
    avg = _cube_averages(h, grid, roots, k_cell)

    stopping: list[Cube] = []
    good = h.values.copy()
    omega = []
    stack = [(r.level, r.index) for r in roots]
    while stack:
        k, m = stack.pop()
        if (a := avg(k, m)) is None:
            continue  # off the domain: average 0, never stops
        if a > height:
            stopping.append(grid.cube(k, m))
            omega.append(cells_inside(mesh, stopping[-1]))
            good[omega[-1]] = a
        elif k < k_cell:
            lo = child_left_index(grid, k, m)
            stack += ((k + 1, lo), (k + 1, lo + 1))
    omega_cells = np.sort(np.concatenate(omega)) if omega else np.arange(0)
    return CZDecomposition(
        height=height,
        cubes=stopping,
        good=MeshFunction(mesh, good),
        bad=MeshFunction(mesh, h.values - good),
        omega_cells=omega_cells,
    )


def table_verify_sparseness(family: SparseFamily) -> list[str]:
    issues: list[str] = []
    mesh = family.mesh
    seen: set[int] = set()
    for cube, cells in zip(family.cubes, family.designated):
        inside = cells_inside(mesh, cube)
        if not np.all(np.isin(cells, inside)):
            issues.append(f"E_Q not inside {cube}")
        if len(cells) * mesh.h * 2 < cube.width - 1e-12:
            issues.append(
                f"sparseness fails on {cube}: |Q|={cube.width:.6g} > 2|E_Q|={2*len(cells)*mesh.h:.6g}"
            )
        cellset = set(int(c) for c in cells)
        if seen & cellset:
            issues.append(f"E_Q overlaps earlier designated cells on {cube}")
        seen |= cellset
    return issues
