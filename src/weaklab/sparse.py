"""Calderon-Zygmund decomposition and sparse averaging operators.

The decomposition and the stopping-time sparse construction both run over a
dyadic grid on a mesh.  With the standard (unshifted) grid and a
power-of-two mesh radius, every mesh cell is itself a dyadic cube, so all
set bookkeeping (the cubes Q_j, the exceptional set, the designated sets
E_Q) is exact at cell granularity.

For shifted grids the cubes do not align with cells; families built there
stop above a minimum cube width (default 32 cells) so that the
cell-quantized E_Q still certify the sparseness inequality |Q| <= 2 |E_Q|.

Both stopping-time walks run over integer cube coordinates (k, m) and read
cube averages from per-level tables (``level_cube_integrals``, built once
per level per call, bit-identical to ``grid.average``); an index outside a
table is off the domain.  Only kept cubes become ``Cube`` objects, and the
cells each one holds come from the integer span ``grid.cube_span``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import Cube, DyadicGrid, Mesh, MeshFunction, cells_inside, cube_span, default_levels, level_cube_integrals

__all__ = [
    "SparseFamily",
    "CZDecomposition",
    "cz_decompose",
    "exceptional_set",
    "build_sparse_family",
    "sparse_apply",
    "verify_sparseness",
    "root_cubes",
    "covering_roots",
]


def root_cubes(mesh: Mesh, grid: DyadicGrid) -> list[Cube]:
    """Standard-grid roots tiling the domain: the cubes [-R, 0) and [0, R)."""
    if not grid.is_standard():
        raise ValueError("domain-tiling roots need the standard grid; use covering_roots")
    k = mesh.aligned_cell_level() - mesh.level  # cubes of width R
    return [grid.cube_containing(k, -mesh.radius), grid.cube_containing(k, 0)]


def covering_roots(mesh: Mesh, grid: DyadicGrid, span: tuple[float, float]) -> list[Cube]:
    """Greedy tiling of ``span`` by maximal grid cubes inside the mesh domain.

    Every designated-set computation stays exact at cell granularity because
    the roots never leave the mesh.  For shifted grids near the domain edge
    the maximal cubes shrink; a span that touches the edge of the domain is
    rejected (embed the function into a larger mesh instead).
    """
    lo, hi = span
    if mesh._position(lo) < 0 or mesh._position(hi) > mesh.n_cells:
        raise ValueError(f"span [{lo}, {hi}) leaves the mesh domain")
    roots: list[Cube] = []
    k_top, k_cell = default_levels(mesh)
    pos = lo
    while pos < hi:  # pos becomes an exact Cube.right; the comparison stays exact
        placed = None
        for k in range(k_top, k_cell + 1):
            c = grid.cube_containing(k, pos)
            c_lo, c_hi, den = cube_span(mesh, c)
            if c_lo >= 0 and c_hi <= mesh.n_cells * den:
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


def _cube_averages(f: MeshFunction, grid: DyadicGrid, cubes: Sequence[Cube]):
    """avg(k, m) = <f> over grid cube (k, m), None off the domain; the given
    starting cubes must belong to the grid."""
    if any(c.grid != grid for c in cubes):
        raise ValueError("root cubes must belong to the construction's grid")
    tables: dict[int, tuple[int, list[float]]] = {}

    def avg(k: int, m: int) -> float | None:
        if k not in tables:
            q0, ints = level_cube_integrals(f, grid, k)
            tables[k] = (q0, (ints / 2.0**-k).tolist())
        q0, avgs = tables[k]
        j = m - q0
        return avgs[j] if 0 <= j < len(avgs) else None

    return avg


# ---------------------------------------------------------------------------
# sparse families
# ---------------------------------------------------------------------------


@dataclass
class SparseFamily:
    """Cubes from one grid with designated pairwise-disjoint sets E_Q.

    The E_Q are stored as mesh-cell index sets, so the sparseness
    inequality |Q| <= 2 |E_Q| is checkable exactly.
    """

    mesh: Mesh
    grid: DyadicGrid
    cubes: list[Cube]
    designated: list[np.ndarray]

    def e_measure(self, i: int) -> float:
        return len(self.designated[i]) * self.mesh.h

    def apply(self, f: MeshFunction, alpha: float = 0.0) -> MeshFunction:
        """A_S f = sum_Q |Q|^alpha <f>_Q chi_Q, evaluated at cell level.

        Cell membership in chi_Q is decided by the cell center, in exact
        integers; for aligned cubes it is the cells the cube holds.
        """
        return sparse_apply(self, f, alpha)

    def verify(self) -> list[str]:
        return verify_sparseness(self)


def sparse_apply(family: SparseFamily, f: MeshFunction, alpha: float = 0.0) -> MeshFunction:
    if f.mesh != family.mesh:
        raise ValueError("function and family live on different meshes")
    mesh = family.mesh
    n = mesh.n_cells
    out = np.zeros(n)
    avg = _cube_averages(f, family.grid, family.cubes)
    for cube in family.cubes:
        a = avg(cube.level, cube.index) or 0.0  # None: no cell centre inside
        # cell i is in the cube when its centre is: 2 lo <= (2i + 1) den < 2 hi
        lo, hi, den = cube_span(mesh, cube)
        i0 = -((den - 2 * lo) // (2 * den))
        i1 = -((den - 2 * hi) // (2 * den))
        out[max(i0, 0) : max(min(i1, n), 0)] += cube.width**alpha * a
    return MeshFunction(mesh, out)


def verify_sparseness(family: SparseFamily) -> list[str]:
    """Check the three sparse-family invariants; return violation messages."""
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


def build_sparse_family(
    f: MeshFunction,
    grid: DyadicGrid | None = None,
    roots: Sequence[Cube] | None = None,
    threshold: float = 4.0,
    min_width_cells: int | None = None,
) -> SparseFamily:
    """Stopping-time sparse family adapted to f >= 0.

    Starting from each root, the children of a family cube Q are the
    maximal descendants Q' with <f>_Q' > threshold * <f>_Q (threshold
    4 = 2^(n+1) at n = 1).  E_Q is Q minus the next-generation stopping
    cubes.  The construction guarantees |Q| <= 2 |E_Q| (indeed
    |E_Q| >= 3|Q|/4 up to cell quantization) and the pointwise domination
    M^D f <= 4 A_S f on each root for f supported there.

    For f identically zero on a root the root itself is kept with a trivial
    average.
    """
    mesh = f.mesh
    grid = grid or DyadicGrid()
    if np.any(f.values < 0):
        raise ValueError("sparse construction expects f >= 0")
    if roots is None:
        if grid.is_standard():
            roots = root_cubes(mesh, grid)
        else:
            support = np.nonzero(f.values)[0]
            if len(support):
                edges = mesh.edges()  # exact floats
                span = (float(edges[support[0]]), float(edges[support[-1] + 1]))
            else:
                span = (-mesh.radius / 2, mesh.radius / 2)
            roots = covering_roots(mesh, grid, span)
    if min_width_cells is None:
        min_width_cells = 1 if grid.is_standard() else 32
    max_level = math.floor(math.log2(1.0 / (min_width_cells * mesh.h)))

    avg = _cube_averages(f, grid, roots)
    cubes: list[Cube] = []
    designated: list[np.ndarray] = []

    def descend(k0: int, m0: int, base_avg: float) -> list[Cube]:
        """Maximal descendants of cube (k0, m0) with average >= threshold * base_avg."""
        found: list[Cube] = []
        lo = grid.child_left_index(k0, m0)
        stack = [(k0 + 1, lo), (k0 + 1, lo + 1)]
        while stack:
            k, m = stack.pop()
            if k > max_level or (avg_c := avg(k, m)) is None:
                continue
            if avg_c > 0 and avg_c >= threshold * base_avg:
                found.append(grid.cube(k, m))
            else:
                lo = grid.child_left_index(k, m)
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


# ---------------------------------------------------------------------------
# Calderon-Zygmund decomposition
# ---------------------------------------------------------------------------


@dataclass
class CZDecomposition:
    """h = good + bad at a given height over maximal stopping cubes.

    good equals h off Omega and the cube average on each stopping cube;
    bad = h - good is supported on Omega and has exact mean zero on every
    stopping cube.
    """

    height: float
    cubes: list[Cube]
    good: MeshFunction
    bad: MeshFunction
    omega_cells: np.ndarray
    grid: DyadicGrid

    @property
    def omega_measure(self) -> float:
        return len(self.omega_cells) * self.good.mesh.h


def cz_decompose(
    h: MeshFunction,
    height: float,
    grid: DyadicGrid | None = None,
    roots: Sequence[Cube] | None = None,
) -> CZDecomposition:
    """Calderon-Zygmund decomposition of h >= 0 at the given height.

    Stopping cubes are the maximal grid cubes (within the in-domain roots)
    whose average exceeds the height.  Requires the standard grid on a
    power-of-two mesh so cubes align with cells and all identities hold in
    exact cell arithmetic.  The classical bound ||good||_inf <= 2^n * height
    holds whenever no root itself stops (roots average below the height).
    """
    if height <= 0:
        raise ValueError(f"height must be positive, got {height}")
    mesh = h.mesh
    grid = grid or DyadicGrid()
    if not grid.is_standard():
        raise ValueError("decomposition requires the standard (unshifted) grid")
    if np.any(h.values < 0):
        raise ValueError("decomposition expects h >= 0")
    if roots is None:
        roots = root_cubes(mesh, grid)
    k_cell = mesh.aligned_cell_level()
    avg = _cube_averages(h, grid, roots)

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
            lo = grid.child_left_index(k, m)
            stack += ((k + 1, lo), (k + 1, lo + 1))
    omega_cells = np.sort(np.concatenate(omega)) if omega else np.arange(0)
    good_f = MeshFunction(mesh, good)
    bad_f = MeshFunction(mesh, h.values - good)
    return CZDecomposition(
        height=height,
        cubes=stopping,
        good=good_f,
        bad=bad_f,
        omega_cells=omega_cells,
        grid=grid,
    )


def exceptional_set(
    f: MeshFunction,
    p: float,
    e_cells: np.ndarray,
    K: float,
    grid: DyadicGrid | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(Omega, E') for the duality argument.

    Omega = {M^D(|f|^p) > K/|E|} realized as the union of the stopping
    cubes of the decomposition of |f|^p at height K/|E|; E' = E minus
    Omega.  Requires ||f||_p = 1 (the caller normalizes) and K > 2, which
    forces |Omega| <= |E|/K < |E|/2 and hence |E'| > |E|/2 by the exact
    weak (1,1) bound (constant one) of the dyadic maximal operator.
    """
    if K <= 2:
        raise ValueError(f"exceptional-set constant must satisfy K > 2, got {K}")
    e_cells = np.asarray(e_cells, dtype=int)
    if len(e_cells) == 0:
        raise ValueError("E must have positive measure")
    norm = f.lp_norm(p)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"caller must normalize ||f||_p to 1, got {norm}")
    mesh = f.mesh
    e_measure = len(e_cells) * mesh.h
    hp = f.power(p)
    decomp = cz_decompose(hp, K / e_measure, grid=grid)
    omega = decomp.omega_cells
    eprime = np.setdiff1d(e_cells, omega)
    return omega, eprime
