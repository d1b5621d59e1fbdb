"""Calderon-Zygmund decomposition and sparse averaging operators.

The decomposition and the stopping-time sparse construction both run over a
dyadic grid on a mesh.  With the standard (unshifted) grid and a
power-of-two mesh radius, every mesh cell is itself a dyadic cube, so all
set bookkeeping (the cubes Q_j, the exceptional set, the designated sets
E_Q) is exact at cell granularity.

For shifted grids the cubes do not align with cells; families built there
stop above a minimum cube width (default 32 cells) so that the
cell-quantized E_Q still certify the sparseness inequality |Q| <= 2 |E_Q|.

Both constructions are one stopping-time walk (Lerner-Nazarov, *Intuitive
dyadic calculus*, section 6), behind one front, ``_walk``: stop at the
maximal cubes whose average jumps.  The walk is level-synchronous; each
level holds the live cubes as integer arrays and reads their averages with
one vector lookup, ``_averages``, in the function's one cube table per grid
(``grid._cube_table``, bit-identical to ``grid.average``), where an index
off a level clips to the zero beside it, off the domain.  The table stays
on the function, so ``cz_decompose``, ``build_sparse_family``, the maximal
sweep and ``SparseFamily.apply`` on one ``f`` share it.  The kept cubes stay
integer arrays until the report: one ``np.lexsort`` on (root position,
exact left edge, level), the edges read off ``DyadicGrid.numerator`` in
int64, orders them, and only then do they become ``Cube`` objects.
``covering_roots`` works in integers too, its position an exact ratio.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import (
    Cube,
    DyadicGrid,
    Mesh,
    MeshFunction,
    _cube_table,
    _fractional_order,
    cube_span,
    default_levels,
    exact_ratio,
    inner_cell_range,
    inside_cubes,
)

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
    the roots never leave the mesh.  A shifted grid's cubes shrink near the
    domain edge, and a span with a point no inside cube covers is rejected
    (embed the function into a larger mesh); the standard grid's cubes tile
    the domain and cover a span touching its edge.  A span that leaves the
    domain or ends before it starts is rejected.  The position is an exact
    integer ratio: the span's left end, then each placed root's right edge.
    """
    (num, den), (end, end_den) = (exact_ratio(x) for x in span)
    lo, hi = span
    if lo < -mesh.radius or hi > mesh.radius:
        raise ValueError(f"span [{lo}, {hi}) leaves the mesh domain")
    if hi < lo:
        raise ValueError(f"span [{lo}, {hi}) ends before it starts")
    roots: list[Cube] = []
    k_top, k_cell = default_levels(mesh)
    while num * end_den < end * den:  # position num / den < hi
        # being inside is monotone in k (the cube holding x at level k + 1 is
        # a child of the one at level k): gallop down from k_top, then bisect
        # the last gap, so a root costs O(log) of its depth below k_top
        inside = lambda k: grid.index_at(k, num, den) in inside_cubes(mesh, grid, k)  # noqa: E731
        k0 = k = k_top  # no level above k0 has an inside cube
        while k <= k_cell and not inside(k):
            k0, k = k + 1, 2 * k - k_top + 1
        k = k0 + bisect.bisect_left(range(k0, min(k, k_cell + 1)), True, key=inside)
        if k > k_cell:
            raise ValueError(
                f"no grid cube inside the domain covers x = {num / den:.6g}; "
                "embed the data into a larger mesh"
            )
        m = grid.index_at(k, num, den)
        roots.append(grid.cube(k, m))
        num, den = grid.numerator(k, m + 1) << max(-k, 0), 3 << max(k, 0)  # its right edge
    return roots


def _averages(f: MeshFunction, grid: DyadicGrid, cubes: Sequence[Cube], k_deep: int):
    """``averages(k, m)``: <f> on the level-k cubes ``m`` (int64), from the
    coarsest given cube (of the grid) to k_deep or the finest one, read by
    a clipped take on level k's view ``[0, level k ..., 0]`` of f's table."""
    if any(c.grid != grid for c in cubes):
        raise ValueError("root cubes must belong to the construction's grid")
    levels = [c.level for c in cubes]
    geometry, table, _ = _cube_table(f, grid, min(levels, default=k_deep), max(levels + [k_deep]))

    def averages(k: int, m: np.ndarray) -> np.ndarray:
        at, cubes = geometry.at[k - geometry.levels[0]], geometry.cubes[k - geometry.levels[0]]
        return table[at - 1 : at + len(cubes) + 1].take(m - (cubes.start - 1), mode="clip") / 2.0**-k

    return averages


def _edges(grid: DyadicGrid, levels, index, k_fine):
    """3 * 2^k_fine times the left edges of the cubes (levels, index), for
    ints or int64 arrays, k_fine >= every level: exact integers on one scale."""
    return grid.numerator(levels, index) << (k_fine - levels)


def _check_disjoint(grid: DyadicGrid, roots: Sequence[Cube]) -> None:
    """Reject repeated or nested roots: the walk gives every cell one owner."""
    k_fine = max((c.level for c in roots), default=0)
    spans = sorted(
        (_edges(grid, c.level, c.index, k_fine), _edges(grid, c.level, c.index + 1, k_fine), i)
        for i, c in enumerate(roots)
    )
    for (_, hi, i), (lo, _, j) in zip(spans, spans[1:]):
        if lo < hi:
            raise ValueError(f"root cubes must be disjoint: {roots[i]} and {roots[j]} overlap")


def _stopping_walk(grid, averages, roots, k_last, stops, generations):
    """Level-synchronous stopping-time walk below the disjoint ``roots``.

    Each level holds three arrays: the live cube indices, their roots'
    positions in ``roots`` and the base average each cube inherits.  One
    vector lookup, ``averages(k, m)`` (see ``_averages``), reads the level's
    averages; a cube off the table is off the domain and drops out.
    A cube stops where ``stops(avg, base)``.  The children of a stopping
    cube inherit its average as their base, those of any other cube its
    base, and no cube below level ``k_last`` is visited but a root.  With
    ``generations`` (sparse families) every root is kept, with base 0, and
    the walk goes on below each stopping cube; without it
    (Calderon-Zygmund) a stopping cube ends its branch.  A cube off the
    domain reads average 0, at which ``stops`` must be false, and the walk
    never descends below a cube averaging 0: for f >= 0 nothing there stops.

    Returns the kept cubes as arrays (level, index, root position, average),
    in no particular order.
    """
    by_level: dict[int, list[tuple[int, int]]] = {}
    for r, c in enumerate(roots):
        by_level.setdefault(c.level, []).append((c.index, r))
    m = rid = np.zeros(0, dtype=np.int64)
    base = np.zeros(0)
    kept: list[tuple[np.ndarray, ...]] = [(m, m, m, base)]
    for k in range(min(by_level, default=k_last + 1), max([k_last, *by_level]) + 1):
        n_live = len(m)
        if k in by_level:
            new_m, new_rid = np.array(by_level[k], dtype=np.int64).T
            m, rid = np.concatenate((m, new_m)), np.concatenate((rid, new_rid))
            base = np.concatenate((base, np.zeros(len(new_m))))
        if not len(m):
            continue
        avg = averages(k, m)  # 0 never stops
        stop = stops(avg, base)
        keep = stop | (generations & (np.arange(len(m)) >= n_live))  # roots too: base 0, so stop is avg > 0
        down = (avg > 0) & (~stop | generations)  # nothing below a zero average stops
        if keep.any():
            kept.append((np.full(np.count_nonzero(keep), k), m[keep], rid[keep], avg[keep]))
        if k >= k_last or not down.any():
            m, rid, base = m[:0], rid[:0], base[:0]
            continue
        lo = 2 * m[down] + grid.numerator(k, 0)  # left children: N(k + 1, lo) = 2 N(k, m)
        base = np.where(stop, avg, base)[down]
        rid = rid[down]
        m, rid, base = np.concatenate((lo, lo + 1)), np.concatenate((rid, rid)), np.concatenate((base, base))
    return [np.concatenate(col) for col in zip(*kept)]


def _walk(f, grid, roots, k_last, stops, generations, reverse=False):
    """The front of both constructions: read the average tables, check the
    roots and run ``_stopping_walk``.  Returns the kept cubes in report
    order, by (root position, exact left edge, level), which is each root's
    left-to-right preorder, root after root, or the reverse of it, and
    their averages."""
    averages = _averages(f, grid, roots, k_last)
    _check_disjoint(grid, roots)
    levels, index, rid, avg = _stopping_walk(grid, averages, roots, k_last, stops, generations)
    left = _edges(grid, levels, index, levels.max(initial=0))
    order = np.lexsort((levels, left, rid))[:: -1 if reverse else 1]
    return [grid.cube(k, m) for k, m in zip(levels[order].tolist(), index[order].tolist())], avg[order]


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

    def apply(self, f: MeshFunction, alpha: float = 0.0) -> MeshFunction:
        """A_S f = sum_Q |Q|^alpha <f>_Q chi_Q, evaluated at cell level.

        Cell membership in chi_Q is decided by the cell center, in exact
        integers; for aligned cubes it is the cells the cube holds.
        """
        return sparse_apply(self, f, alpha)

    def verify(self) -> list[str]:
        return verify_sparseness(self)

    def averages(self, f: MeshFunction) -> list[float]:
        """<f>_Q of every cube Q, in family order (0.0 off the domain)."""
        levels, index = np.array([(c.level, c.index) for c in self.cubes], dtype=np.int64).reshape(-1, 2).T
        averages, avg = _averages(f, self.grid, self.cubes, max(levels.tolist(), default=0)), np.zeros(len(levels))
        for k in set(levels.tolist()):
            avg[levels == k] = averages(k, index[levels == k])
        return avg.tolist()


def sparse_apply(family: SparseFamily, f: MeshFunction, alpha: float = 0.0) -> MeshFunction:
    if alpha != 0:
        _fractional_order(alpha)
    if f.mesh != family.mesh:
        raise ValueError("function and family live on different meshes")
    mesh = family.mesh
    n = mesh.n_cells
    out = np.zeros(n)
    for cube, a in zip(family.cubes, family.averages(f)):
        # cell i is in the cube when its centre is: 2 lo <= (2i + 1) den < 2 hi
        lo, hi, den = cube_span(mesh, cube)
        i0 = -((den - 2 * lo) // (2 * den))
        i1 = -((den - 2 * hi) // (2 * den))
        out[max(i0, 0) : max(min(i1, n), 0)] += cube.width**alpha * a
    return MeshFunction(mesh, out)


def verify_sparseness(family: SparseFamily) -> list[str]:
    """Check the three sparse-family invariants; return violation messages.

    Per cube, in family order: E_Q lies in the (contiguous) cells inside Q;
    |Q| <= 2 |E_Q|; and no cell of E_Q was claimed first by an earlier cube
    (a cell repeated within one E_Q is no overlap).
    """
    mesh, cubes = family.mesh, family.cubes
    if not cubes:
        return []
    sizes = np.array([len(cells) for cells in family.designated])
    cells = np.concatenate(family.designated)
    owner = np.repeat(np.arange(len(cubes)), sizes)
    i0, i1 = np.array([inner_cell_range(mesh, cube) for cube in cubes]).T
    outside = np.bincount(owner[(cells < i0[owner]) | (cells >= i1[owner])], minlength=len(cubes)) > 0
    width = np.array([cube.width for cube in cubes])
    small = sizes * mesh.h * 2 < width - 1e-12
    order = np.argsort(cells, kind="stable")  # each cell's claimants in family order
    cell, claimant = cells[order], owner[order]
    first = np.ones(len(cell), dtype=bool)
    first[1:] = cell[1:] != cell[:-1]
    first = np.flatnonzero(first)
    first_claimant = np.repeat(claimant[first], np.diff(first, append=len(cell)))
    overlaps = np.zeros(len(cubes), dtype=bool)
    overlaps[claimant[claimant > first_claimant]] = True
    issues: list[str] = []
    for i in np.flatnonzero(outside | small | overlaps):
        cube, size = cubes[i], int(sizes[i])
        if outside[i]:
            issues.append(f"E_Q not inside {cube}")
        if small[i]:
            issues.append(
                f"sparseness fails on {cube}: |Q|={cube.width:.6g} > 2|E_Q|={2*size*mesh.h:.6g}"
            )
        if overlaps[i]:
            issues.append(f"E_Q overlaps earlier designated cells on {cube}")
    return issues


def build_sparse_family(
    f: MeshFunction,
    grid: DyadicGrid | None = None,
    roots: Sequence[Cube] | None = None,
    min_width_cells: int | None = None,
) -> SparseFamily:
    """Stopping-time sparse family adapted to f >= 0.

    Starting from each root, the children of a family cube Q are the
    maximal descendants Q' with <f>_Q' > 4 <f>_Q (4 = 2^(n+1) at n = 1).
    E_Q is Q minus the next-generation stopping cubes.  The construction
    guarantees |Q| <= 2 |E_Q| (indeed |E_Q| >= 3|Q|/4 up to cell
    quantization) and the pointwise domination M^D f <= 4 A_S f on each
    root for f supported there.

    One level-synchronous walk finds every generation: a cube below a
    family cube Q stops when ``avg > 0 and avg >= 4 <f>_Q``, and no cube
    narrower than ``min_width_cells`` cells (at least 1) is visited.  The
    family lists each root's cubes in left-to-right preorder (a cube before
    the cubes inside it), root after root in the given order.  E_Q holds
    the cells whose deepest wholly containing family cube is Q, so the
    roots must be disjoint (``ValueError`` otherwise).

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
    if not min_width_cells >= 1:
        raise ValueError(f"min_width_cells must be at least 1, got {min_width_cells}")
    max_level = math.floor(math.log2(1.0 / (min_width_cells * mesh.h)))

    cubes, _ = _walk(f, grid, roots, max_level, lambda avg, base: (avg > 0) & (avg >= 4.0 * base), True)
    # each cell belongs to E_Q of the deepest family cube Q wholly containing
    # it; in preorder that cube is the last to claim the cell
    owner = np.full(mesh.n_cells, -1)
    for i, cube in enumerate(cubes):
        i0, i1 = inner_cell_range(mesh, cube)
        owner[i0:i1] = i
    by_owner = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[by_owner], np.arange(len(cubes) + 1))
    designated = [by_owner[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
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

    @property
    def omega_measure(self) -> float:
        return len(self.omega_cells) * self.good.mesh.h


def cz_decompose(
    h: MeshFunction,
    height: float,
    roots: Sequence[Cube] | None = None,
) -> CZDecomposition:
    """Calderon-Zygmund decomposition of h >= 0 at the given height.

    Stopping cubes are the maximal grid cubes (within the in-domain roots)
    whose average exceeds the height, found by the same level-synchronous
    walk as ``build_sparse_family``, down to the cell level.  They come in
    reverse root order, right to left within each root.  The roots must be
    disjoint (``ValueError`` otherwise), so Omega counts each cell once.
    The cubes are those of the standard grid on a power-of-two mesh, so
    they align with cells and all identities hold in exact cell
    arithmetic.  The classical bound ||good||_inf <= 2^n * height
    holds whenever no root itself stops (roots average below the height).
    """
    if not height > 0:
        raise ValueError(f"height must be positive, got {height}")
    mesh = h.mesh
    grid = DyadicGrid()
    if np.any(h.values < 0):
        raise ValueError("decomposition expects h >= 0")
    if roots is None:
        roots = root_cubes(mesh, grid)
    k_cell = mesh.aligned_cell_level()
    stopping, avg = _walk(h, grid, roots, k_cell, lambda a, _: a > height, False, reverse=True)
    good, in_omega = h.values.copy(), np.zeros(mesh.n_cells, dtype=bool)
    for cube, a in zip(stopping, avg):
        i0, i1 = inner_cell_range(mesh, cube)
        good[i0:i1], in_omega[i0:i1] = a, True
    bad = MeshFunction(mesh, h.values - good)
    return CZDecomposition(height, stopping, MeshFunction(mesh, good), bad, np.flatnonzero(in_omega))


def exceptional_set(
    f: MeshFunction,
    p: float,
    e_cells: np.ndarray,
    K: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(Omega, E') for the duality argument.

    Omega = {M^D(|f|^p) > K/|E|} realized as the union of the stopping
    cubes of the decomposition of |f|^p at height K/|E|; E' = E minus
    Omega.  Requires ||f||_p = 1 (the caller normalizes) and K > 2, which
    forces |Omega| <= |E|/K < |E|/2 and hence |E'| > |E|/2 by the exact
    weak (1,1) bound (constant one) of the dyadic maximal operator.  E is
    a list of distinct mesh cells; a repeated or out-of-range cell is a
    ``ValueError`` that names the first one.
    """
    if not K > 2:
        raise ValueError(f"exceptional-set constant must satisfy K > 2, got {K}")
    cells = np.asarray(e_cells)
    e_cells = cells.astype(int)
    if e_cells.ndim != 1 or cells.dtype == bool or not np.array_equal(e_cells, cells):
        raise ValueError("E must be a one-dimensional array of integer cell indices")
    if len(e_cells) == 0:
        raise ValueError("E must have positive measure")
    mesh, n = f.mesh, f.mesh.n_cells
    repeated = np.ones(len(e_cells), dtype=bool)
    repeated[np.unique(e_cells, return_index=True)[1]] = False
    bad = np.flatnonzero(repeated | (e_cells < 0) | (e_cells >= n))
    if len(bad):
        c = int(e_cells[bad[0]])
        fault = "repeated" if 0 <= c < n else "off the mesh"
        raise ValueError(f"E must list distinct cells 0..{n - 1}: cell {c} is {fault}")
    norm = f.lp_norm(p)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"caller must normalize ||f||_p to 1, got {norm}")
    e_measure = len(e_cells) * mesh.h
    hp = f.power(p)
    decomp = cz_decompose(hp, K / e_measure)
    omega = decomp.omega_cells
    eprime = np.setdiff1d(e_cells, omega)
    return omega, eprime
