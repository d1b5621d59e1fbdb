"""Reference cube/cell geometry: the exact ``Fraction`` versions that
``weaklab`` used before its integer cube-to-cell map (``grid.cube_span``).

Mesh edges, cell widths and cube endpoints here are ``Fraction``s, so every
question is answered by rational arithmetic on the cube's ``left``/``right``.
The differential tests in ``test_geometry.py`` require the integer versions
to agree with these byte for byte.

Three matrix-path loops that the level tables replaced live here too: the
cube-by-cube Christ-Goldberg maximal function over these overlap widths,
the direction-by-direction scalar ``A_inf`` characteristic, and the
reducing-matrix sparse operator with one ``grid.average`` call per cube.  So do the
one-level-per-call table builders that ``grid.level_cube_integrals`` and
``grid.cube_indices_per_cell`` replaced by one call for all levels, and the
``Fraction`` cube locators ``enumerate_cubes`` and ``covering_cube``, which
only tests use.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from weaklab.grid import Cube, DyadicGrid, Mesh, MeshFunction, _level_affine, _span_integrals, average, shifted_grids
from weaklab.matrix import MatrixWeight, fractional_reducing_matrix, op_norm, reducing_matrix, unit_directions
from weaklab.sparse import SparseFamily
from weaklab.weights import SampledWeight, ainfty_characteristic


def mesh_left(mesh: Mesh) -> Fraction:
    return -Fraction(mesh.radius)


def mesh_right(mesh: Mesh) -> Fraction:
    return Fraction(mesh.radius)


def mesh_h(mesh: Mesh) -> Fraction:
    return Fraction(mesh.radius) / 2**mesh.level


def edge_fraction(mesh: Mesh, i: int) -> Fraction:
    return mesh_left(mesh) + i * mesh_h(mesh)


def oracle_level_affine(mesh: Mesh, grid: DyadicGrid, k: int) -> tuple[int, int, int]:
    width = Fraction(2) ** (-k)
    sigma = -1 if k & 1 else 1
    a0_f = mesh_left(mesh) / width - Fraction(sigma * grid.shift_index, 3)
    step_f = mesh_h(mesh) / width
    den = math.lcm(a0_f.denominator, step_f.denominator)
    return (
        a0_f.numerator * (den // a0_f.denominator),
        step_f.numerator * (den // step_f.denominator),
        den,
    )


def oracle_cube_indices_per_cell(mesh: Mesh, grid: DyadicGrid, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``cube_indices_per_cell`` one level at a time: (q, contained) per cell."""
    a0, step, den = _level_affine(mesh, grid, k)
    num = a0 + np.arange(mesh.n_cells + 1, dtype=np.int64) * step
    q_edge = num // den
    on_boundary = (num % den) == 0
    q = q_edge[:-1]
    contained = (q_edge[1:] == q) | ((q_edge[1:] == q + 1) & on_boundary[1:])
    return q, contained


def oracle_level_cube_integrals(f: MeshFunction, grid: DyadicGrid, k: int) -> tuple[int, np.ndarray]:
    """``level_cube_integrals`` one level at a time: one ``_span_integrals``
    call over the level's cubes, all with the level's own denominator."""
    n = f.mesh.n_cells
    a0, step, den = _level_affine(f.mesh, grid, k)
    q0 = a0 // den
    q1 = -(-(a0 + n * step) // den) - 1
    inner = np.arange(q0 + 1, q1 + 1, dtype=np.int64) * den - a0
    edges = np.concatenate(([0], inner, [n * step]))
    return q0, _span_integrals(f, edges[:-1], edges[1:], step)


def enumerate_cubes(grid: DyadicGrid, domain: tuple[float, float], min_level: int, max_level: int) -> list[Cube]:
    """All grid cubes meeting ``domain = [a, b)`` with level in the range.

    The empty level range yields an empty list; an unbounded domain is an
    error because the result would be infinite.
    """
    a, b = domain
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"domain [{a}, {b}) must be bounded")
    out: list[Cube] = []
    if b <= a:
        return out
    for k in range(min_level, max_level + 1):
        m_lo = grid.cube_index_of(k, a)
        m_hi = grid.cube_index_of(k, b)
        if grid.cube_left(k, m_hi) == Fraction(b):
            m_hi -= 1
        out.extend(Cube(k, m, grid) for m in range(m_lo, m_hi + 1))
    return out


def covering_cube(grids, a, b, max_ratio: float = 8.0) -> Cube:
    """Smallest shifted-grid cube containing [a, b] (one-third trick).

    Scans cube widths from just above |I| upward; the family guarantees a
    cover with |Q| <= 6 |I|.
    """
    a_f, b_f = Fraction(a), Fraction(b)
    length = b_f - a_f
    if length <= 0:
        raise ValueError(f"degenerate interval [{a}, {b}]")
    k_finest = -math.ceil(math.log2(float(length)))
    best: Cube | None = None
    for k in range(k_finest, k_finest - math.ceil(math.log2(max_ratio)) - 2, -1):
        for grid in grids:
            q = grid.cube_containing(k, a_f)
            if q.right >= b_f:
                if best is None or q.width < best.width:
                    best = q
        if best is not None:
            return best
    raise RuntimeError(f"no covering cube within width ratio {max_ratio} of [{a}, {b}]")


def oracle_cells_inside(mesh: Mesh, cube: Cube) -> np.ndarray:
    lo = max(cube.left, mesh_left(mesh))
    hi = min(cube.right, mesh_right(mesh))
    if hi <= lo:
        return np.arange(0)
    i0 = math.ceil((lo - mesh_left(mesh)) / mesh_h(mesh))
    i1 = math.floor((hi - mesh_left(mesh)) / mesh_h(mesh))
    return np.arange(i0, i1)


def oracle_overlap_weights(mesh: Mesh, cube: Cube) -> tuple[np.ndarray, np.ndarray]:
    lo = max(cube.left, mesh_left(mesh))
    hi = min(cube.right, mesh_right(mesh))
    if hi <= lo:
        return np.arange(0), np.zeros(0)
    i0 = math.floor((lo - mesh_left(mesh)) / mesh_h(mesh))
    i1 = math.ceil((hi - mesh_left(mesh)) / mesh_h(mesh))
    idx = np.arange(i0, i1)
    wts = np.full(len(idx), mesh.h)
    wts[0] = float((min(edge_fraction(mesh, i0 + 1), hi) - lo))
    if len(idx) > 1:
        wts[-1] = float(hi - edge_fraction(mesh, i1 - 1))
    return idx, wts


def oracle_cells_of(mesh: Mesh, cube: Cube) -> slice:
    """``MatrixWeight.cells_of``: cell slice of an aligned cube inside the domain."""
    lo = (cube.left - mesh_left(mesh)) / mesh_h(mesh)
    hi = (cube.right - mesh_left(mesh)) / mesh_h(mesh)
    if lo.denominator != 1 or hi.denominator != 1:
        raise ValueError(f"{cube} is not aligned with the mesh cells")
    if lo < 0 or hi > mesh.n_cells:
        raise ValueError(f"{cube} leaves the sampled domain")
    return slice(int(lo), int(hi))


def oracle_covering_roots(mesh: Mesh, grid: DyadicGrid, span) -> list[Cube]:
    """``sparse.covering_roots``: greedy maximal grid cubes inside the domain."""
    lo, hi = Fraction(span[0]), Fraction(span[1])
    if lo < mesh_left(mesh) or hi > mesh_right(mesh):
        raise ValueError(f"span [{span[0]}, {span[1]}) leaves the mesh domain")
    roots: list[Cube] = []
    k_top = -math.ceil(math.log2(2 * mesh.radius))
    k_cell = math.floor(math.log2(1.0 / mesh.h))
    pos = lo
    while pos < hi:
        placed = None
        for k in range(k_top, k_cell + 1):
            c = grid.cube_containing(k, pos)
            if c.left >= mesh_left(mesh) and c.right <= mesh_right(mesh):
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


def oracle_sparse_apply(family: SparseFamily, f: MeshFunction, alpha: float = 0.0) -> np.ndarray:
    """``sparse_apply`` with cell membership decided by comparing float cell
    centres with float cube ends."""
    centers = family.mesh.centers()
    out = np.zeros(family.mesh.n_cells)
    for cube in family.cubes:
        sel = (centers >= float(cube.left)) & (centers < float(cube.right))
        out[sel] += cube.width**alpha * oracle_average(f, cube)
    return out


def oracle_integral(f: MeshFunction, a, b) -> float:
    """``MeshFunction.integral`` over [a, b) with ``Fraction`` cell positions."""
    mesh = f.mesh
    lo = max(Fraction(a), mesh_left(mesh))
    hi = min(Fraction(b), mesh_right(mesh))
    if hi <= lo:
        return 0.0
    pos_lo = (lo - mesh_left(mesh)) / mesh_h(mesh)
    pos_hi = (hi - mesh_left(mesh)) / mesh_h(mesh)
    den = math.lcm(pos_lo.denominator, pos_hi.denominator)
    nums = np.array([pos.numerator * (den // pos.denominator) for pos in (pos_lo, pos_hi)], dtype=object)
    return float(_span_integrals(f, nums[:1], nums[1:], den)[0])


def oracle_average(f: MeshFunction, cube: Cube) -> float:
    return oracle_integral(f, cube.left, cube.right) / cube.width


def oracle_christ_goldberg_maximal(
    W: MatrixWeight, p: float, f: MeshFunction, grids=None, min_level=None, max_level=None, alpha=0.0
) -> np.ndarray:
    """``christ_goldberg_maximal`` cube by cube: per grid, level and cube, the
    cells inside it get |Q|^alpha times the overlap-weighted mean of
    |A(x) g(y)| over the cells y it meets."""
    mesh = f.mesh
    grids = list(grids) if grids is not None else shifted_grids(1)
    k_lo = -math.ceil(math.log2(2 * mesh.radius)) if min_level is None else min_level
    k_hi = math.floor(math.log2(1.0 / mesh.h)) if max_level is None else max_level
    A, g_power = (W.power(1.0 / p), -1.0 / p) if alpha == 0.0 else (W.values, -1.0)
    g = np.einsum("xij,xj->xi", W.power(g_power), f.values)
    out = np.zeros(mesh.n_cells)
    for grid in grids:
        for k in range(k_lo, k_hi + 1):
            q_cell, cont = oracle_cube_indices_per_cell(mesh, grid, k)
            width = 2.0**-k
            for q in range(int(q_cell.min()), int(q_cell.max()) + 1):
                xs = np.nonzero(cont & (q_cell == q))[0]
                if len(xs) == 0:
                    continue
                ys, wts = oracle_overlap_weights(mesh, grid.cube(k, q))
                if len(ys) == 0:
                    continue
                prod = np.einsum("xij,yj->xyi", A[xs], g[ys])
                vals = (np.linalg.norm(prod, axis=2) @ wts) / width
                out[xs] = np.maximum(out[xs], width**alpha * vals)
    return out


def oracle_ainfty_scalar_characteristic(
    W: MatrixWeight, p: float, n_dirs=64, grids=None, matrix_power=None, norm_power=None
) -> tuple[float, np.ndarray]:
    """``ainfty_scalar_characteristic`` with one ``ainfty_characteristic``
    call per direction weight."""
    dirs = unit_directions(W.d, n_dirs)
    mp = 1.0 / p if matrix_power is None else matrix_power
    npow = p if norm_power is None else norm_power
    best = (-np.inf, dirs[0])
    for v in dirs:
        wv = SampledWeight(W.mesh, np.linalg.norm(np.einsum("xij,j->xi", W.power(mp), v), axis=1) ** npow)
        val = ainfty_characteristic(wv, grids=grids).value
        if val > best[0]:
            best = (val, v)
    return best


def oracle_dominating_scalar_sparse(
    W: MatrixWeight, p: float, family: SparseFamily, f: MeshFunction, alpha: float = 0.0, q=None
) -> np.ndarray:
    """``dominating_scalar_sparse`` with one ``grid.average`` call per family cube."""
    fp = f.power(p)
    A = W.power(1.0 / p) if alpha == 0.0 else W.values
    out = np.zeros(f.mesh.n_cells)
    for cube in family.cubes:
        cells = W.cells_of(cube)
        red = reducing_matrix(W, cube, p) if alpha == 0.0 else fractional_reducing_matrix(W, cube, q)
        coeff = op_norm(np.einsum("xij,jk->xik", A[cells], red.inverse))
        out[cells] += cube.width**alpha * coeff * average(fp, cube) ** (1.0 / p)
    return out
