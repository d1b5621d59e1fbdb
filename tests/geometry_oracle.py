"""Reference cube/cell geometry: the exact ``Fraction`` versions that
``weaklab`` used before its integer cube-to-cell map (``grid.cube_span``).

Mesh edges, cell widths and cube endpoints here are ``Fraction``s, so every
question is answered by rational arithmetic on the cube's ``left``/``right``.
The differential tests in ``test_geometry.py`` require the integer versions
to agree with these byte for byte.

Three matrix-path loops that the level tables replaced live here too: the
cube-by-cube Christ-Goldberg maximal function over these overlap widths,
the direction-by-direction scalar ``A_inf`` characteristic, and the
reducing-matrix sparse operator with one ``grid.average`` call per cube.
So does the Christ-Goldberg sweep that ``grid.cell_cube_integrals``
replaced, which integrated every component over every cube, and
``oracle_cell_cube_integrals``, the ``cell_cube_integrals`` that derived
its (cube, cell) pairs on every call before grid kept them (now the
``index`` of ``grid._Geometry``), and ``oracle_level_window``, the per-level
spans joined per table batch that one span batch kept per (mesh, grid,
level window) replaced (now ``grid._Geometry.window``).  So do the
one-level-per-call table builders that ``grid.level_cube_integrals`` and
``grid.cube_indices_per_cell`` replaced by one call for all levels, the
one-pass span integrals ``oracle_span_integrals`` that derive each call's
cell geometry afresh (``grid._span_integrals`` reads it from a ``_Spans``
built once per mesh, grid and level window), the three-reduction kernel
``three_reduction_span_integrals`` that gathered f's values on every call
(``grid._span_integrals`` reads them from a run layout kept per function),
and the
``Fraction`` cube locators ``enumerate_cubes`` and ``covering_cube`` and the
cell range ``cells_inside``, which only tests use, and the ``Fraction``
locator ``oracle_cube_index_of`` that ``DyadicGrid.cube_index_of`` replaced
by integer arithmetic.  The cube-tree steps (parent, children, containment,
intersection) are free functions here: only the tests and the reference
walks of ``sparse_oracle`` use them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from weaklab.grid import (
    Cube,
    DyadicGrid,
    Mesh,
    MeshFunction,
    _level_affine,
    _level_cubes,
    _span_integrals,
    _Spans,
    average,
    cube_indices_per_cell,
    default_levels,
    inner_cell_range,
    level_cube_integrals,
    shifted_grids,
)
from weaklab.matrix import MatrixWeight, _cached_reduce, op_norm, reducing_matrix, unit_directions
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


def oracle_cube_index_of(grid: DyadicGrid, k: int, x) -> int:
    """Index of the level-k cube containing x: floor(x 2^k - (-1)^k j/3) in ``Fraction``s."""
    sigma = -1 if k & 1 else 1
    return math.floor(Fraction(x) * Fraction(2) ** k - Fraction(sigma * grid.shift_index, 3))


def child_left_index(grid: DyadicGrid, k: int, m: int) -> int:
    """Index of the left child (at level k+1) of cube (k, m)."""
    sigma = -1 if k & 1 else 1
    return 2 * m + sigma * grid.shift_index


def parent_index(grid: DyadicGrid, k: int, m: int) -> int:
    """Index of the parent (at level k-1) of cube (k, m)."""
    sigma_parent = -1 if (k - 1) & 1 else 1
    return (m - sigma_parent * grid.shift_index) // 2


def children(cube: Cube) -> tuple[Cube, Cube]:
    lo = child_left_index(cube.grid, cube.level, cube.index)
    return (Cube(cube.level + 1, lo, cube.grid), Cube(cube.level + 1, lo + 1, cube.grid))


def parent(cube: Cube) -> Cube:
    return Cube(cube.level - 1, parent_index(cube.grid, cube.level, cube.index), cube.grid)


def contains_cube(outer: Cube, inner: Cube) -> bool:
    return outer.left <= inner.left and inner.right <= outer.right


def intersects(cube: Cube, a, b) -> bool:
    """Whether the cube meets [a, b)."""
    return cube.left < Fraction(b) and Fraction(a) < cube.right


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
    """``level_cube_integrals`` one level at a time: one ``oracle_span_integrals``
    call over the level's cubes, all with the level's own denominator."""
    n = f.mesh.n_cells
    a0, step, den = _level_affine(f.mesh, grid, k)
    q0 = a0 // den
    q1 = -(-(a0 + n * step) // den) - 1
    inner = np.arange(q0 + 1, q1 + 1, dtype=np.int64) * den - a0
    edges = np.concatenate(([0], inner, [n * step]))
    return q0, oracle_span_integrals(f, edges[:-1], edges[1:], step)


def oracle_level_spans(mesh: Mesh, grid: DyadicGrid, k: int) -> tuple[int, _Spans]:
    """(q0, spans): the level-k cubes that meet the mesh domain, span m the
    part of cube q0 + m inside the domain, all with the level's one
    denominator."""
    a0, step, den = _level_affine(mesh, grid, k)
    cubes = _level_cubes(mesh, grid, k)
    inner = np.arange(cubes.start + 1, cubes.stop, dtype=np.int64) * den - a0
    edges = np.concatenate(([0], inner, [mesh.n_cells * step]))
    return cubes.start, _Spans(edges[:-1], edges[1:], step)


def oracle_level_window(mesh: Mesh, grid: DyadicGrid, levels) -> tuple[tuple, list, _Spans]:
    """``grid._Geometry.window`` by joining: (q0s, sizes, spans), the
    ``oracle_level_spans`` of ``levels`` joined in order, with each level's
    first cube and span count."""
    q0s, parts = zip(*(oracle_level_spans(mesh, grid, k) for k in levels))
    spans = object.__new__(_Spans)
    for name in _Spans.__slots__:
        setattr(spans, name, np.concatenate([getattr(part, name) for part in parts]))
        getattr(spans, name).flags.writeable = False
    return q0s, [len(part) for part in parts], spans


def oracle_cell_cube_integrals(f: MeshFunction, grid: DyadicGrid, k0: int, k1: int) -> np.ndarray:
    """``cell_cube_integrals`` with its (cube, cell) pairs derived per call:
    three ``np.repeat``s over the joined level spans give each pair's flat
    index ``j * n + x`` into the output, and the pairs' values are scattered
    there."""
    n = f.mesh.n_cells
    out = np.zeros((max(k1 - k0 + 1, 0), n))
    if k1 < k0:
        return out
    _, sizes, spans = oracle_level_window(f.mesh, grid, range(k0, k1 + 1))
    first, stop = spans.ends[::2], spans.ends[1::2]
    counts = np.maximum(stop - first, 0)  # cells wholly inside each span's cube
    # the flat index j * n + x in out of each (cube, cell) pair, x running up
    # from first along each span
    at = np.arange(counts.sum())
    at -= np.repeat(np.cumsum(counts) - counts - first - np.repeat(np.arange(k1 - k0 + 1) * n, sizes), counts)
    if f.is_vector:
        pairs = spans.take(np.repeat(np.arange(len(spans)), counts))
        np.put(out, at, _span_integrals(f, pairs, comp=at % n))
    else:
        np.put(out, at, np.repeat(np.concatenate([ints for _, ints in level_cube_integrals(f, grid, k0, k1)]), counts))
    return out


def oracle_span_integrals(f: MeshFunction, lo: np.ndarray, hi: np.ndarray, den, comp=None) -> np.ndarray:
    """``grid._span_integrals`` in one pass: integrals of f over the spans
    [lo/den, hi/den) in cell units from the left mesh edge (integer arrays,
    0 <= lo <= hi <= n_cells * den; ``den`` one integer or one per span),
    the whole-cell bounds and straddling shares derived in the same call."""
    h = f.mesh.h
    rows = f.values.T  # one row per component; a scalar f is its own row
    v = np.concatenate((rows, np.zeros((*rows.shape[:-1], 1))), axis=-1)  # a zero cell past the right edge
    i_lo, r_lo = lo // den, lo % den
    i_hi, r_hi = hi // den, hi % den
    first = (i_lo + (r_lo > 0)).astype(np.int64)  # whole cells [first, stop)
    stop = i_hi.astype(np.int64)
    i_lo = i_lo.astype(np.int64)
    nz = np.flatnonzero(rows.any(axis=0) if f.is_vector else rows)
    bounds = np.searchsorted(nz, np.stack([first, stop], axis=1).ravel())
    vals = v.take(np.append(nz, len(f.values)), axis=-1)  # the nonzero cells, then a zero
    count = bounds[1::2] - bounds[::2]  # nonzero whole cells
    same = i_lo == stop  # both ends in one cell
    if comp is not None:  # span s reads row comp[s] of the flattened rows
        bounds = bounds + np.repeat(comp * vals.shape[-1], 2)
        i_lo, stop = i_lo + comp * v.shape[-1], stop + comp * v.shape[-1]
        vals, v = vals.ravel(), v.ravel()
    low, high, total = (u.reduceat(vals, bounds, axis=-1)[..., ::2] for u in (np.minimum, np.maximum, np.add))
    whole = np.where(count <= 0, 0.0, np.where(low == high, count * low, total))
    w_lo = np.where(same, hi - lo, np.where(r_lo > 0, den - r_lo, 0)) / den
    w_hi = np.where(same, 0, r_hi) / den
    out = whole * h + v.take(i_lo, axis=-1) * h * w_lo + v.take(stop, axis=-1) * h * w_hi
    return np.asarray(out, dtype=float).T


def three_reduction_span_integrals(f: MeshFunction, spans: _Spans, comp=None) -> np.ndarray:
    """``grid._span_integrals`` before its run layout: f's values gathered
    afresh on every call, and three ``reduceat``s per batch, min and max to
    tell the spans whose nonzero cells hold one value (``count * min``) from
    the others (the sum)."""
    h = f.mesh.h
    rows = f.values.T  # one row per component; a scalar f is its own row
    v = np.concatenate((rows, np.zeros((*rows.shape[:-1], 1))), axis=-1)  # a zero cell past the right edge
    nz = np.flatnonzero(rows.any(axis=0) if f.is_vector else rows)
    bounds = np.searchsorted(nz, spans.ends)
    vals = v.take(np.append(nz, len(f.values)), axis=-1)  # the nonzero cells, then a zero
    count = bounds[1::2] - bounds[::2]  # nonzero whole cells
    i_lo, stop = spans.i_lo, spans.ends[1::2]
    if comp is not None:  # span s reads row comp[s] of the flattened rows
        bounds = bounds + np.repeat(comp * vals.shape[-1], 2)
        i_lo, stop = i_lo + comp * v.shape[-1], stop + comp * v.shape[-1]
        vals, v = vals.ravel(), v.ravel()
    low, high, total = (u.reduceat(vals, bounds, axis=-1)[..., ::2] for u in (np.minimum, np.maximum, np.add))
    whole = np.where(count <= 0, 0.0, np.where(low == high, count * low, total))
    out = whole * h + v.take(i_lo, axis=-1) * h * spans.w_lo + v.take(stop, axis=-1) * h * spans.w_hi
    return np.asarray(out, dtype=float).T


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
        m_lo = oracle_cube_index_of(grid, k, a)
        m_hi = oracle_cube_index_of(grid, k, b)
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


def cells_inside(mesh: Mesh, cube: Cube) -> np.ndarray:
    """Indices of mesh cells entirely inside the cube, from ``grid.inner_cell_range``."""
    return np.arange(*inner_cell_range(mesh, cube))


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
    return float(oracle_span_integrals(f, nums[:1], nums[1:], den)[0])


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


def all_components_christ_goldberg_maximal(
    W: MatrixWeight, p: float, f: MeshFunction, grids=None, min_level=None, max_level=None, alpha=0.0
) -> np.ndarray:
    """``christ_goldberg_maximal`` over the all-components level tables: per
    grid, one ``level_cube_integrals`` call integrates every component of
    N[y, x] = |A(x) g(y)| over every cube, and each level's contained cells
    read their own component; levels are not clipped at the cell level."""
    mesh = f.mesh
    k_top, k_fine = default_levels(mesh)
    k0, k1 = (k_top if min_level is None else min_level), (k_fine if max_level is None else max_level)
    A, g_power = (W.power(1.0 / p), -1.0 / p) if alpha == 0.0 else (W.values, -1.0)
    g = np.einsum("xij,xj->xi", W.power(g_power), f.values)
    N = MeshFunction(mesh, np.linalg.norm(np.einsum("xij,yj->yxi", A, g), axis=2))
    out = np.zeros(mesh.n_cells)
    cells = np.arange(mesh.n_cells)
    for grid in shifted_grids(1) if grids is None else grids:
        q_cell, cont_cell = cube_indices_per_cell(mesh, grid, k0, k1)
        levels = zip(range(k0, k1 + 1), level_cube_integrals(N, grid, k0, k1), q_cell, cont_cell)
        for k, (q0, ints), q, cont in levels:
            cand = (2.0**-k) ** (alpha - 1.0) * ints
            idx = q - q0
            sel = cont & (idx >= 0) & (idx < len(ints))
            out[sel] = np.maximum(out[sel], cand[idx[sel], cells[sel]])
    return out


def oracle_ainfty_scalar_characteristic(
    W: MatrixWeight, p: float, n_dirs=64, grids=None, alpha=0.0
) -> tuple[float, np.ndarray]:
    """``ainfty_scalar_characteristic`` with one ``ainfty_characteristic``
    call per direction weight."""
    dirs = unit_directions(W.d, n_dirs)
    mp, npow = (1.0 / p, p) if alpha == 0.0 else (1.0, 1.0 / (1.0 / p - alpha))
    best = (-np.inf, dirs[0])
    for v in dirs:
        wv = SampledWeight(W.mesh, np.linalg.norm(np.einsum("xij,j->xi", W.power(mp), v), axis=1) ** npow)
        val = ainfty_characteristic(wv, grids=grids).value
        if val > best[0]:
            best = (val, v)
    return best


def oracle_scalar_restriction_values(W: MatrixWeight, p: float, v: np.ndarray) -> np.ndarray:
    """The values of ``scalar_restriction(W, p, v)`` from one ``einsum`` of
    the field with the unit direction, as it computed them before it read
    ``_image_norms``, the expression of ``ainfty_scalar_characteristic``."""
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    return np.linalg.norm(np.einsum("xij,j->xi", W.power(1.0 / p), v), axis=1) ** p


def oracle_dominating_scalar_sparse(
    W: MatrixWeight, p: float, family: SparseFamily, f: MeshFunction, alpha: float = 0.0
) -> np.ndarray:
    """``dominating_scalar_sparse`` with one ``grid.average`` call per family cube."""
    q = 1.0 / (1.0 / p - alpha)  # used only for alpha > 0
    fp = f.power(p)
    A = W.power(1.0 / p) if alpha == 0.0 else W.values
    out = np.zeros(f.mesh.n_cells)
    for cube in family.cubes:
        cells = W.cells_of(cube)
        red = reducing_matrix(W, cube, p) if alpha == 0.0 else _cached_reduce(W, cube, 1.0, q)
        coeff = op_norm(np.einsum("xij,jk->xik", A[cells], red.inverse))
        out[cells] += cube.width**alpha * coeff * average(fp, cube) ** (1.0 / p)
    return out
