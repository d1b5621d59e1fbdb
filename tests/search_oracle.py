"""Reference candidate intervals: the per-``Cube`` loop that
``SearchSpace.intervals_for`` used before it built each grid level as
integer arrays, the cell-edge loop that gave the aligned cubes of a sampled
weight before they came from the same integer builder, and the
Fujii-Wilson per-grid sweep with its range of inside cubes found by
``Fraction`` scans instead of integer division, the Fujii-Wilson sweep one
level at a time that ``weights._fujii_wilson`` ran before it stacked every
level of a grid into one pass, and the sharp reverse-Holder bisection over
the public ``rh_characteristic``, one full call per step, and the run
layout of a sampled weight's cell-aligned candidates that ``weights._Plan``
read before each candidate accumulated its own cells: block integrals
between candidate edges, summed (or minimized) along rows padded to powers
of two.

Every grid endpoint here is ``float(cube.left)`` / ``float(cube.right)`` of a
freshly built ``Cube``, i.e. the correctly rounded value of the exact
rational, or a float cell edge of the mesh.  The differential tests in
``test_weights.py`` require the array construction to agree with these
byte for byte.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from geometry_oracle import oracle_level_cube_integrals
from weaklab.grid import DyadicGrid, Mesh, MeshFunction, _read_only, _span_integrals, _Spans, inside_cubes, level_cube_integrals
from weaklab.weights import DegenerateWeightError, NonIntegrableError, SearchSpace, rh_characteristic


def oracle_intervals(search) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Closed-form-weight candidates of ``search`` as (lo, hi, labels)."""
    los: list[float] = []
    his: list[float] = []
    labels: list[str] = []
    a, b = search.domain
    for g in search.grids:
        for k in range(search.min_level, search.max_level + 1):
            q0 = g.cube_index_of(k, a)
            q1 = g.cube_index_of(k, b)
            for m in range(q0, q1 + 1):
                c = g.cube(k, m)
                lo, hi = float(c.left), float(c.right)
                if hi <= a or lo >= b:
                    continue
                los.append(lo)
                his.append(hi)
                labels.append(f"grid{g.shift_index}:k={k},m={m}")
    for t in search.anchored:
        if 0 < t <= b:
            los.append(0.0)
            his.append(float(t))
            labels.append(f"anchored:t={t:.6g}")
    ts = [t for t in search.two_sided if 0 < t <= b]
    for s in ts:
        for t in ts:
            los.append(-float(s))
            his.append(float(t))
            labels.append(f"two-sided:s={s:.6g},t={t:.6g}")
    return np.array(los), np.array(his), labels


def oracle_aligned_intervals(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Standard dyadic cubes inside the mesh domain, from width R down to
    cells, as (lo, hi) read off the float cell edges ``mesh.edges()``."""
    edges = mesh.edges()
    n = mesh.n_cells
    los: list[float] = []
    his: list[float] = []
    B = n // 2
    while B >= 1:
        for s in range(0, n, B):
            los.append(edges[s])
            his.append(edges[s + B])
        B //= 2
    return np.array(los), np.array(his)


def oracle_inside_range(mesh: Mesh, grid: DyadicGrid, k: int, q0: int, n: int) -> tuple[int, int]:
    """First and last level-k cubes inside the mesh domain, scanned inward
    in exact rationals from the table range ``[q0, q0 + n)``."""
    inside_lo = q0
    while grid.cube_left(k, inside_lo) < Fraction(-mesh.radius):
        inside_lo += 1
    inside_hi = q0 + n - 1
    while grid.cube_left(k, inside_hi + 1) > Fraction(mesh.radius):
        inside_hi -= 1
    return inside_lo, inside_hi


def reduceat_segment_sums(mass: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """The implementation's local sums of ``mass[seg[i]:seg[i+1]]``."""
    m_int = np.add.reduceat(np.append(mass, 0.0), seg)[:-1]
    m_int[seg[1:] == seg[:-1]] = 0.0
    return m_int


def fsum_segment_sums(mass: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """The correctly rounded sums of ``mass[seg[i]:seg[i+1]]``."""
    return np.array([math.fsum(mass[i:j]) for i, j in zip(seg[:-1], seg[1:])])


def oracle_fujii_wilson_one_grid(
    wbar: MeshFunction, grid: DyadicGrid, k_lo: int, k_fine: int, segment_sums=reduceat_segment_sums
):
    """``weights._fujii_wilson_one_grid`` with the inside range scanned by
    ``oracle_inside_range``; ``segment_sums(mass, seg)`` integrates the
    profile over each inside cube."""
    q0f, ints_f = oracle_level_cube_integrals(wbar, grid, k_fine)
    nf = len(ints_f)
    width_f = 2.0**-k_fine
    lefts_f_num = 3 * (q0f + np.arange(nf, dtype=np.int64)) + (-1 if k_fine & 1 else 1) * grid.shift_index
    profile = np.zeros(nf)
    best_val = -np.inf
    best_cube = None
    for k in range(k_fine, k_lo - 1, -1):
        q0, ints = oracle_level_cube_integrals(wbar, grid, k)
        avgs = ints / 2.0**-k
        shift_num = (-1 if k & 1 else 1) * grid.shift_index
        scale = 2 ** (k_fine - k)
        anc = (lefts_f_num - shift_num * scale) // (3 * scale)
        profile = np.maximum(profile, avgs[anc - q0])
        inside_lo, inside_hi = oracle_inside_range(wbar.mesh, grid, k, q0, len(ints))
        if inside_hi < inside_lo:
            continue
        seg = np.searchsorted(anc, np.arange(inside_lo, inside_hi + 2))
        m_int = segment_sums(profile * width_f, seg)
        wq = ints[inside_lo - q0 : inside_hi - q0 + 1]
        ok = wq > 0
        if not np.any(ok):
            continue
        vals = np.where(ok, m_int / np.where(ok, wq, 1.0), -np.inf)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_cube = (k, inside_lo + i)
    if best_cube is None:
        return -np.inf, 0, 0
    return best_val, *best_cube


def oracle_fujii_wilson(wbar: MeshFunction, grids, k_lo: int, k_fine: int):
    """``weights._fujii_wilson`` one level at a time: per grid and level, the
    ancestor of each finest cube located by ``DyadicGrid.index_at``, the
    running maximum updated, and the inside cubes' segments found by
    ``searchsorted`` and summed by their own ``np.add.reduceat``."""
    width_f = 2.0**-k_fine
    vals, blocks = [], []
    for grid in grids:
        tables = level_cube_integrals(wbar, grid, min(k_lo, k_fine), k_fine)  # k_fine even if k_lo > k_fine
        q0f, ints_f = tables[-1]  # finest-level geometry
        # left endpoint of finest cube i is lefts_f_num[i] / (3 * 2^k_fine), exactly
        lefts_f_num = grid.numerator(k_fine, q0f + np.arange(len(ints_f), dtype=np.int64))
        profile = np.zeros(ints_f.shape)
        for k, (q0, ints) in zip(range(k_fine, k_lo - 1, -1), reversed(tables)):
            anc = grid.index_at(k, lefts_f_num, 3, k_fine)  # each finest cube's level-k ancestor
            profile = np.maximum(profile, (ints / 2.0**-k)[anc - q0])
            inside = inside_cubes(wbar.mesh, grid, k)
            if not inside:
                continue
            # sums of profile * width_f over each inside cube's own segment
            seg = np.searchsorted(anc, np.arange(inside.start, inside.stop + 1))
            mass = np.concatenate((profile * width_f, np.zeros((1, *profile.shape[1:]))))
            m_int = np.add.reduceat(mass, seg, axis=0)[:-1]
            m_int[seg[1:] == seg[:-1]] = 0.0  # reduceat gives an empty segment its first entry
            wq = ints[inside.start - q0 : inside.stop - q0]
            ok = wq > 0
            vals.append(np.where(ok, m_int / np.where(ok, wq, 1.0), -np.inf))
            blocks.append((grid, k, np.arange(inside.start, inside.stop)))
    if not blocks:
        raise ValueError("no grid cube fits inside the mesh domain")
    return np.concatenate(vals), blocks


def oracle_sharp_rh_exponent(weight, search=None, bound=2.0, ceiling=64.0, rel_tol=1e-4) -> float:
    """``sharp_rh_exponent`` as a bisection over ``rh_characteristic``, which
    rebuilds the candidates and re-averages w at every step."""
    search = search or SearchSpace.anchored_only()

    def ok(s: float) -> bool:
        try:
            return rh_characteristic(weight, s, search).value <= bound
        except NonIntegrableError:
            return False

    if ok(ceiling):
        return ceiling
    lo = 1.0 + 1e-6
    if not ok(lo):
        raise DegenerateWeightError("no reverse-Holder exponent > 1 found")
    hi = ceiling
    while (hi - lo) > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def oracle_cell_runs(mesh: Mesh, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """(edges, rows, pick, pad, blocks): the run layout of the cell-aligned
    candidates [lo, hi), read-only.  ``edges`` are the cell edges that end a
    candidate, and ``blocks`` (one ``_Spans``) the cell runs between
    consecutive ones.  Each left edge gets one row of block indices, as far
    as its longest candidate reaches, padded to the next power of two past
    the last block (``pad`` entries); ``rows`` holds the rows of each width
    as one array, and ``pick`` is each candidate's position, in the rows
    flattened, at its last block.  A running sum or minimum along the rows
    read at ``pick`` gives every candidate's, each from its own left edge."""
    i_lo, i_hi = (np.round((x + mesh.radius) / mesh.h).astype(np.int64) for x in (lo, hi))
    is_edge = np.zeros(mesh.n_cells + 1, dtype=bool)
    is_edge[i_lo] = is_edge[i_hi] = True
    edges = np.flatnonzero(is_edge)
    block_of = np.cumsum(is_edge) - 1  # block index at each cell edge
    first, length = block_of[i_lo], block_of[i_hi] - block_of[i_lo]
    reach = np.zeros(len(edges), dtype=np.int64)
    np.maximum.at(reach, first, length)  # blocks the row from each edge covers
    width = np.where(reach > 0, 1 << np.ceil(np.log2(np.maximum(reach, 1))).astype(np.int64), 0)
    rows, start = [], np.zeros(len(edges), dtype=np.int64)  # start: a row's offset in the runs
    for w in np.unique(width[width > 0]):
        at = np.flatnonzero(width == w)
        start[at] = sum(map(np.size, rows)) + w * np.arange(len(at))
        rows.append(_read_only(at[:, None] + np.arange(w)))  # padding past the end reads the pad
    pick = start[first] + length - 1
    return _read_only(edges), tuple(rows), _read_only(pick), int(width.max(initial=0)), _Spans(edges[:-1], edges[1:], 1)


def _oracle_runs(layout: tuple, blocks: np.ndarray, accumulate, fill: float) -> np.ndarray:
    """``accumulate`` along each candidate's row of per-block values, read
    at the candidate's last block."""
    _, rows, pick, pad, _ = layout
    blocks = np.concatenate((blocks, np.full(pad, fill)))
    runs = [accumulate(blocks[r], axis=1).ravel() for r in rows]
    return np.concatenate([np.empty(0)] + runs)[pick]


def oracle_run_averages(weight, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A sampled weight's averages on the cell-aligned [lo, hi): the block
    integrals (``_span_integrals``) summed along the rows of
    ``oracle_cell_runs``."""
    layout = oracle_cell_runs(weight.mesh, lo, hi)
    blocks = _span_integrals(weight.as_mesh_function(), layout[4])
    return _oracle_runs(layout, blocks, np.cumsum, 0.0) / (hi - lo)


def oracle_run_essinfs(weight, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A sampled weight's infima on the cell-aligned [lo, hi): the block
    minima (one ``reduceat``) minimized along the rows of
    ``oracle_cell_runs``."""
    layout = oracle_cell_runs(weight.mesh, lo, hi)
    mins = np.minimum.reduceat(np.append(weight.values, np.inf), layout[0])[:-1]  # the segment from the last edge is dropped
    return _oracle_runs(layout, mins, np.minimum.accumulate, np.inf)
