"""Reference candidate intervals: the per-``Cube`` loop that
``SearchSpace.intervals_for`` used before it built each grid level as
integer arrays, the cell-edge loop that gave the aligned cubes of a sampled
weight before they came from the same integer builder, and the
Fujii-Wilson per-grid sweep with its range of inside cubes found by
``Fraction`` scans instead of integer division, and the sharp reverse-Holder
bisection over the public ``rh_characteristic``, one full call per step.

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
from weaklab.grid import DyadicGrid, Mesh, MeshFunction
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
