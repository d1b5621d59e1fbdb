"""Dyadic grids, cubes, and uniform meshes on the line.

Everything downstream (weights, operators, sparse families) is represented on
a uniform mesh over ``[-R, R)`` whose cells are half-open, left-closed
intervals.  Every cube/cell question is answered in integers, so set
measures are exact sums of cell widths: ``cube_span`` places a cube at
``[lo/den, hi/den)`` in cell units from the left mesh edge, read off the
per-level constants of ``_level_affine`` (integer indexing as in
Lerner-Nazarov, *Intuitive dyadic calculus*).  ``Fraction`` remains only at
the boundaries: points a caller supplies and ``Cube.left``/``Cube.right``.

The shifted dyadic grids implement the one-third-trick family

    D_j = { 2^{-k} ([0,1) + m + (-1)^k * j/3) : k, m integers },  j in {0,1,2}

which has the two properties the rest of the library relies on:

* within one grid, any two cubes are nested or disjoint;
* every bounded interval I is contained in a cube of one of the grids with
  |Q| <= 6 |I|.

Suprema "over all cubes" are approximated by suprema over these grids within
a level range (plus richer interval families where closed forms make them
cheap; see :mod:`weaklab.weights`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "Mesh",
    "MeshFunction",
    "DyadicGrid",
    "Cube",
    "shifted_grids",
    "average",
    "cube_span",
    "cells_inside",
    "default_levels",
]


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh of ``2**(level+1)`` half-open cells over ``[-radius, radius)``.

    Parameters
    ----------
    radius : float
        Half-width R of the domain.  Must be a binary rational with a small
        denominator (floats such as 4.0, 1.0, 0.5 qualify); a power of two
        makes the mesh cells coincide with standard dyadic cubes, which the
        Calderon-Zygmund and aligned sparse constructions require.
    level : int
        Refinement level L.  Cell width is ``h = R * 2**-L``; there are
        ``2**(L+1)`` cells.
    """

    radius: float
    level: int

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError(f"mesh radius must be positive and finite, got {self.radius}")
        if not (0 <= self.level <= 20):
            raise ValueError(f"mesh level must be in 0..20, got {self.level}")
        num, den = float(self.radius).as_integer_ratio()
        if den > 1024 or num > 2**20:
            raise ValueError(
                f"mesh radius {self.radius} is not a small binary rational; "
                "exact cube/cell arithmetic would overflow"
            )

    @property
    def n_cells(self) -> int:
        return 2 ** (self.level + 1)

    @property
    def h(self) -> float:
        return self.radius * 2.0 ** (-self.level)

    def edges(self) -> np.ndarray:
        """All ``n_cells + 1`` cell edges as floats (exact for binary radii)."""
        i = np.arange(self.n_cells + 1)
        return -self.radius + i * self.h

    def centers(self) -> np.ndarray:
        i = np.arange(self.n_cells)
        return -self.radius + (i + 0.5) * self.h

    def _position(self, x) -> Fraction:
        """Exact position of the point x in cell units from the left mesh edge."""
        if x != x or x in (-math.inf, math.inf):
            raise ValueError(f"point {x} is not a finite number")
        r = Fraction(self.radius)
        return (Fraction(x) + r) * 2**self.level / r

    def _clipped_position(self, x) -> Fraction:
        """``_position`` clipped to the domain [0, n_cells]; x may be infinite."""
        if x in (-math.inf, math.inf):
            return Fraction(0 if x < 0 else self.n_cells)
        return min(max(self._position(x), 0), self.n_cells)

    def cell_of(self, x) -> int:
        """Index of the cell containing x (x inside the domain)."""
        i = math.floor(self._position(x))
        if i < 0 or i >= self.n_cells:
            raise ValueError(f"point {x} outside mesh domain [-{self.radius}, {self.radius})")
        return i

    def cell_span(self, a, b) -> tuple[int, int]:
        """Smallest cell range [i0, i1) whose union covers [a, b) ∩ domain."""
        lo, hi = self._clipped_position(a), self._clipped_position(b)
        if hi <= lo:
            return (0, 0)
        return (math.floor(lo), math.ceil(hi))

    def is_power_of_two(self) -> bool:
        num, den = float(self.radius).as_integer_ratio()
        return (num == 1 and den & (den - 1) == 0) or (den == 1 and num & (num - 1) == 0)

    def aligned_cell_level(self) -> int:
        """Dyadic level k0 at which standard cubes coincide with mesh cells.

        Only meaningful when the radius is a power of two; raises otherwise.
        """
        if not self.is_power_of_two():
            raise ValueError(
                f"mesh radius {self.radius} is not a power of two; "
                "cells are not standard dyadic cubes"
            )
        return self.level - round(math.log2(self.radius))


class MeshFunction:
    """Piecewise-constant function on a :class:`Mesh`.

    ``values`` has shape ``(n_cells,)`` for scalar functions or
    ``(n_cells, d)`` for vector-valued ones.  The function is extended by
    zero outside the mesh domain wherever an integral asks for it.
    """

    __slots__ = ("mesh", "values")

    def __init__(self, mesh: Mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape[0] != mesh.n_cells:
            raise ValueError(f"expected {mesh.n_cells} cell values, got {values.shape[0]}")
        if not np.all(np.isfinite(values)):
            raise ValueError("mesh function values must be finite")
        self.mesh = mesh
        self.values = values

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zeros(cls, mesh: Mesh) -> "MeshFunction":
        return cls(mesh, np.zeros(mesh.n_cells))

    @classmethod
    def constant(cls, mesh: Mesh, c: float) -> "MeshFunction":
        return cls(mesh, np.full(mesh.n_cells, float(c)))

    @classmethod
    def indicator(cls, mesh: Mesh, a, b) -> "MeshFunction":
        """Indicator of [a, b); endpoints must lie on cell edges."""
        lo, hi = mesh._position(a), mesh._position(b)
        if lo.denominator != 1 or hi.denominator != 1:
            raise ValueError(f"indicator endpoints [{a}, {b}) do not align with mesh cells")
        v = np.zeros(mesh.n_cells)
        v[max(int(lo), 0) : max(min(int(hi), mesh.n_cells), 0)] = 1.0
        return cls(mesh, v)

    def embedded(self, new_radius: float) -> "MeshFunction":
        """Zero-extension onto a wider mesh with the same cell width."""
        ratio = Fraction(new_radius) / Fraction(self.mesh.radius)
        if ratio.denominator != 1 or ratio.numerator & (ratio.numerator - 1):
            raise ValueError("new radius must be a power-of-two multiple of the old one")
        grow = round(math.log2(ratio.numerator))
        big = Mesh(new_radius, self.mesh.level + grow)
        vals = np.zeros((big.n_cells, *self.values.shape[1:]))
        off = (big.n_cells - self.mesh.n_cells) // 2
        vals[off : off + self.mesh.n_cells] = self.values
        return MeshFunction(big, vals)

    # -- basic queries ----------------------------------------------------------

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == 2

    def magnitude(self) -> "MeshFunction":
        if self.is_vector:
            return MeshFunction(self.mesh, np.linalg.norm(self.values, axis=1))
        return MeshFunction(self.mesh, np.abs(self.values))

    def integral(self, a=None, b=None) -> float:
        """Integral of f over [a, b) ∩ domain (zero extension outside).

        Summed from the cells the interval covers (see ``_span_integrals``),
        so the rounding error scales with the interval's own mass.
        """
        if self.is_vector:
            raise TypeError("integrals of a vector function are undefined")
        pos_lo = 0 if a is None else self.mesh._clipped_position(a)
        pos_hi = self.mesh.n_cells if b is None else self.mesh._clipped_position(b)
        if pos_hi <= pos_lo:
            return 0.0
        den = math.lcm(pos_lo.denominator, pos_hi.denominator)
        # Python integers: a float endpoint such as 0.1 overflows int64
        nums = np.array([pos.numerator * (den // pos.denominator) for pos in (pos_lo, pos_hi)], dtype=object)
        return float(_span_integrals(self, nums[:1], nums[1:], den)[0])

    def average(self, a, b) -> float:
        """Integral over [a, b) divided by the full length b - a."""
        length = float(b) - float(a)
        if length <= 0:
            raise ValueError(f"degenerate interval [{a}, {b})")
        return self.integral(a, b) / length

    def lp_norm(self, p: float) -> float:
        mag = np.linalg.norm(self.values, axis=1) if self.is_vector else np.abs(self.values)
        if math.isinf(p):
            return float(mag.max(initial=0.0))
        return float((mag**p).sum() * self.mesh.h) ** (1.0 / p)

    # -- arithmetic (same mesh) --------------------------------------------------

    def _binop(self, other, op) -> "MeshFunction":
        if isinstance(other, MeshFunction):
            if other.mesh != self.mesh:
                raise ValueError("mesh functions live on different meshes")
            return MeshFunction(self.mesh, op(self.values, other.values))
        return MeshFunction(self.mesh, op(self.values, other))

    def __add__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return MeshFunction(self.mesh, -self.values)

    def __abs__(self):
        return self.magnitude()

    def power(self, s: float) -> "MeshFunction":
        return MeshFunction(self.mesh, np.abs(self.values) ** s)


# ---------------------------------------------------------------------------
# dyadic grids and cubes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicGrid:
    """One shifted dyadic grid of the line: its shift at level k is ``(-1)**k * shift_index / 3``."""

    shift_index: int = 0

    def __post_init__(self):
        if self.shift_index not in (0, 1, 2):
            raise ValueError(f"shift index must be 0, 1 or 2, got {self.shift_index}")

    def is_standard(self) -> bool:
        return self.shift_index == 0

    def cube_left(self, k: int, m: int) -> Fraction:
        """Left endpoint of cube (k, m): (m + (-1)^k j/3) * 2^-k, exactly."""
        sigma = -1 if k & 1 else 1
        return Fraction(3 * m + sigma * self.shift_index, 3) / Fraction(2) ** k

    def cube_index_of(self, k: int, x) -> int:
        """Index m of the level-k cube containing the point x."""
        sigma = -1 if k & 1 else 1
        return math.floor(Fraction(x) * Fraction(2) ** k - Fraction(sigma * self.shift_index, 3))

    def cube(self, k: int, m: int) -> "Cube":
        return Cube(level=k, index=m, grid=self)

    def cube_containing(self, k: int, x) -> "Cube":
        return self.cube(k, self.cube_index_of(k, x))

    def child_left_index(self, k: int, m: int) -> int:
        """Index of the left child (at level k+1) of cube (k, m)."""
        sigma = -1 if k & 1 else 1
        return 2 * m + sigma * self.shift_index

    def parent_index(self, k: int, m: int) -> int:
        """Index of the parent (at level k-1) of cube (k, m)."""
        sigma_parent = -1 if (k - 1) & 1 else 1
        return (m - sigma_parent * self.shift_index) // 2


@dataclass(frozen=True)
class Cube:
    """Dyadic cube: side 2**-level, placed by ``index`` within its grid."""

    level: int
    index: int
    grid: DyadicGrid = field(default_factory=DyadicGrid)

    @property
    def left(self) -> Fraction:
        return self.grid.cube_left(self.level, self.index)

    @property
    def right(self) -> Fraction:
        return self.grid.cube_left(self.level, self.index + 1)

    @property
    def width(self) -> float:
        return 2.0 ** (-self.level)

    def interval(self) -> tuple[float, float]:
        return (float(self.left), float(self.right))

    @property
    def label(self) -> str:
        """The name a report gives this cube: grid, level and grid index."""
        return f"grid{self.grid.shift_index}:k={self.level},m={self.index}"

    def contains_cube(self, other: "Cube") -> bool:
        return self.left <= other.left and other.right <= self.right

    def intersects(self, a, b) -> bool:
        return self.left < Fraction(b) and Fraction(a) < self.right

    def parent(self) -> "Cube":
        return Cube(self.level - 1, self.grid.parent_index(self.level, self.index), self.grid)

    def children(self) -> tuple["Cube", "Cube"]:
        lo = self.grid.child_left_index(self.level, self.index)
        return (Cube(self.level + 1, lo, self.grid), Cube(self.level + 1, lo + 1, self.grid))

    def __repr__(self):
        return f"Cube[{float(self.left):.6g}, {float(self.right):.6g})@k={self.level}"


def shifted_grids(n: int = 1) -> list[DyadicGrid]:
    """The three shifted dyadic grids of the line (dimension ``n = 1``)."""
    if n != 1:
        raise ValueError(f"shifted grids are built on the line only, got dimension {n}")
    return [DyadicGrid(j) for j in (0, 1, 2)]


def average(f: MeshFunction, Q: Cube) -> float:
    """Cube average <f>_Q = |Q|^-1 ∫_Q f, exact for the piecewise-constant f.

    Cells outside the mesh domain contribute zero mass but the full cube
    measure |Q| is kept in the denominator.  Bit-identical to
    ``f.integral(Q.left, Q.right) / Q.width`` (the same span, summed alike).
    """
    if f.is_vector:
        raise TypeError("integrals of a vector function are undefined")
    n = f.mesh.n_cells
    lo, hi, den = cube_span(f.mesh, Q)
    lo, hi = max(lo, 0), min(hi, n * den)
    if hi <= lo:
        return 0.0
    return float(_span_integrals(f, np.array([lo]), np.array([hi]), den)[0]) / Q.width


# ---------------------------------------------------------------------------
# integer cube geometry and all-level tables (one call per grid)
# ---------------------------------------------------------------------------


def default_levels(mesh: Mesh) -> tuple[int, int]:
    """Default dyadic level range: cube widths from ~2R down to one cell."""
    return -math.ceil(math.log2(2 * mesh.radius)), math.floor(math.log2(1.0 / mesh.h))


def _level_affine(mesh: Mesh, grid: DyadicGrid, k: int) -> tuple[int, int, int]:
    """Integer constants (a0, step, den) such that, exactly,

        (cell_edge_i - cube_shift) / cube_width = (a0 + i * step) / den.

    The cube index of the point at edge i is floor((a0 + i*step)/den), and
    cube m spans the cell positions [(m den - a0)/step, ((m+1) den - a0)/step).
    With R = p/q and s = max(0, L - k), multiplying through by 3 q 2^s gives
    the closed form below, reduced by the gcd.  For the meshes ``Mesh``
    accepts (p <= 2^20, q <= 1024, L <= 20), at every level of
    ``default_levels``, a0, step, den, a0 + n*step and the
    edge numerators m*den - a0 of cubes meeting the domain stay below 2^53
    (44 bits at most), so int64 arrays and their float conversions are exact.
    """
    p, q = float(mesh.radius).as_integer_ratio()
    s = max(0, mesh.level - k)
    sigma = -1 if k & 1 else 1
    a0 = -3 * p * 2 ** (k + s) - sigma * grid.shift_index * q * 2**s
    step = 3 * p * 2 ** (k + s - mesh.level)
    den = 3 * q * 2**s
    g = math.gcd(a0, step, den)
    return a0 // g, step // g, den // g


def cube_span(mesh: Mesh, cube: Cube) -> tuple[int, int, int]:
    """(lo, hi, den): the cube is [lo/den, hi/den) in cell units from the left
    mesh edge, exactly and unclipped."""
    a0, step, den = _level_affine(mesh, cube.grid, cube.level)
    lo = cube.index * den - a0
    return lo, lo + den, step


def cells_inside(mesh: Mesh, cube: Cube) -> np.ndarray:
    """Indices of mesh cells entirely inside the cube."""
    lo, hi, den = cube_span(mesh, cube)
    return np.arange(max(-(-lo // den), 0), min(hi // den, mesh.n_cells))


def cube_indices_per_cell(mesh: Mesh, grid: DyadicGrid, k0: int, k1: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, contained) per grid level k0..k1 (rows) and mesh cell (columns).

    ``q[j, i]`` is the index of the level-(k0 + j) cube containing the left
    endpoint of cell i; ``contained[j, i]`` says whether the whole cell sits
    inside that cube.  Exact integer arithmetic, all levels in one pass.
    """
    affine = np.array([_level_affine(mesh, grid, k) for k in range(k0, k1 + 1)], dtype=np.int64)
    a0, step, den = affine.reshape(-1, 3).T[..., None]
    num = a0 + np.arange(mesh.n_cells + 1, dtype=np.int64) * step
    q = num[:, :-1] // den
    return q, -(-num[:, 1:] // den) == q + 1  # the cell's right edge is at most the cube's


def level_cube_integrals(f: MeshFunction, grid: DyadicGrid, k0: int, k1: int) -> list[tuple[int, np.ndarray]]:
    """Integrals of f over every cube of levels k0..k1 meeting the mesh domain:
    one ``(q0, integrals)`` per level, with ``integrals[m]`` over cube ``q0 + m``.

    Cells straddling a cube edge are split exactly; f is zero outside the
    domain.  All levels go through one ``_span_integrals`` call, each span
    with its own level's denominator, so each entry is bit-identical to
    ``f.integral(cube.left, cube.right)``.  A vector f integrates component
    by component: ``integrals[m, c]`` is cube ``q0 + m``'s integral of c.
    """
    n = f.mesh.n_cells
    q0s, edges, dens = [], [], []
    for k in range(k0, k1 + 1):
        a0, step, den = _level_affine(f.mesh, grid, k)
        # cube m spans cell positions [(m den - a0)/step, ((m+1) den - a0)/step)
        q0s.append(a0 // den)
        inner = np.arange(a0 // den + 1, -(-(a0 + n * step) // den), dtype=np.int64) * den - a0
        edges.append(np.concatenate(([0], inner, [n * step])))
        dens.append(np.full(len(inner) + 1, step))
    if not q0s:
        return []
    lo, hi = np.concatenate([e[:-1] for e in edges]), np.concatenate([e[1:] for e in edges])
    ints = _span_integrals(f, lo, hi, np.concatenate(dens))
    return list(zip(q0s, np.split(ints, np.cumsum([len(d) for d in dens])[:-1])))


def _span_integrals(f: MeshFunction, lo: np.ndarray, hi: np.ndarray, den) -> np.ndarray:
    """Integrals of f over the spans [lo/den, hi/den), in cell units from the
    left mesh edge (integer arrays, 0 <= lo <= hi <= n_cells * den; ``den``
    one integer or one per span).

    Each span sums its own whole cells and adds the covered shares of its
    two straddling cells, so the rounding error scales with the span's own
    mass, not with the mass to its left (differencing one global prefix sum
    would).  Zero cells are left out of the sums, and ``count`` equal
    nonzero values sum to the one correctly rounded product ``count * v``.
    So spans holding the same blocks, or blocks of one height whose cell
    counts differ by a power of two, get floats in the exact ratio, and an
    exact stopping tie (such as a block alone in a cube and in its
    ancestor) stays a tie.  The shares are correctly rounded quotients of
    exact integers, so a span gives the same float whatever ``den``
    expresses it.

    A vector f (values ``(n_cells, r)``) gives ``(n_spans, r)``, each
    component summed as one contiguous row over the cells where any is
    nonzero: bit for bit the scalar result per column if all share one zero
    pattern.
    """
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
    low, high, total = (u.reduceat(vals, bounds, axis=-1)[..., ::2] for u in (np.minimum, np.maximum, np.add))
    whole = np.where(count <= 0, 0.0, np.where(low == high, count * low, total))
    same = i_lo == stop  # both ends in one cell
    w_lo = np.where(same, hi - lo, np.where(r_lo > 0, den - r_lo, 0)) / den
    w_hi = np.where(same, 0, r_hi) / den
    out = whole * h + v.take(i_lo, axis=-1) * h * w_lo + v.take(stop, axis=-1) * h * w_hi
    return np.asarray(out, dtype=float).T
