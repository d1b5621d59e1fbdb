"""Dyadic grids, cubes, and uniform meshes on the line.

Everything downstream (weights, operators, sparse families) is represented on
a uniform mesh over ``[-R, R)`` whose cells are half-open, left-closed
intervals.  Every cube/cell question is answered in integers, so set
measures are exact sums of cell widths: ``cube_span`` places a cube at
``[lo/den, hi/den)`` in cell units from the left mesh edge, read off the
per-level constants of ``_level_affine`` (integer indexing as in
Lerner-Nazarov, *Intuitive dyadic calculus*), and ``inside_cubes`` names a
level's cubes that lie wholly inside the domain; no other module reads
``_level_affine``.  ``Fraction`` remains only at the boundaries: the mesh
positions of points a caller supplies (``Mesh._position``, called only
here) and ``Cube.left``/``Cube.right``.

Geometry once per key, values per function: which cells a cube covers,
and the exact shares of the cells straddling its edges, depend only on the
mesh, the grid and the level.  So ``_level_affine`` keeps each level's
integer constants, and one ``_Geometry`` per (mesh, grid, level window)
holds its readers' parts, each built on first use and addressing the
layout of a cube table (``at``): a table's spans (``window``), each cell's
containing cubes (``index``, the maximal sweep), a vector integrand's
(cube, cell) pairs (``pairs``, Christ-Goldberg), the Fujii-Wilson sweep
(``sweep``) and the aligned cubes with their cells per cube of each level
(``aligned_layout``, a sampled weight's and the matrix characteristics'
candidates).  ``_span_integrals`` only gathers and sums values, read
through a run layout kept per function (``_Runs``).  A cell
scan (``_scan_layout``: every interval of whole cells, O(n^2) candidates,
each read from its first to its last cell) is built per call, and one of
more than 2^21 intervals is refused by name.  One size rule,
``_geometry``, keeps a window's geometry (``_kept_geometry``, a fixed-size
``functools.lru_cache`` on frozen keys) on meshes of at most
``_CACHED_CELLS`` cells and builds it per call on finer ones, where the
spans (80 bytes a cell) would keep 0.5 GB for three grids at level 20, and
each index (8 bytes a cell and level) 1.1 GB.

The shifted dyadic grids implement the one-third-trick family

    D_j = { 2^{-k} ([0,1) + m + (-1)^k * j/3) : k, m integers },  j in {0,1,2}

Its one index primitive is ``DyadicGrid.numerator``, ``N = 3m + (-1)^k j``
for cube (k, m) = ``[N, N + 3) / (3 * 2^k)``: cube edges, the locator
``DyadicGrid.index_at`` and ``_level_affine`` derive from it, and no other
module reads ``shift_index``.  The family has the two properties the rest
of the library relies on:

* within one grid, any two cubes are nested or disjoint;
* every bounded interval I is contained in a cube of one of the grids with
  |Q| <= 6 |I|.

Suprema "over all cubes" are approximated by suprema over these grids within
a level range (plus richer interval families where closed forms make them
cheap; see :mod:`weaklab.weights`).
"""

from __future__ import annotations

import functools
import math
import numbers
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
    "inner_cell_range",
    "inside_cubes",
    "default_levels",
    "exact_ratio",
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
        if not isinstance(self.level, numbers.Integral) or isinstance(self.level, bool):
            raise ValueError(f"mesh level must be an integer, got {self.level!r}")
        object.__setattr__(self, "level", int(self.level))
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

    A mesh function is an immutable value: ``values`` is a read-only copy
    of the input, so what is kept on it holds for its whole lifetime: the
    one cube table per grid (``_tables``, see ``_cube_table``) and the run
    layout every span integral reads (``_runs``, see ``_Runs``).
    """

    __slots__ = ("mesh", "values", "_tables", "_windows", "_runs")

    def __init__(self, mesh: Mesh, values):
        values = np.array(values, dtype=float)
        if values.ndim not in (1, 2):
            raise ValueError(f"mesh function values must be 1-d or 2-d, got shape {values.shape}")
        if values.shape[0] != mesh.n_cells:
            raise ValueError(f"expected {mesh.n_cells} cell values, got {values.shape[0]}")
        if not np.all(np.isfinite(values)):
            raise ValueError("mesh function values must be finite")
        values.flags.writeable = False
        self.mesh = mesh
        self.values = values
        self._tables, self._windows = {}, {}  # grid -> one read-only table, and its levels
        self._runs = None  # the values as the span kernel reads them (``_Runs``)

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
        (p1, q1), (p0, q0) = (float(r).as_integer_ratio() for r in (new_radius, self.mesh.radius))
        ratio, rest = divmod(p1 * q0, q1 * p0)
        if rest or ratio < 1 or ratio & (ratio - 1):
            raise ValueError("new radius must be a power-of-two multiple of the old one")
        grow = ratio.bit_length() - 1
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
        """|f|: f itself (and its tables) when no value has its sign bit set."""
        if self.is_vector:
            return MeshFunction(self.mesh, np.linalg.norm(self.values, axis=1))
        if not np.signbit(self.values).any():
            return self
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
        return float(_span_integrals(self, _Spans(nums[:1], nums[1:], den))[0])

    def average(self, a, b) -> float:
        """Integral over [a, b) divided by the full length b - a."""
        return self.integral(a, b) / _length(a, b)

    def lp_norm(self, p: float) -> float:
        if not p > 0:
            raise ValueError(f"L^p norm needs p > 0, got {p}")
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


def _length(a, b) -> float:
    """b - a of a non-empty interval [a, b), else a ValueError that names it."""
    if not float(b) > float(a):  # false at NaN too
        raise ValueError(f"degenerate interval [{a}, {b})")
    return float(b) - float(a)


def exact_ratio(x) -> tuple[int, int]:
    """(p, q), q > 0, with x = p / q exactly, for a finite int, float or ``Fraction``."""
    if x != x or x in (-math.inf, math.inf):
        raise ValueError(f"point {x} is not a finite number")
    return (int(x), 1) if isinstance(x, numbers.Integral) else x.as_integer_ratio()


@dataclass(frozen=True)
class DyadicGrid:
    """One shifted dyadic grid of the line: its shift at level k is ``(-1)**k * shift_index / 3``."""

    shift_index: int = 0

    def __post_init__(self):
        j = self.shift_index
        if not isinstance(j, numbers.Integral) or isinstance(j, bool) or j not in (0, 1, 2):
            raise ValueError(f"shift index must be 0, 1 or 2, got {j!r}")
        object.__setattr__(self, "shift_index", int(j))

    def is_standard(self) -> bool:
        return self.shift_index == 0

    def numerator(self, k, m):
        """3 * 2^k times the left edge of cube (k, m): ``3m + (-1)^k j`` for
        ints or int64 arrays k and m.  Cube (k, m) is ``[N, N + 3) / (3 * 2^k)``;
        every index rule of the grid derives from this one."""
        return 3 * m + self.shift_index * (1 - 2 * (k & 1))

    def index_at(self, k: int, num, den: int, scale: int = 0):
        """Index of the level-k cube containing the exact point
        ``x = num / (den * 2^scale)`` (num an int or an int64 array, den > 0):
        ``floor(x 2^k - (-1)^k j/3)``, its numerator and denominator
        multiplied through by ``3 den 2^max(scale - k, 0)``."""
        s, t = max(k - scale, 0), max(scale - k, 0)
        return (3 * num * 2**s - self.numerator(k, 0) * den * 2**t) // (3 * den * 2**t)

    def cube_left(self, k: int, m: int) -> Fraction:
        """Left endpoint of cube (k, m), exactly."""
        return Fraction(self.numerator(k, m), 3) / Fraction(2) ** k

    def cube_index_of(self, k: int, x) -> int:
        """Index m of the level-k cube containing the point x (int, float or
        ``Fraction``), in integers on ``exact_ratio(x)``."""
        return self.index_at(k, *exact_ratio(x))

    def cube(self, k: int, m: int) -> "Cube":
        return Cube(level=k, index=m, grid=self)

    def cube_containing(self, k: int, x) -> "Cube":
        return self.cube(k, self.cube_index_of(k, x))


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
    measure |Q| is kept in the denominator.
    """
    return f.integral(Q.left, Q.right) / Q.width


# ---------------------------------------------------------------------------
# integer cube geometry (once per mesh, grid and level window) and all-level tables
# ---------------------------------------------------------------------------


def default_levels(mesh: Mesh) -> tuple[int, int]:
    """Default dyadic level range: cube widths from ~2R down to one cell."""
    return -math.ceil(math.log2(2 * mesh.radius)), math.floor(math.log2(1.0 / mesh.h))


def _fractional_order(alpha: float) -> float:
    """alpha when it is a fractional order, 0 < alpha < n = 1.  Every
    operator that takes an order accepts 0 or such an alpha."""
    if not (0 < alpha < 1):
        raise ValueError(f"fractional order must satisfy 0 < alpha < n = 1, got {alpha}")
    return alpha


def _fractional_exponent(p: float, alpha: float) -> float:
    """The q of 1/p - 1/q = alpha (n = 1), for a fractional order alpha below
    1/p: the exponent at which the fractional operators map L^p into weak L^q."""
    if not _fractional_order(alpha) < 1.0 / p:
        raise ValueError(f"alpha = {alpha} must lie below 1/p = {1.0 / p} (p = {p}), so that 1/q = 1/p - alpha > 0")
    return 1.0 / (1.0 / p - alpha)


def _weak_exponent(p: float, alpha: float | None) -> float:
    """The weak-type exponent of an operator of order alpha at L^p: p at
    order 0 (or None), else the fractional q of ``_fractional_exponent``."""
    return _fractional_exponent(p, alpha) if alpha else p


@functools.lru_cache(maxsize=1024, typed=True)
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
    A level far enough outside that range to break the bound raises
    ``ValueError``, naming the coarsest (or finest) level that keeps it
    (an exception is never cached, so every such call raises).
    """
    affine = _unchecked_level_affine(mesh, grid, k)
    if not _exact_affine(mesh, *affine):
        raise ValueError(_level_range_error(mesh, grid, k))
    return affine


def _unchecked_level_affine(mesh: Mesh, grid: DyadicGrid, k: int) -> tuple[int, int, int]:
    p, q = float(mesh.radius).as_integer_ratio()
    s = max(0, mesh.level - k)
    a0 = -3 * p * 2 ** (k + s) - grid.numerator(k, 0) * q * 2**s
    step = 3 * p * 2 ** (k + s - mesh.level)
    den = 3 * q * 2**s
    g = math.gcd(a0, step, den)
    return a0 // g, step // g, den // g


def _exact_affine(mesh: Mesh, a0: int, step: int, den: int) -> bool:
    """Whether a0, step, den, a0 + n*step and the cube-edge numerators (all
    within abs(a0) + n*step + den) stay below 2^53."""
    return abs(a0) + mesh.n_cells * step + den < 2**53


def _level_range_error(mesh: Mesh, grid: DyadicGrid, k: int) -> str:
    """Name the coarsest (or finest) exact level, from the default range outward."""
    k_top, k_fine = default_levels(mesh)
    side, edge, step = ("coarse", k_top, -1) if k < k_top else ("fine", k_fine, 1)
    while _exact_affine(mesh, *_unchecked_level_affine(mesh, grid, edge + step)):
        edge += step
    return (
        f"dyadic level {k} is too {side} for {mesh} on {grid}: the {side}st level whose "
        f"integer cube map stays below 2^53 is {edge}"
    )


def cube_span(mesh: Mesh, cube: Cube) -> tuple[int, int, int]:
    """(lo, hi, den): the cube is [lo/den, hi/den) in cell units from the left
    mesh edge, exactly and unclipped."""
    a0, step, den = _level_affine(mesh, cube.grid, cube.level)
    lo = cube.index * den - a0
    return lo, lo + den, step


def inner_cell_range(mesh: Mesh, cube: Cube) -> tuple[int, int]:
    """[i0, i1): the mesh cells entirely inside the cube (i0 == i1 when none)."""
    lo, hi, den = cube_span(mesh, cube)
    i0 = max(-(-lo // den), 0)
    return i0, max(min(hi // den, mesh.n_cells), i0)


def inside_cubes(mesh: Mesh, grid: DyadicGrid, k: int) -> range:
    """The indices m of the level-k cubes lying wholly inside the mesh
    domain (an empty range when none does)."""
    a0, step, den = _level_affine(mesh, grid, k)
    # cube m spans cell positions [(m den - a0)/step, ((m+1) den - a0)/step)
    return range(-(-a0 // den), (a0 + mesh.n_cells * step) // den)


def cube_indices_per_cell(mesh: Mesh, grid: DyadicGrid, k0: int, k1: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, contained) per grid level k0..k1 (rows) and mesh cell (columns).

    ``q[j, i]`` is the index of the level-(k0 + j) cube containing the left
    endpoint of cell i; ``contained[j, i]`` says whether the whole cell sits
    inside that cube.  Exact integer arithmetic, all levels in one pass.
    """
    affine = [_level_affine(mesh, grid, k) for k in range(k0, k1 + 1)]
    a0, step, den = np.array(affine, dtype=np.int64).reshape(-1, 3).T[..., None]
    num = a0 + np.arange(mesh.n_cells + 1, dtype=np.int64) * step
    q = num[:, :-1] // den
    return q, -(-num[:, 1:] // den) == q + 1  # the cell's right edge is at most the cube's


def _level_cubes(mesh: Mesh, grid: DyadicGrid, k: int) -> range:
    """The indices of the level-k cubes that meet the mesh domain."""
    a0, step, den = _level_affine(mesh, grid, k)
    # cube m spans cell positions [(m den - a0)/step, ((m+1) den - a0)/step)
    return range(a0 // den, max(-(-(a0 + mesh.n_cells * step) // den), a0 // den + 1))


_CACHED_CELLS = 2**13  # finer meshes build their geometry per call


def _geometry(mesh: Mesh, grid: DyadicGrid, levels: tuple[int, ...]) -> "_Geometry":
    """The one size rule: the ``_Geometry`` of ``levels`` kept on meshes of at
    most ``_CACHED_CELLS`` cells, built afresh (and not kept) on finer ones."""
    return (_kept_geometry if mesh.n_cells <= _CACHED_CELLS else _Geometry)(mesh, grid, levels)


@functools.lru_cache(maxsize=16, typed=True)  # the three workloads read 5, 10 and 7 keys
def _kept_geometry(mesh: Mesh, grid: DyadicGrid, levels: tuple[int, ...]) -> "_Geometry":
    return _Geometry(mesh, grid, levels)


class _Geometry:
    """The geometry of a level window: the cubes of ``levels`` of ``grid``
    that meet the domain of ``mesh`` (``cubes``, one range per level), laid
    out as a cube table, ``[0, level 0 ..., 0, level 1 ..., 0, ..., 0]``:
    level j's cubes start at ``at[j]``, and ``at[-1]`` is the length.  A
    level out of the exact range raises here, before anything is kept.
    Each part below is built on first use and read-only."""

    def __init__(self, mesh: Mesh, grid: DyadicGrid, levels: tuple[int, ...]):
        self.mesh, self.grid, self.levels = mesh, grid, levels
        self.cubes = tuple(_level_cubes(mesh, grid, k) for k in levels)
        self.at = _read_only(np.cumsum([1] + [len(c) + 1 for c in self.cubes]))

    @functools.cached_property
    def window(self) -> "_Spans":
        """The spans of a table: the part inside the domain of each cube,
        with its own level's denominator, and an empty span at each zero."""
        n, empty = self.mesh.n_cells, np.zeros(1, dtype=np.int64)
        lo, hi, den = [empty], [empty], [empty + 1]
        for k, cubes in zip(self.levels, self.cubes):
            a0, step, d = _level_affine(self.mesh, self.grid, k)
            edges = np.clip(np.arange(cubes.start, cubes.stop + 1, dtype=np.int64) * d - a0, 0, n * step)
            lo += [edges[:-1], empty]
            hi += [edges[1:], empty]
            den.append(np.full(len(cubes) + 1, step, dtype=np.int64))
        return _Spans(*map(np.concatenate, (lo, hi, den)))

    def table(self, f: MeshFunction) -> np.ndarray:  # one batch over ``window``
        return _read_only(_span_integrals(f, self.window))

    @functools.cached_property
    def index(self) -> np.ndarray:
        """(levels, cells): the table position of the level-j cube wholly
        containing cell x, 0 (a zero) where none does (the maximal sweep);
        built row by row, so the int64 temporaries take one row."""
        index = np.zeros((len(self.levels), self.mesh.n_cells), dtype=np.intp)
        for row, k, cubes, at in zip(index, self.levels, self.cubes, self.at):
            (q,), (contained,) = cube_indices_per_cell(self.mesh, self.grid, k, k)
            np.add(q, at - cubes.start, out=row, where=contained)
        return _read_only(index)

    @functools.cached_property
    def pairs(self) -> tuple:
        """(at, comp, spans): the (cube, cell) pairs of the nonzero ``index``
        entries, which a vector integrand reads (Christ-Goldberg), cell by
        cell and coarse to fine within a cell: each pair's flat position in
        the (levels, cells) output, its cell and its cube's span.  So
        consecutive spans read one component and nest, and the gaps that
        ``_span_integrals``' reduction also sums (and drops) stay short."""
        comp, level = np.nonzero(self.index.T)
        spans = self.window.take(self.index[level, comp])
        return _read_only(level * self.mesh.n_cells + comp), _read_only(comp), spans

    @functools.cached_property
    def sweep(self) -> tuple:
        """(gather, seg, cubes, empty, inside, blocks), the Fujii-Wilson
        sweep's geometry, read through the cubes of the finest level k_fine:

        * ``gather`` (levels + 1, finest cubes): row r the table position of
          each finest cube's level-(k_fine - r) ancestor, and a last row of 0;
        * ``seg``: ``np.add.reduceat`` bounds into the rows of a value per
          (row, finest cube), flattened: per row with cubes inside the mesh
          domain (``inside_cubes``), the first finest cube of each such cube
          and the end of the last (at most the start of the last row);
        * ``cubes``: the reduceat sums that are inside cubes, in row order,
          left to right, and ``empty`` those of them with no finest cube;
        * ``inside``: the same cubes' table positions;
        * ``blocks``: the same cubes as ``(grid, k, m)`` blocks.
        """
        grid, levels = self.grid, self.levels
        fine, k_fine = (self.cubes[-1], levels[-1]) if levels else (range(0), 0)
        lefts = grid.numerator(k_fine, np.arange(fine.start, fine.stop, dtype=np.int64))
        gather = np.zeros((len(levels) + 1, len(fine)), dtype=np.intp)
        seg, cubes, empty, inside, blocks = [], [], [], [], []
        for r, j in enumerate(reversed(range(len(levels)))):
            k, at = levels[j], self.at[j] - self.cubes[j].start  # the position of cube 0
            anc = grid.index_at(k, lefts, 3, k_fine)  # each finest cube's level-k ancestor
            gather[r] = at + anc
            ins = inside_cubes(self.mesh, grid, k)
            if not ins:
                continue
            bounds = np.searchsorted(anc, np.arange(ins.start, ins.stop + 1))
            cubes.append(sum(map(len, seg)) + np.arange(len(ins)))
            seg.append(r * len(fine) + bounds)
            empty.append(bounds[1:] == bounds[:-1])
            inside.append(at + np.arange(ins.start, ins.stop))
            blocks.append((grid, k, _read_only(np.arange(ins.start, ins.stop))))
        arrays = [np.concatenate([np.zeros(0, dtype=t)] + parts) for t, parts in ((np.intp, seg), (np.intp, cubes), (bool, empty), (np.intp, inside))]
        return (_read_only(gather), *map(_read_only, arrays), tuple(blocks))

    @functools.cached_property
    def aligned_layout(self) -> tuple:
        """(lo, hi, label, cells): the window's cubes, coarse to fine, left to
        right (``_cubes``), and each level's cells per cube (a sampled
        weight's candidates, and the matrix characteristics' cubes).  The
        cubes must tile the cells (the standard grid on a power-of-two
        radius, down to the cell level)."""
        lo, hi, label = _cubes([(self.grid, k, np.arange(c.start, c.stop)) for k, c in zip(self.levels, self.cubes)])
        return _read_only(lo), _read_only(hi), label, tuple(self.mesh.n_cells // len(c) for c in self.cubes)


def _cube_table(f: MeshFunction, grid: DyadicGrid, k0: int, k1: int) -> tuple[_Geometry, np.ndarray, int]:
    """(geometry, table, j): f's one table on ``grid``, the ``_Geometry`` of
    its window, the hull of ``default_levels(mesh)[0]`` and the levels asked
    for so far, and level k0's row in it.  A request outside the window
    builds the hull in one batch; each span's float depends on its own
    cells alone, so no entry moves."""
    lo, hi = f._windows.get(grid) or (default_levels(f.mesh)[0],) * 2
    window = (min(lo, k0), max(hi, k1)) if k0 <= k1 else (lo, hi)  # an empty request widens nothing
    levels = tuple(range(window[0], window[1] + 1))
    if f._windows.get(grid) != window:  # on a fine mesh the spans go with their fresh geometry
        f._tables[grid], f._windows[grid] = _geometry(f.mesh, grid, levels).table(f), window
    return _geometry(f.mesh, grid, levels), f._tables[grid], k0 - window[0]


def level_cube_integrals(f: MeshFunction, grid: DyadicGrid, k0: int, k1: int) -> list[tuple[int, np.ndarray]]:
    """Integrals of f over every cube of levels k0..k1 meeting the mesh domain:
    one ``(q0, integrals)`` per level, with ``integrals[m]`` over cube ``q0 + m``.

    Cells straddling a cube edge are split exactly; f is zero outside the
    domain.  Each level is a read-only view of f's table (``_cube_table``),
    each entry bit-identical to ``f.integral(cube.left, cube.right)``.  A
    vector f integrates component by component: ``integrals[m, c]`` is cube
    ``q0 + m``'s integral of c.
    """
    if k0 > k1:
        return []
    geometry, table, j = _cube_table(f, grid, k0, k1)
    return [(c.start, table[at : at + len(c)]) for c, at in zip(geometry.cubes[j : j + k1 - k0 + 1], geometry.at[j:])]


def cell_cube_integrals(f: MeshFunction, grid: DyadicGrid, k0: int, k1: int) -> np.ndarray:
    """Per level k0..k1 (rows) and mesh cell x (columns): the integral of f
    over the level's cube that wholly contains cell x, 0 where none does.

    The (cube, cell) pairs are the nonzero entries of a ``_geometry``'s
    ``index``.  A scalar f reads them from its table (``_cube_table``).  A
    vector f has one component per cell, and cell x reads component x: only
    those pairs (``pairs``) are integrated, in one ``_span_integrals`` call,
    each entry bit-identical to column x of its cube's table entry.
    """
    if not f.is_vector:
        geometry, table, j = _cube_table(f, grid, k0, k1)
        return table[geometry.index[j : j + max(k1 - k0 + 1, 0)]]
    geometry = _geometry(f.mesh, grid, tuple(range(k0, k1 + 1)))
    out = np.zeros((len(geometry.levels), f.mesh.n_cells))
    at, comp, spans = geometry.pairs
    out.flat[at] = _span_integrals(f, spans, comp=comp)
    return out


def _cubes(blocks):
    """(lo, hi, label) of the cubes of the ``(grid, k, m)`` blocks, in block
    order; ``label(i)`` names cube i by its ``Cube``.  The order is the tie
    rule of ``weights._report``, the first maximum: for a search space grid
    by grid, coarse to fine, left to right (``weights._grid_cubes``); for
    Fujii-Wilson grid by grid, fine to coarse, left to right
    (``weights._fujii_wilson``); for the matrix weights the standard cubes of
    the mesh from width R down to one cell, left to right, the list of
    ``SearchSpace.aligned_cubes()`` (``_Geometry.aligned_layout``)."""
    sizes = [len(m) for _, _, m in blocks]
    num = np.concatenate([np.empty(0, dtype=np.int64)] + [g.numerator(k, m) for g, k, m in blocks])
    scale = np.repeat([2.0**-k for _, k, _ in blocks], sizes)  # each cube's width
    starts = np.cumsum([0] + sizes)

    def label(i: int) -> str:
        j = int(np.searchsorted(starts, i, side="right")) - 1
        g, k, m = blocks[j]
        return g.cube(k, int(m[i - starts[j]])).label

    return num * scale / 3.0, (num + 3) * scale / 3.0, label


_MAX_SCAN_INTERVALS = 2**21  # intervals one cell scan may search
_SCAN_ROUTE = "search the aligned cubes or a narrower domain"  # the CLI names its own route


def _scan_layout(mesh: Mesh, i0: int, i1: int) -> tuple:
    """(lo, hi, label, (cells, at)): every interval between two of the mesh
    edges i0..i1, by left edge, then right edge, read-only.  Of the n cells
    ``cells = slice(i0, i1)``, a candidate holds those from its first to its
    last and is read at ``at = first * n + last - first``: in the row of
    running values from its left edge, at its last cell (one flat take).
    Built per call (O(n^2) candidates); more than ``_MAX_SCAN_INTERVALS`` of
    them is a ValueError, raised before any is built."""
    n = i1 - i0
    if n * (n + 1) // 2 > _MAX_SCAN_INTERVALS:
        raise ValueError(
            f"a cell scan of {n:,} cells has {n * (n + 1) // 2:,} intervals, above the limit of "
            f"{_MAX_SCAN_INTERVALS:,}; {_SCAN_ROUTE}"
        )
    first, stop = np.triu_indices(n + 1, k=1)
    edges = mesh.edges()[i0 : i1 + 1]
    at = first * n + (stop - 1 - first)
    return _read_only(edges[first]), _read_only(edges[stop]), lambda i: "cells", (slice(i0, i1), _read_only(at))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Spans:
    """The geometry of a batch of spans [lo/den, hi/den), in cell units from
    the left mesh edge (integer arrays, 0 <= lo <= hi <= n_cells * den;
    ``den`` one integer or one per span), derived from the integers once and
    kept as read-only arrays.  ``ends`` holds each span's whole cells
    [first, stop) as the pair first, stop; its straddling cells are ``i_lo``
    and ``stop`` (one cell when both ends lie in it), and ``w_lo``/``w_hi``
    the shares of them it covers.  The shares are correctly rounded
    quotients of exact integers, so a span has the same geometry whatever
    ``den`` expresses it.  ``len`` is the number of spans.
    """

    __slots__ = ("ends", "i_lo", "w_lo", "w_hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, den):
        i_lo, r_lo = lo // den, lo % den
        i_hi, r_hi = hi // den, hi % den
        same = i_lo == i_hi  # both ends in one cell
        first = i_lo + (r_lo > 0)
        self.ends = _read_only(np.stack([first, i_hi], axis=1).astype(np.int64, copy=False).ravel())
        self.i_lo = _read_only(i_lo.astype(np.int64, copy=False))
        self.w_lo = _read_only(np.asarray(np.where(same, hi - lo, np.where(r_lo > 0, den - r_lo, 0)) / den, dtype=float))
        self.w_hi = _read_only(np.asarray(np.where(same, 0, r_hi) / den, dtype=float))

    def __len__(self) -> int:
        return len(self.i_lo)

    def take(self, idx: np.ndarray) -> "_Spans":
        """The spans at ``idx``, in that order."""
        spans = object.__new__(_Spans)
        ends = self.ends.reshape(-1, 2)[idx].ravel()
        spans.ends, spans.i_lo, spans.w_lo, spans.w_hi = map(_read_only, (ends, self.i_lo[idx], self.w_lo[idx], self.w_hi[idx]))
        return spans


class _Runs:
    """f's values as ``_span_integrals`` reads them, laid out once per
    function (``MeshFunction._runs``, built on first use) and read-only:

    * ``cells`` (components, n_cells + 1): one C-contiguous row per
      component (a scalar f is one row), and a zero cell past the right edge;
    * ``before`` (n_cells + 1,): the nonzero cells left of each cell edge
      (cells where any component is nonzero; ``-0.0`` is zero);
    * ``vals``: those cells' values per component, then the zero (``cells``
      itself when every cell is nonzero);
    * ``changes``: per component, the running count of value changes along
      ``vals`` (``vals[i] != vals[i - 1]``), 0 at each row's start;
    * ``signed``: whether a ``-0.0`` is among ``vals`` (a vector's component
      that is zero where another is not), whose uniform runs of zeros take
      the sign their minimum gives.

    About 3 arrays of n_cells + 1 entries per component, and ``before``;
    the counts are int32 (a mesh has at most 2^21 cells).
    """

    __slots__ = ("cells", "before", "vals", "changes", "signed")

    def __init__(self, f: MeshFunction):
        n = f.mesh.n_cells
        self.cells = np.zeros((*f.values.shape[1:], n + 1))
        self.cells[..., :n] = f.values.T
        nonzero = f.values.any(axis=1) if f.is_vector else f.values != 0
        self.before = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(nonzero, out=self.before[1:])
        self.vals = self.cells if self.before[-1] == n else self.cells.take(np.append(np.flatnonzero(nonzero), n), axis=-1)
        self.changes = np.zeros(self.vals.shape, dtype=np.int32)
        np.cumsum(self.vals[..., 1:] != self.vals[..., :-1], axis=-1, out=self.changes[..., 1:])
        self.signed = f.is_vector and bool((np.signbit(self.vals) & (self.vals == 0)).any())
        for name in ("cells", "before", "vals", "changes"):
            _read_only(getattr(self, name))


def _span_integrals(f: MeshFunction, spans: _Spans, comp=None) -> np.ndarray:
    """Integrals of f over the ``spans``: only f's values are read here,
    through its run layout (``_Runs``, kept on f).

    Each span sums its own whole cells and adds the covered shares of its
    two straddling cells, so the rounding error scales with the span's own
    mass, not with the mass to its left (differencing one global prefix sum
    would).  Zero cells are left out of the sums, and a span whose nonzero
    whole cells hold ``count`` equal values (``changes`` equal at its first
    and last) gets the one correctly rounded product ``count * v``; every
    other span takes one ``np.add.reduceat``.  So spans holding the same
    blocks, or blocks of one height whose cell counts differ by a power of
    two, get floats in the exact ratio, and an exact stopping tie (such as a
    block alone in a cube and in its ancestor) stays a tie.  A span gives
    the same float whatever ``den`` expressed it (see ``_Spans``).

    A vector f (values ``(n_cells, r)``) gives ``(n_spans, r)``, each
    component summed as one contiguous row over the cells where any is
    nonzero: bit for bit the scalar result per column if all share one zero
    pattern.  With ``comp`` (one component index per span), span s sums only
    component ``comp[s]``, over the same cells, and the result is
    ``(n_spans,)``: the floats of that span's ``comp[s]`` column.
    """
    if f._runs is None:
        f._runs = _Runs(f)
    runs, h = f._runs, f.mesh.h
    cells, vals, changes = runs.cells, runs.vals, runs.changes
    bounds = runs.before.take(spans.ends)  # span s sums vals[bounds[2s]:bounds[2s + 1]]
    count = bounds[1::2] - bounds[::2]
    i_lo, stop = spans.i_lo, spans.ends[1::2]
    if comp is not None:  # span s reads row comp[s] of the flattened rows
        bounds = bounds + np.repeat(comp * vals.shape[-1], 2)
        i_lo, stop = i_lo + comp * cells.shape[-1], stop + comp * cells.shape[-1]
        cells, vals, changes = cells.ravel(), vals.ravel(), changes.ravel()
    first, last = bounds[::2], bounds[1::2] - 1
    total = np.add.reduceat(vals, bounds, axis=-1)[..., ::2]
    # a uniform run of zeros of both signs takes the sign of its minimum, not of its first cell
    lead = np.minimum.reduceat(vals, bounds, axis=-1)[..., ::2] if runs.signed else vals.take(first, axis=-1)
    uniform = changes.take(first, axis=-1) == changes.take(last, axis=-1)
    whole = np.where(count <= 0, 0.0, np.where(uniform, count * lead, total))
    out = whole * h + cells.take(i_lo, axis=-1) * h * spans.w_lo + cells.take(stop, axis=-1) * h * spans.w_hi
    return np.asarray(out, dtype=float).T
