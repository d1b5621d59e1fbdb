"""Concrete operators on mesh functions.

Distribution functions and weak L^p norms are exact for step functions
(measures are sums of cell widths, suprema over thresholds are attained at
output values).  The maximal operators are realized over shifted dyadic
grids.  The fractional integral and the Hilbert transform integrate their
kernels exactly over each cell; at the centers this depends only on the cell
offset, so both are one ``_centre_convolution``: O(n) memory, O(n x support)
time, no size limit, each value within 1e-12 sum_j |f_j| |K(i - j)| of exact.

Convention: the Hilbert transform here is

    Hf(x) = p.v. ∫ f(y) / (x - y) dy

with no 1/pi normalization.  Comparisons against conventions that carry
1/pi differ by a factor pi throughout.

The Hilbert transform is the only singular integral realized concretely;
general kernels with size/regularity bounds are represented by it, and the
kernel constants never enter any computation (the operator constants are
estimated empirically by the weak-type checkers instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import (
    DyadicGrid,
    Mesh,
    MeshFunction,
    _fractional_order,
    cell_cube_integrals,
    default_levels,
    shifted_grids,
)
from .sparse import build_sparse_family
from .weights import SampledWeight

__all__ = [
    "DistributionCurve",
    "distribution",
    "weak_lp_norm",
    "dyadic_maximal",
    "hl_maximal",
    "fractional_maximal",
    "fractional_integral",
    "hilbert_to_mesh",
    "multiplier_apply",
]


# ---------------------------------------------------------------------------
# distribution function and weak norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionCurve:
    """Exact distribution function of |g| for a step function g.

    ``thresholds`` are the distinct values of |g| in increasing order;
    ``measures[i] = |{ |g| > thresholds[i] }|`` and
    ``measures_geq[i] = |{ |g| >= thresholds[i] }|``, both exact sums of
    cell widths.
    """

    thresholds: np.ndarray
    measures: np.ndarray
    measures_geq: np.ndarray
    support_measure: float

    def measure_above(self, lam: float) -> float:
        """|{ |g| > lam }| for arbitrary lam >= 0."""
        j = int(np.searchsorted(self.thresholds, lam, side="right"))
        if j == len(self.thresholds):
            return 0.0
        return float(self.measures_geq[j])


def distribution(g: MeshFunction) -> DistributionCurve:
    """Exact distribution curve of |g| (cell-count measures)."""
    mag = g.magnitude().values
    h = g.mesh.h
    vals, counts = np.unique(mag, return_counts=True)
    # measures of {|g| >= v} and {|g| > v} via suffix sums of counts
    suffix = np.concatenate((np.cumsum(counts[::-1])[::-1], [0]))
    measures_geq = suffix[:-1] * h
    measures = suffix[1:] * h
    support = float((mag > 0).sum() * h)
    return DistributionCurve(
        thresholds=vals, measures=measures, measures_geq=measures_geq, support_measure=support
    )


def weak_lp_norm(g: MeshFunction, p: float) -> float:
    """Lorentz weak norm sup_lam lam |{|g| > lam}|^(1/p), exact for step g.

    For a step function the supremum over lam on [v_i, v_{i+1}) is attained
    as lam -> v_{i+1}, so it equals max over values v of v |{|g| >= v}|^(1/p).
    """
    if not p >= 1:
        raise ValueError(f"weak norm needs p >= 1, got {p}")
    curve = distribution(g)
    pos = curve.thresholds > 0
    if not np.any(pos):
        return 0.0
    vals = curve.thresholds[pos]
    geq = curve.measures_geq[pos]
    return float(np.max(vals * geq ** (1.0 / p)))


# ---------------------------------------------------------------------------
# maximal operators
# ---------------------------------------------------------------------------


def _maximal_sweep(
    f: MeshFunction,
    grids: Sequence[DyadicGrid] | None = None,
    min_level: int | None = None,
    max_level: int | None = None,
    alpha: float = 0.0,
) -> MeshFunction:
    """Per cell: max over the grids' cubes Q that contain it entirely, levels
    in range, of |Q|^(alpha - 1) ∫_Q f, for f >= 0 (0 where no cube fits);
    the three shifted grids by default.

    A vector f has one component per cell, and cell x reads component x:
    the integrand may depend on the cell it is evaluated for, as in the
    Christ-Goldberg operator.  Each grid makes one ``cell_cube_integrals``
    call, which integrates only the (cube, cell) pairs read.  Levels past
    the cell level are left out: their cubes are narrower than a cell.  An
    empty level window (min_level > max_level) and an alpha that is neither
    0 nor a fractional order are ``ValueError``s.
    """
    if alpha != 0:
        _fractional_order(alpha)
    mesh = f.mesh
    k_top, k_fine = default_levels(mesh)
    k0, k1 = (k_top if min_level is None else min_level), (k_fine if max_level is None else max_level)
    if k0 > k1:
        raise ValueError(f"empty level window: min_level {k0} > max_level {k1}")
    k1 = min(k1, k_fine)
    scale = np.array([(2.0**-k) ** (alpha - 1.0) for k in range(k0, k1 + 1)])[:, None]
    out = np.zeros(mesh.n_cells)
    for grid in shifted_grids(1) if grids is None else grids:
        out = np.maximum(out, (scale * cell_cube_integrals(f, grid, k0, k1)).max(axis=0, initial=0.0))
    return MeshFunction(mesh, out)


def dyadic_maximal(
    f: MeshFunction,
    min_level: int | None = None,
    max_level: int | None = None,
    alpha: float = 0.0,
) -> MeshFunction:
    """Dyadic (fractional, for alpha > 0) maximal function on the mesh.

    Per cell: max over the standard grid's cubes containing the cell, levels
    in range, of |Q|^alpha <|f|>_Q.  Cube averages are exact; cells only see
    cubes that contain them entirely.
    """
    return _maximal_sweep(f.magnitude(), [DyadicGrid()], min_level, max_level, alpha)


def hl_maximal(
    f: MeshFunction,
    min_level: int | None = None,
    max_level: int | None = None,
    alpha: float = 0.0,
) -> MeshFunction:
    """Hardy-Littlewood maximal function approximated by the max of the three
    shifted-grid dyadic maximal functions (one-third trick: the loss against
    the true sup over all intervals is a bounded factor)."""
    return _maximal_sweep(f.magnitude(), None, min_level, max_level, alpha)


def fractional_maximal(f: MeshFunction, alpha: float) -> MeshFunction:
    """M_alpha^D f = sup_Q |Q|^alpha <|f|>_Q chi_Q over the standard dyadic grid (n = 1)."""
    return dyadic_maximal(f, alpha=_fractional_order(alpha))


# ---------------------------------------------------------------------------
# kernel operators at the cell centres
# ---------------------------------------------------------------------------


def _centre_convolution(f: MeshFunction, kernel) -> MeshFunction:
    """sum_j f_j K(i - j) at every cell centre i, for K on integer offsets.

    Each component is trimmed to its cells a..b-1 from the first to the last
    nonzero one and convolved with K over the offsets 1 - b .. n - 1 - a, so
    a vector f's column c is the scalar call on that column, byte for byte.
    """
    n = f.mesh.n_cells
    vals = f.values.reshape(n, -1)
    out = np.zeros(vals.shape)
    for c, col in enumerate(vals.T):
        nz = np.flatnonzero(col)
        if len(nz):
            a, b = nz[0], nz[-1] + 1
            out[:, c] = np.convolve(col[a:b], kernel(np.arange(1 - b, n - a)))[b - a - 1 : b - a - 1 + n]
    return MeshFunction(f.mesh, out.reshape(f.values.shape))


def _cell_kernel(u: np.ndarray, v: np.ndarray, alpha: float) -> np.ndarray:
    """∫_a^b |x-y|^(alpha-1) dy with u = x - a, v = x - b, split on the signs."""
    au = np.abs(u) ** alpha
    av = np.abs(v) ** alpha
    return np.where(v >= 0, au - av, np.where(u <= 0, av - au, au + av)) / alpha


def fractional_integral(f: MeshFunction, alpha: float) -> MeshFunction:
    """I_alpha f(x) = ∫ f(y) |x-y|^(alpha-1) dy at cell centers (n = 1).

    The integrable singularity is handled in closed form per source cell:
    with u = x - a, v = x - b over the cell [a, b),

        ∫_a^b |x-y|^(alpha-1) dy = (sgn-split of u, v) / alpha.

    At the center of cell i and the source cell j, u = (i-j+1/2)h and
    v = (i-j-1/2)h, so the kernel depends on the offset i - j only and the
    centre values are one ``_centre_convolution``.
    """
    _fractional_order(alpha)
    h = f.mesh.h
    return _centre_convolution(f, lambda d: _cell_kernel((d + 0.5) * h, (d - 0.5) * h, alpha))


def hilbert_to_mesh(f: MeshFunction) -> MeshFunction:
    """Hf = p.v. ∫ f(y) / (x - y) dy at the cell centres of f's mesh.

    Cell j contributes f_j K(i - j), K(d) = log|d + 1/2| - log|d - 1/2|
    = sgn(d) log1p(2 / (2|d| - 1)) (accurate at every offset): the cell
    width cancels, and K(0) = 0 is the principal value.
    """
    if f.is_vector:
        raise TypeError("Hilbert transform of a vector function is not defined here")
    return _centre_convolution(f, lambda d: np.sign(d) * np.log1p(2.0 / (2 * np.maximum(np.abs(d), 1) - 1)))


# ---------------------------------------------------------------------------
# multiplier composition
# ---------------------------------------------------------------------------


def _weight_on_cells(w, mesh: Mesh) -> np.ndarray:
    """Weight folded cell-wise: sampled values, or pointwise at cell centers."""
    if isinstance(w, SampledWeight):
        if w.mesh != mesh:
            raise ValueError("sampled weight lives on a different mesh")
        return w.values
    return np.asarray(w(mesh.centers()), dtype=float)


def multiplier_apply(
    T: str,
    w,
    p: float,
    f: MeshFunction,
    alpha: float | None = None,
    family=None,
    weight_power: float | None = None,
) -> MeshFunction:
    """x -> w(x)^(1/p) * T(f w^(-1/p))(x), computed cell-wise on f's mesh.

    ``T`` is one of ``M`` (shifted-grid maximal), ``Md`` (standard-grid
    dyadic maximal), ``AS`` (sparse averaging), ``H`` and ``Ialpha``.  With
    ``alpha``, ``M``, ``Md`` and ``AS`` are their fractional forms (``Md``
    is then ``Malpha``, ``AS`` is ``ASalpha``); ``Malpha``, ``ASalpha`` and
    ``Ialpha`` require it, and ``H`` refuses it.  The sparse family is built
    on |g| for the g = f w^(-1/p) formed here (w at cell centres), over the
    standard grid, unless ``family`` passes one; building and applying then
    share g's tables.
    ``weight_power`` overrides the exponent 1/p (the fractional theorems
    multiply by w^1).
    """
    if T in ("Malpha", "Ialpha", "ASalpha") and alpha is None:
        raise ValueError(f"{T} requires alpha")
    if T == "H" and alpha is not None:
        raise ValueError(f"H has no fractional order, got alpha={alpha}")
    mesh = f.mesh
    wp = (1.0 / p) if weight_power is None else float(weight_power)
    wv = _weight_on_cells(w, mesh)
    if np.any((wv <= 0) & (f.values != 0)):
        raise ValueError("weight vanishes on the support of f")
    with np.errstate(divide="ignore"):
        inner = np.where(f.values != 0, f.values * wv ** (-wp), 0.0)
    g = MeshFunction(mesh, inner)
    if T == "M":
        out = hl_maximal(g, alpha=alpha or 0.0)
    elif T in ("Md", "Malpha"):
        out = dyadic_maximal(g, alpha=alpha or 0.0)
    elif T == "Ialpha":
        out = fractional_integral(g, alpha)
    elif T == "H":
        out = hilbert_to_mesh(g)
    elif T in ("AS", "ASalpha"):
        if family is None:
            family = build_sparse_family(g.magnitude())
        out = family.apply(g, alpha=alpha or 0.0)
    else:
        raise ValueError(f"unknown operator tag {T!r}")
    return MeshFunction(mesh, wv**wp * out.values)
