"""Concrete operators on mesh functions.

Distribution functions and weak L^p norms are exact for step functions
(measures are sums of cell widths, suprema over thresholds are attained at
output values).  The maximal operators are realized over shifted dyadic
grids; the fractional integral and the Hilbert transform evaluate at cell
centers through exact per-cell antiderivatives.  At the centers of the
uniform mesh the fractional-integral kernel depends only on the cell offset,
so I_alpha is one Toeplitz convolution with a row of 2n - 1 kernel values.

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
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from .grid import (
    DyadicGrid,
    Mesh,
    MeshFunction,
    cube_indices_per_cell,
    default_levels,
    level_cube_integrals,
    shifted_grids,
)
from .weights import PowerLogWeight, SampledWeight

__all__ = [
    "DistributionCurve",
    "distribution",
    "weak_lp_norm",
    "dyadic_maximal",
    "hl_maximal",
    "fractional_maximal",
    "fractional_integral",
    "HilbertTransform",
    "hilbert_transform",
    "hilbert_weighted",
    "hilbert_to_mesh",
    "multiplier_apply",
    "default_levels",
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
    if p < 1:
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
    Christ-Goldberg operator.  Cube integrals are exact tables, one call per grid.
    """
    mesh = f.mesh
    k_top, k_fine = default_levels(mesh)
    k0, k1 = (k_top if min_level is None else min_level), (k_fine if max_level is None else max_level)
    out = np.zeros(mesh.n_cells)
    cells = np.arange(mesh.n_cells)
    for grid in shifted_grids(1) if grids is None else grids:
        q_cell, cont_cell = cube_indices_per_cell(mesh, grid, k0, k1)
        levels = zip(range(k0, k1 + 1), level_cube_integrals(f, grid, k0, k1), q_cell, cont_cell)
        for k, (q0, ints), q, cont in levels:
            cand = (2.0**-k) ** (alpha - 1.0) * ints
            idx = q - q0
            sel = cont & (idx >= 0) & (idx < len(ints))
            own = cand[idx[sel], cells[sel]] if f.is_vector else cand[idx[sel]]
            out[sel] = np.maximum(out[sel], own)
    return MeshFunction(mesh, out)


def dyadic_maximal(
    f: MeshFunction,
    grid: DyadicGrid | None = None,
    min_level: int | None = None,
    max_level: int | None = None,
    alpha: float = 0.0,
) -> MeshFunction:
    """Dyadic (fractional, for alpha > 0) maximal function on the mesh.

    Per cell: max over grid cubes containing the cell, levels in range, of
    |Q|^alpha <|f|>_Q.  Cube averages are exact; cells only see cubes that
    contain them entirely.
    """
    return _maximal_sweep(f.magnitude(), [grid or DyadicGrid()], min_level, max_level, alpha)


def hl_maximal(
    f: MeshFunction,
    grids: Sequence[DyadicGrid] | None = None,
    min_level: int | None = None,
    max_level: int | None = None,
    alpha: float = 0.0,
) -> MeshFunction:
    """Hardy-Littlewood maximal function approximated by the max of the
    shifted-grid dyadic maximal functions (one-third trick: the loss against
    the true sup over all intervals is a bounded factor)."""
    return _maximal_sweep(f.magnitude(), grids, min_level, max_level, alpha)


def fractional_maximal(
    f: MeshFunction,
    alpha: float,
    grid: DyadicGrid | None = None,
    min_level: int | None = None,
    max_level: int | None = None,
) -> MeshFunction:
    """M_alpha^D f = sup_Q |Q|^alpha <|f|>_Q chi_Q over one dyadic grid (n = 1)."""
    if not (0 < alpha < 1):
        raise ValueError(f"fractional order must satisfy 0 < alpha < n = 1, got {alpha}")
    return dyadic_maximal(f, grid, min_level, max_level, alpha=alpha)


# ---------------------------------------------------------------------------
# fractional integral
# ---------------------------------------------------------------------------


def _cell_kernel(u: np.ndarray, v: np.ndarray, alpha: float) -> np.ndarray:
    """∫_a^b |x-y|^(alpha-1) dy with u = x - a, v = x - b, split on the signs."""
    au = np.abs(u) ** alpha
    av = np.abs(v) ** alpha
    return np.where(v >= 0, au - av, np.where(u <= 0, av - au, au + av)) / alpha


def fractional_integral(f: MeshFunction, alpha: float, points: np.ndarray | None = None):
    """I_alpha f(x) = ∫ f(y) |x-y|^(alpha-1) dy at cell centers (n = 1).

    The integrable singularity is handled in closed form per source cell:
    with u = x - a, v = x - b over the cell [a, b),

        ∫_a^b |x-y|^(alpha-1) dy = (sgn-split of u, v) / alpha.

    At the center of cell i and the source cell j, u = (i-j+1/2)h and
    v = (i-j-1/2)h, so the centre values are one convolution of f (each
    component of a vector f) with the kernel row over the offsets
    -(n-1)..n-1.  Returns a MeshFunction when ``points`` is None, else the
    values at the requested points (a dense point-by-cell kernel).
    """
    if not (0 < alpha < 1):
        raise ValueError(f"fractional order must satisfy 0 < alpha < n = 1, got {alpha}")
    mesh = f.mesh
    n = mesh.n_cells
    if points is None:
        d = np.arange(1 - n, n)
        row = _cell_kernel((d + 0.5) * mesh.h, (d - 0.5) * mesh.h, alpha)
        vals = f.values.reshape(n, -1)
        out = np.stack([np.convolve(c, row)[n - 1 : 2 * n - 1] for c in vals.T], axis=1)
        return MeshFunction(mesh, out.reshape(f.values.shape))
    xs = np.asarray(points, dtype=float)
    edges = mesh.edges()
    a = edges[:-1]
    b = edges[1:]
    vals = f.values.reshape(n, -1)
    out = np.empty((len(xs), vals.shape[1]))
    chunk = max(1, int(2**22 / max(n, 1)))
    for s in range(0, len(xs), chunk):
        x = xs[s : s + chunk, None]
        kernel = _cell_kernel(x - a[None, :], x - b[None, :], alpha)
        out[s : s + chunk] = np.stack([kernel @ c for c in vals.T], axis=1)  # per component, as at the centres
    return out.reshape(len(xs), *f.values.shape[1:])


# ---------------------------------------------------------------------------
# Hilbert transform
# ---------------------------------------------------------------------------


class HilbertTransform:
    """Hilbert transform of a step function, exact closed form.

    Writing f = sum over cells, the kernel 1/(x-y) integrates to logs:

        Hf(x) = sum_j c_j log|x - e_j|,   c_j = jump of f at edge e_j,

    which is also the principal value at points inside the support (the
    symmetric excision around x cancels exactly for constant pieces).
    Evaluation exactly at a jump of f is an error (logarithmic singularity).
    """

    def __init__(self, f: MeshFunction):
        if f.is_vector:
            raise TypeError("Hilbert transform of a vector function is not defined here")
        self.mesh = f.mesh
        edges = f.mesh.edges()
        vals = f.values
        jumps = np.diff(np.concatenate(([0.0], vals, [0.0])))
        keep = jumps != 0.0
        self.edges = edges[keep]
        self.coeffs = jumps[keep]

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        d = xv[:, None] - self.edges[None, :]
        if np.any(d == 0.0):
            bad = xv[np.any(d == 0.0, axis=1)][0]
            raise ValueError(f"evaluation at a jump point x = {bad} of the integrand")
        out = np.log(np.abs(d)) @ self.coeffs
        return float(out[0]) if scalar else out


def hilbert_transform(f: MeshFunction) -> HilbertTransform:
    return HilbertTransform(f)


def hilbert_to_mesh(f: MeshFunction, out_mesh: Mesh | None = None) -> MeshFunction:
    """Hf evaluated at cell centers of ``out_mesh`` (default: f's mesh)."""
    out_mesh = out_mesh or f.mesh
    return MeshFunction(out_mesh, HilbertTransform(f)(out_mesh.centers()))


def hilbert_weighted(
    f: MeshFunction,
    weight: PowerLogWeight,
    power: float = 1.0,
    excision_scale: float = 1.0,
) -> Callable[[float], float]:
    """H applied to the product y -> f(y) weight(y)^power, by quadrature.

    Off the support of f the integrand is integrated piecewise with adaptive
    quadrature (tolerance 1e-10 absolute per cell).  At points inside the
    support the principal value is computed by symmetric excision with
    radii eps_k = 2^-k h and 3-term Richardson extrapolation.
    """
    wpow = weight.power(power)
    mesh = f.mesh
    edges = mesh.edges()
    vals = f.values

    def integrand(y, x):
        return wpow(y) / (x - y)

    def piece(x, a, b):
        val, _ = integrate.quad(integrand, a, b, args=(x,), epsabs=1e-12, epsrel=1e-10, limit=200)
        return val

    def evaluate(x: float) -> float:
        x = float(x)
        if np.any((edges == x) & (np.diff(np.concatenate(([0.0], vals, [0.0]))) != 0.0)):
            raise ValueError(f"evaluation at a jump point x = {x} of the integrand")
        total = 0.0
        inside = None
        for j in range(mesh.n_cells):
            if vals[j] == 0.0:
                continue
            a, b = edges[j], edges[j + 1]
            if a < x < b:
                inside = (j, a, b)
                continue
            total += vals[j] * piece(x, a, b)
        if inside is not None:
            j, a, b = inside
            h = mesh.h
            eps0 = min(excision_scale * h, (x - a) / 2, (b - x) / 2)

            def excised(eps):
                left = piece(x, a, x - eps)
                right = piece(x, x + eps, b)
                return vals[j] * (left + right)

            i0, i1, i2 = excised(eps0), excised(eps0 / 2), excised(eps0 / 4)
            p1 = 2 * i1 - i0
            p1b = 2 * i2 - i1
            total += (4 * p1b - p1) / 3
        return total

    return evaluate


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
    grid: DyadicGrid | None = None,
    grids: Sequence[DyadicGrid] | None = None,
    family=None,
    weight_power: float | None = None,
) -> MeshFunction:
    """x -> w(x)^(1/p) * T(f w^(-1/p))(x), computed cell-wise on f's mesh.

    ``T`` is one of ``M`` (shifted-grid maximal), ``Md`` (one-grid dyadic
    maximal), ``Malpha``, ``Ialpha``, ``H``, ``AS`` and ``ASalpha`` (sparse
    averaging operators; pass the family).  ``weight_power`` overrides the
    exponent 1/p (the fractional theorems multiply by w^1).
    """
    mesh = f.mesh
    wp = (1.0 / p) if weight_power is None else float(weight_power)
    wv = _weight_on_cells(w, mesh)
    if np.any((wv <= 0) & (f.values != 0)):
        raise ValueError("weight vanishes on the support of f")
    with np.errstate(divide="ignore"):
        inner = np.where(f.values != 0, f.values * wv ** (-wp), 0.0)
    g = MeshFunction(mesh, inner)
    if T == "M":
        out = hl_maximal(g, grids)
    elif T == "Md":
        out = dyadic_maximal(g, grid)
    elif T == "Malpha":
        if alpha is None:
            raise ValueError("Malpha requires alpha")
        out = hl_maximal(g, grids, alpha=alpha) if grids is not None else fractional_maximal(g, alpha, grid)
    elif T == "Ialpha":
        if alpha is None:
            raise ValueError("Ialpha requires alpha")
        out = fractional_integral(g, alpha)
    elif T == "H":
        out = hilbert_to_mesh(g)
    elif T in ("AS", "ASalpha"):
        if family is None:
            raise ValueError("sparse operator tags require the sparse family")
        out = family.apply(g, alpha=alpha or 0.0)
    else:
        raise ValueError(f"unknown operator tag {T!r}")
    return MeshFunction(mesh, wv**wp * out.values)
