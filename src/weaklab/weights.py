"""Scalar weights and their characteristics.

Two representations are supported:

* :class:`PowerLogWeight` -- the closed-form family
  ``w(x) = c |x|^a log(e/|x|)^b`` on ``0 < |x| <= 1`` and ``w = c`` outside.
  The family is closed under powers, and all interval integrals have exact
  antiderivatives (an integration-by-parts recursion in ``b`` for integer
  ``b >= 0``; adaptive quadrature with the substitution ``x = e^(1-s)``
  otherwise).
* :class:`SampledWeight` -- positive cell values on a :class:`~weaklab.grid.Mesh`,
  with piecewise-constant semantics (interval integrals are exact cell sums,
  essential infima are minima over touched cells).

Characteristics computed here:

``ap_characteristic``      sup_Q (avg_Q w) (avg_Q w^(1-p'))^(p-1)
``a1_characteristic``      sup_Q (avg_Q w) / essinf_Q w
``rh_characteristic``      sup_Q (avg_Q w^s)^(1/s) / (avg_Q w)
``sharp_rh_exponent``      largest s with the reverse-Holder value <= 2 (bisection)
``ainfty_characteristic``  Fujii-Wilson sup_Q w(Q)^-1 ∫_Q M(w χ_Q),
                           with M realized per shifted dyadic grid
``apq_characteristic``     sup_Q (avg_Q w^q) (avg_Q w^(-p'))^(q/p')
``a1q_characteristic``     sup_Q (avg_Q w^q) / (essinf_Q w)^q

Every supremum is taken over an explicit :class:`SearchSpace`: shifted-grid
cubes in a level range, optionally augmented by origin-anchored intervals
[0, t] and two-sided intervals [-s, t] (closed-form weights are even, and
their extremal intervals hug the origin, where dyadic cubes alone are too
rigid).  The report records the witness interval so every value can be
recomputed from its definition, and its label, formatted for the witness
alone (a grid cube by ``Cube.label``).  Each grid level's cubes are built as
integer arrays: cube m of level k in grid j is [(3m + sj) 2^-k, (3m + 3 + sj)
2^-k) / 3 with sj = (-1)^k j.  While |3m + 3 + sj| < 2^53 the numerator times
2^-k is an exact float, so one division by 3 is the correctly rounded exact
endpoint, bit for bit what float() of the rational cube endpoint gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from .grid import (
    DyadicGrid,
    Mesh,
    MeshFunction,
    _level_affine,
    default_levels,
    level_cube_integrals,
    shifted_grids,
)

__all__ = [
    "NonIntegrableError",
    "DegenerateWeightError",
    "PowerLogWeight",
    "SampledWeight",
    "SearchSpace",
    "CharacteristicReport",
    "ap_characteristic",
    "a1_characteristic",
    "rh_characteristic",
    "sharp_rh_exponent",
    "ainfty_characteristic",
    "apq_characteristic",
    "a1q_characteristic",
    "dual_exponent",
]

_E = math.e


class NonIntegrableError(ValueError):
    """A required weight power fails to be integrable on a search cube."""


class DegenerateWeightError(ValueError):
    """A weight degenerates (vanishing essential infimum or mass) on a cube."""


def dual_exponent(p: float) -> float:
    """Holder conjugate p' = p/(p-1)."""
    if p <= 1:
        raise ValueError(f"dual exponent needs p > 1, got {p}")
    return p / (p - 1.0)


# ---------------------------------------------------------------------------
# closed-form weights
# ---------------------------------------------------------------------------


def _powerlog_core_batch(a: float, b: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """∫ x^a log(e/x)^b dx over [lo, hi] ⊆ (0, 1], elementwise.

    Integer b >= 0 uses the exact parts recursion

        (a+1) ∫ x^a L^b = [x^(a+1) L^b] + b ∫ x^a L^(b-1),   L = log(e/x),

    anchored at b = 0.  Other b fall back to adaptive quadrature (with the
    substitution x = e^(1-s) when lo = 0, which makes the integrand decay
    exponentially).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if float(b).is_integer() and b >= 0:
        return _core_recursive(a, int(b), lo, hi)
    out = np.empty(lo.shape)
    flat = out.reshape(-1)
    for i, (u, v) in enumerate(zip(lo.reshape(-1), hi.reshape(-1))):
        flat[i] = _core_quad(a, b, u, v)
    return out


def _core_recursive(a: float, b: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    if a == -1.0:
        # ∫ x^-1 L^b dx = -L^(b+1)/(b+1); diverges at 0
        if np.any(lo == 0.0):
            raise NonIntegrableError("x^-1 log(e/x)^b is not integrable at 0")
        Lhi = np.log(_E / hi)
        Llo = np.log(_E / lo)
        return (Llo ** (b + 1) - Lhi ** (b + 1)) / (b + 1)
    if a < -1.0 and np.any(lo == 0.0):
        raise NonIntegrableError(f"x^{a} log(e/x)^{b} is not integrable at 0")
    ap1 = a + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        Lhi = np.where(hi > 0, np.log(_E / np.where(hi > 0, hi, 1.0)), 0.0)
        Llo = np.where(lo > 0, np.log(_E / np.where(lo > 0, lo, 1.0)), 0.0)
    term_hi = hi**ap1
    term_lo = np.where(lo > 0, lo**ap1, 0.0)
    out = (term_hi - term_lo) / ap1  # b = 0
    for j in range(1, b + 1):
        out = (term_hi * Lhi**j - term_lo * Llo**j + j * out) / ap1
    return out


def _core_quad(a: float, b: float, u: float, v: float) -> float:
    if u == v:
        return 0.0
    if u == 0.0:
        if a <= -1.0:
            raise NonIntegrableError(f"x^{a} log(e/x)^{b} is not integrable at 0")
        # x = e^(1-s):  ∫_0^v = e^(a+1) ∫_S^∞ s^b e^{-(a+1)s} ds,  S = log(e/v)
        S = math.log(_E / v)
        val, _ = integrate.quad(
            lambda s: s**b * math.exp(-(a + 1.0) * s), S, np.inf, epsabs=1e-13, epsrel=1e-11, limit=200
        )
        return math.exp(a + 1.0) * val
    val, _ = integrate.quad(
        lambda x: x**a * math.log(_E / x) ** b, u, v, epsabs=1e-14, epsrel=1e-12, limit=200
    )
    return val


@dataclass(frozen=True)
class PowerLogWeight:
    """w(x) = scale * |x|^exponent * log(e/|x|)^log_exponent on 0 < |x| <= 1, scale outside."""

    exponent: float
    log_exponent: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive, got {self.scale}")

    # -- pointwise -------------------------------------------------------------

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        inner = ax <= 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            core = np.where(
                ax > 0,
                np.where(ax, ax, 1.0) ** self.exponent
                * np.log(_E / np.where(ax > 0, ax, 1.0)) ** self.log_exponent,
                np.inf if (self.exponent < 0 or (self.exponent == 0 and self.log_exponent > 0)) else 0.0,
            )
        return self.scale * np.where(inner, core, 1.0)

    @property
    def anchored_integrable(self) -> bool:
        """Integrable on intervals touching the origin."""
        a, b = self.exponent, self.log_exponent
        return a > -1.0 or (a == -1.0 and b < -1.0)

    def power(self, s: float) -> "PowerLogWeight":
        return PowerLogWeight(self.exponent * s, self.log_exponent * s, self.scale**s)

    def is_decreasing_on_positive(self) -> bool:
        a, b = self.exponent, self.log_exponent
        return a <= 0 and a <= b

    # -- exact integrals ---------------------------------------------------------

    def _anchored(self, t: np.ndarray) -> np.ndarray:
        """∫_0^t w for t >= 0 (vectorized)."""
        t = np.asarray(t, dtype=float)
        if not self.anchored_integrable and np.any(t > 0):
            raise NonIntegrableError(
                f"PowerLog(a={self.exponent}, b={self.log_exponent}) is not integrable at 0"
            )
        t1 = np.minimum(t, 1.0)
        inner = _powerlog_core_batch(self.exponent, self.log_exponent, np.zeros_like(t1), t1)
        return self.scale * (inner + np.maximum(t - 1.0, 0.0))

    def _one_sided(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """∫_u^v w for 0 <= u <= v (vectorized)."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        u1 = np.minimum(u, 1.0)
        v1 = np.minimum(v, 1.0)
        if np.any(u1 == 0.0):
            if not self.anchored_integrable:
                bad = np.where(u1 == 0.0)[0]
                raise NonIntegrableError(
                    f"PowerLog(a={self.exponent}, b={self.log_exponent}) is not integrable "
                    f"on an interval touching 0 (first witness hi={v.reshape(-1)[bad[0]]:.6g})"
                )
        inner = _powerlog_core_batch(self.exponent, self.log_exponent, u1, np.maximum(v1, u1))
        outer = np.maximum(v - 1.0, 0.0) - np.maximum(u - 1.0, 0.0)
        return self.scale * (inner + outer)

    def integral_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Exact ∫_lo^hi w, any signs, elementwise (weight is even)."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(hi < lo):
            raise ValueError("interval endpoints out of order")
        # decompose into positive-side pieces by evenness
        both = (lo < 0) & (hi > 0)
        out = np.zeros(np.broadcast(lo, hi).shape)
        if np.any(both):
            out[both] = self._anchored(-lo[both]) + self._anchored(hi[both])
        pos = ~both
        if np.any(pos):
            u = np.where(hi[pos] <= 0, -hi[pos], lo[pos])
            v = np.where(hi[pos] <= 0, -lo[pos], hi[pos])
            zero_touch = u == 0.0
            vals = np.empty(u.shape)
            if np.any(zero_touch):
                vals[zero_touch] = self._anchored(v[zero_touch])
            if np.any(~zero_touch):
                vals[~zero_touch] = self._one_sided(u[~zero_touch], v[~zero_touch])
            out[pos] = vals
        return out

    def integral(self, lo, hi) -> float:
        return float(self.integral_batch(np.array([float(lo)]), np.array([float(hi)]))[0])

    def average(self, lo, hi) -> float:
        return self.integral(lo, hi) / (float(hi) - float(lo))

    # -- essential infimum ---------------------------------------------------------

    def _core_at(self, x: np.ndarray) -> np.ndarray:
        """|x|^a log(e/|x|)^b on (0, 1] without the scale."""
        x = np.asarray(x, dtype=float)
        return x**self.exponent * np.log(_E / x) ** self.log_exponent

    def essinf_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Essential infimum over [lo, hi], elementwise, exact via monotonicity.

        On (0, 1] the profile x^a log(e/x)^b has at most one interior
        critical point x* = e^(1 - b/a); the infimum over an interval is
        attained at an endpoint, at x*, at the origin limit, or on the
        constant outer branch.
        """
        a, b = self.exponent, self.log_exponent
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        u = np.where((lo < 0) & (hi > 0), 0.0, np.where(hi <= 0, -hi, lo))
        v = np.maximum(np.abs(lo), np.abs(hi))
        out = np.full(u.shape, np.inf)
        # outer branch
        out = np.where(v > 1.0, self.scale, out)
        # inner endpoints
        lo_in = np.clip(u, None, 1.0)
        hi_in = np.clip(v, None, 1.0)
        has_inner = hi_in > 0
        for pt in (lo_in, hi_in):
            ok = has_inner & (pt > 0) & (pt <= 1.0) & (pt >= u)
            if np.any(ok):
                out[ok] = np.minimum(out[ok], self.scale * self._core_at(pt[ok]))
        # interior critical point
        if a != 0.0:
            ratio = b / a
            if ratio >= 1.0:
                xstar = math.exp(1.0 - ratio)
                ok = has_inner & (u < xstar) & (xstar < hi_in)
                if np.any(ok):
                    out[ok] = np.minimum(out[ok], self.scale * self._core_at(np.array(xstar)))
        # origin limit
        zero_limit = a > 0 or (a == 0 and b < 0)
        if zero_limit:
            out = np.where(u == 0.0, np.where(hi_in > 0, 0.0, out), out)
        return out

    def essinf(self, lo, hi) -> float:
        return float(self.essinf_batch(np.array([float(lo)]), np.array([float(hi)]))[0])

    def cell_averages(self, mesh: Mesh) -> np.ndarray:
        edges = mesh.edges()
        return self.integral_batch(edges[:-1], edges[1:]) / mesh.h


@dataclass(frozen=True)
class SampledWeight:
    """Positive piecewise-constant weight given by cell values on a mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.mesh.n_cells,):
            raise ValueError(f"expected {self.mesh.n_cells} values, got {v.shape}")
        if not np.all(v > 0) or not np.all(np.isfinite(v)):
            raise ValueError("sampled weight values must be positive and finite")
        object.__setattr__(self, "values", v)

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.floor((x + self.mesh.radius) / self.mesh.h).astype(int)
        if np.any((idx < 0) | (idx >= self.mesh.n_cells)):
            raise ValueError("point outside the sampled domain")
        return self.values[idx]

    @property
    def anchored_integrable(self) -> bool:
        return True

    def power(self, s: float) -> "SampledWeight":
        return SampledWeight(self.mesh, self.values**s)

    def is_decreasing_on_positive(self) -> bool:
        n2 = self.mesh.n_cells // 2
        pos = self.values[n2:]
        neg = self.values[:n2]
        return bool(np.all(np.diff(pos) <= 0) and np.all(pos == neg[::-1]))

    def as_mesh_function(self) -> MeshFunction:
        return MeshFunction(self.mesh, self.values)

    def _require_inside(self, lo, hi):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"interval [{lo}, {hi}) has a non-finite endpoint")
        if self.mesh._position(lo) < 0 or self.mesh._position(hi) > self.mesh.n_cells:
            raise ValueError(
                f"interval [{lo}, {hi}) leaves the sampled domain "
                f"[-{self.mesh.radius}, {self.mesh.radius})"
            )

    def integral(self, lo, hi) -> float:
        self._require_inside(lo, hi)
        return self.as_mesh_function().integral(lo, hi)

    def average(self, lo, hi) -> float:
        return self.integral(lo, hi) / (float(hi) - float(lo))

    def essinf(self, lo, hi) -> float:
        self._require_inside(lo, hi)
        i0, i1 = self.mesh.cell_span(lo, hi)
        if i1 <= i0:
            raise ValueError(f"degenerate interval [{lo}, {hi})")
        return float(self.values[i0:i1].min())

    def cell_averages(self, mesh: Mesh) -> np.ndarray:
        if mesh != self.mesh:
            raise ValueError("sampled weight is tied to its own mesh")
        return self.values


# ---------------------------------------------------------------------------
# search spaces and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchSpace:
    """Explicit family of intervals over which characteristic suprema run.

    * shifted-grid cubes with levels in ``[min_level, max_level]`` clipped
      to ``domain``;
    * origin-anchored intervals ``[0, t]`` for ``t`` in ``anchored``;
    * two-sided intervals ``[-s, t]`` for all pairs from ``two_sided``.

    For sampled weights the cube/interval family is replaced by every
    cell-aligned interval of the carrying mesh (optionally strided), which
    realizes the exact supremum over the natural candidate family.

    ``domain = (a, b)`` must be finite with ``a < b`` and
    ``max(|a|, |b|) * 2**max_level <= 2**51``; the second bound keeps every
    cube numerator ``|3m + 3 + sj| < 2**53``, which makes the integer-array
    grid endpoints exact (see the module docstring).
    """

    domain: tuple[float, float] = (-4.0, 4.0)
    grids: tuple[DyadicGrid, ...] = tuple(shifted_grids(1))
    min_level: int = -3
    max_level: int = 8
    anchored: tuple[float, ...] = ()
    two_sided: tuple[float, ...] = ()
    # sampled weights: scan every cell-aligned interval (default), or only the
    # standard-grid dyadic cubes (for comparisons against the matrix
    # characteristics, which use exactly that family)
    sampled_aligned_cubes: bool = False

    def __post_init__(self):
        a, b = self.domain
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ValueError(f"search domain must be finite with a < b, got {self.domain}")
        if math.ldexp(max(-a, b), self.max_level) > 2**51:
            raise ValueError(f"search domain {self.domain} is too wide for level {self.max_level}")

    @classmethod
    def default(cls, radius: float = 4.0, max_level: int = 8) -> "SearchSpace":
        min_level = -math.ceil(math.log2(2 * radius))
        anchored = tuple(np.geomspace(2.0**-30, radius, 64)) + (1.0,)
        two_sided = tuple(np.geomspace(2.0**-20, radius, 24))
        return cls(
            domain=(-radius, radius),
            min_level=min_level,
            max_level=max_level,
            anchored=anchored,
            two_sided=two_sided,
        )

    @classmethod
    def anchored_only(cls, radius: float = 4.0, n: int = 96) -> "SearchSpace":
        return cls(
            domain=(-radius, radius),
            grids=(),
            min_level=0,
            max_level=-1,
            anchored=tuple(np.geomspace(2.0**-40, radius, n)) + (1.0,),
        )

    @classmethod
    def aligned_cubes(cls) -> "SearchSpace":
        """Standard-grid dyadic cubes of the carrying mesh only (sampled weights)."""
        return cls(grids=(DyadicGrid(),), sampled_aligned_cubes=True)

    def intervals_for(self, weight) -> tuple[np.ndarray, np.ndarray, Callable[[int], str]]:
        """Candidate intervals ``(lo, hi, label)`` adapted to the weight kind;
        ``label(i)`` formats the name of candidate i on demand."""
        if isinstance(weight, SampledWeight):
            mesh = weight.mesh
            if not self.sampled_aligned_cubes:
                return _sampled_intervals(mesh, self.domain)
            # standard cubes from width R down to one cell
            k0 = mesh.aligned_cell_level()
            return _grid_cubes((DyadicGrid(),), k0 - mesh.level, k0, (-mesh.radius, mesh.radius))
        b = self.domain[1]
        lo, hi, cube_label = _grid_cubes(self.grids, self.min_level, self.max_level, self.domain)
        n = len(lo)
        t = np.array([x for x in self.anchored if 0 < x <= b], dtype=float)
        ts = np.array([x for x in self.two_sided if 0 < x <= b], dtype=float)

        def label(i: int) -> str:
            if i < n:
                return cube_label(i)
            if i < n + len(t):
                return f"anchored:t={t[i - n]:.6g}"
            s, u = divmod(i - n - len(t), len(ts))
            return f"two-sided:s={ts[s]:.6g},t={ts[u]:.6g}"

        lo = np.concatenate((lo, np.zeros(len(t)), -np.repeat(ts, len(ts))))
        return lo, np.concatenate((hi, t, np.tile(ts, len(ts)))), label


def _grid_cubes(grids, min_level: int, max_level: int, domain):
    """(lo, hi, label) of the grid cubes meeting the open interval ``domain``,
    grid by grid and level by level, each level one integer array of cube
    indices m; ``label(i)`` names cube i by its ``Cube``."""
    a, b = domain
    los, his, blocks = [np.empty(0)], [np.empty(0)], []
    for g in grids:
        for k in range(min_level, max_level + 1):
            m = np.arange(g.cube_index_of(k, a), g.cube_index_of(k, b) + 1)
            sj = (-1 if k & 1 else 1) * g.shift_index
            lo = (3 * m + sj) * 2.0**-k / 3.0
            hi = (3 * m + 3 + sj) * 2.0**-k / 3.0
            keep = (hi > a) & (lo < b)
            los.append(lo[keep])
            his.append(hi[keep])
            blocks.append((g, k, m[keep]))
    starts = np.cumsum([0] + [len(m) for _, _, m in blocks])

    def label(i: int) -> str:
        j = int(np.searchsorted(starts, i, side="right")) - 1
        g, k, m = blocks[j]
        return g.cube(k, int(m[i - starts[j]])).label

    return np.concatenate(los), np.concatenate(his), label


def _sampled_intervals(mesh: Mesh, domain, max_pairs: int = 1 << 21):
    a, b = domain
    i0, i1 = mesh.cell_span(max(a, -mesh.radius), min(b, mesh.radius))
    edges = mesh.edges()[i0 : i1 + 1]
    n = len(edges)
    stride = 1
    while (n // stride) ** 2 // 2 > max_pairs:
        stride += 1
    pts = edges[::stride] if stride > 1 else edges
    m = len(pts)
    lo_idx, hi_idx = np.triu_indices(m, k=1)
    return pts[lo_idx], pts[hi_idx], lambda i: "cells"


@dataclass(frozen=True)
class CharacteristicReport:
    """Value of a characteristic together with the witnessing interval."""

    quantity: str
    value: float
    witness: tuple[float, float]
    witness_label: str
    search_levels: tuple[int, int]
    grids_used: int

    def __repr__(self):
        lo, hi = self.witness
        return (
            f"CharacteristicReport({self.quantity}={self.value:.6g} on "
            f"[{lo:.6g}, {hi:.6g}) via {self.witness_label})"
        )


def _averages(weight, lo, hi):
    return weight.integral_batch(lo, hi) / (hi - lo) if isinstance(
        weight, PowerLogWeight
    ) else _sampled_avgs(weight, lo, hi)


def _sampled_avgs(weight: SampledWeight, lo, hi):
    # endpoints produced by _sampled_intervals are exact cell edges
    pos_lo = np.round((lo + weight.mesh.radius) / weight.mesh.h).astype(np.int64)
    pos_hi = np.round((hi + weight.mesh.radius) / weight.mesh.h).astype(np.int64)
    p = np.concatenate(([0.0], np.cumsum(weight.values * weight.mesh.h)))
    return (p[pos_hi] - p[pos_lo]) / (hi - lo)


def _essinfs(weight, lo, hi, label):
    """Essential infima of the weight on the candidates, none of them zero."""
    if isinstance(weight, PowerLogWeight):
        out = weight.essinf_batch(lo, hi)
    else:
        mesh = weight.mesh
        i_lo = np.round((lo + mesh.radius) / mesh.h).astype(np.int64)
        i_hi = np.round((hi + mesh.radius) / mesh.h).astype(np.int64)
        # all intervals are cell-aligned; rolling minima per left endpoint
        out = np.empty(len(lo))
        vals = weight.values
        for start in np.unique(i_lo):
            sel = i_lo == start
            ends = i_hi[sel]
            run = np.minimum.accumulate(vals[start : ends.max()])
            out[sel] = run[ends - start - 1]
    if np.any(out == 0):
        bad = int(np.argmax(out == 0))
        raise DegenerateWeightError(f"essinf vanishes on cube [{lo[bad]:.6g}, {hi[bad]:.6g}) ({label(bad)})")
    return out


def _build_report(quantity, values, lo, hi, label, search) -> CharacteristicReport:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty search space")
    if not np.all(np.isfinite(values)):
        bad = int(np.argmax(~np.isfinite(values)))
        raise NonIntegrableError(
            f"{quantity} is not finite on cube [{lo[bad]:.6g}, {hi[bad]:.6g}) ({label(bad)})"
        )
    i = int(np.argmax(values))
    return CharacteristicReport(
        quantity=quantity,
        value=float(values[i]),
        witness=(float(lo[i]), float(hi[i])),
        witness_label=label(i),
        search_levels=(search.min_level, search.max_level),
        grids_used=len(search.grids),
    )


# ---------------------------------------------------------------------------
# characteristics
# ---------------------------------------------------------------------------


def ap_characteristic(weight, p: float, search: SearchSpace | None = None) -> CharacteristicReport:
    """Muckenhoupt A_p characteristic sup_Q (avg w)(avg w^(1-p'))^(p-1)."""
    if p <= 1:
        raise ValueError(f"A_p requires p > 1, got {p}; use a1_characteristic for p = 1")
    search = search or SearchSpace.default()
    lo, hi, label = search.intervals_for(weight)
    pprime = dual_exponent(p)
    dual = weight.power(1.0 - pprime)
    try:
        avg_w = _averages(weight, lo, hi)
        avg_dual = _averages(dual, lo, hi)
    except NonIntegrableError as e:
        raise NonIntegrableError(f"A_p dual weight: {e}") from None
    values = avg_w * avg_dual ** (p - 1.0)
    return _build_report(f"A_{p:g}", values, lo, hi, label, search)


def a1_characteristic(weight, search: SearchSpace | None = None) -> CharacteristicReport:
    """A_1 characteristic sup_Q (avg_Q w) / essinf_Q w."""
    search = search or SearchSpace.default()
    lo, hi, label = search.intervals_for(weight)
    avg_w = _averages(weight, lo, hi)
    inf_w = _essinfs(weight, lo, hi, label)
    values = avg_w / inf_w
    return _build_report("A_1", values, lo, hi, label, search)


def rh_characteristic(weight, s: float, search: SearchSpace | None = None) -> CharacteristicReport:
    """Reverse-Holder characteristic sup_Q (avg_Q w^s)^(1/s) / avg_Q w."""
    if s <= 1:
        raise ValueError(f"reverse Holder requires s > 1, got {s}")
    search = search or SearchSpace.default()
    lo, hi, label = search.intervals_for(weight)
    ws = weight.power(s)
    try:
        avg_ws = _averages(ws, lo, hi)
    except NonIntegrableError as e:
        raise NonIntegrableError(f"RH_{s:g}: {e}") from None
    avg_w = _averages(weight, lo, hi)
    values = avg_ws ** (1.0 / s) / avg_w
    return _build_report(f"RH_{s:g}", values, lo, hi, label, search)


def sharp_rh_exponent(
    weight,
    search: SearchSpace | None = None,
    bound: float = 2.0,
    ceiling: float = 64.0,
    rel_tol: float = 1e-4,
) -> float:
    """Largest exponent nu (by bisection) with [w]_{RH_nu} <= bound.

    Returns ``ceiling`` when every tested exponent qualifies (constant-like
    weights).  Raises when not even exponents barely above 1 qualify, which
    is the numerical signature of a weight outside A_infinity.
    """
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
        raise DegenerateWeightError(
            "no reverse-Holder exponent > 1 found; weight outside numerical A_infinity"
        )
    hi = ceiling
    while (hi - lo) > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def apq_characteristic(
    weight, p: float, q: float, search: SearchSpace | None = None
) -> CharacteristicReport:
    """Fractional characteristic sup_Q (avg_Q w^q)(avg_Q w^(-p'))^(q/p')."""
    if p <= 1:
        raise ValueError(f"A_(p,q) with p = 1 is a1q_characteristic; got p={p}")
    if q <= p:
        raise ValueError(f"A_(p,q) requires q > p, got p={p}, q={q}")
    search = search or SearchSpace.default()
    lo, hi, label = search.intervals_for(weight)
    pprime = dual_exponent(p)
    wq = weight.power(q)
    wdual = weight.power(-pprime)
    try:
        avg_q = _averages(wq, lo, hi)
        avg_dual = _averages(wdual, lo, hi)
    except NonIntegrableError as e:
        raise NonIntegrableError(f"A_(p,q): {e}") from None
    values = avg_q * avg_dual ** (q / pprime)
    return _build_report(f"A_({p:g},{q:g})", values, lo, hi, label, search)


def a1q_characteristic(weight, q: float, search: SearchSpace | None = None) -> CharacteristicReport:
    """sup_Q esssup_{x in Q} w(x)^-q (avg_Q w^q) = sup_Q (avg_Q w^q)/(essinf_Q w)^q."""
    if q <= 1:
        raise ValueError(f"A_(1,q) requires q > 1, got {q}")
    search = search or SearchSpace.default()
    lo, hi, label = search.intervals_for(weight)
    wq = weight.power(q)
    avg_q = _averages(wq, lo, hi)
    inf_w = _essinfs(weight, lo, hi, label)
    values = avg_q / inf_w**q
    return _build_report(f"A_(1,{q:g})", values, lo, hi, label, search)


# ---------------------------------------------------------------------------
# Fujii-Wilson A_infinity
# ---------------------------------------------------------------------------


def ainfty_characteristic(
    weight,
    mesh: Mesh | None = None,
    grids: Sequence[DyadicGrid] | None = None,
    min_level: int | None = None,
) -> CharacteristicReport:
    """Fujii-Wilson characteristic sup_Q w(Q)^-1 ∫_Q M(w χ_Q) dx.

    Realization: the weight is discretized to exact cell averages on
    ``mesh``; for each shifted dyadic grid, Q runs over the grid cubes
    inside the mesh domain, and M is that grid's own dyadic maximal
    operator.  Within one grid any cube is nested in or disjoint from Q,
    so on Q the maximal function of w χ_Q only sees cubes contained in Q;
    ∫_Q M(w χ_Q) is then computed exactly (for the discretized weight) by a
    single bottom-up sweep that maintains, per finest-level cube, the
    running maximum of ancestor averages.  The reported value is the max
    over the three grids, and is exact for constant weights (= 1).
    """
    if mesh is None:
        mesh = weight.mesh if isinstance(weight, SampledWeight) else Mesh(4.0, 9)
    grids = list(grids) if grids is not None else shifted_grids(1)
    k_top, k_fine = default_levels(mesh)
    min_level = k_top if min_level is None else min_level
    wbar = MeshFunction(mesh, weight.cell_averages(mesh))
    if np.any(wbar.values <= 0):
        raise DegenerateWeightError("discretized weight must be positive")
    value, cube = -np.inf, None
    for g in grids:
        val, k, m = _fujii_wilson_one_grid(wbar, g, min_level, k_fine)
        if val > value:
            value, cube = float(val), g.cube(int(k), int(m))
    if cube is None:
        raise ValueError("no grid cube fits inside the mesh domain")
    return CharacteristicReport(
        quantity="A_inf(FW)",
        value=value,
        witness=cube.interval(),
        witness_label=cube.label,
        search_levels=(min_level, k_fine),
        grids_used=len(grids),
    )


def _fujii_wilson_one_grid(wbar: MeshFunction, grid: DyadicGrid, k_lo: int, k_fine: int):
    """(value, k, m) per component of ``wbar``: the largest w(Q)^-1 ∫_Q M(w χ_Q)
    over the grid's cubes inside the domain, levels k_lo..k_fine, and its
    cube; the finer level, then the left cube wins a tie; -inf if none.
    """
    mesh = wbar.mesh
    # finest-level geometry
    q0f, ints_f = level_cube_integrals(wbar, grid, k_fine)
    nf = len(ints_f)
    width_f = 2.0**-k_fine
    lefts_f_num = 3 * (q0f + np.arange(nf, dtype=np.int64)) + (-1 if k_fine & 1 else 1) * grid.shift_index
    # left endpoint of finest cube i is lefts_f_num[i] / (3 * 2^k_fine), exactly
    profile = np.zeros(ints_f.shape)
    vals, levels, cubes = [], [], []  # per level: ratios of the inside cubes, k, their indices m
    for k in range(k_fine, k_lo - 1, -1):
        q0, ints = level_cube_integrals(wbar, grid, k)
        width = 2.0**-k
        avgs = ints / width
        # ancestor index at level k of each finest cube, floor(left_f / 2^-k - (-1)^k j/3),
        # in integers: multiply through by 3 * 2^(k_fine - k)
        scale = 2 ** (k_fine - k)
        anc = (lefts_f_num - (-1 if k & 1 else 1) * grid.shift_index * scale) // (3 * scale)
        profile = np.maximum(profile, avgs[anc - q0])
        # cubes at level k fully inside the mesh domain: cube m spans edge
        # positions [(m den - a0)/step, ((m+1) den - a0)/step) of the n cells
        a0, step, den = _level_affine(mesh, grid, k)
        inside_lo = -(-a0 // den)
        inside_hi = (a0 + mesh.n_cells * step) // den - 1
        if inside_hi < inside_lo:
            continue
        # segment sums of profile * width_f per ancestor cube
        seg = np.searchsorted(anc, np.arange(inside_lo, inside_hi + 2))
        csum = np.concatenate((np.zeros((1, *profile.shape[1:])), np.cumsum(profile * width_f, axis=0)))
        m_int = csum[seg[1:]] - csum[seg[:-1]]
        wq = ints[inside_lo - q0 : inside_hi - q0 + 1]
        ok = wq > 0
        vals.append(np.where(ok, m_int / np.where(ok, wq, 1.0), -np.inf))
        levels.append(k)
        cubes.append(np.arange(inside_lo, inside_hi + 1))
    if not vals:
        return np.full(ints_f.shape[1:], -np.inf), 0, 0
    # the first maximum: finer levels come first, so a finer cube wins a tie
    vals = np.concatenate(vals)
    j = vals.argmax(axis=0)
    k = np.repeat(levels, [len(m) for m in cubes])[j]
    return vals.max(axis=0), k, np.concatenate(cubes)[j]
