"""Scalar weights and their characteristics.

Two representations are supported:

* :class:`PowerLogWeight` -- the closed-form family
  ``w(x) = c |x|^a log(e/|x|)^b`` on ``0 < |x| <= 1`` and ``w = c`` outside.
  The family is closed under powers.  Interval integrals come from an
  integration-by-parts recursion in ``b`` for integer ``b >= 0``; other ``b``
  substitute ``x = e^(1-s)``, which gives the incomplete gamma function on
  intervals [0, t] (``a > -1``, ``b > -1``; a closed form at ``a = -1``) and
  a fixed composite Gauss-Legendre rule in ``s`` elsewhere.
* :class:`SampledWeight` -- positive cell values on a :class:`~weaklab.grid.Mesh`,
  with piecewise-constant semantics (interval integrals are exact cell sums,
  essential infima are minima over touched cells).  Within one search, a
  sampled weight's averages (of any power) and infima come from one row
  layout of its cell-aligned candidates, as running sums and running minima.

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
from scipy import special

from .grid import (
    DyadicGrid,
    Mesh,
    MeshFunction,
    _level_affine,
    _span_integrals,
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
    """∫ x^a log(e/x)^b dx over [lo, hi] ⊆ [0, 1], elementwise.

    Integer b >= 0 uses the exact parts recursion

        (a+1) ∫ x^a L^b = [x^(a+1) L^b] + b ∫ x^a L^(b-1),   L = log(e/x),

    anchored at b = 0.  Other b substitute x = e^(1-s), c = a + 1, which
    turns the integral into e^c ∫ s^b e^(-cs) ds over [log(e/hi), log(e/lo)]:

    * anchored, a > -1, b > -1: the closed form e^c Γ(b+1) Q(b+1, cS) / c^(b+1),
      S = log(e/hi), with Q the regularized upper incomplete gamma function;
    * anchored, a = -1, b < -1: the closed form S^(b+1) / (-(b+1));
    * interior (lo > 0), any a and b: composite Gauss-Legendre in s
      (``_log_variable_rule``);
    * anchored, a > -1, b <= -1: the same rule on [S, S + 40/c], where the
      decreasing integrand has fallen by e^-40; also where Q underflows.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if float(b).is_integer() and b >= 0:
        return _core_recursive(a, int(b), lo, hi)
    out = np.zeros(np.broadcast(lo, hi).shape)
    live = hi > lo
    anchored = live & (lo == 0.0)
    if np.any(anchored):
        out[anchored] = _anchored_core(a, b, hi[anchored])
    interior = live & (lo > 0.0)
    u, v = lo[interior], hi[interior]
    out[interior] = _log_variable_rule(a, b, np.log(_E / v), np.log1p((v - u) / u), v, u)
    return out


def _anchored_core(a: float, b: float, t: np.ndarray) -> np.ndarray:
    """∫_0^t x^a log(e/x)^b dx for 0 < t <= 1 and b not a non-negative integer,
    on a weight the callers found ``anchored_integrable``."""
    c = a + 1.0
    S = np.log(_E / t)
    if c == 0:
        return S ** (b + 1.0) / -(b + 1.0)
    if b > -1:
        q = special.gammaincc(b + 1.0, c * S)
        out = _gamma_prefactor(c, b, q)
        tail = q < np.finfo(float).tiny  # Q underflowed, so cS > b + 1 and the integrand decreases
    else:
        out, tail = np.empty(S.shape), np.ones(S.shape, dtype=bool)
    if np.any(tail):
        S, t = S[tail], t[tail]
        span = 40.0 / (c - max(b, 0.0) / S)
        out[tail] = _log_variable_rule(a, b, S, span, t, np.exp(1.0 - (S + span)))
    return out


def _gamma_prefactor(c: float, b: float, q: np.ndarray) -> np.ndarray:
    """e^c Γ(b+1) q / c^(b+1), in log space where a factor leaves the float range."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # float64: overflow gives inf
        pref = np.exp(c) * special.gamma(b + 1.0) / np.float64(c) ** (b + 1.0)
    if np.finfo(float).tiny <= pref < np.inf:
        return pref * q
    with np.errstate(divide="ignore"):
        return np.exp(c + special.gammaln(b + 1.0) - (b + 1.0) * math.log(c) + np.log(q))


# 16-node Gauss-Legendre rule on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _power_product(x, c: float, s, b: float) -> np.ndarray:
    """x^c s^b, through logs where a factor leaves the normal float range."""
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        xc, sb = x**c, s**b
        normal = (np.finfo(float).tiny <= np.minimum(xc, sb)) & (np.maximum(xc, sb) < np.inf)
        return np.where(normal, xc * sb, np.exp(c * np.log(x) + b * np.log(s)))


def _log_variable_rule(a: float, b: float, s0, span, x0, x1) -> np.ndarray:
    """∫ e^(c(1-s)) s^b ds over [s0, s0 + span], s0 >= 1, c = a + 1, elementwise,
    by composite 16-node Gauss-Legendre; ``x0``, ``x1`` are e^(1-s) at the ends.

    This is ∫ x^a log(e/x)^b dx over [x1, x0].  The span is passed on its own
    (as ``log1p((v-u)/u)`` for an interval [u, v]) because the difference of
    two logs loses digits on narrow intervals.  The panels are uniform in
    log s, and no panel is wider than min(s/2, s/|b|, 1/|c|), so s^b and
    e^(-cs) each vary by a bounded factor on it.  The integrand is scaled by
    its value at the end where it is larger, so nothing overflows when
    a << -1; an interior peak (b > 0 < c) overflows only if it exceeds that
    end value by e^709 (it is e^159 at a = 40, b = 200.5 on [2^-40, 1]).
    """
    s0, span = np.asarray(s0, dtype=float), np.asarray(span, dtype=float)
    c = a + 1.0
    log_span = np.log1p(span / s0)
    peak_right = b * log_span - c * span > 0  # log g(s0 + span) > log g(s0)
    ref = np.where(peak_right, span, 0.0)  # offset of the scaling end from s0
    g_ref = _power_product(np.where(peak_right, x1, x0), c, s0 + ref, b)
    per_log = 1.0 / math.log1p(1.0 / max(2.0, abs(b)))  # panels per unit of log s for s^b
    n = np.ceil(log_span * np.maximum(per_log, abs(c) * (s0 + span))).astype(np.int64)
    i = np.repeat(np.arange(len(n)), n)  # owning interval of each panel
    j = np.arange(len(i)) - np.repeat(np.cumsum(n) - n, n)
    lo, hi = (s0[i] * np.expm1(log_span[i] * (m / n[i])) for m in (j, j + 1))  # offsets from s0
    half = 0.5 * (hi - lo)
    d = (lo + half - ref[i])[:, None] + half[:, None] * _GL_NODES  # node offsets from the scaling end
    vals = np.exp(b * np.log1p(d / (s0 + ref)[i][:, None]) - c * d)
    return g_ref * np.bincount(i, weights=(vals @ _GL_WEIGHTS) * half, minlength=len(n))


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

    def levels_for(self, weight) -> tuple[tuple[int, int], int]:
        """``((coarsest, finest), grids)``: the levels and the number of grids
        of the dyadic cubes ``intervals_for`` builds for this weight kind;
        ``((0, -1), 0)`` for the full cell scan of a sampled weight."""
        if not isinstance(weight, SampledWeight):
            return (self.min_level, self.max_level), len(self.grids)
        if not self.sampled_aligned_cubes:
            return (0, -1), 0
        # standard cubes from width R down to one cell
        k0 = weight.mesh.aligned_cell_level()
        return (k0 - weight.mesh.level, k0), 1

    def intervals_for(self, weight) -> tuple[np.ndarray, np.ndarray, Callable[[int], str]]:
        """Candidate intervals ``(lo, hi, label)`` adapted to the weight kind;
        ``label(i)`` formats the name of candidate i on demand."""
        if isinstance(weight, SampledWeight):
            mesh = weight.mesh
            if not self.sampled_aligned_cubes:
                return _sampled_intervals(mesh, self.domain)
            (k_lo, k_hi), _ = self.levels_for(weight)
            return _grid_cubes((DyadicGrid(),), k_lo, k_hi, (-mesh.radius, mesh.radius))
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
    """Value of a characteristic together with the witnessing interval.

    ``search_levels`` and ``grids_used`` describe the dyadic cubes actually
    searched: ``(0, -1)`` and 0 when there were none (a cell scan).
    """

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


class _Plan:
    """The candidates of one search (the default one for None) for one weight,
    from ``search.intervals_for`` and ``search.levels_for``, laid out once.

    A sampled weight's candidates are cell-aligned.  The blocks, the cell
    runs between consecutive candidate edges, get one row per left edge, as
    far as its longest candidate reaches, padded to the next power of two.
    Averages are running sums along the rows, each from its own left edge,
    so their rounding scales with their own mass, not with the mass to their
    left; infima are running minima along the same rows.  So all cell-aligned
    intervals cost one triangle of blocks, and nested cubes their total length.
    """

    def __init__(self, weight, search: SearchSpace | None):
        search = search or SearchSpace.default()
        self.weight = weight
        self.lo, self.hi, self.label = search.intervals_for(weight)
        self.searched = search.levels_for(weight)
        if isinstance(weight, PowerLogWeight):
            return
        mesh = weight.mesh
        i_lo, i_hi = (np.round((x + mesh.radius) / mesh.h).astype(np.int64) for x in (self.lo, self.hi))
        is_edge = np.zeros(mesh.n_cells + 1, dtype=bool)
        is_edge[i_lo] = is_edge[i_hi] = True
        self.edges = np.flatnonzero(is_edge)
        block_of = np.cumsum(is_edge) - 1  # block index at each cell edge
        first, length = block_of[i_lo], block_of[i_hi] - block_of[i_lo]
        reach = np.zeros(len(self.edges), dtype=np.int64)
        np.maximum.at(reach, first, length)  # blocks the row from each edge covers
        width = np.where(reach > 0, 1 << np.ceil(np.log2(np.maximum(reach, 1))).astype(np.int64), 0)
        self.rows, start = [], np.zeros(len(self.edges), dtype=np.int64)  # start: a row's offset in the runs
        for w in np.unique(width[width > 0]):
            rows = np.flatnonzero(width == w)
            start[rows] = sum(map(np.size, self.rows)) + w * np.arange(len(rows))
            self.rows.append(rows[:, None] + np.arange(w))  # block indices of each row, padding past the end
        self.pick = start[first] + length - 1
        self.pad = width.max(initial=0)

    def _runs(self, blocks: np.ndarray, accumulate, fill: float) -> np.ndarray:
        """``accumulate`` along each candidate's row of per-block values, read
        at the candidate's last block."""
        blocks = np.concatenate((blocks, np.full(self.pad, fill)))
        runs = [accumulate(blocks[rows], axis=1).ravel() for rows in self.rows]
        return np.concatenate([np.empty(0)] + runs)[self.pick]

    def averages(self, weight) -> np.ndarray:
        """Averages on the candidates of ``weight``, the planned weight or a power of it."""
        if isinstance(weight, PowerLogWeight):
            return weight.integral_batch(self.lo, self.hi) / (self.hi - self.lo)
        blocks = _span_integrals(weight.as_mesh_function(), self.edges[:-1], self.edges[1:], 1)
        return self._runs(blocks, np.cumsum, 0.0) / (self.hi - self.lo)

    def essinfs(self) -> np.ndarray:
        """Essential infima of the planned weight on the candidates, none of them zero."""
        w = self.weight
        if isinstance(w, PowerLogWeight):
            out = w.essinf_batch(self.lo, self.hi)
        else:  # reduceat's segment from the last edge runs to the end; it is dropped
            mins = np.minimum.reduceat(np.append(w.values, np.inf), self.edges)[:-1]
            out = self._runs(mins, np.minimum.accumulate, np.inf)
        if np.any(out == 0):
            raise DegenerateWeightError(f"essinf vanishes on {self._where(int(np.argmax(out == 0)))}")
        return out

    def _where(self, i: int) -> str:
        return f"cube [{self.lo[i]:.6g}, {self.hi[i]:.6g}) ({self.label(i)})"

    def report(self, quantity: str, values) -> CharacteristicReport:
        """Report the largest of ``values``, one per candidate."""
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ValueError("empty search space")
        if not np.all(np.isfinite(values)):
            bad = int(np.argmax(~np.isfinite(values)))
            raise NonIntegrableError(f"{quantity} is not finite on {self._where(bad)}")
        i = int(np.argmax(values))
        (levels, grids), witness = self.searched, (float(self.lo[i]), float(self.hi[i]))
        return CharacteristicReport(quantity, float(values[i]), witness, self.label(i), levels, grids)


# ---------------------------------------------------------------------------
# characteristics
# ---------------------------------------------------------------------------


def ap_characteristic(weight, p: float, search: SearchSpace | None = None) -> CharacteristicReport:
    """Muckenhoupt A_p characteristic sup_Q (avg w)(avg w^(1-p'))^(p-1)."""
    if p <= 1:
        raise ValueError(f"A_p requires p > 1, got {p}; use a1_characteristic for p = 1")
    plan = _Plan(weight, search)
    dual = weight.power(1.0 - dual_exponent(p))
    try:
        avg_w, avg_dual = plan.averages(weight), plan.averages(dual)
    except NonIntegrableError as e:
        raise NonIntegrableError(f"A_p dual weight: {e}") from None
    return plan.report(f"A_{p:g}", avg_w * avg_dual ** (p - 1.0))


def a1_characteristic(weight, search: SearchSpace | None = None) -> CharacteristicReport:
    """A_1 characteristic sup_Q (avg_Q w) / essinf_Q w."""
    plan = _Plan(weight, search)
    return plan.report("A_1", plan.averages(weight) / plan.essinfs())


def rh_characteristic(weight, s: float, search: SearchSpace | None = None) -> CharacteristicReport:
    """Reverse-Holder characteristic sup_Q (avg_Q w^s)^(1/s) / avg_Q w."""
    if s <= 1:
        raise ValueError(f"reverse Holder requires s > 1, got {s}")
    plan = _Plan(weight, search)
    try:
        avg_ws = plan.averages(weight.power(s))
    except NonIntegrableError as e:
        raise NonIntegrableError(f"RH_{s:g}: {e}") from None
    return plan.report(f"RH_{s:g}", avg_ws ** (1.0 / s) / plan.averages(weight))


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
    is the numerical signature of a weight outside A_infinity.  Every step
    reads one plan and fails where ``rh_characteristic`` would raise; avg_Q w
    is taken once, after the first integrable w^s.
    """
    if ceiling <= 1:
        raise ValueError(f"reverse Holder requires s > 1, got {ceiling}")
    plan = _Plan(weight, search or SearchSpace.anchored_only())
    avg_w = None

    def ok(s: float) -> bool:
        nonlocal avg_w
        try:
            avg_ws = plan.averages(weight.power(s))
            avg_w = plan.averages(weight) if avg_w is None else avg_w
            return plan.report("RH", avg_ws ** (1.0 / s) / avg_w).value <= bound
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
    plan = _Plan(weight, search)
    pprime = dual_exponent(p)
    wq, wdual = weight.power(q), weight.power(-pprime)
    try:
        avg_q, avg_dual = plan.averages(wq), plan.averages(wdual)
    except NonIntegrableError as e:
        raise NonIntegrableError(f"A_(p,q): {e}") from None
    return plan.report(f"A_({p:g},{q:g})", avg_q * avg_dual ** (q / pprime))


def a1q_characteristic(weight, q: float, search: SearchSpace | None = None) -> CharacteristicReport:
    """sup_Q esssup_{x in Q} w(x)^-q (avg_Q w^q) = sup_Q (avg_Q w^q)/(essinf_Q w)^q."""
    if q <= 1:
        raise ValueError(f"A_(1,q) requires q > 1, got {q}")
    plan = _Plan(weight, search)
    return plan.report(f"A_(1,{q:g})", plan.averages(weight.power(q)) / plan.essinfs() ** q)


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
    tables = level_cube_integrals(wbar, grid, min(k_lo, k_fine), k_fine)  # k_fine even if k_lo > k_fine
    q0f, ints_f = tables[-1]  # finest-level geometry
    nf = len(ints_f)
    width_f = 2.0**-k_fine
    lefts_f_num = 3 * (q0f + np.arange(nf, dtype=np.int64)) + (-1 if k_fine & 1 else 1) * grid.shift_index
    # left endpoint of finest cube i is lefts_f_num[i] / (3 * 2^k_fine), exactly
    profile = np.zeros(ints_f.shape)
    vals, levels, cubes = [], [], []  # per level: ratios of the inside cubes, k, their indices m
    for k, (q0, ints) in zip(range(k_fine, k_lo - 1, -1), reversed(tables)):
        avgs = ints / 2.0**-k
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
        # sums of profile * width_f over each ancestor cube's own segment
        seg = np.searchsorted(anc, np.arange(inside_lo, inside_hi + 2))
        mass = np.concatenate((profile * width_f, np.zeros((1, *profile.shape[1:]))))
        m_int = np.add.reduceat(mass, seg, axis=0)[:-1]
        m_int[seg[1:] == seg[:-1]] = 0.0  # reduceat gives an empty segment its first entry
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
