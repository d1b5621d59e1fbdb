"""Scalar weights and their characteristics.

Two representations are supported:

* :class:`PowerLogWeight` -- the closed-form family
  ``w(x) = c |x|^a log(e/|x|)^b`` on ``0 < |x| <= 1`` and ``w = c`` outside.
  The family is closed under powers.  Interval integrals are elementary at
  ``b = 0``; every other ``b`` substitutes ``x = e^(1-s)``, which gives the
  incomplete gamma function on intervals [0, t] (``a > -1``, ``b > -1``; a
  closed form at ``a = -1``) and a fixed composite Gauss-Legendre rule in
  ``s`` elsewhere.  Integrals and essential infima read one fold of the
  intervals onto |x| (``_Folded``); a piece [0, t] needs ``anchored_integrable``.
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
alone (a grid cube by ``Cube.label``).  Every report, the matrix
characteristics' too, comes from ``_report``: the witness is the first
maximum in candidate order (see ``_cubes``).  Each grid level's cubes are
built as integer arrays: cube m of level k in grid j is [(3m + sj) 2^-k,
(3m + 3 + sj) 2^-k) / 3 with sj = (-1)^k j.  While |3m + 3 + sj| < 2^53 the
numerator times 2^-k is an exact float, so one division by 3 is the
correctly rounded exact endpoint, bit for bit what float() of the rational
cube endpoint gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._special import gammaincc
from .grid import (
    DyadicGrid,
    Mesh,
    MeshFunction,
    _aligned_layout,
    _cubes,
    _geometry,
    _length,
    _read_only,
    _scan_layout,
    default_levels,
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
_TINY = np.finfo(float).tiny  # smallest normal float


class NonIntegrableError(ValueError):
    """A required weight power fails to be integrable on a search cube."""


class DegenerateWeightError(ValueError):
    """A weight degenerates (vanishing essential infimum or mass) on a cube."""


def dual_exponent(p: float) -> float:
    """Holder conjugate p' = p/(p-1)."""
    if not 1 < p < math.inf:
        raise ValueError(f"dual exponent needs p > 1 and finite, got {p}")
    return p / (p - 1.0)


# ---------------------------------------------------------------------------
# closed-form weights
# ---------------------------------------------------------------------------


def _log_e_over(x: np.ndarray) -> np.ndarray:
    """log(e/x) for x > 0, also at subnormal x, where e/x can overflow."""
    if x.min(initial=1.0) >= _TINY:
        return np.log(_E / x)
    with np.errstate(over="ignore"):
        out = np.log(_E / x)
    return np.where(np.isinf(out), 1.0 - np.log(x), out)


def _log_ratio(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """log(v/u) for 0 < u <= v <= 1, as log1p((v-u)/u), which keeps its digits
    on narrow intervals, or as log v - log u at subnormal u, where (v-u)/u
    can overflow."""
    if u.min(initial=1.0) >= _TINY:
        return np.log1p((v - u) / u)
    with np.errstate(over="ignore"):
        out = np.log1p((v - u) / u)
    return np.where(np.isinf(out), np.log(v) - np.log(u), out)


def _powerlog_core_batch(a: float, b: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """∫ x^a log(e/x)^b dx over [lo, hi] ⊆ [0, 1], elementwise, on pieces the
    callers found integrable; empty pieces give 0.

    b = 0 is elementary: (hi^c - lo^c) / c with c = a + 1, or
    log(e/lo) - log(e/hi) at c = 0.  Every other b substitutes x = e^(1-s),
    which turns the integral into e^c ∫ s^b e^(-cs) ds over
    [log(e/hi), log(e/lo)]:

    * anchored (lo = 0): ``_anchored_core``, the incomplete gamma function
      or its closed form at c = 0;
    * interior (lo > 0), any a and b: composite Gauss-Legendre in s
      (``_log_variable_rule``).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    out = np.zeros(np.broadcast(lo, hi).shape)
    live = hi > lo
    if b == 0:
        u, v, c = lo[live], hi[live], a + 1.0
        out[live] = _log_e_over(u) - _log_e_over(v) if c == 0 else (v**c - u**c) / c
        return out
    anchored = live & (lo == 0.0)
    if np.any(anchored):
        out[anchored] = _anchored_core(a, b, hi[anchored])
    interior = live & (lo > 0.0)
    u, v = lo[interior], hi[interior]
    out[interior] = _log_variable_rule(a, b, _log_e_over(v), _log_ratio(u, v), v, u)
    return out


def _anchored_core(a: float, b: float, t: np.ndarray) -> np.ndarray:
    """∫_0^t x^a log(e/x)^b dx for 0 < t <= 1 and b != 0, on a weight the
    callers found ``anchored_integrable``, with c = a + 1 and S = log(e/t):

    * a > -1, b > -1: e^c Γ(b+1) Q(b+1, cS) / c^(b+1), with Q the regularized
      upper incomplete gamma function;
    * a = -1, b < -1: S^(b+1) / (-(b+1));
    * a > -1, b <= -1, and wherever Q underflows: ``_log_variable_rule`` on
      [S, S + 40/c], where the decreasing integrand has fallen by e^-40.
    """
    c = a + 1.0
    S = _log_e_over(t)
    if c == 0:
        return S ** (b + 1.0) / -(b + 1.0)
    if b > -1:
        q = gammaincc(b + 1.0, c * S)
        out = _gamma_prefactor(c, b, q)
        tail = q < _TINY  # Q underflowed, so cS > b + 1 and the integrand decreases
    else:
        out, tail = np.empty(S.shape), np.ones(S.shape, dtype=bool)
    if np.any(tail):
        S, t = S[tail], t[tail]
        span = 40.0 / (c - max(b, 0.0) / S)
        out[tail] = _log_variable_rule(a, b, S, span, t, np.exp(1.0 - (S + span)))
    return out


def _gamma_prefactor(c: float, b: float, q: np.ndarray) -> np.ndarray:
    """e^c Γ(b+1) q / c^(b+1), in log space where a factor leaves the float range."""
    try:
        gamma = math.gamma(b + 1.0)
    except OverflowError:  # past b + 1 = 171.6
        gamma = math.inf
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # float64: overflow gives inf
        pref = np.exp(c) * gamma / np.float64(c) ** (b + 1.0)
    if _TINY <= pref < np.inf:
        return pref * q
    with np.errstate(divide="ignore"):
        return np.exp(c + math.lgamma(b + 1.0) - (b + 1.0) * math.log(c) + np.log(q))


# 16-node Gauss-Legendre rule on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _power_product(x, c: float, s, b: float) -> np.ndarray:
    """x^c s^b, through logs where a factor leaves the normal float range."""
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        xc, sb = x**c, s**b
        normal = (_TINY <= np.minimum(xc, sb)) & (np.maximum(xc, sb) < np.inf)
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


def _ordered(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """lo, hi as float arrays with lo <= hi elementwise; an interval out of
    order or with a NaN endpoint is a ValueError that names it."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    ok = lo <= hi  # false at a NaN endpoint too
    if not np.all(ok):
        a, b = (x.ravel()[np.argmin(ok.ravel())] for x in np.broadcast_arrays(lo, hi))
        raise ValueError(f"interval endpoints out of order or NaN: [{a}, {b}]")
    return lo, hi


class _Folded:
    """A batch of intervals [lo, hi] folded onto |x|, for the even
    ``PowerLogWeight``: each interval becomes one piece [u, v] of [0, inf),
    and an interval that straddles 0 (``both``) one more piece [0, -lo],
    after all the others.  The geometry of the pieces is derived once and
    kept read-only: ``u1`` and ``v1`` clip them to [0, 1], ``outer`` is
    their length beyond 1, and ``touching`` holds the v of the pieces
    [0, v], v > 0, in order.  ``shape`` is the shape of lo and hi.  Both
    ``PowerLogWeight._integrals`` and ``PowerLogWeight._essinfs`` read them.
    """

    __slots__ = ("shape", "both", "u1", "v1", "outer", "touching")

    def __init__(self, lo, hi):
        lo, hi = _ordered(lo, hi)
        self.shape, lo, hi = hi.shape, lo.ravel(), hi.ravel()
        neg, both = hi <= 0, (lo < 0) & (hi > 0)
        u = np.append(np.where(neg, -hi, np.where(both, 0.0, lo)), np.zeros(np.count_nonzero(both)))
        v = np.append(np.where(neg, -lo, hi), -lo[both])
        u1, v1 = np.minimum(u, 1.0), np.minimum(v, 1.0)
        self.both, self.u1, self.v1 = _read_only(both), _read_only(u1), _read_only(np.maximum(v1, u1))
        self.outer = _read_only(np.maximum(v - 1.0, 0.0) - np.maximum(u - 1.0, 0.0))
        self.touching = _read_only(v[(u == 0.0) & (v > 0.0)])


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
        ax = np.abs(np.asarray(x, dtype=float))
        if not np.all(ax >= 0):  # false at NaN only
            raise ValueError(f"point {ax[~(ax >= 0)].flat[0]} is not a number")
        core = np.where(ax > 0, self._core_at(np.where(ax > 0, np.minimum(ax, 1.0), 1.0)), self._origin_limit)
        return self.scale * np.where(ax <= 1.0, core, 1.0)

    @property
    def anchored_integrable(self) -> bool:
        """Integrable on intervals touching the origin."""
        a, b = self.exponent, self.log_exponent
        return a > -1.0 or (a == -1.0 and b < -1.0)

    def power(self, s: float) -> "PowerLogWeight":
        return PowerLogWeight(self.exponent * s, self.log_exponent * s, self.scale**s)

    # -- exact integrals ---------------------------------------------------------

    def _integrals(self, folded: "_Folded") -> np.ndarray:
        """∫ w over the intervals ``folded`` folds, in their shape, from the
        pieces' geometry: only the weight's values are computed here.  The
        one place that rejects a piece [0, v], v > 0, of a weight that is not
        ``anchored_integrable``."""
        if not self.anchored_integrable and folded.touching.size:
            raise NonIntegrableError(
                f"PowerLog(a={self.exponent}, b={self.log_exponent}) is not integrable "
                f"on an interval touching 0 (first witness hi={folded.touching[0]:.6g})"
            )
        inner = _powerlog_core_batch(self.exponent, self.log_exponent, folded.u1, folded.v1)
        pieces = self.scale * (inner + folded.outer)
        out = pieces[: folded.both.size]
        out[folded.both] += pieces[folded.both.size :]
        return out.reshape(folded.shape)

    def integral_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Exact ∫_lo^hi w, any signs, elementwise (weight is even)."""
        return self._integrals(_Folded(lo, hi))

    def integral(self, lo, hi) -> float:
        return float(self.integral_batch(np.array([float(lo)]), np.array([float(hi)]))[0])

    def average(self, lo, hi) -> float:
        return self.integral(lo, hi) / _length(lo, hi)

    # -- essential infimum ---------------------------------------------------------

    def _core_at(self, x: np.ndarray) -> np.ndarray:
        """x^a log(e/x)^b on (0, 1] without the scale, also at subnormal x."""
        return x**self.exponent * _log_e_over(x) ** self.log_exponent

    @property
    def _origin_limit(self) -> float:
        """lim x^a log(e/x)^b as x -> 0+, without the scale, which is the
        value at 0: 0, 1 (the constant weight, a = b = 0) or inf."""
        a, b = self.exponent, self.log_exponent
        if a > 0 or (a == 0 and b < 0):
            return 0.0
        return 1.0 if a == b == 0 else math.inf

    def _essinfs(self, folded: "_Folded") -> np.ndarray:
        """Essential infima over the intervals ``folded`` folds, in their shape:
        a piece's least value at an end in (0, 1), at the one interior
        critical point x* = e^(1 - b/a) of x^a log(e/x)^b, at the origin
        limit or on the constant branch.  A straddling interval reads only
        the longer of its nested pieces [0, hi] and [0, -lo]."""
        a, b, u1, v1 = self.exponent, self.log_exponent, folded.u1, folded.v1
        n, both = folded.both.size, folded.both
        live = np.ones(v1.size, dtype=bool)
        live[n:] = v1[n:] > v1[:n][both]
        live[:n][both] = ~live[n:]
        pieces = np.where((folded.outer > 0) | (u1 == 1.0), self.scale, np.inf)
        inner = live & (u1 < 1.0) & (v1 > 0.0)
        for pt, ok in ((u1, inner & (u1 > 0.0)), (v1, inner)):
            pieces[ok] = np.minimum(pieces[ok], self.scale * self._core_at(pt[ok]))
        if a != 0.0 and b / a >= 1.0:
            xstar = math.exp(1.0 - b / a)
            ok = (u1 < xstar) & (xstar < v1)
            if np.any(ok):  # one 0-d evaluation: a vector one can differ in the last ulp
                pieces[ok] = np.minimum(pieces[ok], self.scale * self._core_at(np.array(xstar)))
        origin = self._origin_limit
        if origin < math.inf:
            touching = (u1 == 0.0) & (v1 > 0.0)
            pieces[touching] = np.minimum(pieces[touching], self.scale * origin)
        out = pieces[:n]
        out[both] = np.where(live[n:], pieces[n:], out[both])
        return out.reshape(folded.shape)

    def essinf_batch(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Essential infimum over [lo, hi], any signs, elementwise (weight is even)."""
        return self._essinfs(_Folded(lo, hi))

    def essinf(self, lo, hi) -> float:
        value = float(self.essinf_batch(np.array([float(lo)]), np.array([float(hi)]))[0])
        _length(lo, hi)  # the batch names an interval out of order, this an empty one
        return value

    def cell_averages(self, mesh: Mesh) -> np.ndarray:
        edges = mesh.edges()
        return self.integral_batch(edges[:-1], edges[1:]) / mesh.h


@dataclass(frozen=True)
class SampledWeight:
    """Positive piecewise-constant weight given by cell values on a mesh;
    ``values`` is a read-only copy of the input."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.mesh.n_cells,):
            raise ValueError(f"expected {self.mesh.n_cells} values, got {v.shape}")
        if not np.all(v > 0) or not np.all(np.isfinite(v)):
            raise ValueError("sampled weight values must be positive and finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        # the mesh edges are exact floats, so comparing against them is exact
        idx = np.searchsorted(self.mesh.edges(), x, side="right") - 1
        outside = (idx < 0) | (idx >= self.mesh.n_cells)
        if outside.any():
            bad = x[outside][0]
            where = f"outside the sampled domain [-{self.mesh.radius}, {self.mesh.radius})"
            raise ValueError(f"point {bad} {where if np.isfinite(bad) else 'is not a finite number'}")
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
        if lo > hi:
            raise ValueError(f"interval endpoints out of order or NaN: [{lo}, {hi}]")
        if lo < -self.mesh.radius or hi > self.mesh.radius:
            raise ValueError(
                f"interval [{lo}, {hi}) leaves the sampled domain "
                f"[-{self.mesh.radius}, {self.mesh.radius})"
            )

    def integral(self, lo, hi) -> float:
        self._require_inside(lo, hi)
        return self.as_mesh_function().integral(lo, hi)

    def average(self, lo, hi) -> float:
        return self.integral(lo, hi) / _length(lo, hi)

    def essinf(self, lo, hi) -> float:
        self._require_inside(lo, hi)
        _length(lo, hi)
        i0, i1 = self.mesh.cell_span(lo, hi)
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
    cell-aligned interval of the carrying mesh in ``domain``, which realizes
    the exact supremum over the natural candidate family; more than 2^21 of
    them (above 2,047 cells) is a ValueError naming the cells and the limit.

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
        min_level = -math.ceil(math.log2(2 * _radius(radius)))
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
            domain=(-_radius(radius), radius),
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
        """Candidate intervals ``(lo, hi, label)`` adapted to the weight kind
        (``_candidates`` or ``_sampled_layout``), read-only; ``label(i)``
        formats the name of candidate i on demand."""
        return (self._sampled_layout(weight) if isinstance(weight, SampledWeight) else self._candidates)[:3]

    @functools.cached_property
    def _candidates(self) -> tuple:
        """A closed-form weight's candidates ``(lo, hi, label, folded)``, built on first
        use and kept: they depend on the search alone (not on its equality or hash)."""
        b = self.domain[1]
        lo, hi, cube_label = _cubes(_grid_cubes(self.grids, self.min_level, self.max_level, self.domain))
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

        lo = _read_only(np.concatenate((lo, np.zeros(len(t)), -np.repeat(ts, len(ts)))))
        hi = _read_only(np.concatenate((hi, t, np.tile(ts, len(ts)))))
        return lo, hi, label, _Folded(lo, hi)

    def _sampled_layout(self, weight: SampledWeight) -> tuple:
        """``(lo, hi, label, cells, searched)``: a sampled weight's candidates,
        the cells each one holds (see ``_Plan.accumulate``) and the report's
        ``(search_levels, grids_used)``.  They depend on the mesh and the
        search alone: the aligned cubes are ``grid._aligned_layout`` (kept),
        searched as ``(levels, 1)``; the scan of the mesh edges in ``domain``
        (``grid._scan_layout``, O(n^2) candidates) is built per call and
        searches no grid, ``((0, -1), 0)``."""
        mesh = weight.mesh
        if self.sampled_aligned_cubes:
            *layout, levels = _aligned_layout(mesh)
            return (*layout, (levels, 1))
        a, b = self.domain
        return (*_scan_layout(mesh, *mesh.cell_span(max(a, -mesh.radius), min(b, mesh.radius))), ((0, -1), 0))


def _radius(radius: float) -> float:
    if not 0 < radius < math.inf:  # false at NaN too
        raise ValueError(f"search radius must be positive and finite, got {radius}")
    return radius


# dyadic cubes one search may build: a search of 2^22 cubes peaks near
# 400 MiB, and SearchSpace.default() reaches max_level 16 within the limit
_MAX_SEARCH_CUBES = 2**22


def _grid_cubes(grids, min_level: int, max_level: int, domain) -> list:
    """The grid cubes meeting the open interval ``domain`` = (a, b) in the
    floats of ``_cubes``, as ``(grid, k, m)`` blocks, grid by grid and level
    by level.  Only the cubes holding a and b can miss (a, b): under the
    bound of ``SearchSpace`` every cube is at least two ulps of a and b wide.
    More than ``_MAX_SEARCH_CUBES`` cubes is a ValueError, raised before any
    is built."""
    a, b = domain
    spans = []
    for g in grids:
        for k in range(min_level, max_level + 1):
            q_a, q_b = g.cube_index_of(k, a), g.cube_index_of(k, b)
            hi_a, lo_b = (g.numerator(k, q) * 2.0**-k / 3.0 for q in (q_a + 1, q_b))
            spans.append((g, k, q_a + (hi_a <= a), q_b + (lo_b < b)))
    total = sum(stop - start for _, _, start, stop in spans)
    if total > _MAX_SEARCH_CUBES:
        raise ValueError(
            f"a search to max_level {max_level} over {domain} has {total:,} dyadic cubes, "
            f"above the limit of {_MAX_SEARCH_CUBES:,}"
        )
    return [(g, k, np.arange(start, stop)) for g, k, start, stop in spans]


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
    laid out once with how they were searched (``searched``): a closed-form
    weight's from ``search._candidates``, on the search's levels and grids,
    a sampled weight's from ``search._sampled_layout``, which says itself.

    A closed-form weight's candidates depend only on the search, so the first
    plan on a search builds them, folds them onto |x| (``_Folded``) and keeps
    both on it, read-only (``SearchSpace._candidates``); every later plan on
    that search reads them, and each average and each set of infima computes
    only the weight's values.

    A sampled weight's candidates are runs of whole cells.  Each sum is
    taken left to right from the candidate's own left edge (``accumulate``),
    so its rounding scales with its own mass, not with the mass to its
    left; each infimum is the running minimum over the same cells.  The
    candidates depend on the mesh and the search alone and are laid out
    once per plan, so each average, such as a step of
    ``sharp_rh_exponent``, only sums values.  The aligned cubes are the
    one aligned family of ``grid._aligned_layout`` (kept, read-only), so
    every plan on an equal mesh reads it, as the matrix characteristics do;
    a cell scan, O(n^2) candidates, is laid out afresh for each plan.
    """

    def __init__(self, weight, search: SearchSpace | None):
        search = search or SearchSpace.default()
        self.weight = weight
        if isinstance(weight, PowerLogWeight):
            self.lo, self.hi, self.label, self.folded = search._candidates
            self.searched = (search.min_level, search.max_level), len(search.grids)
            return
        self.lo, self.hi, self.label, self.cells, self.searched = search._sampled_layout(weight)

    def accumulate(self, values: np.ndarray, op, fill: float) -> np.ndarray:
        """``op`` (``np.cumsum`` or ``np.minimum.accumulate``) along each
        candidate's cell ``values`` from its own left edge, read at its last
        cell.  The aligned cubes (one grid) of a level are equal blocks of
        cells; a cell scan takes one row per left edge, ``fill`` past the
        scanned cells, and reads them flat (``grid._scan_layout``)."""
        if self.searched[1]:  # the aligned cubes' one grid; a cell scan searches none
            return np.concatenate([op(values.reshape(-1, b), axis=1)[:, -1] for b in self.cells])
        cells, at = self.cells
        v = values[cells]
        rows = np.lib.stride_tricks.sliding_window_view(np.concatenate((v, np.full(len(v), fill))), len(v))
        return op(rows, axis=1).ravel().take(at)

    def averages(self, s: float) -> np.ndarray:
        """Averages of w^s on the candidates: a plan reads only powers of its weight."""
        w = self.weight if s == 1 else self.weight.power(s)  # w^1 is w, bit for bit
        if isinstance(w, PowerLogWeight):
            return w._integrals(self.folded) / (self.hi - self.lo)
        return self.accumulate(w.values * w.mesh.h, np.cumsum, 0.0) / (self.hi - self.lo)

    def essinfs(self) -> np.ndarray:
        """Essential infima of the planned weight on the candidates, none of them zero."""
        w = self.weight
        if isinstance(w, PowerLogWeight):
            out = w._essinfs(self.folded)
        else:
            out = self.accumulate(w.values, np.minimum.accumulate, np.inf)
        if np.any(out == 0):
            where = _where(self.lo, self.hi, self.label, int(np.argmax(out == 0)))
            raise DegenerateWeightError(f"essinf vanishes on {where}")
        return out

    def report(self, quantity: str, values) -> CharacteristicReport:
        """Report the largest of ``values``, one per candidate (``_report``)."""
        return _report(quantity, values, self.lo, self.hi, self.label, self.searched)


def _where(lo, hi, label, i: int) -> str:
    return f"cube [{lo[i]:.6g}, {hi[i]:.6g}) ({label(i)})"


def _report(quantity: str, values, lo, hi, label, searched) -> CharacteristicReport:
    """Report ``values``, one per candidate ``[lo[i], hi[i])`` named
    ``label(i)``, in candidate order (see ``_cubes``): the first maximum is
    the witness, and a non-finite value is a ``NonIntegrableError`` that
    names its candidate.  ``searched`` is ``(search_levels, grids_used)``."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty search space")
    if not np.all(np.isfinite(values)):
        bad = int(np.argmax(~np.isfinite(values)))
        raise NonIntegrableError(f"{quantity} is not finite on {_where(lo, hi, label, bad)}")
    i = int(np.argmax(values))
    (levels, grids), witness = searched, (float(lo[i]), float(hi[i]))
    return CharacteristicReport(quantity, float(values[i]), witness, label(i), levels, grids)


# ---------------------------------------------------------------------------
# characteristics
# ---------------------------------------------------------------------------


def ap_characteristic(weight, p: float, search: SearchSpace | None = None) -> CharacteristicReport:
    """Muckenhoupt A_p characteristic sup_Q (avg w)(avg w^(1-p'))^(p-1)."""
    if not 1 < p < math.inf:
        raise ValueError(f"A_p requires p > 1 and finite, got {p}; use a1_characteristic for p = 1")
    plan = _Plan(weight, search)
    try:
        avg_w, avg_dual = plan.averages(1.0), plan.averages(1.0 - dual_exponent(p))
    except NonIntegrableError as e:
        raise NonIntegrableError(f"A_p dual weight: {e}") from None
    return plan.report(f"A_{p:g}", avg_w * avg_dual ** (p - 1.0))


def a1_characteristic(weight, search: SearchSpace | None = None) -> CharacteristicReport:
    """A_1 characteristic sup_Q (avg_Q w) / essinf_Q w."""
    plan = _Plan(weight, search)
    return plan.report("A_1", plan.averages(1.0) / plan.essinfs())


def rh_characteristic(weight, s: float, search: SearchSpace | None = None) -> CharacteristicReport:
    """Reverse-Holder characteristic sup_Q (avg_Q w^s)^(1/s) / avg_Q w."""
    if not 1 < s < math.inf:
        raise ValueError(f"reverse Holder requires s > 1 and finite, got {s}")
    plan = _Plan(weight, search)
    try:
        avg_ws = plan.averages(s)
    except NonIntegrableError as e:
        raise NonIntegrableError(f"RH_{s:g}: {e}") from None
    return plan.report(f"RH_{s:g}", avg_ws ** (1.0 / s) / plan.averages(1.0))


def sharp_rh_exponent(
    weight,
    search: SearchSpace | None = None,
    ceiling: float = 64.0,
) -> float:
    """Largest exponent nu (by bisection, to relative 1e-4) with [w]_{RH_nu} <= 2.

    Returns ``ceiling`` when every tested exponent qualifies (constant-like
    weights).  Raises when not even exponents barely above 1 qualify, which
    is the numerical signature of a weight outside A_infinity.  Every step
    reads one plan and fails where ``rh_characteristic`` would raise; avg_Q w
    is taken once, after the first integrable w^s.
    """
    if not 1 < ceiling < math.inf:  # hi = inf would never close the bisection
        raise ValueError(f"reverse Holder requires s > 1 and finite, got {ceiling}")
    plan = _Plan(weight, search or SearchSpace.anchored_only())
    avg_w = None

    def ok(s: float) -> bool:
        nonlocal avg_w
        try:
            avg_ws = plan.averages(s)
            avg_w = plan.averages(1.0) if avg_w is None else avg_w
            return plan.report("RH", avg_ws ** (1.0 / s) / avg_w).value <= 2.0
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
    while (hi - lo) > 1e-4 * lo:
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
    if not p > 1:
        raise ValueError(f"A_(p,q) with p = 1 is a1q_characteristic; got p={p}")
    if not p < q < math.inf:
        raise ValueError(f"A_(p,q) requires q > p and finite, got p={p}, q={q}")
    plan = _Plan(weight, search)
    pprime = dual_exponent(p)
    try:
        avg_q, avg_dual = plan.averages(q), plan.averages(-pprime)
    except NonIntegrableError as e:
        raise NonIntegrableError(f"A_(p,q): {e}") from None
    return plan.report(f"A_({p:g},{q:g})", avg_q * avg_dual ** (q / pprime))


def a1q_characteristic(weight, q: float, search: SearchSpace | None = None) -> CharacteristicReport:
    """sup_Q esssup_{x in Q} w(x)^-q (avg_Q w^q) = sup_Q (avg_Q w^q)/(essinf_Q w)^q."""
    if not 1 < q < math.inf:
        raise ValueError(f"A_(1,q) requires q > 1 and finite, got {q}")
    plan = _Plan(weight, search)
    return plan.report(f"A_(1,{q:g})", plan.averages(q) / plan.essinfs() ** q)


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
    operator (see ``_fujii_wilson``).  The reported value is the max over
    the three grids.  For a constant weight it is 1 within a few ulp, not
    exactly: the shifted grids' cubes split cells, so ∫_Q M(w χ_Q), summed
    over the finest cubes, and w(Q) round differently (at most 3 ulp above 1
    on 520 constant sampled weights, radii 0.5-5.25, levels 0-10).
    """
    if mesh is None:
        mesh = weight.mesh if isinstance(weight, SampledWeight) else Mesh(4.0, 9)
    grids = list(grids) if grids is not None else shifted_grids(1)
    k_top, k_fine = default_levels(mesh)
    min_level = k_top if min_level is None else min_level
    wbar = MeshFunction(mesh, weight.cell_averages(mesh))
    if np.any(wbar.values <= 0):
        raise DegenerateWeightError("discretized weight must be positive")
    values, blocks = _fujii_wilson(wbar, grids, min_level, k_fine)
    return _report("A_inf(FW)", values, *_cubes(blocks), ((min_level, k_fine), len(grids)))


def _fujii_wilson(wbar: MeshFunction, grids, k_lo: int, k_fine: int):
    """(values, blocks): w(Q)^-1 ∫_Q M(w χ_Q) per component of ``wbar`` (one
    row per cube Q), over each grid's cubes inside the mesh domain, levels
    k_lo..k_fine, and those cubes as ``_cubes`` blocks: grid by grid, the
    finer level first, then left to right; -inf where w(Q) = 0.

    Within one grid any cube is nested in or disjoint from Q, so on Q the
    maximal function of w χ_Q only sees cubes contained in Q; ∫_Q M(w χ_Q)
    is then computed exactly (for the discretized weight) by a bottom-up
    sweep that keeps, per finest-level cube, the running maximum of its
    ancestors' averages.  The sweep's geometry (the ``sweep`` part of
    ``grid._geometry``) is laid out once per (mesh, grid, level window) and
    addresses its cube table, one batch per grid (``_Geometry.table``, not
    kept: ``wbar`` is built per call).  One gather stacks every level's
    ancestor averages, a running maximum over its rows takes them from fine
    to coarse, and one ``np.add.reduceat`` integrates it over every inside
    cube of every level.
    """
    width_f = 2.0**-k_fine
    widths = np.array([2.0**-k for k in range(k_fine, k_lo - 1, -1)] + [1.0])  # gather's rows, then its zeros
    vals, blocks, levels = [], [], tuple(range(k_lo, k_fine + 1))
    for grid in grids:
        # the table first, on its own geometry: on a fine mesh both are fresh, and the spans go first
        table = _geometry(wbar.mesh, grid, levels).table(wbar)
        gather, seg, cubes, empty, inside, grid_blocks = _geometry(wbar.mesh, grid, levels).sweep
        if not grid_blocks:
            continue
        rest = table.shape[1:]  # (components,) for a vector wbar
        # indexing, not take: take copies a read-only index array first
        profile = table[gather]  # its last row is zero
        profile /= widths.reshape(-1, 1, *(1 for _ in rest))  # the averages
        # the running maximum from zero, fine to coarse, in place row by row
        # (np.maximum.accumulate is slower), then the mass, also in place
        np.maximum(0.0, profile[0], out=profile[0])
        for r in range(1, len(profile) - 1):
            np.maximum(profile[r - 1], profile[r], out=profile[r])
        profile *= width_f
        m_int = np.add.reduceat(profile.reshape(-1, *rest), seg, axis=0)[cubes]
        m_int[empty] = 0.0  # reduceat gives an empty segment its first entry
        wq = table[inside]
        ok = wq > 0
        vals.append(np.where(ok, m_int / np.where(ok, wq, 1.0), -np.inf))
        blocks += grid_blocks
        del gather, profile, table  # a fine mesh's sweep is as large as its table
    if not blocks:
        raise ValueError("no grid cube fits inside the mesh domain")
    return np.concatenate(vals), blocks
