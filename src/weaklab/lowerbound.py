"""Endpoint lower-bound construction for the multiplier weak (1,1) inequality.

The construction lives on the half-line.  Its ingredients:

* ``mu(x) = log(e/|x|)/|x|`` (truncated to 1 for |x| > 1), whose weak-type
  behaviour violates the classical necessary condition as lambda grows;
* ``nu(x) = log(e x)/x``, an approximate inverse of mu on (0, 1) with the
  sandwich x <= nu(mu(x)) <= 2x, applied for lambda > 1 as well;
* the family ``w_delta(x) = log(e/|x|)/|x|^(1-delta)`` for 0 < delta < 1/2,
  which lies in A_1 with anchored characteristic exactly 1/delta + 1/delta^2;
* the test function f = chi_[1,2], for which on (0, 1/2] the transformed
  output is exactly

      G(x) = w_delta(x) * log((2 - x)/(1 - x)),

  because w_delta = 1 on [1, 2] and |H(chi_[1,2])(x)| = log((2-x)/(1-x)).

The experiment measures lam |{x in (0, 1/2] : G(x) > lam}| for lam near
e^(1/delta).  Level-set measures come from cell counting on a graded mesh
where resolvable and from closed-form roots of G = lam (G is strictly
decreasing on the relevant range, and one vectorised Newton solve finds
every root of a sweep) where the set is below resolution; the two paths are
cross-checked where both apply.  A cell is counted only when
it lies wholly inside the level set, so the counted measure never exceeds
the exact one and every reported quotient is a true lower bound for the
supremum Q*: the interior local maximum of s G(s) on (0, 1/2] whose level
G(s) lies in the lambda window (1.583453 at delta = 0.2; the endpoint
s = 1/2, outside the window, gives 1.61932).  The resulting lower bounds
grow like 1/delta, matching the square root of the A_1 characteristic:
log(2) e^(delta-1)/delta <= Q* <= log(3) e^(delta-1)/delta.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._special import lambertw
from .weights import PowerLogWeight, SearchSpace, a1_characteristic, sharp_rh_exponent

__all__ = [
    "MeshResolutionError",
    "mu",
    "nu",
    "nu_of_mu",
    "mu_inverse",
    "necessary_condition_violation",
    "w_delta",
    "exact_a1_interval_average",
    "F_lambda",
    "F_argmax",
    "output_magnitude",
    "level_set_endpoint",
    "level_set_endpoints",
    "level_set_measure_bounds",
    "GradedMesh",
    "LowerBoundReport",
    "lower_bound_experiment",
    "delta_sweep",
    "sweep_slope",
]

_E = math.e
# relative accuracy of level_set_endpoints (Newton in u = log x, so an error in
# u is a relative error in x): the only slack the counted-vs-closed-form
# cross-check allows beyond the straddling cell
_ROOT_RTOL = 1e-12
# Newton steps per root before the solve gives up; bisecting the widest bracket,
# about [e^-711, 1/2] in x at the smallest delta, down to _ROOT_RTOL / 4 takes 52
_ROOT_MAX_STEPS = 64
# 1/delta above this makes lam* = e^(1/delta) overflow
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


class MeshResolutionError(RuntimeError):
    """A level-set measure failed: a counted measure disagrees with its
    closed-form root, or the root solve does not converge."""


# ---------------------------------------------------------------------------
# mu, nu and the failing necessary condition
# ---------------------------------------------------------------------------


def mu(x):
    """log(e/|x|)/|x| on 0 < |x| <= 1, and 1 outside; error at 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x == 0):
        raise ValueError("mu is singular at 0")
    ax = np.abs(x)
    out = np.where(ax <= 1, np.log(_E / np.where(ax <= 1, ax, 1.0)) / ax, 1.0)
    return float(out) if out.ndim == 0 else out


def nu(x):
    """log(e x)/x for x > 0 (extended beyond (0,1), as the argument requires)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("nu needs x > 0")
    out = np.log(_E * x) / x
    return float(out) if out.ndim == 0 else out


def nu_of_mu(x):
    """Exact closed form nu(mu(x)) = x (log(e/x) + log log(e/x)) / log(e/x)."""
    x = np.asarray(x, dtype=float)
    L = np.log(_E / x)
    out = x * (L + np.log(L)) / L
    return float(out) if out.ndim == 0 else out


def mu_inverse(lam: float) -> float:
    """The x in (0, 1] with mu(x) = lam, for lam >= 1 (mu is decreasing)."""
    if lam < 1:
        raise ValueError(f"mu maps (0,1] onto [1, inf); got lam = {lam}")
    # L = log(e/x) solves L e^L = e lam, so L = W(e lam) (principal branch),
    # and x = L / lam since mu(x) = L / x
    if not _E * lam < np.inf:
        raise ValueError(f"mu_inverse needs e lam finite, got lam = {lam}")
    return float(lambertw(_E * lam) / lam)


def necessary_condition_violation(t: float, lam: float) -> tuple[float, float]:
    """(LHS, RHS) of the endpoint necessary condition at the interval [0, t].

    LHS = (lam/t) |{x in [0,t] : mu(x) > lam}|, RHS = mu(t).  The condition
    LHS <= C * RHS fails as lam grows: LHS >= log(e lam)/(2t) is unbounded
    in lam at fixed t.
    """
    if not (0 < t < 1):
        raise ValueError(f"t must lie in (0,1), got {t}")
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if lam <= mu(t):
        measure = t
    else:
        measure = mu_inverse(lam)
    return (lam / t) * measure, mu(t)


# ---------------------------------------------------------------------------
# the weight family
# ---------------------------------------------------------------------------


def w_delta(delta: float) -> PowerLogWeight:
    """w_delta(x) = log(e/|x|) |x|^(delta-1) inside, 1 outside; 0 < delta < 1/2."""
    if not (0 < delta < 0.5):
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    return PowerLogWeight(exponent=delta - 1.0, log_exponent=1.0)


def exact_a1_interval_average(delta: float, t: float) -> float:
    """(1/t) ∫_0^t w_delta, in closed form (integration by parts).

    For t <= 1 this is (1/delta) log(e/t) t^(delta-1) + (1/delta^2) t^(delta-1);
    at t = 1 it equals 1/delta + 1/delta^2 exactly; for t > 1 the constant
    tail contributes (t-1)/t.
    """
    if not (0 < delta < 0.5):
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    if t == 1.0:
        return 1.0 / delta + 1.0 / delta**2
    if t <= 1.0:
        return (math.log(_E / t) / delta + 1.0 / delta**2) * t ** (delta - 1.0)
    unit = 1.0 / delta + 1.0 / delta**2
    return unit / t + (t - 1.0) / t


# ---------------------------------------------------------------------------
# F(lambda) and its maximum
# ---------------------------------------------------------------------------


def F_lambda(delta: float, lam) -> float | np.ndarray:
    """F(lam) = lam^(1 - 1/(1-delta)) log(lam)^(1/(1-delta)) for lam > 1."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 1):
        raise ValueError("F is defined for lam > 1")
    expo = 1.0 - 1.0 / (1.0 - delta)
    out = lam**expo * np.log(lam) ** (1.0 / (1.0 - delta))
    return float(out) if out.ndim == 0 else out


def F_argmax(delta: float) -> tuple[float, float]:
    """Analytic maximizer: lam* = e^(1/delta), F* = e^(-1/(1-delta)) delta^(-delta/(1-delta)) / delta.

    lam* is a float for delta >= 1/log(float max), 0.00140888...
    """
    if 1.0 / delta > _LOG_FLOAT_MAX:
        smallest = 1.0 / _LOG_FLOAT_MAX
        raise ValueError(f"lam* = e^(1/delta) overflows: delta must exceed {smallest:.6g}, got {delta:g}")
    lam_star = math.exp(1.0 / delta)
    f_star = (
        math.exp(-1.0 / (1.0 - delta)) * delta ** (-delta / (1.0 - delta)) / delta
    )
    return lam_star, f_star


# ---------------------------------------------------------------------------
# the transformed output G and its level sets
# ---------------------------------------------------------------------------


def h_magnitude(x):
    """|H(chi_[1,2])(x)| = log((2-x)/(1-x)) for x < 1 (kernel 1/(x-y), no pi)."""
    x = np.asarray(x, dtype=float)
    if np.any(x >= 1):
        raise ValueError("closed form valid for x < 1")
    out = np.log((2.0 - x) / (1.0 - x))
    return float(out) if out.ndim == 0 else out


def output_magnitude(delta: float, x):
    """G(x) = w_delta(x) |H(chi_[1,2] w_delta^-1)(x)| on (0, 1), closed form."""
    w = w_delta(delta)
    x = np.asarray(x, dtype=float)
    out = w(x) * h_magnitude(x)
    return float(out) if out.ndim == 0 else out


def level_set_endpoints(delta: float, lams, x_hi: float = 0.5) -> np.ndarray:
    """Per lam, the x with G(x) = lam: |{x in (0, x_hi] : G > lam}| = x.

    G is strictly decreasing on (0, x_hi] for the deltas in range, so each
    root is found by a safeguarded Newton iteration on log G(e^u) = log lam in
    u = log x, all lams at once:

        d/du log G = -1/(1-u) + (delta-1) + x / ((1-x)(2-x) h(x)).

    Each lam keeps a bracket in u, and a step that leaves it is replaced by
    bisection.  The bracket's lower end comes from the data: on (0, 1/2],
    log(e/x) > 1 and h(x) >= log 2, so G(x) > log(2) x^(delta-1), which is
    lam at u = -log(lam / log 2) / (1 - delta).  A root is returned once its
    Newton step is below _ROOT_RTOL / 4; a root still moving after
    _ROOT_MAX_STEPS raises MeshResolutionError.  Lams with G(x_hi) >= lam return x_hi: the whole
    interval lies in the level set.
    """
    lams = np.asarray(lams, dtype=float)
    if not np.all(lams > 0):
        raise ValueError("lam must be positive")
    out = np.full(lams.shape, float(x_hi))
    idx = np.flatnonzero(output_magnitude(delta, x_hi) < lams)
    target = np.log(lams[idx])
    hi = np.full(idx.size, math.log(x_hi))
    lo = np.minimum(-(target - math.log(math.log(2.0))) / (1.0 - delta), hi)
    u = hi.copy()
    for _ in range(_ROOT_MAX_STEPS):
        x = np.exp(u)
        h = h_magnitude(x)
        f = np.log(1.0 - u) + (delta - 1.0) * u + np.log(h) - target
        # the Newton step -f / (d/du log G)
        step = f / (1.0 / (1.0 - u) + (1.0 - delta) - x / ((1.0 - x) * (2.0 - x) * h))
        done = np.abs(step) <= _ROOT_RTOL / 4
        out[idx[done]] = np.exp(u[done] + step[done])
        if done.all():
            return out
        keep = ~done
        idx, lo, hi, target, u, f, step = (a[keep] for a in (idx, lo, hi, target, u, f, step))
        # G(e^u) > lam puts the root to the right of u
        lo, hi = np.where(f > 0, u, lo), np.where(f > 0, hi, u)
        u = u + step
        u = np.where((u > lo) & (u < hi), u, 0.5 * (lo + hi))
    raise MeshResolutionError(
        f"level-set roots at lam={lams[idx][:3]} did not converge in {_ROOT_MAX_STEPS} "
        "Newton steps; G must decrease on (0, x_hi]"
    )


def level_set_endpoint(delta: float, lam: float) -> float:
    """x with G(x) = lam, or 1/2 when G(1/2) >= lam (see level_set_endpoints)."""
    return float(level_set_endpoints(delta, [lam])[0])


def level_set_measure_bounds(delta: float, lam: float) -> tuple[float, float]:
    """Sandwich for |{x in [0, 1/2] : mu(x^(1-delta)) > 2 lam}|.

    The exact measure is (mu^-1(2 lam))^(1/(1-delta)); the approximate
    inverse nu brackets it between (nu(2 lam)/2)^(1/(1-delta)) and
    nu(2 lam)^(1/(1-delta)).
    """
    lo = (0.5 * nu(2 * lam)) ** (1.0 / (1.0 - delta))
    hi = nu(2 * lam) ** (1.0 / (1.0 - delta))
    return lo, hi


# ---------------------------------------------------------------------------
# graded mesh over (0, 1/2]
# ---------------------------------------------------------------------------


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values in ascending order, as np.unique gives them: its
    first call imports numpy.ma (10-14 ms), and the default GradedMesh is
    built when weaklab is imported."""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])]


@dataclass(frozen=True)
class GradedMesh:
    """Geometric bands (ratio 1/2) over (x_min, x_hi], m cells per band.

    The residual tail [0, x_min) is kept as a single unresolved cell.
    """

    x_hi: float = 0.5
    x_min: float = 1e-12
    cells_per_band: int = 16
    edges: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.x_hi) and math.isfinite(self.x_min)):  # x_hi = inf: NaN bands without end
            raise ValueError(f"GradedMesh needs a finite x_hi and x_min, got x_hi={self.x_hi}, x_min={self.x_min}")
        if not (0 < self.x_min < self.x_hi):
            raise ValueError("need 0 < x_min < x_hi")
        n = self.cells_per_band
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
            raise ValueError(f"cells_per_band must be an integer of at least 1, got {n!r}")
        bands = []
        hi = self.x_hi
        while hi > self.x_min:
            lo = hi / 2.0
            bands.append(np.linspace(lo, hi, self.cells_per_band, endpoint=False))
            hi = lo
        edges = _sorted_distinct(np.concatenate([[0.0]] + bands[::-1] + [[self.x_hi]]))
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.edges)

    def counted_measure(self, values: np.ndarray, lams: np.ndarray):
        """Per lam of an array of lams: the sum of the widths of the cells
        whose value exceeds lam, and their count.  Superlevel sets are
        nested, so lams with one count select the same cells: the widths are
        summed once per distinct count, each sum the float a lone lam gets."""
        sel = values > np.asarray(lams, dtype=float)[:, None]
        counts = sel.sum(axis=-1)
        _, first, inverse = np.unique(counts, return_index=True, return_inverse=True)
        widths = self.widths
        return np.array([widths[sel[i]].sum() for i in first])[inverse], counts


_DEFAULT_MESH = GradedMesh()


# ---------------------------------------------------------------------------
# the experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerBoundReport:
    delta: float
    a1_char: float
    sharp_rh_nu: float
    lambda_star: float
    best_lambda: float
    quotient: float
    c0_lower: float
    ratio_to_sqrt_a1: float
    measure_path: str


def lower_bound_experiment(
    delta: float,
    mesh: GradedMesh | None = None,
    lambda_window: float = 4.0,
    compute_nu: bool = True,
) -> LowerBoundReport:
    """Weak (1,1) quotient of the endpoint pair (H, w_delta, f = chi_[1,2]).

    Sweeps lam over 161 log-spaced points of [lam*/window, lam* window] and
    lam* = e^(1/delta) itself, and maximizes lam |{x in (0,1/2] : G(x) > lam}| (with ∫|f| = 1 this is
    directly a lower bound for the weak-type constant).  One measure rule:
    cell counting on the graded mesh while the level set holds at least 4
    cells, and below that the closed-form root of G = lam, which one
    level_set_endpoints call solves for every lam of the sweep.

    A cell is counted only when it lies wholly inside the level set: G is
    strictly decreasing, so that holds exactly when G at the cell's right
    edge exceeds lam.  The counted measure therefore falls short of the
    exact one by less than the straddling cell and never exceeds it.  Every
    counted measure is cross-checked against its root, and
    MeshResolutionError is raised when it exceeds the root or falls short of
    it by more than one cell, or when the root solve does not converge.  The
    whole sweep is counted, checked and scored at once; the first lam that
    fails raises, and the first maximum is the best lam.
    """
    mesh = mesh or _DEFAULT_MESH
    if not 0 < lambda_window < math.inf:  # false at NaN too
        raise ValueError(f"lambda_window must be positive and finite, got {lambda_window}")
    smallest = 1.0 / (_LOG_FLOAT_MAX - math.log(lambda_window))
    if delta <= smallest:
        raise ValueError(
            f"lambda window lam* x {lambda_window:g} overflows: delta must exceed {smallest:.6g}, got {delta:g}"
        )
    lam_star, _ = F_argmax(delta)
    lams = np.geomspace(lam_star / lambda_window, lam_star * lambda_window, 161)
    lams = _sorted_distinct(np.append(lams, lam_star))
    counted, n_cells = mesh.counted_measure(output_magnitude(delta, mesh.edges[1:]), lams)
    resolved = n_cells >= 4
    exact = level_set_endpoints(delta, lams, mesh.x_hi)
    # the counted cells are the prefix [0, edges[n_cells]); the edge of the
    # level set lies in the next cell (none when all are counted)
    straddling = np.append(mesh.widths, 0.0)[n_cells]
    slack = _ROOT_RTOL * exact
    gap = exact - counted
    failed = resolved & ~((-slack <= gap) & (gap <= straddling + slack))
    if failed.any():
        i = int(np.argmax(failed))
        raise MeshResolutionError(
            f"cell-counted measure {counted[i]:.3e} is not within one cell "
            f"below the closed form {exact[i]:.3e} at lam={lams[i]:.3e}; G must "
            "decrease on (0, x_hi]"
        )
    measure = np.where(resolved, counted, exact)
    score = lams * measure
    i = int(np.argmax(score))
    quotient, best_lambda, path = float(score[i]), float(lams[i]), "cells" if resolved[i] else "closed-form"
    a1 = a1_characteristic(w_delta(delta), SearchSpace.anchored_only()).value
    nu_sharp = (
        sharp_rh_exponent(w_delta(delta), SearchSpace.anchored_only(n=48))
        if compute_nu
        else float("nan")
    )
    return LowerBoundReport(
        delta=delta,
        a1_char=a1,
        sharp_rh_nu=nu_sharp,
        lambda_star=lam_star,
        best_lambda=best_lambda,
        quotient=quotient,
        c0_lower=quotient,
        ratio_to_sqrt_a1=quotient / math.sqrt(a1),
        measure_path=path,
    )


def delta_sweep(deltas: Sequence[float], **kwargs) -> list[LowerBoundReport]:
    return [lower_bound_experiment(d, **kwargs) for d in sorted(deltas, reverse=True)]


def sweep_slope(reports: Sequence[LowerBoundReport]) -> float:
    """Least-squares slope of log(quotient) against log(1/delta)."""
    x = np.log([1.0 / r.delta for r in reports])
    y = np.log([r.quotient for r in reports])
    return float(np.polyfit(x, y, 1)[0])
