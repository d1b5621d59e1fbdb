"""Reference ``PowerLogWeight.integral_batch`` and ``essinf_batch``.  The first is
the split that served ``integral_batch`` before every interval was folded onto
|x| and integrated piece by piece.

Straddling intervals were two anchored integrals, ``_anchored(-lo) +
_anchored(hi)``; an interval touching 0 from either side was one anchored
integral; every other interval was ``_one_sided(u, v)`` on its mirror image
in [0, inf).  At ``b = 0`` the core integral was the elementary
antiderivative, written here in that arithmetic; every other ``b`` handled
here called ``_powerlog_core_batch``, which still serves it.

The property test in ``test_weights.py`` requires today's ``integral_batch``
to agree with this split byte for byte at ``b = 0`` and at non-integer ``b``.

``essinf_batch_oracle`` is ``PowerLogWeight.essinf_batch`` as it was before
infima read the pieces of ``_Folded``; today's ``essinf_batch`` must agree
with it byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from weaklab.weights import NonIntegrableError, PowerLogWeight, _ordered, _powerlog_core_batch

_E = math.e


def _core(a: float, b: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    if b != 0:
        return _powerlog_core_batch(a, b, lo, hi)
    if a == -1.0:
        return (np.log(_E / lo) ** 1 - np.log(_E / hi) ** 1) / 1
    ap1 = a + 1.0
    return (hi**ap1 - np.where(lo > 0, lo**ap1, 0.0)) / ap1


def _anchored(w: PowerLogWeight, t: np.ndarray) -> np.ndarray:
    if not w.anchored_integrable and np.any(t > 0):
        raise NonIntegrableError(f"PowerLog(a={w.exponent}, b={w.log_exponent}) is not integrable at 0")
    t1 = np.minimum(t, 1.0)
    inner = _core(w.exponent, w.log_exponent, np.zeros_like(t1), t1)
    return w.scale * (inner + np.maximum(t - 1.0, 0.0))


def _one_sided(w: PowerLogWeight, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    u1, v1 = np.minimum(u, 1.0), np.minimum(v, 1.0)
    inner = _core(w.exponent, w.log_exponent, u1, np.maximum(v1, u1))
    outer = np.maximum(v - 1.0, 0.0) - np.maximum(u - 1.0, 0.0)
    return w.scale * (inner + outer)


def split_integral_batch(w: PowerLogWeight, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """∫_lo^hi w elementwise, by the anchored / one-sided split."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    both = (lo < 0) & (hi > 0)
    out = np.zeros(lo.shape)
    if np.any(both):
        out[both] = _anchored(w, -lo[both]) + _anchored(w, hi[both])
    pos = ~both
    u = np.where(hi[pos] <= 0, -hi[pos], lo[pos])
    v = np.where(hi[pos] <= 0, -lo[pos], hi[pos])
    zero_touch = u == 0.0
    vals = np.empty(u.shape)
    if np.any(zero_touch):
        vals[zero_touch] = _anchored(w, v[zero_touch])
    if np.any(~zero_touch):
        vals[~zero_touch] = _one_sided(w, u[~zero_touch], v[~zero_touch])
    out[pos] = vals
    return out


def essinf_batch_oracle(w: PowerLogWeight, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``PowerLogWeight.essinf_batch`` before infima read the fold: its own
    fold of [lo, hi] onto [u, v] = [min |x|, max |x|], clipped to (0, 1].

    On (0, 1] the profile x^a log(e/x)^b has at most one interior
    critical point x* = e^(1 - b/a); the infimum over an interval is
    attained at an endpoint, at x*, at the origin limit, or on the
    constant outer branch.
    """
    a, b = w.exponent, w.log_exponent
    lo, hi = _ordered(lo, hi)
    u = np.where((lo < 0) & (hi > 0), 0.0, np.where(hi <= 0, -hi, lo))
    v = np.maximum(np.abs(lo), np.abs(hi))
    out = np.full(u.shape, np.inf)
    # outer branch
    out = np.where(v > 1.0, w.scale, out)
    # inner endpoints
    lo_in = np.clip(u, None, 1.0)
    hi_in = np.clip(v, None, 1.0)
    has_inner = hi_in > 0
    for pt in (lo_in, hi_in):
        ok = has_inner & (pt > 0) & (pt <= 1.0) & (pt >= u)
        if np.any(ok):
            out[ok] = np.minimum(out[ok], w.scale * w._core_at(pt[ok]))
    # interior critical point
    if a != 0.0:
        ratio = b / a
        if ratio >= 1.0:
            xstar = math.exp(1.0 - ratio)
            ok = has_inner & (u < xstar) & (xstar < hi_in)
            if np.any(ok):
                out[ok] = np.minimum(out[ok], w.scale * w._core_at(np.array(xstar)))
    # origin limit
    zero_limit = a > 0 or (a == 0 and b < 0)
    if zero_limit:
        out = np.where(u == 0.0, np.where(hi_in > 0, 0.0, out), out)
    return out
