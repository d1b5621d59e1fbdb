"""The two special functions the closed forms need, in numpy and ``math``.

* ``gammaincc(s, x)`` -- the regularized upper incomplete gamma function
  Q(s, x) = Γ(s, x) / Γ(s) for a scalar s > 0 and an array x > 0, by the
  power series for P = 1 - Q below x = s + 1 (+ 2 sqrt(s) while s < 10) and
  the Legendre continued fraction, by the modified Lentz method, above it
  (DLMF §8.7, §8.9; Numerical Recipes §6.2).  Both take the prefactor
  x^s e^-x / Γ(s) in log form.
* ``lambertw(z)`` -- the principal branch W(z) for z >= e, by Halley's
  iteration from log z - log log z (Corless, Gonnet, Hare, Jeffrey and Knuth,
  "On the Lambert W function", Adv. Comput. Math. 5, 1996).

Every element of ``gammaincc`` stops on its own convergence test, so its
value does not depend on the rest of the batch.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = 2.0**-52  # float64 machine epsilon, as a Python float for the scalar loops


def gammaincc(s: float, x: np.ndarray) -> np.ndarray:
    """Q(s, x) for a scalar s > 0 and x > 0, elementwise."""
    x = np.asarray(x, dtype=float)
    switch = s + 1.0 + (2.0 * math.sqrt(s) if s < 10 else 0.0)
    x_max = float(x.max(initial=0.0))
    if x_max < switch:
        return -np.expm1(_log_p_series(s, x, x_max))
    low = x < switch
    out = np.empty(x.shape)
    if low.any():
        out[low] = -np.expm1(_log_p_series(s, x[low], switch))
    out[~low] = _q_fraction(s, x[~low])
    return out


def _log_p_series(s: float, x: np.ndarray, x_max: float) -> np.ndarray:
    """log P(s, x) for 0 < x <= x_max, with
    P = x^s e^-x / Γ(s+1) Σ_n x^n / ((s+1)···(s+n)).

    The terms and partial sums of all elements come from one cumprod and one
    cumsum down axis 0, whose first rows do not depend on the row count; each
    column stops at its own first term <= eps times the sum of the terms
    before it and itself.  Smaller x stops no later, so the row count is the
    term count at x_max.
    """
    n = _series_length(s, x_max)
    while True:
        terms = np.cumprod(x / (s + np.arange(1.0, n + 1.0))[:, None], axis=0)
        partial = np.cumsum(terms, axis=0)
        done = terms <= _EPS * partial
        if done[-1].all():  # a column once done stays done
            break
        n *= 2  # a rounding tie left a column short
    total = 1.0 + partial[done.argmax(axis=0), np.arange(x.size)]
    return s * np.log(x) - x - math.lgamma(s + 1.0) + np.log(total)


def _series_length(s: float, x: float) -> int:
    """The series' term count at one x, in the same arithmetic as the batch."""
    term, partial, n = 1.0, 0.0, 0
    while True:
        n += 1
        term *= x / (s + n)
        partial += term
        if term <= _EPS * partial:
            return n


def _q_fraction(s: float, x: np.ndarray) -> np.ndarray:
    """Q(s, x) = x^s e^-x / Γ(s) · 1/(x+1-s- 1(1-s)/(x+3-s- 2(2-s)/(x+5-s- ...))).

    Modified Lentz; an element whose step factor is within eps of 1 keeps
    its value while the others go on.  Above the switch (x >= s + 1) the
    denominators stay positive (checked for s in (0, 202]), so the general
    method's guard against a vanishing denominator is left out.
    """
    b = x + 1.0 - s
    c = np.full(x.shape, 1.0 / np.finfo(float).tiny)
    d = 1.0 / b
    h = d.copy()
    live = np.ones(x.shape, dtype=bool)
    i = 0
    while live.any():
        i += 1
        an = -i * (i - s)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        np.multiply(h, delta, out=h, where=live)
        live &= np.abs(delta - 1.0) > _EPS
    return np.exp(s * np.log(x) - x - math.lgamma(s) + np.log(h))


def lambertw(z: float) -> float:
    """W(z) on the principal branch, for z >= e.

    Halley's iteration on f(w) = w - z e^-w, which has the root of w e^w = z
    and never forms e^w, so nothing overflows up to z = 1.8e308.
    """
    L = math.log(z)
    w = L - math.log(L)
    for _ in range(8):
        u = z * math.exp(-w)
        f, fp = w - u, 1.0 + u  # f'' = -u
        step = 2.0 * f * fp / (2.0 * fp * fp + f * u)
        w -= step
        if abs(step) <= _EPS * w:
            break
    return w
