"""Reference weighted Hilbert transform by adaptive quadrature.

``hilbert_weighted`` integrates ``f(y) w(y)^power / (x - y)`` against the
continuous weight, with principal values by symmetric excision and
Richardson extrapolation.  ``multiplier_apply("H")`` folds the weight into f
at the cell centres instead; the tests in ``test_operators.py`` require it
to converge to this integral as the mesh refines.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy import integrate

from weaklab.grid import MeshFunction
from weaklab.weights import PowerLogWeight


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
