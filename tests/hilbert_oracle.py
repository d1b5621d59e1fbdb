"""Reference Hilbert transforms: the dense jump sum and adaptive quadrature.

``HilbertTransform`` evaluates the exact log closed form of a step
function's Hilbert transform at arbitrary points, one dense (points x jumps)
array per call; it is the oracle of ``weaklab.hilbert_to_mesh``, which
evaluates at the cell centres by one convolution over the cell offsets.

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


_HILBERT_ENTRIES = 2**27  # (points x jumps) entries of one HilbertTransform call


class HilbertTransform:
    """Hilbert transform of a step function, exact closed form.

    Writing f = sum over cells, the kernel 1/(x-y) integrates to logs:

        Hf(x) = sum_j c_j log|x - e_j|,   c_j = jump of f at edge e_j,

    which is also the principal value at points inside the support (the
    symmetric excision around x cancels exactly for constant pieces).
    Evaluation exactly at a jump of f is an error (logarithmic singularity).
    One call forms a dense (points x jumps) array, so more than
    ``_HILBERT_ENTRIES`` = 2^27 entries (1 GiB of floats) is a ``ValueError``
    that names the limit: every call at cell centres on a mesh of level
    <= 12 (at most 8,192 x 8,193) fits.
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
        xv = x.reshape(-1)
        if len(xv) * len(self.edges) > _HILBERT_ENTRIES:
            raise ValueError(
                f"the Hilbert transform at {len(xv)} points of a function with {len(self.edges)} jumps "
                f"needs a {len(xv)} x {len(self.edges)} array, above its limit of 2^27 entries"
            )
        d = xv[:, None] - self.edges[None, :]
        if np.any(d == 0.0):
            bad = xv[np.any(d == 0.0, axis=1)][0]
            raise ValueError(f"evaluation at a jump point x = {bad} of the integrand")
        out = np.log(np.abs(d, out=d), out=d) @ self.coeffs  # in place: one array at a time
        return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


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
