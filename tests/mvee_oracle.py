"""Reference solvers for the centred minimum-volume ellipsoid of
``weaklab.matrix._centered_mvee``.

``exact_mvee_2d`` is exact up to rounding, by enumeration.  In the plane the
minimum-volume centred ellipse ``{x : x^T A x <= 1}`` of +-p_1, ..., +-p_n
touches the points on a support of two or three antipodal pairs, so the
optimum is one of these candidates:

* a two-pair support {i, j}: the weights are 1/2 each and ``A^-1 = p_i p_i^T
  + p_j p_j^T``;
* a three-pair support {i, j, k}: the three touching conditions
  ``p^T A p = 1`` fix the three entries of ``A``.

Of the positive-definite candidates that contain every point (up to
``slack``) the optimum has the largest ``det A``: every feasible ellipse has
at least the optimum's volume.

``khachiyan_mvee`` is the first-order Khachiyan ascent the package used
before the Newton solver, capped at 2000 steps: a feasible but not optimal
reference in any dimension.
"""

from __future__ import annotations

import itertools

import numpy as np


def exact_mvee_2d(points: np.ndarray, slack: float = 1e-12) -> np.ndarray:
    """Exact minimum-volume centred ellipse matrix A of +-points (d = 2)."""
    points = np.asarray(points, dtype=float)
    x, y = points[:, 0], points[:, 1]
    q = np.stack([x * x, 2 * x * y, y * y], axis=1)  # q_i . (a, b, c) = p_i^T A p_i
    pairs = np.array(list(itertools.combinations(range(len(points)), 2)))
    X = np.einsum("sni,snj->sij", points[pairs], points[pairs])
    two = np.linalg.inv(X[np.abs(np.linalg.det(X)) > 1e-14])
    two = np.stack([two[:, 0, 0], two[:, 0, 1], two[:, 1, 1]], axis=1)
    triples = np.array(list(itertools.combinations(range(len(points)), 3)))
    F = q[triples]
    F = F[np.abs(np.linalg.det(F)) > 1e-12 * np.abs(F).max(axis=(1, 2)) ** 3]
    three = np.linalg.solve(F, np.ones((len(F), 3, 1)))[:, :, 0]
    abc = np.concatenate([two, three])
    det = abc[:, 0] * abc[:, 2] - abc[:, 1] ** 2
    ok = (abc[:, 0] > 0) & (det > 0) & ((q @ abc.T).max(axis=0) <= 1 + slack)
    a, b, c = abc[ok][np.argmax(det[ok])]
    return np.array([[a, b], [b, c]])


def khachiyan_mvee(points: np.ndarray, tol: float = 1e-10, max_iter: int = 2000) -> np.ndarray:
    """Khachiyan ascent on maximize log det(sum u_j p_j p_j^T), stopped on
    ``max g <= d (1 + tol)`` or after ``max_iter`` steps; returns X(u)^-1 / d."""
    n, d = points.shape
    u = np.full(n, 1.0 / n)
    pp = np.einsum("ni,nj->nij", points, points)
    for _ in range(max_iter):
        Xi = np.linalg.inv(np.einsum("n,nij->ij", u, pp))
        g = np.einsum("ni,ij,nj->n", points, Xi, points)
        j = int(np.argmax(g))
        if g[j] <= d * (1 + tol):
            break
        step = (g[j] - d) / (d * (g[j] - 1.0))
        u *= 1.0 - step
        u[j] += step
    A = np.linalg.inv(np.einsum("n,nij->ij", u, pp)) / d
    return 0.5 * (A + A.T)


def certified_factors(A: np.ndarray, dirs: np.ndarray, rho: np.ndarray) -> tuple[float, float]:
    """``(lower, upper)`` of ``rho(v) / |A^(1/2) v|`` normalised to a product
    of one, the normalisation ``_reduce_field`` applies to a fitted A."""
    ratios = rho / np.sqrt(np.einsum("ni,ij,nj->n", dirs, A, dirs))
    spread = ratios.max() / ratios.min()
    return float(spread**-0.5), float(spread**0.5)
