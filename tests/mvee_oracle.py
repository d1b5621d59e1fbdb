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
at least the optimum's volume.  Both thresholds are relative, so they hold
on ill-conditioned sets (points near a line, where ``A`` has a condition
number of 1e5 and more): a pair or triple is solved when its determinant
is at least 1e-14 (1e-12) of the product of its columns' norms, its
Hadamard bound, and a point counts as inside when ``p^T A p <= 1 + slack *
|q| . |(a, b, c)|``, the scale of the rounding of that sum.

``khachiyan_mvee`` is the first-order Khachiyan ascent the package used
before the Newton solver, capped at 2000 steps: a feasible but not optimal
reference in any dimension.

``dense_newton_mvee`` is the package's Newton iteration factored by scipy's
LU: the same iterates and the same dense (n+1) x (n+1) system, but each step
factors it once with ``scipy.linalg.lu_factor`` and serves the predictor and
the corrector from that factor.  It returns the step count with the fit, so
differential tests can compare both.

``einsum_rho_values`` is the direction norm ``rho(v) = (mean_x |A_x v|^r)^(1/r)``
as the package computed it before the Gram form: every ``A_x v`` formed, then
its Euclidean norm.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import lu_factor, lu_solve


def exact_mvee_2d(points: np.ndarray, slack: float = 1e-12) -> np.ndarray:
    """Exact minimum-volume centred ellipse matrix A of +-points (d = 2)."""
    points = np.asarray(points, dtype=float)
    x, y = points[:, 0], points[:, 1]
    q = np.stack([x * x, 2 * x * y, y * y], axis=1)  # q_i . (a, b, c) = p_i^T A p_i
    pairs = np.array(list(itertools.combinations(range(len(points)), 2)))
    X = np.einsum("sni,snj->sij", points[pairs], points[pairs])
    two = np.linalg.inv(X[np.abs(np.linalg.det(X)) > 1e-14 * X[:, 0, 0] * X[:, 1, 1]])
    two = np.stack([two[:, 0, 0], two[:, 0, 1], two[:, 1, 1]], axis=1)
    triples = np.array(list(itertools.combinations(range(len(points)), 3)), dtype=int).reshape(-1, 3)
    F = q[triples]
    F = F[np.abs(np.linalg.det(F)) > 1e-12 * np.linalg.norm(F, axis=1).prod(axis=1)]
    three = np.linalg.solve(F, np.ones((len(F), 3, 1)))[:, :, 0]
    abc = np.concatenate([two, three])
    det = abc[:, 0] * abc[:, 2] - abc[:, 1] ** 2
    inside = q @ abc.T <= 1 + slack * (np.abs(q) @ np.abs(abc).T)
    ok = (abc[:, 0] > 0) & (det > 0) & inside.all(axis=0)
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


def _step_to_boundary(x: np.ndarray, dx: np.ndarray) -> float:
    neg = dx < 0
    return float(np.min(-x[neg] / dx[neg])) if neg.any() else math.inf


def dense_newton_mvee(points: np.ndarray, tol: float = 1e-10, max_steps: int = 60):
    """``(A, steps)``: the dual Mehrotra iteration of ``_centered_mvee`` on the
    dense (n+1) x (n+1) Newton system, or ``(None, max_steps)`` when it misses
    the certificate ``max g <= d (1 + tol)``."""
    n, d = points.shape
    u = np.full(n, 1.0 / n)
    for step in range(max_steps + 1):
        Xi = np.linalg.inv(points.T @ (u[:, None] * points))
        K = points @ Xi @ points.T
        g = np.diag(K)
        if g.max() <= d * (1 + tol):
            A = Xi / d
            return 0.5 * (A + A.T), step
        if step == max_steps:
            return None, max_steps
        if step == 0:
            nu = 1.5 * g.max()
            z = nu - g
        mu = u @ z / n
        r_d = g + z - nu
        r_p = u.sum() - 1.0
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = K * K + np.diag(z / u)
        M[:n, n] = M[n, :n] = 1.0
        lu = lu_factor(M, check_finite=False)

        def direction(r_c):
            sol = lu_solve(lu, np.append(r_d - r_c / u, -r_p), check_finite=False)
            du = sol[:n]
            return du, -(r_c + z * du) / u, sol[n]

        du, dz, _ = direction(u * z)
        a = min(1.0, _step_to_boundary(u, du), _step_to_boundary(z, dz))
        sigma = ((u + a * du) @ (z + a * dz) / (n * mu)) ** 3
        du, dz, dnu = direction(u * z + du * dz - sigma * mu)
        a = min(1.0, 0.99 * min(_step_to_boundary(u, du), _step_to_boundary(z, dz)))
        u, z, nu = u + a * du, z + a * dz, nu + a * dnu


def einsum_rho_values(field: np.ndarray, r: float, dirs: np.ndarray) -> np.ndarray:
    """``rho(v)`` for each direction from the products ``field_x v`` and their norms."""
    norms = np.linalg.norm(np.einsum("xij,nj->xni", field, dirs), axis=2)
    return np.mean(norms**r, axis=0) ** (1.0 / r)


def certified_factors(A: np.ndarray, dirs: np.ndarray, rho: np.ndarray) -> tuple[float, float]:
    """``(lower, upper)`` of ``rho(v) / |A^(1/2) v|`` normalised to a product
    of one, the normalisation ``_reduce_field`` applies to a fitted A."""
    ratios = rho / np.sqrt(np.einsum("ni,ij,nj->n", dirs, A, dirs))
    spread = ratios.max() / ratios.min()
    return float(spread**-0.5), float(spread**0.5)
