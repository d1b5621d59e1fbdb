"""Matrix weights: operator norms, reducing matrices, characteristics, and
the matrix-weighted maximal / sparse machinery.

A matrix weight is a map from mesh cells to symmetric positive-definite
d x d matrices.  Matrix powers are taken cell-wise through spectral
decompositions with symmetric reprojection, so numerical drift cannot break
symmetry.

Field powers: an operator at L^p reads W^(1/p) and its dual W^(-1/p), and
at a fractional order W and W^-1, by one rule (``_field_power``); their
norm exponents are ``grid._weak_exponent`` (p, or q) and p'.

Reducing matrices: for a norm rho(v) = (avg_Q |A(x) v|^r dx)^(1/r) the
constant SPD matrix with |Mv| comparable to rho(v) is computed exactly when
r = 2 (M = (avg A^2)^(1/2)) and otherwise by a minimum-volume-ellipsoid fit
of the sampled points p = v / rho(v).  The sampled norms come from the
per-cell Gram matrices A(x)^T A(x), all directions in one product.  The fit
works on the dual (D-optimal design) problem.  At d = 2 it is exact: a
support exchange over closed-form optima on two or three points.  For
d >= 3 it is primal-dual Newton, each step one dense (n+1) x (n+1) solve for
the predictor and one for the corrector.  Either stops only on the
Kiefer-Wolfowitz certificate max_p p^T A p <= 1 + 1e-10 and raises
EllipsoidFitError when it cannot reach it.  Every fit records
certified two-sided factors (c_minus, c_plus) with

    c_minus |Mv| <= rho(v) <= c_plus |Mv|   on the sampled directions,

normalized so c_minus <= 1 <= c_plus; the John-ellipsoid guarantee keeps
c_plus/c_minus near sqrt(d).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import Cube, DyadicGrid, Mesh, MeshFunction, _fractional_order, _geometry, _weak_exponent, cube_span, default_levels, shifted_grids
from .operators import _maximal_sweep
from .weights import (
    CharacteristicReport,
    SampledWeight,
    SearchSpace,
    _fujii_wilson,
    _report,
    a1_characteristic,
    ap_characteristic,
    dual_exponent,
)

__all__ = [
    "EllipsoidFitError",
    "MatrixWeight",
    "ReducingMatrix",
    "op_norm",
    "alt_norm_sum",
    "reducing_matrix",
    "dual_reducing_matrix",
    "matrix_ap_characteristic",
    "matrix_a1_characteristic",
    "matrix_apq_characteristic",
    "matrix_a1q_characteristic",
    "scalar_restriction",
    "scalar_restriction_characteristic",
    "ainfty_scalar_characteristic",
    "christ_goldberg_maximal",
    "dominating_scalar_sparse",
    "sharp_rhi_matrix_bound",
    "unit_directions",
    "random_matrix_weight",
]


def _sigma_max_2x2(a, b, c, d):
    """Largest singular value of [[a, b], [c, d]], elementwise over arrays.

    Blinn's form (IEEE CG&A, 1996) adds two non-negative terms, so nothing
    cancels (sqrt((s + sqrt(s^2 - 4 det^2)) / 2) loses about 1e-8 relative).
    """
    return 0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, b + c))


def op_norm(mats: np.ndarray) -> np.ndarray | float:
    """Largest singular value, batched over leading axes.

    2 x 2 matrices use the closed form of `_sigma_max_2x2`; every other
    size takes `np.linalg.svd`.  A NaN or infinite entry raises ValueError.
    """
    mats = np.asarray(mats, dtype=float)
    if not np.isfinite(mats).all():
        raise ValueError("op_norm needs finite matrix entries (got NaN or inf)")
    if mats.shape[-2:] == (2, 2):
        out = _sigma_max_2x2(mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 0], mats[..., 1, 1])
    else:
        out = np.linalg.svd(mats, compute_uv=False)[..., 0]
    return float(out) if out.ndim == 0 else out

def alt_norm_sum(mats: np.ndarray) -> np.ndarray | float:
    """sum_i |M e_i| (column-norm sum); sandwiches the operator norm within d."""
    mats = np.asarray(mats, dtype=float)
    out = np.linalg.norm(mats, axis=-2).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def _sym_power(mats: np.ndarray, s: float) -> np.ndarray:
    """Cell-wise SPD power via eigendecomposition, symmetrically reprojected."""
    w, v = np.linalg.eigh(mats)
    if np.any(w <= 0):
        raise ValueError("matrix weight has a non-positive eigenvalue")
    out = np.einsum("...ij,...j,...kj->...ik", v, w**s, v)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


class MatrixWeight:
    """SPD matrix per mesh cell.

    A matrix weight is an immutable value: ``values`` is a read-only,
    symmetrized copy of the input, and the powers and reducing matrices
    cached on it (``_powers``, ``_reducing``) are read-only too, so no write
    can make a cached result stale.
    """

    def __init__(self, mesh: Mesh, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[0] != mesh.n_cells or values.shape[1] != values.shape[2]:
            raise ValueError(f"expected ({mesh.n_cells}, d, d) matrices, got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("matrix weight entries must be finite")
        if np.max(np.abs(values - np.swapaxes(values, 1, 2))) > 1e-12:
            raise ValueError("matrix weight must be symmetric")
        values = 0.5 * (values + np.swapaxes(values, 1, 2))  # a copy of the input
        if np.any(np.linalg.eigvalsh(values)[..., 0] <= 0):
            raise ValueError("matrix weight must be positive definite on every cell")
        values.flags.writeable = False
        self.mesh = mesh
        self.values = values
        self._powers: dict[float, np.ndarray] = {1.0: values}
        self._reducing: dict[tuple, "ReducingMatrix"] = {}

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def power(self, s: float) -> np.ndarray:
        if s not in self._powers:
            power = _sym_power(self.values, s)
            power.flags.writeable = False
            self._powers[s] = power
        return self._powers[s]

    def cells_of(self, cube: Cube) -> slice:
        """Cell slice of an aligned cube inside the mesh domain."""
        lo, hi, den = cube_span(self.mesh, cube)
        if lo % den or hi % den:
            raise ValueError(f"{cube} is not aligned with the mesh cells")
        if lo < 0 or hi > self.mesh.n_cells * den:
            raise ValueError(f"{cube} leaves the sampled domain")
        return slice(lo // den, hi // den)


# ---------------------------------------------------------------------------
# reducing matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducingMatrix:
    """Constant SPD matrix equivalent to a cube-averaged matrix norm;
    ``matrix`` is a read-only copy, and ``inverse`` is computed on first
    use and kept, read-only."""

    cube: Cube
    exponent: float
    matrix: np.ndarray
    lower_factor: float
    upper_factor: float

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        inverse = np.linalg.inv(self.matrix)
        inverse.flags.writeable = False
        return inverse


def unit_directions(d: int, n: int) -> np.ndarray:
    """n unit directions: half-circle angles at d = 2, Fibonacci sphere at d = 3."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"the number of directions must be a positive integer, got {n!r}")
    if d == 2:
        theta = np.pi * (np.arange(n) + 0.5) / n
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)
    if d == 3:
        i = np.arange(n) + 0.5
        phi = np.arccos(1 - i / n)  # hemisphere
        golden = np.pi * (1 + 5**0.5)
        theta = golden * i
        return np.stack(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=1
        )
    raise ValueError("directions implemented for d in {2, 3}")


def _rho_values(field: np.ndarray, r: float, dirs: np.ndarray) -> np.ndarray:
    """rho(v) = (mean_x |field_x v|^r)^(1/r) for each sampled direction.

    |A_x v|^2 = vec(A_x^T A_x) . vec(v v^T), so one (cells, d^2) @ (d^2, dirs)
    product of per-cell Gram matrices gives every squared norm.
    """
    n, d, _ = field.shape
    gram = (np.swapaxes(field, 1, 2) @ field).reshape(n, d * d)
    sq = gram @ (dirs[:, :, None] * dirs[:, None, :]).reshape(len(dirs), d * d).T
    return np.mean(sq ** (0.5 * r), axis=0) ** (1.0 / r)


# steps an ellipsoid fit may take before it raises: the exchange (d = 2)
# takes at most 10 on benchmark-shaped fits; Newton took 5 to 17 on seeded
# random weights (d = 2 and 3, cubes of 1 to 64 cells)
_MVEE_STEPS = 60
# the fit's certificate: max_j p_j^T A p_j <= 1 + _MVEE_TOL
_MVEE_TOL = 1e-10


class EllipsoidFitError(RuntimeError):
    """An ellipsoid fit did not reach its optimality certificate."""


def _missed_certificate(reached: float) -> EllipsoidFitError:
    return EllipsoidFitError(
        f"ellipsoid fit missed its certificate max p^T A p <= 1 + {_MVEE_TOL:g} after "
        f"{_MVEE_STEPS} steps (reached {reached:.12g})"
    )


def _step_to_boundary(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest a with x + a dx >= 0 (inf when dx >= 0)."""
    neg = dx < 0
    return float(np.min(-x[neg] / dx[neg], initial=math.inf))


def _centered_mvee(points: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimum-volume origin-centred ellipsoid {x : x^T A x <= 1} containing
    the points and their negatives, as (A, steps taken).

    Both solvers work on the dual (D-optimal design) problem: maximise
    log det X(u), X(u) = sum u_j p_j p_j^T, over weights u >= 0 with
    sum u = 1.  With g_j = p_j^T X(u)^-1 p_j, the weights are optimal exactly
    when max g = d (Kiefer-Wolfowitz), and then A = X(u)^-1 / d.  A fit stops
    only on the certificate max g <= d (1 + _MVEE_TOL), that is
    max_j p_j^T A p_j <= 1 + _MVEE_TOL, and raises EllipsoidFitError when
    _MVEE_STEPS steps do not reach it.  The plane is solved exactly by
    ``_exchange_mvee``; d >= 3 takes the Newton iteration ``_newton_mvee``.
    """
    if points.shape[1] == 2:
        return _exchange_mvee(points)
    return _newton_mvee(points)


_QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])


def _exchange_mvee(points: np.ndarray) -> tuple[np.ndarray, int]:
    """The exact d = 2 fit by support exchange.

    An optimal design in the plane has at most three support points
    (Kiefer and Wolfowitz, 1960), and by Cauchy-Binet
    det X(u) = sum_{a<b} u_a u_b c_ab with c_ab = (p_a x p_b)^2, so the
    optimum on a few points has a closed form: a pair takes weights 1/2 and
    det c_ab / 4, and a triple whose weights u_a ~ c_bc (c_ab + c_ac - c_bc)
    are all positive takes them.  The fit starts from the pair of the longest
    point and the point of largest c with it.  Each step adds the point k of
    largest g and re-solves the support and k exactly.  The design was
    optimal on its support and g_k > 2, so the new optimum gives k weight:
    only the pairs and triples holding k are candidates, the support changes
    and det X strictly grows, so no support repeats.  X^-1 is the adjugate
    sum_s u_s n_s n_s^T, n_s the normal of p_s, over the Cauchy-Binet
    determinant, so g_j = sum_s u_s (p_j x p_s)^2 / det X adds non-negative
    terms: a thin point set loses nothing to cancellation.
    """
    x, y = points[:, 0], points[:, 1]
    xy = points.tolist()

    def c(s: int, t: int) -> float:
        return (xy[s][0] * xy[t][1] - xy[s][1] * xy[t][0]) ** 2

    i = int(np.argmax(x * x + y * y))
    j = int(np.argmax((xy[i][0] * y - xy[i][1] * x) ** 2))
    det, design = c(i, j) / 4, {i: 0.5, j: 0.5}
    if not det > 0:
        raise EllipsoidFitError("ellipsoid fit needs points that span the plane")
    for step in range(_MVEE_STEPS + 1):
        u = np.array(list(design.values()))
        normals = points[list(design)] @ _QUARTER_TURN  # p x p_s = p . normal_s
        g = ((points @ normals.T) ** 2) @ u / det
        k = int(np.argmax(g))
        if g[k] <= 2 * (1 + _MVEE_TOL):
            A = normals.T @ (u[:, None] * normals) / (2 * det)
            A[1, 0] = A[0, 1]
            return A, step
        if step == _MVEE_STEPS:
            break
        candidates = [(c(k, s) / 4, {k: 0.5, s: 0.5}) for s in design]
        for s, t in itertools.combinations(design, 2):
            c_ks, c_kt, c_st = c(k, s), c(k, t), c(s, t)
            w = (c_st * (c_ks + c_kt - c_st), c_kt * (c_ks + c_st - c_kt), c_ks * (c_kt + c_st - c_ks))
            if min(w) > 0:
                u_k, u_s, u_t = (v / sum(w) for v in w)
                det3 = u_k * u_s * c_ks + u_k * u_t * c_kt + u_s * u_t * c_st
                candidates.append((det3, {k: u_k, s: u_s, t: u_t}))
        det, design = max(candidates, key=lambda cand: cand[0])
    raise _missed_certificate(g[k] / 2)


def _newton_mvee(points: np.ndarray) -> tuple[np.ndarray, int]:
    """The fit of ``_centered_mvee`` for d >= 3: primal-dual Newton steps
    (Mehrotra predictor-corrector) on g + z = nu 1, u z = sigma mu, sum u = 1
    with slacks z >= 0, from the uniform weights.  The predictor and the
    corrector each solve the bordered system [[H, 1], [1^T, 0]] of size n + 1,
    H = K o K + diag(z/u) with K = P X^-1 P^T, by one dense solve.
    """
    n, d = points.shape
    u = np.full(n, 1.0 / n)
    M = np.ones((n + 1, n + 1))
    M[n, n] = 0.0
    for step in range(_MVEE_STEPS + 1):
        Xi = np.linalg.inv(points.T @ (u[:, None] * points))
        PXi = points @ Xi
        g = (PXi * points).sum(axis=1)
        if g.max() <= d * (1 + _MVEE_TOL):
            A = Xi / d
            return 0.5 * (A + A.T), step
        if step == _MVEE_STEPS:
            break
        if step == 0:
            nu = 1.5 * g.max()
            z = nu - g
        mu = u @ z / n
        # H du + dnu 1 = r_d - r_c/u,  1^T du = -r_p,  dz = -(r_c + z du)/u,
        # where r_c is the complementarity residual
        r_d = g + z - nu
        r_p = u.sum() - 1.0
        M[:n, :n] = (PXi @ points.T) ** 2 + np.diag(z / u)

        def direction(r_c):
            sol = np.linalg.solve(M, np.append(r_d - r_c / u, -r_p))
            du = sol[:n]
            return du, -(r_c + z * du) / u, sol[n]

        du, dz, _ = direction(u * z)  # predictor: aim at mu = 0
        a = min(1.0, _step_to_boundary(u, du), _step_to_boundary(z, dz))
        sigma = ((u + a * du) @ (z + a * dz) / (n * mu)) ** 3
        du, dz, dnu = direction(u * z + du * dz - sigma * mu)  # corrector
        a = min(1.0, 0.99 * min(_step_to_boundary(u, du), _step_to_boundary(z, dz)))
        u, z, nu = u + a * du, z + a * dz, nu + a * dnu
    raise _missed_certificate(g.max() / d)


def _reduce_field(field: np.ndarray, r: float):
    """Reducing matrix of rho(v) = (mean |field v|^r)^(1/r) with certificates.

    At r = 2 the matrix is exact, (mean_x A_x^T A_x)^(1/2) from the Gram
    matrices of ``_rho_values``; otherwise it is the ellipsoid fit of the
    points v / rho(v), scaled so that its factors straddle 1.
    """
    d = field.shape[1]
    dirs = unit_directions(d, 8 * d if r == 2.0 else 64 * d)
    rho = _rho_values(field, r, dirs)
    if np.any(rho <= 0) or not np.all(np.isfinite(rho)):
        raise ValueError("cube-averaged matrix norm is degenerate on a sampled direction")
    if r == 2.0:
        m = _sym_power(np.mean(np.swapaxes(field, 1, 2) @ field, axis=0)[None], 0.5)[0]
    else:
        m = _sym_power(_centered_mvee(dirs / rho[:, None])[0][None], 0.5)[0]
    ratios = rho / np.linalg.norm(dirs @ m.T, axis=1)
    if r != 2.0:
        scale = math.sqrt(ratios.min() * ratios.max())
        m, ratios = m * scale, ratios / scale
    return m, float(ratios.min()), float(ratios.max())


def _cached_reduce(W: MatrixWeight, cube: Cube, power: float, r: float) -> ReducingMatrix:
    """Reducing matrix of the field W^power on the cube at exponent r, cached
    on the exact floats (power, r)."""
    key = (cube, power, r)
    if key not in W._reducing:
        cells = W.cells_of(cube)
        field = W.power(power)[cells]
        if field.shape[0] == 0:
            raise ValueError(f"{cube} contains no mesh cells")
        m, c_lo, c_hi = _reduce_field(field, r)
        W._reducing[key] = ReducingMatrix(
            cube=cube, exponent=r, matrix=m, lower_factor=c_lo, upper_factor=c_hi
        )
    return W._reducing[key]


def _field_power(p: float, alpha: float) -> float:
    """The power s of W that a matrix operator of order alpha reads at L^p
    (its dual reads W^-s): 1/p at order 0, 1 at a fractional order.  p must
    be finite and >= 1; alpha need not lie below 1/p, as only q needs that."""
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"matrix exponent must be finite and >= 1, got {p}")
    if alpha == 0.0:
        return 1.0 / p
    _fractional_order(alpha)
    return 1.0


def reducing_matrix(W: MatrixWeight, cube: Cube, p: float) -> ReducingMatrix:
    """Reducing matrix of rho_{W,p}(v) = (avg_Q |W^(1/p) v|^p)^(1/p).

    Exact for p = 2 (both certified factors are 1 up to arithmetic);
    ellipsoid-fitted otherwise.
    """
    return _cached_reduce(W, cube, _field_power(p, 0.0), p)


def dual_reducing_matrix(W: MatrixWeight, cube: Cube, p: float) -> ReducingMatrix:
    """Reducing matrix of rho_{W^(-p'/p), p'} (the dual norm)."""
    return _cached_reduce(W, cube, -_field_power(p, 0.0), dual_exponent(p))


# ---------------------------------------------------------------------------
# characteristics
# ---------------------------------------------------------------------------


def _matrix_char_engine(
    W: MatrixWeight,
    pair_norm: np.ndarray,
    inner_exp: float,
    outer_exp: float | None,
    quantity: str,
) -> CharacteristicReport:
    """sup over aligned cubes of mean_x (mean_y pair_norm^inner)^(outer) or
    max_x mean_y pair_norm^inner when outer_exp is None (A_1-type); the
    cubes run from width R down to the cells, the ``aligned_layout`` of the
    standard grid (the list of ``SearchSpace.aligned_cubes()``).  Every
    cube lies in one of the two top cubes, so ``pair_norm`` holds only their
    pairs (``_pair_norms``, shape ``(2, n/2, n/2)``), and each level reads
    its diagonal blocks, x and y in one cube, from them."""
    mesh = W.mesh
    G = pair_norm**inner_exp
    half = mesh.n_cells // 2
    k_cell = mesh.aligned_cell_level()
    levels = (k_cell - mesh.level, k_cell)
    lo, hi, label, cells = _geometry(mesh, DyadicGrid(), tuple(range(levels[0], levels[1] + 1))).aligned_layout
    vals = []
    for B in cells:  # cells per cube
        nb = half // B  # cubes per top cube
        top, i = np.divmod(np.arange(2 * nb), nb)
        diag = G.reshape(2, nb, B, nb, B)[top, i, :, i].mean(axis=2)  # (2 nb, B): mean over y in x's own cube
        vals.append(diag.max(axis=1) if outer_exp is None else (diag**outer_exp).mean(axis=1))
    return _report(quantity, np.concatenate(vals), lo, hi, label, (levels, 1))


def _pair_norms(Wx: np.ndarray, Wy: np.ndarray) -> np.ndarray:
    """P[t, x, y] = ||Wx[x] @ Wy[y]|| for the cell pairs of each top cube t
    (x, y counted from its first cell): 2 (n/2)^2 pairs, so n <= 512."""
    if len(Wx) > 512:
        raise ValueError("matrix characteristics are desk-scale: use meshes of <= 512 cells")
    Wx, Wy = (A.reshape(2, len(A) // 2, *A.shape[1:]) for A in (Wx, Wy))
    if Wx.shape[2:] != (2, 2):
        return op_norm(np.einsum("txij,tyjk->txyik", Wx, Wy))

    def entry(i, k):  # (Wx[x] @ Wy[y])[i, k] for every pair (x, y) of a top cube
        return Wx[:, :, None, i, 0] * Wy[:, None, :, 0, k] + Wx[:, :, None, i, 1] * Wy[:, None, :, 1, k]

    return _sigma_max_2x2(entry(0, 0), entry(0, 1), entry(1, 0), entry(1, 1))


def matrix_ap_characteristic(W: MatrixWeight, p: float) -> CharacteristicReport:
    """[W]_Ap = sup_Q avg_x (avg_y ||W^(1/p)(x) W^(-1/p)(y)||^p')^(p/p') dx.

    The supremum (restored over Q) runs over the aligned dyadic cubes of
    the carrying mesh; all averages are exact cell means.
    """
    if not 1 < p < math.inf:
        raise ValueError(f"matrix A_p requires p > 1 and finite, got {p}")
    pp = dual_exponent(p)
    P = _pair_norms(W.power(1.0 / p), W.power(-1.0 / p))
    return _matrix_char_engine(W, P, pp, p / pp, f"mat-A_{p:g}")


def matrix_a1_characteristic(W: MatrixWeight) -> CharacteristicReport:
    """[W]_A1 = sup_Q esssup_{x in Q} avg_y ||W(y) W^(-1)(x)|| dy."""
    P = _pair_norms(W.values, W.power(-1.0)).transpose(0, 2, 1)  # P[t, x, y] = ||W(y) W^-1(x)||
    return _matrix_char_engine(W, P, 1.0, None, "mat-A_1")


def matrix_apq_characteristic(W: MatrixWeight, p: float, q: float) -> CharacteristicReport:
    """[W]_A(p,q) = sup_Q avg_x (avg_y ||W(x) W^(-1)(y)||^p')^(q/p') dx."""
    if not 1 < p < q < math.inf:
        raise ValueError(f"fractional matrix class requires 1 < p < q and q finite, got p={p}, q={q}")
    pp = dual_exponent(p)
    P = _pair_norms(W.values, W.power(-1.0))
    return _matrix_char_engine(W, P, pp, q / pp, f"mat-A_({p:g},{q:g})")


def matrix_a1q_characteristic(W: MatrixWeight, q: float) -> CharacteristicReport:
    """[W]_A(1,q) = sup_Q esssup_{x in Q} avg_y ||W(y) W^(-1)(x)||^q dy."""
    if not 1 < q < math.inf:
        raise ValueError(f"A_(1,q) requires q > 1 and finite, got {q}")
    P = _pair_norms(W.values, W.power(-1.0)).transpose(0, 2, 1)
    return _matrix_char_engine(W, P, q, None, f"mat-A_(1,{q:g})")


# ---------------------------------------------------------------------------
# scalar restrictions
# ---------------------------------------------------------------------------


def scalar_restriction(W: MatrixWeight, p: float, v: np.ndarray) -> SampledWeight:
    """w_v(x) = |W^(1/p)(x) v|^p as a sampled scalar weight."""
    s = _field_power(p, 0.0)
    v = np.asarray(v, dtype=float)
    if v.shape != (W.d,) or not 0 < np.linalg.norm(v) < math.inf:
        raise ValueError(f"direction must be a nonzero finite vector of length {W.d}, got {v}")
    v = v / np.linalg.norm(v)
    return SampledWeight(W.mesh, _image_norms(W.power(s), v[None])[0] ** p)


def scalar_restriction_characteristic(W: MatrixWeight, p: float, v: np.ndarray) -> CharacteristicReport:
    """[w_v]_{A_p} for the direction weight w_v (delegates to the scalar module).

    The supremum runs over the same aligned dyadic cubes as the matrix
    characteristics, so the comparison [w_v]_{A_p} <= [W]_{A_p} has no grid
    slack.  The two paths round differently: each scalar average is a
    running sum over the cube's cells, each matrix one an ``np.mean``.
    """
    search = SearchSpace.aligned_cubes()
    wv = scalar_restriction(W, p, v)
    if p == 1:
        return a1_characteristic(wv, search)
    return ap_characteristic(wv, p, search)


def ainfty_scalar_characteristic(
    W: MatrixWeight,
    p: float,
    n_dirs: int = 64,
    grids: Sequence[DyadicGrid] | None = None,
    alpha: float = 0.0,
) -> tuple[float, np.ndarray]:
    """[W]_{A_inf^sc} = sup over directions of [w_v]_{A_inf(FW)}.

    The direction weights are w_v = |W^(1/p)(x) v|^p; with a fractional
    order alpha > 0 they are |W(x) v|^q, q from 1/p - 1/q = alpha, as the
    fractional classes use them.  The sup runs over a fixed sample of
    unit directions, hence is a lower bound on the true direction
    supremum; returns (value, argmax direction), the first on a tie.  The
    direction weights are the components of one vector function, so each
    grid takes one Fujii-Wilson sweep, with the floats per direction.
    """
    s, t = _field_power(p, alpha), _weak_exponent(p, alpha)
    dirs = unit_directions(W.d, n_dirs)
    wv = np.ascontiguousarray(_image_norms(W.power(s), dirs).T) ** t  # (cells, directions)
    if not np.all(wv > 0):
        raise ValueError("direction weights must be positive")
    grids = list(grids) if grids is not None else shifted_grids(1)
    best = _fujii_wilson(MeshFunction(W.mesh, wv), grids, *default_levels(W.mesh))[0].max(axis=0)
    j = int(np.argmax(best))
    return float(best[j]), dirs[j]


# ---------------------------------------------------------------------------
# Christ-Goldberg maximal operators
# ---------------------------------------------------------------------------


def christ_goldberg_maximal(
    W: MatrixWeight,
    p: float,
    f: MeshFunction,
    grids: Sequence[DyadicGrid] | None = None,
    min_level: int | None = None,
    max_level: int | None = None,
    alpha: float = 0.0,
) -> MeshFunction:
    """M_W f(x) = sup_Q avg_Q |W^(1/p)(x) W^(-1/p)(y) f(y)| dy on cells.

    The fractional variant (alpha > 0) weights by |Q|^alpha and uses the
    powers W, W^-1 of ``_field_power`` instead of W^(1/p), W^(-1/p).  The
    cube family matches the scalar maximal operators, and so does the
    engine: the sweep of ``hl_maximal`` over N[y, x] = |A(x) g(y)| (A = W^s,
    g = W^-s f), one component per cell x, which reads its own.  The sweep
    integrates component x only over the cubes that wholly contain cell x, one
    (cube, cell) pair per level and grid.  Averages divide by the full cube
    width with f extended by zero.  With W = Id every component is |f|, so
    M_W f equals ``hl_maximal(f.magnitude())`` bit for bit.  p must be
    finite and at least 1.  The integrand has n^2 entries on n cells: past
    4,096 cells (at 4,096, about 2.7 s and 565 MiB peak at d = 2 and 3) it
    is a ``ValueError``.
    """
    s = _field_power(p, alpha)
    if not f.is_vector or f.values.shape[1] != W.d:
        raise ValueError("f must be vector-valued with the weight's dimension")
    mesh = f.mesh
    if mesh != W.mesh:
        raise ValueError("f and W live on different meshes")
    if mesh.n_cells > 4096:
        raise ValueError("the Christ-Goldberg integrand has n^2 entries: use meshes of <= 4096 cells")
    g = np.einsum("xij,xj->xi", W.power(-s), f.values)
    N = MeshFunction(mesh, _image_norms(W.power(s), g))  # the only (n, n) array the sweep keeps alive
    return _maximal_sweep(N, grids, min_level, max_level, alpha)


def _image_norms(A: np.ndarray, g: np.ndarray) -> np.ndarray:
    """N[y, x] = |A[x] g[y]| for every matrix A[x] and vector g[y].

    The floats of ``np.linalg.norm(np.einsum("xij,yj->yxi", A, g), axis=2)``
    without its (y, x, d) temporary: each image coordinate e_i is that
    einsum's row i (the same products, summed by the same kernel), and the
    squares are added in order, as ``norm``'s reduction adds fewer than
    eight terms.  Two (y, x) arrays are alive at once."""
    if A.shape[-1] >= 8:  # norm adds eight or more squares pairwise, not in order
        return np.linalg.norm(np.einsum("xij,yj->yxi", A, g), axis=2)
    sq = np.zeros((len(g), len(A)))
    for i in range(A.shape[1]):
        e = np.einsum("xj,yj->yx", A[:, i], g)
        sq += np.multiply(e, e, out=e)
    return np.sqrt(sq, out=sq)


# ---------------------------------------------------------------------------
# dominating scalar sparse operator
# ---------------------------------------------------------------------------


def dominating_scalar_sparse(
    W: MatrixWeight,
    p: float,
    family,
    f: MeshFunction,
    alpha: float = 0.0,
) -> MeshFunction:
    """Scalar sparse operator with reducing-matrix coefficients:

        A_S f(x) = sum_Q ||W^(1/p)(x) (W_Q^p)^(-1)|| <f>_{p,Q} chi_Q(x)

    and, for alpha > 0 with q from 1/p - 1/q = alpha,

        A_S^alpha f(x) = sum_Q ||W(x) (V_Q^q)^(-1)|| |Q|^alpha <f>_{p,Q} chi_Q(x).

    <f>_{p,Q} = (avg_Q |f|^p)^(1/p); coefficients are evaluated per cell.
    """
    s, q = _field_power(p, alpha), _weak_exponent(p, alpha)  # alpha < 1/p, before any cube is reduced
    mesh = f.mesh
    if mesh != W.mesh:
        raise ValueError("f and W live on different meshes")
    if f.is_vector:
        raise ValueError("the dominating operator acts on scalar f (apply to |f|)")
    avg = family.averages(f.power(p))
    out = np.zeros(mesh.n_cells)
    for cube, a in zip(family.cubes, avg):
        cells = W.cells_of(cube)  # a cube leaving the domain raises
        out[cells] += cube.width**alpha * _coefficients(W, cube, cells, s, q) * a ** (1.0 / p)
    return MeshFunction(mesh, out)


def _coefficients(W: MatrixWeight, cube: Cube, cells: slice, s: float, q: float) -> np.ndarray:
    """||W^s(x) V_Q^-1|| on the cells x of the cube, V_Q the reducing matrix
    of (avg_Q |W^s v|^q)^(1/q)."""
    red = _cached_reduce(W, cube, s, q)
    return op_norm(np.einsum("xij,jk->xik", W.power(s)[cells], red.inverse))


def sharp_rhi_matrix_bound(W: MatrixWeight, p: float, cube: Cube, nu: float) -> float:
    """avg_Q ||W^(1/p)(x) (W_Q^p)^(-1)||^(p nu) dx (dimensional-ceiling check)."""
    coeff = _coefficients(W, cube, W.cells_of(cube), _field_power(p, 0.0), p)
    return float(np.mean(coeff ** (p * nu)))


# ---------------------------------------------------------------------------
# seeded test/CLI weights
# ---------------------------------------------------------------------------


def random_matrix_weight(mesh: Mesh, d: int, rng: np.random.Generator) -> MatrixWeight:
    """Seeded SPD matrix weight with moderate characteristic.

    Eigenvalues are exp of uniform draws in [-1.5, 1.5], one per block of
    about 8 cells; eigenvectors rotate smoothly across cells.
    """
    n = mesh.n_cells
    blocks = max(1, n // 8)
    lam = rng.uniform(-1.5, 1.5, size=(blocks, d))
    lam = np.exp(np.repeat(lam, math.ceil(n / blocks), axis=0)[:n])
    theta = np.cumsum(rng.uniform(-0.3, 0.3, size=n))
    mats = np.empty((n, d, d))
    if d == 2:
        c, s = np.cos(theta), np.sin(theta)
        R = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    else:
        R = np.zeros((n, d, d))
        for i in range(n):
            Rq, _ = np.linalg.qr(rng.standard_normal((d, d)))
            R[i] = Rq
    mats = np.einsum("xij,xj,xkj->xik", R, lam, R)
    mats = 0.5 * (mats + np.swapaxes(mats, 1, 2))
    return MatrixWeight(mesh, mats)
