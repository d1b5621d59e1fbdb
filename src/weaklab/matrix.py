"""Matrix weights: operator norms, reducing matrices, characteristics, and
the matrix-weighted maximal / sparse machinery.

A matrix weight is a map from mesh cells to symmetric positive-definite
d x d matrices.  Matrix powers are taken cell-wise through spectral
decompositions with symmetric reprojection, so numerical drift cannot break
symmetry.

Reducing matrices: for a norm rho(v) = (avg_Q |A(x) v|^r dx)^(1/r) the
constant SPD matrix with |Mv| comparable to rho(v) is computed exactly when
r = 2 (M = (avg A^2)^(1/2)) and otherwise by a minimum-volume-ellipsoid fit
of the sampled points p = v / rho(v): primal-dual Newton on the dual
(D-optimal design) problem, which stops only on the Kiefer-Wolfowitz
certificate max_p p^T A p <= 1 + 1e-10 and raises EllipsoidFitError when it
cannot reach it.  Every fit records certified
two-sided factors (c_minus, c_plus) with

    c_minus |Mv| <= rho(v) <= c_plus |Mv|   on the sampled directions,

normalized so c_minus <= 1 <= c_plus; the John-ellipsoid guarantee keeps
c_plus/c_minus near sqrt(d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .grid import Cube, DyadicGrid, Mesh, MeshFunction, _level_affine, cube_span, default_levels, shifted_grids
from .operators import _maximal_sweep
from .sparse import _cube_averages
from .weights import (
    CharacteristicReport,
    SampledWeight,
    SearchSpace,
    _fujii_wilson_one_grid,
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
    "fractional_reducing_matrix",
    "fractional_dual_reducing_matrix",
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


def op_norm(mats: np.ndarray) -> np.ndarray | float:
    """Largest singular value, batched over leading axes."""
    mats = np.asarray(mats, dtype=float)
    s = np.linalg.svd(mats, compute_uv=False)
    out = s[..., 0]
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
    """SPD matrix per mesh cell."""

    def __init__(self, mesh: Mesh, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[0] != mesh.n_cells or values.shape[1] != values.shape[2]:
            raise ValueError(f"expected ({mesh.n_cells}, d, d) matrices, got {values.shape}")
        if np.max(np.abs(values - np.swapaxes(values, 1, 2))) > 1e-12:
            raise ValueError("matrix weight must be symmetric")
        values = 0.5 * (values + np.swapaxes(values, 1, 2))
        if np.any(np.linalg.eigvalsh(values)[..., 0] <= 0):
            raise ValueError("matrix weight must be positive definite on every cell")
        self.mesh = mesh
        self.values = values
        self._powers: dict[float, np.ndarray] = {1.0: values}
        self._reducing: dict[tuple, "ReducingMatrix"] = {}

    @property
    def d(self) -> int:
        return self.values.shape[1]

    def power(self, s: float) -> np.ndarray:
        if s not in self._powers:
            self._powers[s] = _sym_power(self.values, s)
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
    """Constant SPD matrix equivalent to a cube-averaged matrix norm."""

    cube: Cube
    exponent: float
    matrix: np.ndarray
    lower_factor: float
    upper_factor: float

    @property
    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)


def unit_directions(d: int, n: int) -> np.ndarray:
    """n unit directions: half-circle angles at d = 2, Fibonacci sphere at d = 3."""
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
    """rho(v) = (mean_x |field_x v|^r)^(1/r) for each sampled direction."""
    prod = np.einsum("xij,nj->xni", field, dirs)
    norms = np.linalg.norm(prod, axis=2)
    return (np.mean(norms**r, axis=0)) ** (1.0 / r)


# Newton steps an ellipsoid fit may take before it raises; fits of seeded
# random weights (d = 2 and 3, cubes of 1 to 64 cells) take 6 to 17
_MVEE_NEWTON_STEPS = 60


class EllipsoidFitError(RuntimeError):
    """An ellipsoid fit did not reach its optimality certificate."""


def _step_to_boundary(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest a with x + a dx >= 0 (inf when dx >= 0)."""
    neg = dx < 0
    return float(np.min(-x[neg] / dx[neg])) if neg.any() else math.inf


def _centered_mvee(points: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Minimum-volume origin-centred ellipsoid {x : x^T A x <= 1} containing
    the points and their negatives.

    Solves the dual (D-optimal design) problem: maximise log det X(u),
    X(u) = sum u_j p_j p_j^T, over weights u >= 0 with sum u = 1.  With
    g_j = p_j^T X(u)^-1 p_j, the weights are optimal exactly when max g = d
    (Kiefer-Wolfowitz), and then A = X(u)^-1 / d.  Each step is a
    primal-dual Newton step (Mehrotra predictor-corrector) on
    g + z = nu 1, u z = sigma mu, sum u = 1 with slacks z >= 0.  The fit
    stops on the certificate max g <= d (1 + tol), that is
    max_j p_j^T A p_j <= 1 + tol, and raises EllipsoidFitError when
    _MVEE_NEWTON_STEPS steps do not reach it.
    """
    n, d = points.shape
    u = np.full(n, 1.0 / n)
    for step in range(_MVEE_NEWTON_STEPS + 1):
        Xi = np.linalg.inv(points.T @ (u[:, None] * points))
        K = points @ Xi @ points.T
        g = np.diag(K)
        if g.max() <= d * (1 + tol):
            A = Xi / d
            return 0.5 * (A + A.T)
        if step == _MVEE_NEWTON_STEPS:
            break
        if step == 0:
            nu = 1.5 * g.max()
            z = nu - g
        mu = u @ z / n
        # (K o K + diag(z/u)) du + dnu 1 = r_d - r_c/u,  1^T du = -r_p,
        # dz = -(r_c + z du)/u, where r_c is the complementarity residual
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

        du, dz, _ = direction(u * z)  # predictor: aim at mu = 0
        a = min(1.0, _step_to_boundary(u, du), _step_to_boundary(z, dz))
        sigma = ((u + a * du) @ (z + a * dz) / (n * mu)) ** 3
        du, dz, dnu = direction(u * z + du * dz - sigma * mu)  # corrector
        a = min(1.0, 0.99 * min(_step_to_boundary(u, du), _step_to_boundary(z, dz)))
        u, z, nu = u + a * du, z + a * dz, nu + a * dnu
    raise EllipsoidFitError(
        f"ellipsoid fit missed its certificate max p^T A p <= 1 + {tol:g} after "
        f"{_MVEE_NEWTON_STEPS} Newton steps (reached {g.max() / d:.12g})"
    )


def _reduce_field(field: np.ndarray, r: float, n_dirs: int | None = None):
    """Reducing matrix of rho(v) = (mean |field v|^r)^(1/r) with certificates."""
    d = field.shape[1]
    if r == 2.0:
        mean_sq = np.mean(np.einsum("xij,xjk->xik", field, field), axis=0)
        m = _sym_power(mean_sq[None], 0.5)[0]
        dirs = unit_directions(d, 8 * d)
        rho = _rho_values(field, r, dirs)
        mv = np.linalg.norm(dirs @ m.T, axis=1)
        ratios = rho / mv
        return m, float(ratios.min()), float(ratios.max())
    n_dirs = n_dirs or 64 * d
    dirs = unit_directions(d, n_dirs)
    rho = _rho_values(field, r, dirs)
    if np.any(rho <= 0) or not np.all(np.isfinite(rho)):
        raise ValueError("cube-averaged matrix norm is degenerate on a sampled direction")
    A = _centered_mvee(dirs / rho[:, None])
    m_raw = _sym_power(A[None], 0.5)[0]
    mv = np.linalg.norm(dirs @ m_raw.T, axis=1)
    ratios = rho / mv
    scale = math.sqrt(ratios.min() * ratios.max())
    m = m_raw * scale
    ratios = ratios / scale
    return m, float(ratios.min()), float(ratios.max())


def _cached_reduce(W: MatrixWeight, cube: Cube, power: float, r: float) -> ReducingMatrix:
    """Reducing matrix of the field W^power on the cube at exponent r, cached
    on the exact floats (power, r)."""
    key = (cube.level, cube.index, cube.grid.shift_index, power, r)
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


def reducing_matrix(W: MatrixWeight, cube: Cube, p: float) -> ReducingMatrix:
    """Reducing matrix of rho_{W,p}(v) = (avg_Q |W^(1/p) v|^p)^(1/p).

    Exact for p = 2 (both certified factors are 1 up to arithmetic);
    ellipsoid-fitted otherwise.
    """
    return _cached_reduce(W, cube, 1.0 / p, p)


def dual_reducing_matrix(W: MatrixWeight, cube: Cube, p: float) -> ReducingMatrix:
    """Reducing matrix of rho_{W^(-p'/p), p'} (the dual norm)."""
    pp = dual_exponent(p)
    return _cached_reduce(W, cube, -1.0 / p, pp)


def fractional_reducing_matrix(W: MatrixWeight, cube: Cube, q: float) -> ReducingMatrix:
    """|V_Q^q v| ~ (avg_Q |W v|^q)^(1/q)."""
    return _cached_reduce(W, cube, 1.0, q)


def fractional_dual_reducing_matrix(W: MatrixWeight, cube: Cube, p: float) -> ReducingMatrix:
    pp = dual_exponent(p)
    return _cached_reduce(W, cube, -1.0, pp)


# ---------------------------------------------------------------------------
# characteristics
# ---------------------------------------------------------------------------


def _aligned_levels(mesh: Mesh, min_level: int | None) -> list[tuple[int, int]]:
    """(level, cells-per-cube) pairs for aligned cubes inside the domain."""
    k_cell = mesh.aligned_cell_level()
    k_root = k_cell - mesh.level  # cubes of width R
    k_lo = k_root if min_level is None else max(min_level, k_root)
    return [(k, 2 ** (k_cell - k)) for k in range(k_lo, k_cell + 1)]


def _matrix_char_engine(
    W: MatrixWeight,
    pair_norm: np.ndarray,
    inner_exp: float,
    outer_exp: float | None,
    min_level: int | None,
    quantity: str,
) -> CharacteristicReport:
    """sup over aligned cubes of mean_x (mean_y pair_norm^inner)^(outer) or
    max_x mean_y pair_norm^inner when outer_exp is None (A_1-type)."""
    mesh = W.mesh
    G = pair_norm**inner_exp
    value, cube = -np.inf, None
    levels = _aligned_levels(mesh, min_level)
    grid = DyadicGrid()
    for k, B in levels:
        nb = mesh.n_cells // B
        # mean over y within each block, for every x: (n, nb)
        Y = G.reshape(mesh.n_cells, nb, B).mean(axis=2)
        # restrict x to the same block (diagonal blocks)
        D = Y.reshape(nb, B, nb)
        diag = D[np.arange(nb), :, np.arange(nb)]  # (nb, B)
        if outer_exp is None:
            vals = diag.max(axis=1)
        else:
            vals = (diag**outer_exp).mean(axis=1)
        j = int(np.argmax(vals))
        if vals[j] > value:
            a0, _, den = _level_affine(mesh, grid, k)
            value, cube = float(vals[j]), grid.cube(k, a0 // den + j)  # a0 // den: the cube holding the left edge
    return CharacteristicReport(
        quantity=quantity,
        value=value,
        witness=cube.interval(),
        witness_label=cube.label,
        search_levels=(levels[0][0], levels[-1][0]),
        grids_used=1,
    )


def _pair_norms(Wx: np.ndarray, Wy: np.ndarray) -> np.ndarray:
    """P[x, y] = ||Wx[x] @ Wy[y]|| for all cell pairs (n^2 of them, so n <= 512)."""
    if len(Wx) > 512:
        raise ValueError("matrix characteristics are desk-scale: use meshes of <= 512 cells")
    prod = np.einsum("xij,yjk->xyik", Wx, Wy)
    return op_norm(prod)


def matrix_ap_characteristic(
    W: MatrixWeight, p: float, min_level: int | None = None
) -> CharacteristicReport:
    """[W]_Ap = sup_Q avg_x (avg_y ||W^(1/p)(x) W^(-1/p)(y)||^p')^(p/p') dx.

    The supremum (restored over Q) runs over the aligned dyadic cubes of
    the carrying mesh; all averages are exact cell means.
    """
    if p <= 1:
        raise ValueError(f"matrix A_p requires p > 1, got {p}")
    pp = dual_exponent(p)
    P = _pair_norms(W.power(1.0 / p), W.power(-1.0 / p))
    return _matrix_char_engine(W, P, pp, p / pp, min_level, f"mat-A_{p:g}")


def matrix_a1_characteristic(W: MatrixWeight, min_level: int | None = None) -> CharacteristicReport:
    """[W]_A1 = sup_Q esssup_{x in Q} avg_y ||W(y) W^(-1)(x)|| dy."""
    P = _pair_norms(W.values, W.power(-1.0)).T  # P[x, y] = ||W(y) W^-1(x)||
    return _matrix_char_engine(W, P, 1.0, None, min_level, "mat-A_1")


def matrix_apq_characteristic(
    W: MatrixWeight, p: float, q: float, min_level: int | None = None
) -> CharacteristicReport:
    """[W]_A(p,q) = sup_Q avg_x (avg_y ||W(x) W^(-1)(y)||^p')^(q/p') dx."""
    if not (1 < p < q):
        raise ValueError(f"fractional matrix class requires 1 < p < q, got p={p}, q={q}")
    pp = dual_exponent(p)
    P = _pair_norms(W.values, W.power(-1.0))
    return _matrix_char_engine(W, P, pp, q / pp, min_level, f"mat-A_({p:g},{q:g})")


def matrix_a1q_characteristic(
    W: MatrixWeight, q: float, min_level: int | None = None
) -> CharacteristicReport:
    """[W]_A(1,q) = sup_Q esssup_{x in Q} avg_y ||W(y) W^(-1)(x)||^q dy."""
    if q <= 1:
        raise ValueError(f"A_(1,q) requires q > 1, got {q}")
    P = _pair_norms(W.values, W.power(-1.0)).T
    return _matrix_char_engine(W, P, q, None, min_level, f"mat-A_(1,{q:g})")


# ---------------------------------------------------------------------------
# scalar restrictions
# ---------------------------------------------------------------------------


def scalar_restriction(W: MatrixWeight, p: float, v: np.ndarray) -> SampledWeight:
    """w_v(x) = |W^(1/p)(x) v|^p as a sampled scalar weight."""
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    vals = np.linalg.norm(np.einsum("xij,j->xi", W.power(1.0 / p), v), axis=1) ** p
    return SampledWeight(W.mesh, vals)


def scalar_restriction_characteristic(
    W: MatrixWeight, p: float, v: np.ndarray, search: SearchSpace | None = None
) -> CharacteristicReport:
    """[w_v]_{A_p} for the direction weight w_v (delegates to the scalar module).

    By default the supremum runs over the same aligned dyadic cubes as the
    matrix characteristics, which makes the comparison
    [w_v]_{A_p} <= [W]_{A_p} exact cube by cube (no grid slack).
    """
    search = search or SearchSpace.aligned_cubes()
    wv = scalar_restriction(W, p, v)
    if p == 1:
        return a1_characteristic(wv, search)
    return ap_characteristic(wv, p, search)


def ainfty_scalar_characteristic(
    W: MatrixWeight,
    p: float,
    n_dirs: int = 64,
    grids: Sequence[DyadicGrid] | None = None,
    matrix_power: float | None = None,
    norm_power: float | None = None,
) -> tuple[float, np.ndarray]:
    """[W]_{A_inf^sc} = sup over directions of [w_v]_{A_inf(FW)}.

    The direction weights are w_v = |W^(matrix_power)(x) v|^(norm_power),
    defaulting to |W^(1/p) v|^p; the fractional classes use w_v = |W v|^q
    (matrix_power=1, norm_power=q).  The sup runs over a fixed sample of
    unit directions, hence is a lower bound on the true direction
    supremum; returns (value, argmax direction), the first on a tie.  The
    direction weights are the components of one vector function, so each
    grid takes one Fujii-Wilson sweep, with the floats per direction.
    """
    dirs = unit_directions(W.d, n_dirs)
    mp = 1.0 / p if matrix_power is None else matrix_power
    npow = p if norm_power is None else norm_power
    wv = np.linalg.norm(np.einsum("xij,nj->xni", W.power(mp), dirs), axis=2) ** npow
    if not np.all(wv > 0):
        raise ValueError("direction weights must be positive")
    wbar = MeshFunction(W.mesh, wv)
    grids = list(grids) if grids is not None else shifted_grids(1)
    k_lo, k_fine = default_levels(W.mesh)
    best = np.full(n_dirs, -np.inf)
    for g in grids:
        best = np.maximum(best, _fujii_wilson_one_grid(wbar, g, k_lo, k_fine)[0])
    j = int(np.argmax(best))
    if best[j] == -np.inf:
        raise ValueError("no grid cube fits inside the mesh domain")
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
    powers W, W^-1 instead of W^(1/p), W^(-1/p).  The cube family matches
    the scalar maximal operators, and so does the engine: the sweep of
    ``hl_maximal`` over N[y, x] = |A(x) g(y)| (A = W^(1/p), g = W^(-1/p) f),
    one component per cell x, which reads its own.  Averages divide by the
    full cube width with f extended by zero.  With W = Id every component
    is |f|, so M_W f equals ``hl_maximal(f.magnitude())`` bit for bit.
    """
    if not f.is_vector or f.values.shape[1] != W.d:
        raise ValueError("f must be vector-valued with the weight's dimension")
    mesh = f.mesh
    if mesh != W.mesh:
        raise ValueError("f and W live on different meshes")
    if alpha == 0.0:
        A = W.power(1.0 / p)
        g = np.einsum("xij,xj->xi", W.power(-1.0 / p), f.values)
    else:
        if not (0 < alpha < 1):
            raise ValueError(f"fractional order must satisfy 0 < alpha < 1, got {alpha}")
        A = W.values
        g = np.einsum("xij,xj->xi", W.power(-1.0), f.values)
    N = np.linalg.norm(np.einsum("xij,yj->yxi", A, g), axis=2)
    return _maximal_sweep(MeshFunction(mesh, N), grids, min_level, max_level, alpha)


# ---------------------------------------------------------------------------
# dominating scalar sparse operator
# ---------------------------------------------------------------------------


def dominating_scalar_sparse(
    W: MatrixWeight,
    p: float,
    family,
    f: MeshFunction,
    alpha: float = 0.0,
    q: float | None = None,
) -> MeshFunction:
    """Scalar sparse operator with reducing-matrix coefficients:

        A_S f(x) = sum_Q ||W^(1/p)(x) (W_Q^p)^(-1)|| <f>_{p,Q} chi_Q(x)

    and, for alpha > 0 with q from 1/p - 1/q = alpha,

        A_S^alpha f(x) = sum_Q ||W(x) (V_Q^q)^(-1)|| |Q|^alpha <f>_{p,Q} chi_Q(x).

    <f>_{p,Q} = (avg_Q |f|^p)^(1/p); coefficients are evaluated per cell.
    """
    mesh = f.mesh
    if mesh != W.mesh:
        raise ValueError("f and W live on different meshes")
    if f.is_vector:
        raise ValueError("the dominating operator acts on scalar f (apply to |f|)")
    avg = _cube_averages(f.power(p), family.grid, family.cubes, max((c.level for c in family.cubes), default=0))
    out = np.zeros(mesh.n_cells)
    if alpha == 0.0:
        Apow = W.power(1.0 / p)
    else:
        if q is None:
            raise ValueError("fractional variant needs q")
        Apow = W.values
    for cube in family.cubes:
        cells = W.cells_of(cube)  # a cube leaving the domain raises
        red = (
            reducing_matrix(W, cube, p)
            if alpha == 0.0
            else fractional_reducing_matrix(W, cube, q)
        )
        coeff = op_norm(np.einsum("xij,jk->xik", Apow[cells], red.inverse))
        avg_p = avg(cube.level, cube.index) ** (1.0 / p)
        out[cells] += cube.width**alpha * coeff * avg_p
    return MeshFunction(mesh, out)


def sharp_rhi_matrix_bound(W: MatrixWeight, p: float, cube: Cube, nu: float) -> float:
    """avg_Q ||W^(1/p)(x) (W_Q^p)^(-1)||^(p nu) dx (dimensional-ceiling check)."""
    red = reducing_matrix(W, cube, p)
    cells = W.cells_of(cube)
    coeff = op_norm(np.einsum("xij,jk->xik", W.power(1.0 / p)[cells], red.inverse))
    return float(np.mean(coeff ** (p * nu)))


# ---------------------------------------------------------------------------
# seeded test/CLI weights
# ---------------------------------------------------------------------------


def random_matrix_weight(
    mesh: Mesh,
    d: int,
    rng: np.random.Generator,
    log_eig_range: float = 1.5,
    smooth: int = 8,
) -> MatrixWeight:
    """Seeded SPD matrix weight with moderate characteristic.

    Eigenvalues are exp of a (block-smoothed) random walk within
    +-log_eig_range; eigenvectors rotate smoothly across cells.
    """
    n = mesh.n_cells
    blocks = max(1, n // smooth)
    lam = rng.uniform(-log_eig_range, log_eig_range, size=(blocks, d))
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
