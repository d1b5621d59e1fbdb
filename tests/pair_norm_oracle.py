"""References for ``weaklab.matrix._pair_norms`` and the matrix characteristics.

``svd_pair_norms`` is the pair-norm table the package computed before 2 x 2
weights took the closed form: every product ``Wx[x] @ Wy[y]`` is formed by
``einsum`` and its largest singular value is read from one batched
``np.linalg.svd``.  For d >= 3 it is still the package's own computation, so
there the two tables must agree bit for bit.  ``top_cube_pairs`` reads from
such a full table the pairs of each top cube, the ones the package forms.

``full_square_characteristics`` is the engine the package ran before it
formed only those pairs: the norms of all n^2 cell pairs (the closed form
for 2 x 2 weights, the batched SVD otherwise), and every level's diagonal
blocks read from that square.
"""

from __future__ import annotations

import numpy as np

from weaklab.grid import _aligned_layout
from weaklab.matrix import _sigma_max_2x2, dual_exponent
from weaklab.weights import _report


def svd_pair_norms(Wx: np.ndarray, Wy: np.ndarray) -> np.ndarray:
    """P[x, y] = ||Wx[x] @ Wy[y]|| (largest singular value) for all cell pairs."""
    if len(Wx) > 512:
        raise ValueError("matrix characteristics are desk-scale: use meshes of <= 512 cells")
    prod = np.einsum("xij,yjk->xyik", Wx, Wy)
    return np.linalg.svd(prod, compute_uv=False)[..., 0]


def top_cube_pairs(P: np.ndarray) -> np.ndarray:
    """(2, n/2, n/2): the diagonal blocks of a full (n, n) table, one per top cube."""
    half = len(P) // 2
    return P.reshape(2, half, 2, half)[[0, 1], :, [0, 1]]


def full_square_pair_norms(Wx: np.ndarray, Wy: np.ndarray) -> np.ndarray:
    """P[x, y] = ||Wx[x] @ Wy[y]|| for all n^2 cell pairs, as the package formed them."""
    if Wx.shape[1:] != (2, 2):
        return svd_pair_norms(Wx, Wy)

    def entry(i, k):
        return np.multiply.outer(Wx[:, i, 0], Wy[:, 0, k]) + np.multiply.outer(Wx[:, i, 1], Wy[:, 1, k])

    return _sigma_max_2x2(entry(0, 0), entry(0, 1), entry(1, 0), entry(1, 1))


def full_square_engine(W, pair_norm, inner_exp, outer_exp, quantity):
    """The characteristic engine over the full (n, n) table ``pair_norm``."""
    mesh = W.mesh
    G = pair_norm**inner_exp
    lo, hi, label, cells, levels = _aligned_layout(mesh)
    vals = []
    for B in cells:
        nb = mesh.n_cells // B
        i = np.arange(nb)
        diag = G.reshape(nb, B, nb, B)[i, :, i].mean(axis=2)
        vals.append(diag.max(axis=1) if outer_exp is None else (diag**outer_exp).mean(axis=1))
    return _report(quantity, np.concatenate(vals), lo, hi, label, (levels, 1))


def full_square_characteristics(W, p: float, q: float) -> list:
    """[W]_A_p, [W]_A_1, [W]_A_(p,q) and [W]_A_(1,q), from full squares."""
    pp = dual_exponent(p)
    P = full_square_pair_norms(W.power(1.0 / p), W.power(-1.0 / p))
    Q = full_square_pair_norms(W.values, W.power(-1.0))
    return [
        full_square_engine(W, P, pp, p / pp, f"mat-A_{p:g}"),
        full_square_engine(W, Q.T, 1.0, None, "mat-A_1"),
        full_square_engine(W, Q, pp, q / pp, f"mat-A_({p:g},{q:g})"),
        full_square_engine(W, Q.T, q, None, f"mat-A_(1,{q:g})"),
    ]
