"""Reference for ``weaklab.matrix._pair_norms``: the batched-SVD table.

``svd_pair_norms`` is the pair-norm table the package computed before 2 x 2
weights took the closed form: every product ``Wx[x] @ Wy[y]`` is formed by
``einsum`` and its largest singular value is read from one batched
``np.linalg.svd``.  For d >= 3 it is still the package's own computation, so
there the two tables must agree bit for bit.
"""

from __future__ import annotations

import numpy as np


def svd_pair_norms(Wx: np.ndarray, Wy: np.ndarray) -> np.ndarray:
    """P[x, y] = ||Wx[x] @ Wy[y]|| (largest singular value) for all cell pairs."""
    if len(Wx) > 512:
        raise ValueError("matrix characteristics are desk-scale: use meshes of <= 512 cells")
    prod = np.einsum("xij,yjk->xyik", Wx, Wy)
    return np.linalg.svd(prod, compute_uv=False)[..., 0]
