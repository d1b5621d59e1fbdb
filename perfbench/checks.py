"""Independent correctness checks for the benchmark's trials.

Nothing here imports weaklab.  Every reference value is recomputed from the
trial's inputs with numpy block sums, scipy quadrature, scipy matrix
functions or a bounded maximisation, or the check tests a property the
method must have.  A check takes ``(inp, rec)`` -- the trial's inputs and
the plain record extracted from its outputs -- and returns a list of
failure messages (empty when the output is correct).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# step functions, block sums and exact cube/cell geometry
# ---------------------------------------------------------------------------


def close(a, b, rtol, atol=0.0) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol + rtol * np.maximum(np.abs(a), np.abs(b))))


def block_means(values: np.ndarray, size: int) -> np.ndarray:
    return values.reshape(-1, size).mean(axis=1)


def cz_blocks(values: np.ndarray, height: float) -> list[tuple[int, int]]:
    """Maximal cell-aligned blocks (within the two half-domain roots) with mean > height."""
    n = len(values)
    covered = np.zeros(n, dtype=bool)
    blocks = []
    size = n // 2
    while size >= 1:
        for j in np.nonzero(block_means(values, size) > height)[0]:
            start = int(j) * size
            if not covered[start]:
                blocks.append((start, size))
                covered[start : start + size] = True
        size //= 2
    return sorted(blocks)


def block_maximal(values: np.ndarray) -> np.ndarray:
    """Dyadic maximal function over the aligned blocks inside the two roots."""
    n = len(values)
    out = np.zeros(n)
    size = n // 2
    while size >= 1:
        out = np.maximum(out, np.repeat(block_means(values, size), size))
        size //= 2
    return out


def cube_cells(cube: tuple[Fraction, Fraction], radius: Fraction, h: Fraction) -> tuple[Fraction, Fraction]:
    """Cube endpoints in cell units from the left mesh edge (exact)."""
    lo, hi = cube
    return (lo + radius) / h, (hi + radius) / h


def family_issues(fam: dict, radius: float, level: int, min_width_cells: int = 1) -> list[str]:
    """|Q| <= 2|E_Q|, E_Q inside Q, pairwise disjoint E_Q, and the minimum cube width.

    ``fam`` holds exact cube endpoints and the designated cell indices.
    """
    R = Fraction(radius)
    h = R / 2**level
    issues = []
    seen = []
    for (lo, hi), cells in zip(fam["cubes"], fam["designated"]):
        cells = np.asarray(cells, dtype=np.int64)
        c_lo, c_hi = cube_cells((lo, hi), R, h)
        first, last = math.ceil(c_lo), math.floor(c_hi)  # cells [first, last) lie inside
        if len(cells) and (cells.min() < first or cells.max() >= last):
            issues.append(f"E_Q leaves its cube [{float(lo):.6g}, {float(hi):.6g})")
        if hi - lo > 2 * len(cells) * h:
            issues.append(f"|Q| = {float(hi - lo):.6g} > 2|E_Q| = {2 * len(cells) * float(h):.6g}")
        if hi - lo < min_width_cells * h:
            issues.append(f"cube [{float(lo):.6g}, {float(hi):.6g}) is narrower than {min_width_cells} cells")
        seen.append(cells)
    allc = np.concatenate(seen) if seen else np.zeros(0, dtype=np.int64)
    if len(np.unique(allc)) != len(allc):
        issues.append("designated sets E_Q overlap")
    return issues


def aligned_sparse_apply(values: np.ndarray, fam: dict, radius: float, level: int) -> np.ndarray:
    """sum_Q <f>_Q chi_Q for cell-aligned cubes inside the mesh."""
    R = Fraction(radius)
    h = R / 2**level
    out = np.zeros(len(values))
    for lo, hi in fam["cubes"]:
        c_lo, c_hi = cube_cells((lo, hi), R, h)
        a, b = int(c_lo), int(c_hi)
        out[a:b] += values[a:b].sum() / (b - a)
    return out


def shifted_maximal(values: np.ndarray, radius: float, level: int) -> np.ndarray:
    """max over the three one-third-shifted grids and all levels from width ~2R
    down to one cell of the cube average of |f| over cubes containing the cell.

    Integer arithmetic in units of h/3: cell i spans [3i, 3i + 3), the level-k
    cube m of grid j starts at (3m + (-1)^k j) 2^(K-k) - 3 R/h with 2^K = 1/h.
    """
    n = len(values)
    K = level - int(round(math.log2(radius)))  # 2^-K = h
    k_lo = -math.ceil(math.log2(2 * radius))
    h = radius / 2**level
    prefix = np.concatenate(([0.0], np.cumsum(np.abs(values) * h)))
    off = 3 * (n // 2)  # units from the left mesh edge to the origin

    def cum(units: np.ndarray) -> np.ndarray:
        pos = np.clip(units, 0, 3 * n)
        i = np.minimum(pos // 3, n - 1)
        rem = pos - 3 * i
        return prefix[i] + np.abs(values)[i] * h * rem / 3.0

    out = np.zeros(n)
    left = 3 * np.arange(n, dtype=np.int64) - off  # cell left edges, origin at 0
    for j in (0, 1, 2):
        for k in range(k_lo, K + 1):
            scale = 2 ** (K - k)
            shift = (-1 if k & 1 else 1) * j * scale
            m = np.floor_divide(left - shift, 3 * scale)
            cube_lo = 3 * m * scale + shift
            cube_hi = cube_lo + 3 * scale
            inside = left + 3 <= cube_hi
            avg = (cum(cube_hi + off) - cum(cube_lo + off)) / (2.0**-k)
            out = np.where(inside, np.maximum(out, avg), out)
    return out


def sorted_weak_quotient(out: np.ndarray, h: float, f_norm: float, q: float) -> float:
    """max over v of v^q |{|out| >= v}| / f_norm^q, from the sorted output."""
    mag = np.sort(np.abs(out))
    pos = mag > 0
    if not np.any(pos):
        return 0.0
    geq = (len(mag) - np.searchsorted(mag, mag, side="left")) * h
    return float(np.max(mag[pos] ** q * geq[pos])) / f_norm**q


def quotient_issues(rec_q: dict) -> list[str]:
    """Recompute one weak-type quotient from the output by sorting.

    ``rec_q`` holds the output magnitude, the cell width, the exponent q,
    ||f||_p as recomputed from the input, and the program's quotient.
    """
    ref = sorted_weak_quotient(rec_q["out"], rec_q["h"], rec_q["f_norm"], rec_q["q"])
    if not close(rec_q["quotient"], ref, 1e-12):
        return [f"{rec_q['op']} quotient {rec_q['quotient']:.12g} != sorted recomputation {ref:.12g}"]
    return []


def lp_norm(values: np.ndarray, h: float, p: float) -> float:
    mag = np.linalg.norm(values, axis=1) if values.ndim == 2 else np.abs(values)
    return float((mag**p).sum() * h) ** (1.0 / p)


# ---------------------------------------------------------------------------
# quadrature references
# ---------------------------------------------------------------------------


def _scipy():
    # imported on first use, so the program's own imports are what set-up measures
    from scipy import integrate, linalg, optimize

    return integrate, linalg, optimize


def runs(values: np.ndarray, edges: np.ndarray):
    """Maximal runs of equal nonzero cell values: (value, a, b)."""
    out = []
    i, n = 0, len(values)
    while i < n:
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        if values[i] != 0.0:
            out.append((float(values[i]), float(edges[i]), float(edges[j + 1])))
        i = j + 1
    return out


def hilbert_quad(values: np.ndarray, edges: np.ndarray, x: float) -> tuple[float, float]:
    """(p.v. ∫ f(y)/(x - y) dy, error scale) for a step function, by QAWC.

    The scale sums |v| (1 + |log|x - a|| + |log|x - b||) over the runs: the size
    of the logarithms that cancel when x sits at the middle of a run.
    """
    integrate, _, _ = _scipy()
    total, scale = 0.0, 0.0
    for v, a, b in runs(values, edges):
        val, _ = integrate.quad(lambda y: 1.0, a, b, weight="cauchy", wvar=x, epsabs=1e-13, epsrel=1e-11)
        total -= v * val
        scale += abs(v) * (1.0 + abs(math.log(abs(x - a))) + abs(math.log(abs(x - b))))
    return total, scale


def riesz_quad(values: np.ndarray, edges: np.ndarray, x: float, alpha: float) -> tuple[float, float]:
    """(∫ f(y) |x - y|^(alpha-1) dy, sum of |terms|) for a step function."""
    integrate, _, _ = _scipy()
    total, scale = 0.0, 0.0
    e = alpha - 1.0
    for v, a, b in runs(values, edges):
        if a < x < b:
            left, _ = integrate.quad(lambda y: 1.0, a, x, weight="alg", wvar=(0.0, e))
            right, _ = integrate.quad(lambda y: 1.0, x, b, weight="alg", wvar=(e, 0.0))
            val = left + right
        else:
            val, _ = integrate.quad(lambda y: abs(x - y) ** e, a, b, epsabs=1e-14, epsrel=1e-11)
        total += v * val
        scale += abs(v * val)
    return total, scale


def powerlog_values(a: float, scale: float, x) -> np.ndarray:
    """w(x) = scale |x|^a on 0 < |x| <= 1 and scale outside."""
    ax = np.abs(np.asarray(x, dtype=float))
    return scale * np.where(ax <= 1.0, ax**a, 1.0)


def power_integral(e: float, c: float, lo: float, hi: float) -> float:
    """∫_lo^hi of c |x|^e (|x| <= 1) and c (|x| > 1), by quadrature."""
    integrate, _, _ = _scipy()
    total = 0.0
    for u, v in _positive_pieces(lo, hi):
        u1, v1 = min(u, 1.0), min(v, 1.0)
        if v1 > u1:
            if u1 == 0.0:
                val, _ = integrate.quad(lambda y: 1.0, 0.0, v1, weight="alg", wvar=(e, 0.0), epsrel=1e-12)
            else:
                val, _ = integrate.quad(lambda y: y**e, u1, v1, epsabs=0.0, epsrel=1e-12)
            total += c * val
        total += c * (max(v, 1.0) - max(u, 1.0))
    return total


def _positive_pieces(lo: float, hi: float):
    """[lo, hi] folded onto the positive half-line (the weights are even)."""
    if lo >= 0:
        return [(lo, hi)]
    if hi <= 0:
        return [(-hi, -lo)]
    return [(0.0, -lo), (0.0, hi)]


def powerlog_ap(a: float, c: float, p: float, lo: float, hi: float) -> float:
    """(avg w)(avg w^(1-p'))^(p-1) on [lo, hi]."""
    pp = p / (p - 1.0)
    s = 1.0 - pp
    L = hi - lo
    return power_integral(a, c, lo, hi) / L * (power_integral(a * s, c**s, lo, hi) / L) ** (p - 1.0)


def powerlog_apq(a: float, c: float, p: float, q: float, lo: float, hi: float) -> float:
    """(avg w^q)(avg w^(-p'))^(q/p') on [lo, hi]."""
    pp = p / (p - 1.0)
    L = hi - lo
    return power_integral(a * q, c**q, lo, hi) / L * (power_integral(-a * pp, c**-pp, lo, hi) / L) ** (q / pp)


def ap_anchored_floor(a: float, p: float) -> float:
    """The A_p value of |x|^a on anchored intervals [0, t], t <= 1."""
    return 1.0 / ((1.0 + a) * (1.0 - a / (p - 1.0)) ** (p - 1.0))


def _log_s_times_g(delta: float, t: float) -> float:
    """log(s G(s)) at s = e^-t, where s G(s) = s^delta log(e/s) log((2-s)/(1-s))."""
    s = math.exp(-t)
    return -delta * t + math.log1p(t) + math.log(math.log((2.0 - s) / (1.0 - s)))


def _s_times_g(delta: float, t: float) -> float:
    return math.exp(_log_s_times_g(delta, t))


def _max_s_times_g(delta: float, t_lo: float, t_hi: float) -> float:
    """max of s G(s) for t = -log s in [t_lo, t_hi]: grid scan, then a bounded refinement."""
    _, _, optimize = _scipy()
    ts = np.linspace(t_lo, t_hi, 4001)
    vals = np.array([_s_times_g(delta, t) for t in ts])
    i = int(np.argmax(vals))
    a, b = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
    res = optimize.minimize_scalar(lambda t: -_s_times_g(delta, t), bounds=(a, b), method="bounded",
                                   options={"xatol": 1e-13})
    return max(-res.fun, vals[i])


def lower_bound_suprema(delta: float, window: float = 4.0) -> tuple[float, float]:
    """(Q_window, Q_all) for the endpoint pair: the supremum of lam |{G > lam}| = s G(s)
    over lam in [lam*/window, lam* window] with lam* = e^(1/delta), and over every
    s in (0, 1/2].  G(s) = s^(delta-1) log(e/s) log((2-s)/(1-s)) is decreasing, so
    the lambda window is an interval of s between the roots of G = lam."""
    _, _, optimize = _scipy()
    lam_star = math.exp(1.0 / delta)

    def t_of(lam):  # -log s with G(s) = lam, or -log(1/2) when G(1/2) >= lam
        g = lambda t: _log_s_times_g(delta, t) + t - math.log(lam)  # log G(e^-t) - log lam
        if g(math.log(2.0)) >= 0:
            return math.log(2.0)
        return optimize.brentq(g, math.log(2.0), 200.0 / delta, xtol=1e-14)

    q_window = _max_s_times_g(delta, t_of(lam_star / window), t_of(lam_star * window))
    q_all = max(q_window, _max_s_times_g(delta, math.log(2.0), 20.0 / delta))
    return q_window, q_all


# ---------------------------------------------------------------------------
# matrix references
# ---------------------------------------------------------------------------


def spd_power(mats: np.ndarray, s: float) -> np.ndarray:
    w, v = np.linalg.eigh(mats)
    return np.einsum("...ij,...j,...kj->...ik", v, w**s, v)


def rho(field: np.ndarray, r: float, dirs: np.ndarray) -> np.ndarray:
    """(mean_x |field_x v|^r)^(1/r) per direction."""
    norms = np.linalg.norm(np.einsum("xij,nj->xni", field, dirs), axis=2)
    return np.mean(norms**r, axis=0) ** (1.0 / r)


def john_spread(W: np.ndarray, power: float, r: float, M: np.ndarray, dirs: np.ndarray) -> float:
    ratios = rho(spd_power(W, power), r, dirs) / np.linalg.norm(dirs @ M.T, axis=1)
    return float(ratios.max() / ratios.min())


def matrix_ap_sup(W: np.ndarray, p: float) -> float:
    """sup of avg_x (avg_y ||W^(1/p)(x) W^(-1/p)(y)||^p')^(p/p') over the aligned
    cubes: the two half-domain roots and all their dyadic descendants."""
    pp = p / (p - 1.0)
    A = spd_power(W, 1.0 / p)
    B = spd_power(W, -1.0 / p)
    P = np.linalg.norm(np.einsum("xij,yjk->xyik", A, B), ord=2, axis=(2, 3)) ** pp
    n = len(W)
    best = -np.inf
    size = n // 2
    while size >= 1:
        for s in range(0, n, size):
            blk = P[s : s + size, s : s + size]
            best = max(best, float(np.mean(np.mean(blk, axis=1) ** (p / pp))))
        size //= 2
    return best


def dominating_sparse_p2(W: np.ndarray, f: np.ndarray, fam: dict, radius: float, level: int) -> np.ndarray:
    """sum_Q ||W^(1/2)(x) sqrtm(avg_Q W)^(-1)|| (avg_Q f^2)^(1/2) chi_Q(x)."""
    _, linalg, _ = _scipy()
    R = Fraction(radius)
    h = R / 2**level
    A = spd_power(W, 0.5)
    out = np.zeros(len(f))
    for lo, hi in fam["cubes"]:
        c_lo, c_hi = cube_cells((lo, hi), R, h)
        a, b = int(c_lo), int(c_hi)
        red_inv = np.linalg.inv(np.real(linalg.sqrtm(W[a:b].mean(axis=0))))
        coeff = np.linalg.norm(np.einsum("xij,jk->xik", A[a:b], red_inv), ord=2, axis=(1, 2))
        out[a:b] += coeff * math.sqrt(float(np.mean(f[a:b] ** 2)))
    return out
