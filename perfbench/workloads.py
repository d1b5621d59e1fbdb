"""The three workloads: seeded trial inputs, the program calls each trial
makes, the plain records the checks read, and the checks themselves.

A trial kind has four parts:

* ``make(rng, param)`` builds the trial's inputs from its own random stream;
* ``run(inp, ctx)`` is the timed part: weaklab calls only, each looked up
  through its module at call time so the traced run's wrappers see it;
* ``extract(inp, out)`` turns the outputs into plain data (untimed);
* ``checks``: ``(name, check, corrupt)`` triples.  ``check(inp, rec)``
  returns failure messages; ``corrupt(inp, rec)`` damages a record so the
  self-test can show that the check reports it.

A round is one trial of each (kind, parameter) pair of a workload.  Runs are
whole rounds, so every run does the same mix of work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import checks as C
from weaklab import grid, lowerbound, matrix, operators, sparse, weaktype, weights
from weaklab.grid import DyadicGrid, Mesh, MeshFunction

P = 2.0


def step_values(rng, n, i0=0, i1=None, max_blocks=6, lo=0.0, hi=1.0) -> np.ndarray:
    """Nonnegative step function: up to ``max_blocks`` constant blocks in [i0, i1)."""
    i1 = n if i1 is None else i1
    vals = np.zeros(n)
    for _ in range(int(rng.integers(1, max_blocks + 1))):
        a = int(rng.integers(i0, i1))
        b = int(rng.integers(a + 1, min(a + max(2, (i1 - i0) // 2), i1) + 1))
        vals[a:b] = rng.uniform(lo, hi)
    if not vals.any():
        vals[i0] = rng.uniform(max(lo, 0.1), hi)
    return vals


def family_record(fam) -> dict:
    return {
        "shift": fam.grid.shift_index,
        "cubes": [(c.left, c.right) for c in fam.cubes],
        "designated": [np.asarray(e, dtype=np.int64).copy() for e in fam.designated],
    }


def mesh_edges(radius: float, level: int) -> np.ndarray:
    n = 2 ** (level + 1)
    return -radius + np.arange(n + 1) * (radius / 2**level)


def mesh_centres(radius: float, level: int) -> np.ndarray:
    e = mesh_edges(radius, level)
    return 0.5 * (e[:-1] + e[1:])


def fail_if(cond: bool, msg: str) -> list[str]:
    return [msg] if cond else []


@dataclass(frozen=True)
class Kind:
    name: str
    make: Callable
    run: Callable
    extract: Callable
    checks: tuple


# ---------------------------------------------------------------------------
# sparse-suite: standard-grid trials
# ---------------------------------------------------------------------------

STD_RADIUS = 1.0


def std_make(rng, level):
    vals = step_values(rng, 2 ** (level + 1))
    height = float(rng.uniform(0.25, 2.0) * max(vals.mean(), 1e-3))
    return {"level": level, "f": vals, "height": height}


def std_run(inp, ctx):
    mesh = Mesh(STD_RADIUS, inp["level"])
    f = MeshFunction(mesh, inp["f"])
    dec = sparse.cz_decompose(f, inp["height"])
    fam = sparse.build_sparse_family(f)
    issues = fam.verify()
    md = operators.dyadic_maximal(f, max_level=mesh.aligned_cell_level())
    a_s = fam.apply(f)
    return dec, fam, issues, md, a_s


def std_extract(inp, out):
    dec, fam, issues, md, a_s = out
    R, L = Fraction(STD_RADIUS), inp["level"]
    h = R / 2**L
    blocks = []
    for c in dec.cubes:
        lo, hi = C.cube_cells((c.left, c.right), R, h)
        blocks.append((int(lo), int(hi - lo)) if lo.denominator == hi.denominator == 1 else (-1, -1))
    return {
        "cz_blocks": sorted(blocks),
        "good": dec.good.values.copy(),
        "bad": dec.bad.values.copy(),
        "omega": np.asarray(dec.omega_cells, dtype=np.int64).copy(),
        "family": family_record(fam),
        "verify": list(issues),
        "md": md.values.copy(),
        "as": a_s.values.copy(),
    }


def chk_cz_blocks(inp, rec):
    ref = C.cz_blocks(inp["f"], inp["height"])
    return fail_if(rec["cz_blocks"] != ref, f"CZ stopping cubes {rec['cz_blocks'][:4]}... != block-mean reference {ref[:4]}...")


def chk_cz_identity(inp, rec):
    f, good, bad = inp["f"], rec["good"], rec["bad"]
    out = fail_if(not C.close(good + bad, f, 0.0, 1e-12), "good + bad != f")
    covered = np.zeros(len(f), dtype=bool)
    for start, size in rec["cz_blocks"]:
        if start < 0:
            return out + ["a CZ cube is not cell-aligned"]
        cells = slice(start, start + size)
        covered[cells] = True
        if abs(bad[cells].sum()) > 1e-12 * (1.0 + f[cells].sum()):
            out.append(f"bad has mean {bad[cells].mean():.3g} != 0 on cells [{start}, {start + size})")
            break
    if not np.array_equal(good[~covered], f[~covered]):
        out.append("good != f off the stopping cubes")
    return out


def chk_cz_omega(inp, rec):
    f, L = inp["f"], inp["level"]
    h = STD_RADIUS / 2**L
    covered = np.zeros(len(f), dtype=bool)
    for start, size in rec["cz_blocks"]:
        covered[max(start, 0) : max(start, 0) + size] = True
    out = fail_if(
        len(rec["omega"]) * h > f.sum() * h / inp["height"] * (1 + 1e-12),
        f"|Omega| = {len(rec['omega']) * h:.6g} > ||f||_1/height = {f.sum() * h / inp['height']:.6g}",
    )
    return out + fail_if(not np.array_equal(np.sort(rec["omega"]), np.nonzero(covered)[0]), "Omega != union of the stopping cubes")


def chk_std_family(inp, rec):
    return C.family_issues(rec["family"], STD_RADIUS, inp["level"])


def chk_verify(inp, rec):
    return [f"verify(): {m}" for m in rec["verify"][:3]]


def chk_dyadic_maximal(inp, rec):
    ref = C.block_maximal(inp["f"])
    return fail_if(not C.close(rec["md"], ref, 1e-12), "dyadic_maximal != block maxima")


def chk_sparse_apply(inp, rec):
    ref = C.aligned_sparse_apply(inp["f"], rec["family"], STD_RADIUS, inp["level"])
    return fail_if(not C.close(rec["as"], ref, 1e-12, 1e-15), "A_S f != sum of block averages over the family")


def chk_std_domination(inp, rec):
    md = C.block_maximal(inp["f"])
    covered = rec["as"] > 0
    bad = md[covered] > 4.0 * rec["as"][covered] * (1 + 1e-12) + 1e-12
    return fail_if(bool(np.any(bad)), f"M^d f > 4 A_S f on {int(bad.sum())} covered cells")


def _cor_drop_block(inp, rec):
    rec["cz_blocks"] = rec["cz_blocks"][1:] if rec["cz_blocks"] else [(0, 1)]


def _cor_bad(inp, rec):
    rec["bad"][int(np.argmax(inp["f"]))] += 0.5


def _cor_omega(inp, rec):
    rec["omega"] = np.arange(len(inp["f"]))


def _cor_family(inp, rec):
    rec["family"]["designated"][0] = rec["family"]["designated"][0][: len(rec["family"]["designated"][0]) // 3]


def _cor_verify(inp, rec):
    rec["verify"] = ["injected issue"]


def _cor_md(inp, rec):
    rec["md"][int(np.argmax(rec["md"]))] *= 0.9


def _cor_as_bump(inp, rec):
    rec["as"][int(np.argmax(rec["as"]))] *= 1.1


def _cor_as_small(inp, rec):
    rec["as"] *= 0.1


STD = Kind(
    "std",
    std_make,
    std_run,
    std_extract,
    (
        ("cz_blocks", chk_cz_blocks, _cor_drop_block),
        ("cz_identity", chk_cz_identity, _cor_bad),
        ("cz_omega", chk_cz_omega, _cor_omega),
        ("family_sparse", chk_std_family, _cor_family),
        ("verify_clean", chk_verify, _cor_verify),
        ("dyadic_maximal", chk_dyadic_maximal, _cor_md),
        ("sparse_apply", chk_sparse_apply, _cor_as_bump),
        ("maximal_domination", chk_std_domination, _cor_as_small),
    ),
)


# ---------------------------------------------------------------------------
# sparse-suite: H-domination by three shifted families
# ---------------------------------------------------------------------------

HD_RADIUS, HD_LEVEL = 4.0, 8  # the data mesh: 512 cells on [-4, 4)
HD_BIG_RADIUS, HD_BIG_LEVEL = 16.0, 10  # embedded: 2048 cells on [-16, 16)
HD_SPAN = (-4.0, 4.0)
HD_CONSTANT = 50.0
HD_SAMPLES = 6


def hd_make(rng, _param):
    n = 2 ** (HD_LEVEL + 1)
    vals = step_values(rng, n, n // 4, 3 * n // 4, lo=0.25, hi=1.0)  # support in [-2, 2)
    big_n = 2 ** (HD_BIG_LEVEL + 1)
    off = (big_n - n) // 2
    samples = np.sort(rng.choice(np.arange(off, off + n), HD_SAMPLES, replace=False))
    return {"f": vals, "samples": samples}


def hd_run(inp, ctx):
    f = MeshFunction(Mesh(HD_RADIUS, HD_LEVEL), inp["f"])
    fb = f.embedded(HD_BIG_RADIUS)
    big = fb.mesh
    mag = fb.magnitude()
    total = np.zeros(big.n_cells)
    fams, issues = [], []
    for g in grid.shifted_grids(1):
        roots = sparse.covering_roots(big, g, HD_SPAN)
        fam = sparse.build_sparse_family(mag, grid=g, roots=roots)
        issues.append(fam.verify())
        total += fam.apply(mag).values
        fams.append(fam)
    hf = operators.hilbert_to_mesh(fb)
    return fams, issues, total, hf


def hd_extract(inp, out):
    fams, issues, total, hf = out
    return {
        "families": [family_record(fam) for fam in fams],
        "verify": [f"grid {fam.grid.shift_index}: {m}" for fam, found in zip(fams, issues) for m in found],
        "total": total.copy(),
        "hf": hf.values.copy(),
    }


def _hd_big_values(inp):
    big_n = 2 ** (HD_BIG_LEVEL + 1)
    n = len(inp["f"])
    vals = np.zeros(big_n)
    vals[(big_n - n) // 2 : (big_n + n) // 2] = inp["f"]
    return vals


def chk_hd_families(inp, rec):
    out = []
    for fam in rec["families"]:
        min_cells = 1 if fam["shift"] == 0 else 32
        out += [f"grid {fam['shift']}: {m}" for m in C.family_issues(fam, HD_BIG_RADIUS, HD_BIG_LEVEL, min_cells)]
    return out + fail_if(sorted(f["shift"] for f in rec["families"]) != [0, 1, 2], "not one family per shifted grid")


def _hd_window():
    c = mesh_centres(HD_BIG_RADIUS, HD_BIG_LEVEL)
    return (c >= HD_SPAN[0]) & (c < HD_SPAN[1])


def chk_hd_domination(inp, rec):
    sel = _hd_window()
    bad = np.abs(rec["hf"][sel]) > HD_CONSTANT * rec["total"][sel]
    return fail_if(bool(np.any(bad)), f"|Hf| > {HD_CONSTANT:g} sum_j A_Sj|f| on {int(bad.sum())} cells")


def chk_hd_quadrature(inp, rec):
    vals = _hd_big_values(inp)
    edges = mesh_edges(HD_BIG_RADIUS, HD_BIG_LEVEL)
    centres = mesh_centres(HD_BIG_RADIUS, HD_BIG_LEVEL)
    out = []
    for i in inp["samples"]:
        ref, scale = C.hilbert_quad(vals, edges, float(centres[i]))
        if abs(rec["hf"][i] - ref) > 1e-8 * (scale + 1e-300):
            out.append(f"Hf({centres[i]:.6g}) = {rec['hf'][i]:.12g} != quadrature {ref:.12g}")
    return out


def _cor_hd_family(inp, rec):
    d = rec["families"][1]["designated"]
    d[0] = np.concatenate([d[0], d[0][:1]])  # a cell designated twice


def _cor_hd_total(inp, rec):
    rec["hf"] *= 100.0


def _cor_hd_hf(inp, rec):
    i = inp["samples"][0]
    rec["hf"][i] += 1e-3 * (abs(rec["hf"][i]) + 1.0)


HDOM = Kind(
    "hdom",
    hd_make,
    hd_run,
    hd_extract,
    (
        ("family_sparse", chk_hd_families, _cor_hd_family),
        ("verify_clean", chk_verify, _cor_verify),
        ("h_domination", chk_hd_domination, _cor_hd_total),
        ("h_quadrature", chk_hd_quadrature, _cor_hd_hf),
    ),
)


# ---------------------------------------------------------------------------
# weak-type: A_p and A_(p,q) trials over closed-form weights
# ---------------------------------------------------------------------------

WT_RADIUS, WT_LEVEL = 4.0, 8  # 512 cells on [-4, 4)
WT_FUNCTIONS = 2  # step functions per weight
WT_SAMPLES = 2  # quadrature-checked centres per H or I_alpha output
ALPHA, Q_FRAC = 0.25, 4.0  # 1/p - 1/q = alpha at p = 2


def wt_make(rng, a):
    n = 2 ** (WT_LEVEL + 1)
    return {
        "a": a,
        "scale": float(rng.uniform(0.5, 2.0)),
        "fs": [step_values(rng, n) for _ in range(WT_FUNCTIONS)],
        "samples": [np.sort(rng.choice(n, WT_SAMPLES, replace=False)) for _ in range(WT_FUNCTIONS)],
    }


def _quotient_rec(op, out, f, q):
    h = WT_RADIUS / 2**WT_LEVEL
    return {"op": op, "out": np.abs(out.values).copy(), "h": h, "q": q, "f_norm": C.lp_norm(f, h, P)}


def ap_run(inp, ctx):
    mesh = Mesh(WT_RADIUS, WT_LEVEL)
    w = weights.PowerLogWeight(inp["a"], 0.0, inp["scale"])
    ap = weights.ap_characteristic(w, P, ctx["search"])
    ainf = weights.ainfty_characteristic(w, mesh=mesh)
    outs = []
    for vals in inp["fs"]:
        f = MeshFunction(mesh, vals)
        f_norm = f.lp_norm(P)
        o_m = operators.multiplier_apply("M", w, P, f)
        o_h = operators.multiplier_apply("H", w, P, f)
        wv = np.asarray(w(mesh.centers()))
        fam = sparse.build_sparse_family(MeshFunction(mesh, np.abs(vals) * wv ** (-1.0 / P)))
        o_a = operators.multiplier_apply("AS", w, P, f, family=fam)
        qs = [weaktype.quotient_from_output(o.magnitude(), f_norm, P, operator=t) for t, o in (("M", o_m), ("H", o_h), ("AS", o_a))]
        outs.append((o_m, o_h, o_a, qs))
    return ap, ainf, outs


def ap_extract(inp, out):
    ap, ainf, outs = out
    rec = {"char": ap.value, "witness": tuple(ap.witness), "ainf": ainf.value, "quotients": [], "m": [], "h": []}
    for vals, (o_m, o_h, o_a, qs) in zip(inp["fs"], outs):
        for o, qq in zip((o_m, o_h, o_a), qs):
            rec["quotients"].append(dict(_quotient_rec(qq.operator, o, vals, P), quotient=qq.quotient))
        rec["m"].append(o_m.values.copy())
        rec["h"].append(o_h.values.copy())
    return rec


def chk_ap_witness(inp, rec):
    lo, hi = rec["witness"]
    ref = C.powerlog_ap(inp["a"], inp["scale"], P, lo, hi)
    return fail_if(not C.close(rec["char"], ref, 1e-7), f"A_p {rec['char']:.12g} != quadrature {ref:.12g} on [{lo:.6g}, {hi:.6g}]")


def chk_ap_floor(inp, rec):
    floor = C.ap_anchored_floor(inp["a"], P)
    return fail_if(rec["char"] < floor * (1 - 1e-9), f"A_p {rec['char']:.12g} < anchored value {floor:.12g}")


def chk_ainf(inp, rec):
    v = rec["ainf"]
    if inp["a"] == 0.0:
        return fail_if(abs(v - 1.0) > 1e-12, f"A_inf of a constant weight is {v!r}, not 1")
    return fail_if(v < 1.0 - 1e-12, f"A_inf {v:.12g} < 1")


def chk_quotients(inp, rec):
    return [m for q in rec["quotients"] for m in C.quotient_issues(q)]


def chk_m_above_f(inp, rec):
    out = []
    for vals, m in zip(inp["fs"], rec["m"]):
        if np.any(m < np.abs(vals) * (1 - 1e-12)):
            out.append("w^(1/p) M(f w^(-1/p)) < |f| on some cell")
    return out


def _weighted_inner(inp, vals, power):
    c = mesh_centres(WT_RADIUS, WT_LEVEL)
    return vals * C.powerlog_values(inp["a"], inp["scale"], c) ** (-power)


def chk_h_quadrature(inp, rec):
    edges = mesh_edges(WT_RADIUS, WT_LEVEL)
    c = mesh_centres(WT_RADIUS, WT_LEVEL)
    out = []
    for vals, hv, samples in zip(inp["fs"], rec["h"], inp["samples"]):
        g = _weighted_inner(inp, vals, 1.0 / P)
        for i in samples:
            x = float(c[i])
            ref, scale = C.hilbert_quad(g, edges, x)
            wx = float(C.powerlog_values(inp["a"], inp["scale"], x)) ** (1.0 / P)
            if abs(hv[i] - wx * ref) > 1e-8 * wx * (scale + 1e-300):
                out.append(f"multiplier H at {x:.6g}: {hv[i]:.12g} != quadrature {wx * ref:.12g}")
    return out


def _cor_char(inp, rec):
    rec["char"] *= 1.01


def _cor_char_floor(inp, rec):
    rec["char"] = 0.5 * C.ap_anchored_floor(inp["a"], P)


def _cor_ainf(inp, rec):
    rec["ainf"] = 1.0 + 1e-6 if inp["a"] == 0.0 else 0.99


def _cor_quotient(inp, rec):
    rec["quotients"][-1]["quotient"] *= 1.001


def _cor_m(inp, rec):
    rec["m"][0] = np.zeros_like(rec["m"][0])


def _cor_h(inp, rec):
    i = inp["samples"][0][0]
    rec["h"][0][i] += 1e-3 * (abs(rec["h"][0][i]) + 1.0)


AP = Kind(
    "ap",
    wt_make,
    ap_run,
    ap_extract,
    (
        ("ap_witness", chk_ap_witness, _cor_char),
        ("ap_anchored_floor", chk_ap_floor, _cor_char_floor),
        ("ainf", chk_ainf, _cor_ainf),
        ("weak_quotients", chk_quotients, _cor_quotient),
        ("maximal_above_f", chk_m_above_f, _cor_m),
        ("h_quadrature", chk_h_quadrature, _cor_h),
    ),
)


def apq_run(inp, ctx):
    mesh = Mesh(WT_RADIUS, WT_LEVEL)
    w = weights.PowerLogWeight(inp["a"], 0.0, inp["scale"])
    apq = weights.apq_characteristic(w, P, Q_FRAC, ctx["search"])
    ainf = weights.ainfty_characteristic(w.power(Q_FRAC), mesh=mesh)
    outs = []
    for vals in inp["fs"]:
        f = MeshFunction(mesh, vals)
        f_norm = f.lp_norm(P)
        o_i = operators.multiplier_apply("Ialpha", w, P, f, alpha=ALPHA, weight_power=1.0)
        wv = np.asarray(w(mesh.centers()))
        fam = sparse.build_sparse_family(MeshFunction(mesh, np.abs(vals) / wv))
        o_a = operators.multiplier_apply("ASalpha", w, P, f, family=fam, alpha=ALPHA, weight_power=1.0)
        qs = [weaktype.quotient_from_output(o.magnitude(), f_norm, P, Q_FRAC, operator=t) for t, o in (("Ialpha", o_i), ("ASalpha", o_a))]
        outs.append((o_i, o_a, qs))
    return apq, ainf, outs


def apq_extract(inp, out):
    apq, ainf, outs = out
    rec = {"char": apq.value, "witness": tuple(apq.witness), "ainf": ainf.value, "quotients": [], "i": []}
    for vals, (o_i, o_a, qs) in zip(inp["fs"], outs):
        for o, qq in zip((o_i, o_a), qs):
            rec["quotients"].append(dict(_quotient_rec(qq.operator, o, vals, Q_FRAC), quotient=qq.quotient))
        rec["i"].append(o_i.values.copy())
    return rec


def chk_apq_witness(inp, rec):
    lo, hi = rec["witness"]
    ref = C.powerlog_apq(inp["a"], inp["scale"], P, Q_FRAC, lo, hi)
    return fail_if(not C.close(rec["char"], ref, 1e-7), f"A_(p,q) {rec['char']:.12g} != quadrature {ref:.12g} on [{lo:.6g}, {hi:.6g}]")


def chk_ialpha_quadrature(inp, rec):
    edges = mesh_edges(WT_RADIUS, WT_LEVEL)
    c = mesh_centres(WT_RADIUS, WT_LEVEL)
    out = []
    for vals, iv, samples in zip(inp["fs"], rec["i"], inp["samples"]):
        g = _weighted_inner(inp, vals, 1.0)
        for i in samples:
            x = float(c[i])
            ref, scale = C.riesz_quad(g, edges, x, ALPHA)
            wx = float(C.powerlog_values(inp["a"], inp["scale"], x))
            if abs(iv[i] - wx * ref) > 1e-8 * wx * (scale + 1e-300):
                out.append(f"multiplier I_alpha at {x:.6g}: {iv[i]:.12g} != quadrature {wx * ref:.12g}")
    return out


def _cor_i(inp, rec):
    i = inp["samples"][0][0]
    rec["i"][0][i] *= 1.001


APQ = Kind(
    "apq",
    wt_make,
    apq_run,
    apq_extract,
    (
        ("apq_witness", chk_apq_witness, _cor_char),
        ("ainf", chk_ainf, _cor_ainf),
        ("weak_quotients", chk_quotients, _cor_quotient),
        ("ialpha_quadrature", chk_ialpha_quadrature, _cor_i),
    ),
)


# ---------------------------------------------------------------------------
# weak-type: endpoint lower-bound trials
# ---------------------------------------------------------------------------

LB_JITTER = 0.02  # each trial's delta is base * (1 + u), |u| <= 2%, so no delta repeats


def lb_make(rng, base):
    return {"delta": float(base * (1.0 + rng.uniform(-LB_JITTER, LB_JITTER)))}


def lb_run(inp, ctx):
    return lowerbound.lower_bound_experiment(inp["delta"])


def lb_extract(inp, rep):
    return {"quotient": rep.quotient}


def chk_lb(inp, rec):
    q_window, q_all = C.lower_bound_suprema(inp["delta"])
    q = rec["quotient"]
    return fail_if(
        not (0.98 * q_window <= q <= q_window * (1 + 1e-9) and q <= q_all * (1 + 1e-9)),
        f"delta={inp['delta']:.6g}: quotient {q:.10g} outside [0.98 Q, Q] for the sup Q = {q_window:.10g} "
        f"over the lambda window (sup over (0, 1/2]: {q_all:.10g})",
    )


def _cor_lb(inp, rec):
    rec["quotient"] *= 1.05


LB = Kind("lb", lb_make, lb_run, lb_extract, (("lower_bound_window", chk_lb, _cor_lb),))


# ---------------------------------------------------------------------------
# matrix-suite
# ---------------------------------------------------------------------------

MX_RADIUS, MX_LEVEL, MX_D = 1.0, 6, 2  # 128 cells of 2x2 SPD matrices
MX_FIT_P = 3.0  # ellipsoid fits
MX_DIRECTIONS = 3  # scalar restrictions per trial
MX_AINF_DIRECTIONS = 16
JOHN_SLACK = 1.01


def mx_make(rng, _param):
    n = 2 ** (MX_LEVEL + 1)
    theta = rng.uniform(0.0, np.pi, MX_DIRECTIONS)
    fresh = rng.uniform(0.0, np.pi, 64)
    return {
        "weight_seed": int(rng.integers(2**63)),
        "dirs": np.stack([np.cos(theta), np.sin(theta)], axis=1),
        "john_dirs": np.stack([np.cos(fresh), np.sin(fresh)], axis=1),
        "fvec": rng.uniform(-1.0, 1.0, (n, MX_D)),
        "fscalar": step_values(rng, n),
    }


def mx_run(inp, ctx):
    mesh = Mesh(MX_RADIUS, MX_LEVEL)
    W = matrix.random_matrix_weight(mesh, MX_D, np.random.default_rng(inp["weight_seed"]))
    cube = DyadicGrid().cube(mesh.aligned_cell_level() - mesh.level, 0)  # [0, 1)
    red2 = matrix.reducing_matrix(W, cube, 2.0)
    red3 = matrix.reducing_matrix(W, cube, MX_FIT_P)
    dual3 = matrix.dual_reducing_matrix(W, cube, MX_FIT_P)
    char = matrix.matrix_ap_characteristic(W, P)
    sc = [matrix.scalar_restriction_characteristic(W, P, v).value for v in inp["dirs"]]
    fv = MeshFunction(mesh, inp["fvec"])
    mw = matrix.christ_goldberg_maximal(W, P, fv)
    qw = weaktype.quotient_from_output(mw.magnitude(), fv.lp_norm(P), P, operator="M_W")
    ident = matrix.MatrixWeight(mesh, np.tile(np.eye(MX_D), (mesh.n_cells, 1, 1)))
    mi = matrix.christ_goldberg_maximal(ident, P, fv)
    ainf_sc, _ = matrix.ainfty_scalar_characteristic(W, P, n_dirs=MX_AINF_DIRECTIONS)
    fs = MeshFunction(mesh, inp["fscalar"])
    fam = sparse.build_sparse_family(fs)
    dom = matrix.dominating_scalar_sparse(W, P, fam, fs)
    return W, red2, red3, dual3, char, sc, mw, qw, mi, ainf_sc, fam, dom


def mx_extract(inp, out):
    W, red2, red3, dual3, char, sc, mw, qw, mi, ainf_sc, fam, dom = out
    h = MX_RADIUS / 2**MX_LEVEL
    return {
        "W": W.values.copy(),
        "red2": red2.matrix.copy(),
        "red3": red3.matrix.copy(),
        "dual3": dual3.matrix.copy(),
        "char": char.value,
        "sc": list(sc),
        "mw": mw.values.copy(),
        "quotient": {"op": "M_W", "out": np.abs(mw.values).copy(), "h": h, "q": P,
                     "f_norm": C.lp_norm(inp["fvec"], h, P), "quotient": qw.quotient},
        "mi": mi.values.copy(),
        "ainf_sc": float(ainf_sc),
        "family": family_record(fam),
        "dom": dom.values.copy(),
    }


_ROOT = slice(64, 128)  # cells of the cube [0, 1)


def chk_p2_sqrtm(inp, rec):
    _, linalg, _ = C._scipy()
    ref = np.real(linalg.sqrtm(rec["W"][_ROOT].mean(axis=0)))
    return fail_if(not C.close(rec["red2"], ref, 1e-10, 1e-13), "p = 2 reducing matrix != sqrtm(avg_Q W)")


def chk_p3_john(inp, rec):
    out = []
    for label, M, power, r in (("W", rec["red3"], 1.0 / MX_FIT_P, MX_FIT_P),
                               ("dual", rec["dual3"], -1.0 / MX_FIT_P, MX_FIT_P / (MX_FIT_P - 1.0))):
        spread = C.john_spread(rec["W"][_ROOT], power, r, M, inp["john_dirs"])
        if spread > math.sqrt(MX_D) * JOHN_SLACK:
            out.append(f"p = 3 {label} fit: rho(v)/|Mv| spreads by {spread:.4f} > sqrt(d) * {JOHN_SLACK}")
    return out


def chk_matrix_ap(inp, rec):
    ref = C.matrix_ap_sup(rec["W"], P)
    return fail_if(not C.close(rec["char"], ref, 1e-9), f"[W]_A2 {rec['char']:.12g} != recomputed sup {ref:.12g}")


def chk_scalar_restriction(inp, rec):
    bad = [v for v in rec["sc"] if v > rec["char"] * (1 + 1e-9)]
    return fail_if(bool(bad), f"[w_v]_A2 {bad[:1]} > [W]_A2 {rec['char']:.12g}")


def chk_cg_above_f(inp, rec):
    mag = np.linalg.norm(inp["fvec"], axis=1)
    return fail_if(bool(np.any(rec["mw"] < mag * (1 - 1e-12))), "M_W f < |f| on some cell")


def chk_cg_identity(inp, rec):
    ref = C.shifted_maximal(np.linalg.norm(inp["fvec"], axis=1), MX_RADIUS, MX_LEVEL)
    return fail_if(not C.close(rec["mi"], ref, 1e-12), "M_I f != shifted-grid maximal function of |f|")


def chk_cg_quotient(inp, rec):
    return C.quotient_issues(rec["quotient"])


def chk_ainf_sc(inp, rec):
    return fail_if(rec["ainf_sc"] < 1.0 - 1e-12, f"A_inf^sc = {rec['ainf_sc']:.12g} < 1")


def chk_dominating(inp, rec):
    ref = C.dominating_sparse_p2(rec["W"], inp["fscalar"], rec["family"], MX_RADIUS, MX_LEVEL)
    return fail_if(not C.close(rec["dom"], ref, 1e-9, 1e-14), "dominating sparse operator != reducing-matrix sum")


def _cor_red2(inp, rec):
    rec["red2"] = rec["red2"] + 1e-3 * np.eye(MX_D)


def _cor_red3(inp, rec):
    rec["red3"] = rec["red3"] @ np.diag([2.0, 1.0])


def _cor_mchar(inp, rec):
    rec["char"] *= 1.01


def _cor_sc(inp, rec):
    rec["sc"][0] = rec["char"] * 1.1


def _cor_mw(inp, rec):
    rec["mw"] = np.zeros_like(rec["mw"])


def _cor_mi(inp, rec):
    rec["mi"] = rec["mi"] * 1.01


def _cor_mq(inp, rec):
    rec["quotient"]["quotient"] *= 1.001


def _cor_ainf_sc(inp, rec):
    rec["ainf_sc"] = 0.9


def _cor_dom(inp, rec):
    rec["dom"] = rec["dom"] * 1.01


MX = Kind(
    "matrix",
    mx_make,
    mx_run,
    mx_extract,
    (
        ("p2_sqrtm", chk_p2_sqrtm, _cor_red2),
        ("p3_john", chk_p3_john, _cor_red3),
        ("matrix_ap_sup", chk_matrix_ap, _cor_mchar),
        ("scalar_restriction", chk_scalar_restriction, _cor_sc),
        ("cg_above_f", chk_cg_above_f, _cor_mw),
        ("cg_identity", chk_cg_identity, _cor_mi),
        ("weak_quotients", chk_cg_quotient, _cor_mq),
        ("ainf_sc", chk_ainf_sc, _cor_ainf_sc),
        ("dominating_sparse", chk_dominating, _cor_dom),
    ),
)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    round: tuple  # (Kind, parameter) pairs, one trial each per round
    round_seconds: float  # nominal time of one round on the reference host
    context: Callable = dict  # shared per-process state, built during set-up


def weak_type_context():
    """Shared per-process state: one search space for every weight, as in criterion 7."""
    return {"search": weights.SearchSpace.default()}


WORKLOADS = {
    w.name: w
    for w in (
        # the stopping-time layers (sparse over grid's Fraction geometry) do
        # nearly all the work; weights and matrix do none
        Workload("sparse-suite", ((HDOM, None), (STD, 9), (STD, 7)), 0.62),
        # weights and operators do most of the work, many weights share one
        # search space; sparse does a little (AS), matrix none
        Workload(
            "weak-type",
            tuple((AP, a) for a in (-0.5, 0.0, 0.5))
            + tuple((APQ, a) for a in (-0.2, 0.0, 0.2))
            + tuple((LB, d) for d in (0.05, 0.1, 0.2)),
            2.8,
            weak_type_context,
        ),
        # reducing matrices and ellipsoid fits dominate; sparse and grid do little
        Workload("matrix-suite", ((MX, None),), 0.42),
    )
}
