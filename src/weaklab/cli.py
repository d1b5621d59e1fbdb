"""Experiment runner.

Subcommands (one per acceptance cluster):

  characteristic   weight characteristics with witness cubes (one-row CSV)
  weaktype         weak-type quotients and empirical constants over seeded
                   step-function families (CSV sweep)
  lowerbound       endpoint lower-bound delta sweep (CSV + slope)
  sparse-check     Calderon-Zygmund / sparse-family invariant suite
  matrix-check     matrix-weight invariant suite
  constants        proof-exponent bookkeeping table over |x|^-a weights

Conventions: a subcommand takes only the flags it reads (argparse refuses
any other by name, exit 2, from a config key too), so the single integer
--seed that drives all randomness is a flag of weaktype, sparse-check and
matrix-check alone; outputs are written atomically (temp file + rename)
with floats at 12 significant digits, so identical configurations
reproduce byte-identical files, with the mode a plain ``open`` gives (0666
less the umask).  A
``key = value`` config file supplies defaults; command-line flags override.

Exit codes: 0 success; 1 invariant-suite violation; 2 an ``--alpha`` not
below 1/p or malformed input (the parser refuses, before anything runs and
naming the flag, non-finite numbers and weight-descriptor parameters, a
``--trials`` or ``--cells-per-band`` below 1, a ``--radius`` or ``--window``
that is not positive, a ``--level`` outside 0..20, a ``--seed`` that is not
a non-negative integer and an ``--x-min`` outside (0, 0.5); a
``characteristic --max-level`` below the coarsest search level of its
``--radius``, or one whose search has more than 2^22 dyadic cubes, exits
before the search runs, and so does a sampled weight whose cell scan has
more than 2^21 intervals (more than 2,047 cells in ``--radius``), naming the
cell count, the limit and ``--radius``; so do a ``characteristic --q`` or
``--s`` that its ``--kind`` does not read (only ``rh`` reads ``--s``, ``apq``
and ``a1q`` ``--q``), an unreadable weight or config file, a weight file
without its keys, ``weaktype --operator H`` with ``--alpha``, an ``--alpha``
outside (0, 1) and an unwritable ``--output``, "cannot write PATH: REASON",
which leaves no temporary file); 3 numerical failure (non-integrable weight,
degenerate data, a level-set count that disagrees with its closed-form root
or a root solve that does not converge, an ellipsoid fit that misses its
certificate, and in ``weaktype`` "the characteristic product C1 * C2^p overflows").
The defaulted ``--p``, ``--level``, ``--max-level`` and ``--radius`` go
into every ``characteristic`` row, so every kind accepts them: ``ap`` and
``apq`` read ``--p``, ``ainfty`` reads ``--level``, the other kinds
``--max-level``, and every kind ``--radius``.  A ``sampled:`` weight carries
its mesh: ``ainfty`` and the ``weaktype`` trials and ``char_ainfty`` run on
it, and its other searches read ``--radius`` alone, as the domain of their
cell scan.  ``weaktype`` cannot narrow its trials, so there a ``--radius``
below the weight's mesh radius exits 2, naming both.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import lowerbound as lb
from .grid import _SCAN_ROUTE, DyadicGrid, Mesh, MeshFunction, _fractional_exponent
from .matrix import (
    EllipsoidFitError,
    MatrixWeight,
    dual_reducing_matrix,
    matrix_ap_characteristic,
    op_norm,
    random_matrix_weight,
    reducing_matrix,
    scalar_restriction_characteristic,
)
from .operators import dyadic_maximal
from .sparse import build_sparse_family, cz_decompose
from .weaktype import proof_constants, weak_quotient
from .weights import (
    DegenerateWeightError,
    NonIntegrableError,
    PowerLogWeight,
    SampledWeight,
    SearchSpace,
    a1_characteristic,
    a1q_characteristic,
    ainfty_characteristic,
    ap_characteristic,
    apq_characteristic,
    rh_characteristic,
    sharp_rh_exponent,
)

SCHEMA_VERSION = "1"

# CSV column schemas, one per subcommand (also rendered into --help, and
# listed in docs/cli_schema.md, which tests/test_cli.py::
# test_csv_columns_are_the_schema_document_lists holds to them); the first
# header cell carries the schema version.
CSV_COLUMNS = {
    "characteristic": ["kind", "weight", "p", "q", "s", "value", "witness_lo", "witness_hi",
                       "witness_label", "min_level", "max_level", "grids"],
    "weaktype": ["trial", "quotient", "best_lambda", "char_main", "char_ainfty", "product",
                 "constant"],
    "lowerbound": ["delta", "a1_char", "sharp_rh_nu", "lambda_star", "best_lambda",
                   "quotient", "c0_lower", "ratio_to_sqrt_a1", "measure_path"],
    "sparse-check": ["trial", "height", "cz_cubes", "omega_measure", "family_size", "ok",
                     "issues"],
    "matrix-check": ["trial", "matrix_ap", "fit_lower", "fit_upper", "reducing_product",
                     "product_ratio", "scalar_restriction_ap", "ok", "issues"],
    "constants": ["a", "p", "ainfty", "nu", "r", "r_prime", "pnu_prime", "pr_prime",
                  "conjugate_ratio", "r_prime_pow_r", "nu_gap_times_ainfty"],
}


def fmt(x) -> str:
    """Fixed CSV float format: 12 significant digits."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_rows(path: str, header: list[str], rows: list[list]) -> None:
    """Atomic CSV write (temp file + rename), schema version in a comment row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"#schema=v{SCHEMA_VERSION}"] + header)
    for row in rows:
        writer.writerow([fmt(x) for x in row])
    _atomic_write(path, buf.getvalue())


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", newline="") as f:
                f.write(text)
            os.umask(umask := os.umask(0))  # read the umask (there is no getter)
            os.chmod(tmp, 0o666 & ~umask)  # the mode open() gives, not mkstemp's 0600
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise ValueError(f"cannot write {path!r}: {e.strerror or e}") from None


def _real(text: str, low: float, high: float, domain: str) -> float:
    """A float strictly between low and high, or an argparse error that names ``domain``."""
    if not low < (x := float(text)) < high:
        raise argparse.ArgumentTypeError(f"must be {domain}, got {text!r}")
    return x


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    return _real(text, -math.inf, math.inf, "finite")


def _positive_finite(text: str) -> float:
    """argparse type: a finite float above 0."""
    return _real(text, 0, math.inf, "positive and finite")


def _integer(text: str, low: int, high: float, domain: str) -> int:
    """An integer in [low, high], or an argparse error that names ``domain``."""
    try:
        n = int(text)
    except ValueError:
        n = low - 1
    if not low <= n <= high:
        raise argparse.ArgumentTypeError(f"must be {domain}, got {text!r}")
    return n


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    return _integer(text, 1, math.inf, "a positive integer")


def _seed(text: str) -> int:
    """argparse type: a seed, an integer of at least 0 (``numpy.random.default_rng``)."""
    return _integer(text, 0, math.inf, "a non-negative integer")


def _x_min(text: str) -> float:
    """argparse type: the graded mesh's x_min, in (0, x_hi) (``lowerbound.GradedMesh``)."""
    return _real(text, 0, lb.GradedMesh.x_hi, f"in (0, {lb.GradedMesh.x_hi:g}), below the graded mesh's x_hi")


def _mesh_level(text: str) -> int:
    """argparse type: a mesh level, an integer in 0..20 (``grid.Mesh``)."""
    return _integer(text, 0, 20, "a mesh level in 0..20")


def _finite_list(text: str) -> list[float]:
    return [_finite(item) for item in text.split(",")]


_PARAMS = {"powerlog": ("a", "b", "c"), "diag": ("a1", "a2", "a3"),
           "rotdiag": ("a1", "a2", "a3", "turns")}


def _params(rest: str, allowed: tuple[str, ...]) -> dict[str, float]:
    """'key=value,...' descriptor parameters as finite floats."""
    params: dict[str, float] = {}
    for key, _, val in (item.partition("=") for item in filter(None, rest.split(","))):
        if key.strip() not in allowed:
            raise argparse.ArgumentTypeError(f"unknown descriptor parameter {key!r}")
        params[key.strip()] = _finite(val)
    return params


def _descriptor(spec: str) -> str:
    """argparse type: a weight descriptor whose parameters are finite floats."""
    kind, _, rest = spec.partition(":")
    if kind in _PARAMS:
        _params(rest, _PARAMS[kind])
    return spec


def _read_text(path: str) -> str:
    """The text of ``path``; an unreadable file is malformed input."""
    try:
        with open(path) as f:
            return f.read()
    except OSError as e:
        raise ValueError(f"cannot read {path!r}: {e.strerror or e}") from None


def _read_json(path: str):
    return json.loads(_read_text(path))


def parse_weight(spec: str):
    """Weight descriptor: 'powerlog:a=-0.5[,b=0][,c=1]' or 'sampled:<json file>'."""
    kind, _, rest = spec.partition(":")
    if kind == "powerlog":
        params = {"a": 0.0, "b": 0.0, "c": 1.0, **_params(rest, _PARAMS[kind])}
        return PowerLogWeight(params["a"], params["b"], params["c"])
    if kind == "sampled":
        data = _read_json(rest)
        try:
            mesh = Mesh(float(data["mesh"]["radius"]), data["mesh"]["level"])
            values = data["values"]
        except (KeyError, TypeError):
            raise ValueError(f"{rest}: a sampled weight needs mesh.radius, mesh.level and values") from None
        return SampledWeight(mesh, np.asarray(values, dtype=float))
    raise ValueError(f"unknown weight kind {kind!r} (use powerlog: or sampled:)")


def parse_matrix_weight(spec: str, mesh: Mesh, rng: np.random.Generator, d: int):
    """Matrix-weight descriptor.

    ``random`` (seeded, d x d); ``diag:a1=-0.4,a2=0.25`` (PowerLog exponents
    on the diagonal, discretized to cell averages); ``rotdiag:a1=..,a2=..,
    turns=1`` (the same diagonal conjugated by a rotation sweeping
    ``turns`` half-revolutions across the domain, d = 2);
    ``json:<file>`` with {"matrices": [[..d x d..], ...]} per cell.
    """
    kind, _, rest = spec.partition(":")
    if kind == "random":
        return random_matrix_weight(mesh, d, rng)
    if kind in ("diag", "rotdiag"):
        if kind == "rotdiag" and d != 2:
            raise ValueError("rotdiag descriptors are two-dimensional")
        params = _params(rest, _PARAMS[kind])
        for i, name in enumerate(("a1", "a2", "a3")):  # one exponent per diagonal entry
            if (name in params) != (i < d):
                raise ValueError(f"--d {d} {'needs' if i < d else 'does not read'} the {kind} parameter {name}")
        cols = [PowerLogWeight(params[f"a{i + 1}"]).cell_averages(mesh) for i in range(d)]
        n = mesh.n_cells
        mats = np.zeros((n, d, d))
        for i, cv in enumerate(cols):
            mats[:, i, i] = cv
        if kind == "rotdiag":
            turns = params.get("turns", 1.0)
            theta = np.pi * turns * (np.arange(n) + 0.5) / n
            c, s = np.cos(theta), np.sin(theta)
            R = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
            mats = np.einsum("xij,xjk,xlk->xil", R, mats, R)
            mats = 0.5 * (mats + np.swapaxes(mats, 1, 2))
        return MatrixWeight(mesh, mats)
    if kind == "json":
        data = _read_json(rest)
        try:
            matrices = data["matrices"]
        except (KeyError, TypeError):
            raise ValueError(f"{rest}: a json matrix weight needs matrices") from None
        return MatrixWeight(mesh, np.asarray(matrices, dtype=float))
    raise ValueError(f"unknown matrix weight kind {kind!r}")


def random_step(mesh: Mesh, rng: np.random.Generator, max_blocks: int = 6,
                lo: float = 0.0, hi: float = 1.0, span: tuple[float, float] | None = None):
    """Seeded random nonnegative step function on aligned cells."""
    n = mesh.n_cells
    vals = np.zeros(n)
    if span is None:
        i0, i1 = 0, n
    else:
        i0, i1 = mesh.cell_span(*span)
    for _ in range(int(rng.integers(1, max_blocks + 1))):
        a = int(rng.integers(i0, i1))
        b = int(rng.integers(a + 1, min(a + max(2, (i1 - i0) // 2), i1) + 1))
        vals[a:b] = rng.uniform(lo, hi)
    if not vals.any():
        vals[i0] = rng.uniform(max(lo, 0.1), hi)
    return MeshFunction(mesh, vals)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_characteristic(args) -> int:
    w = parse_weight(args.weight)
    mesh = w.mesh if isinstance(w, SampledWeight) else Mesh(args.radius, args.level)  # ainfty's
    search = SearchSpace.default(radius=args.radius, max_level=args.max_level)
    if search.max_level < search.min_level:  # no grid candidate at all
        raise ValueError(
            f"--max-level {args.max_level} is below the coarsest search level {search.min_level} "
            f"of --radius {args.radius:g}"
        )
    kind, p, q, s = args.kind, args.p, args.q, args.s
    reads, characteristic = {  # kind: the flags of --q and --s it reads, its report
        "ap": ((), lambda: ap_characteristic(w, p, search)),
        "a1": ((), lambda: a1_characteristic(w, search)),
        "rh": (("s",), lambda: rh_characteristic(w, s, search)),
        "ainfty": ((), lambda: ainfty_characteristic(w, mesh=mesh)),
        "apq": (("q",), lambda: apq_characteristic(w, p, q, search)),
        "a1q": (("q",), lambda: a1q_characteristic(w, q, search)),
    }[kind]
    if reads and getattr(args, reads[0]) is None:
        raise ValueError(f"--kind {kind} needs --{reads[0]}")
    for flag in ("q", "s"):
        if flag not in reads and getattr(args, flag) is not None:
            raise ValueError(f"--kind {kind} does not read --{flag}")
    rep = characteristic()
    header = CSV_COLUMNS["characteristic"]
    row = [kind, args.weight, p, q, s, rep.value, rep.witness[0],
           rep.witness[1], rep.witness_label, rep.search_levels[0], rep.search_levels[1],
           rep.grids_used]
    write_rows(args.output, header, [row])
    print(f"{rep.quantity} = {fmt(rep.value)} on [{fmt(rep.witness[0])}, {fmt(rep.witness[1])})")
    return 0


def cmd_weaktype(args) -> int:
    w = parse_weight(args.weight)
    mesh = w.mesh if isinstance(w, SampledWeight) else Mesh(args.radius, args.level)
    if args.radius < mesh.radius:  # a sampled weight's mesh: its trials and char_ainfty cannot narrow
        raise ValueError(
            f"--radius {args.radius:g} is below the sampled weight's mesh radius {mesh.radius:g}: "
            "its trials and char_ainfty run on the whole mesh, so char_main searches it too"
        )
    rng = np.random.default_rng(args.seed)
    p, alpha = args.p, args.alpha
    if not p >= 1:
        raise ValueError(f"weak-type quotients need p >= 1, got {p}")
    fractional = alpha is not None
    q = _fractional_exponent(p, alpha) if fractional else p
    if fractional and args.operator == "H":
        raise ValueError(
            "H with --alpha pairs the Hilbert transform with the fractional characteristic "
            "[w]_A(p,q) [w^q]_A_inf^q, which no theorem bounds; drop --alpha"
        )
    search = SearchSpace.default(radius=args.radius, max_level=min(args.level, 8))
    if fractional:
        char1 = apq_characteristic(w, p, q, search).value if p > 1 else a1q_characteristic(w, q, search).value
        char2 = ainfty_characteristic(w.power(q), mesh=mesh).value
    else:
        char1 = ap_characteristic(w, p, search).value if p > 1 else a1_characteristic(w, search).value
        char2 = ainfty_characteristic(w, mesh=mesh).value
    try:
        product = char1 * char2**q
    except OverflowError:
        product = math.inf
    if product == math.inf:
        raise OverflowError(f"the characteristic product {fmt(char1)} * {fmt(char2)}^{fmt(q)} overflows")
    kwargs = {"alpha": alpha, "weight_power": 1.0} if fractional else {}
    rows = []
    for trial in range(args.trials):
        wq = weak_quotient(args.operator, w, p, random_step(mesh, rng), **kwargs)
        rows.append([trial, wq.quotient, wq.best_lambda, char1, char2, product,
                     wq.quotient / product])
    header = CSV_COLUMNS["weaktype"]
    write_rows(args.output, header, rows)
    cmax = max(r[-1] for r in rows)
    print(f"{args.operator}: {args.trials} trials, max empirical constant {fmt(cmax)}")
    return 0


def cmd_lowerbound(args) -> int:
    deltas = args.delta
    for d in deltas:  # every delta is checked before any sweep runs
        lb.w_delta(d)
    mesh = lb.GradedMesh(cells_per_band=args.cells_per_band, x_min=args.x_min)
    reports = lb.delta_sweep(deltas, mesh=mesh, lambda_window=args.window)
    slope = lb.sweep_slope(reports) if len(reports) >= 2 else float("nan")
    header = CSV_COLUMNS["lowerbound"]
    rows = [[r.delta, r.a1_char, r.sharp_rh_nu, r.lambda_star, r.best_lambda,
             r.quotient, r.c0_lower, r.ratio_to_sqrt_a1, r.measure_path] for r in reports]
    write_rows(args.output, header, rows)
    if args.json_output:
        payload = {
            "schema": f"v{SCHEMA_VERSION}",
            "rows": [{k: (fmt(v) if isinstance(v, float) else v)
                      for k, v in r.__dict__.items()} for r in reports],
            "slope_log_quotient_vs_log_inv_delta": fmt(slope),
        }
        _atomic_write(args.json_output, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"lower-bound sweep over deltas {deltas}: slope = {fmt(slope)}")
    return 0


def cmd_sparse_check(args) -> int:
    mesh = Mesh(args.radius, args.level)
    rng = np.random.default_rng(args.seed)
    failures = 0
    rows = []
    for trial in range(args.trials):
        f = random_step(mesh, rng)
        height = float(rng.uniform(0.25, 2.0) * max(f.values.mean(), 1e-3))
        dec = cz_decompose(f, height)
        issues = []
        if not np.allclose(dec.good.values + dec.bad.values, f.values, rtol=0, atol=1e-12):
            issues.append("reconstruction")
        for qbe in dec.cubes:
            if abs(dec.bad.integral(qbe.left, qbe.right)) > 1e-12 * max(1.0, f.integral()):
                issues.append("mean-zero")
                break
        if dec.omega_measure > f.integral() / height + 1e-12:
            issues.append("omega-measure")
        fam = build_sparse_family(f)
        issues.extend(fam.verify())
        Md = dyadic_maximal(f, max_level=mesh.aligned_cell_level())
        As = fam.apply(f)
        inside = As.values > 0
        if np.any(Md.values[inside] > 4 * As.values[inside] + 1e-10):
            issues.append("domination")
        ok = not issues
        failures += 0 if ok else 1
        rows.append([trial, height, len(dec.cubes), dec.omega_measure, len(fam.cubes),
                     ok, ";".join(issues)])
    header = CSV_COLUMNS["sparse-check"]
    write_rows(args.output, header, rows)
    print(f"sparse-check: {args.trials} trials, {failures} failures")
    return 0 if failures == 0 else 1


def cmd_matrix_check(args) -> int:
    mesh = Mesh(args.radius, args.level)
    rng = np.random.default_rng(args.seed)
    grid = DyadicGrid()
    cube = grid.cube(mesh.aligned_cell_level() - mesh.level, 0)
    failures = 0
    rows = []
    for trial in range(args.trials):
        W = parse_matrix_weight(args.weight, mesh, rng, args.d)
        issues = []
        red2 = reducing_matrix(W, cube, 2.0)
        if max(abs(red2.lower_factor - 1), abs(red2.upper_factor - 1)) > 1e-12:
            issues.append("p2-exactness")
        red_p = reducing_matrix(W, cube, args.p)
        if red_p.upper_factor / red_p.lower_factor > math.sqrt(args.d) * 1.05:
            issues.append("fit-ceiling")
        char = matrix_ap_characteristic(W, args.p)
        dual = dual_reducing_matrix(W, cube, args.p)
        prod = float(op_norm(red_p.matrix @ dual.matrix))
        ratio = prod / char.value ** (1.0 / args.p)
        if not (0.25 <= ratio <= 4.0):
            issues.append("product-ratio")
        v = rng.standard_normal(args.d)
        sc = scalar_restriction_characteristic(W, args.p, v).value
        if sc > char.value * (1 + 1e-9):
            issues.append("scalar-restriction")
        ok = not issues
        failures += 0 if ok else 1
        rows.append([trial, char.value, red_p.lower_factor, red_p.upper_factor, prod,
                     ratio, sc, ok, ";".join(issues)])
    header = CSV_COLUMNS["matrix-check"]
    write_rows(args.output, header, rows)
    print(f"matrix-check: {args.trials} trials, {failures} failures")
    return 0 if failures == 0 else 1


def cmd_constants(args) -> int:
    rows = []
    for a in args.a_list:
        w = PowerLogWeight(-a)
        ainf = ainfty_characteristic(w, mesh=Mesh(args.radius, args.level)).value
        nu = sharp_rh_exponent(w, SearchSpace.anchored_only())
        pc = proof_constants(nu, args.p)
        rows.append([a, args.p, ainf, nu, pc.r, pc.r_prime, pc.p_nu_prime, pc.p_r_prime,
                     pc.p_r_prime / pc.p_nu_prime, pc.r_prime**pc.r,
                     (nu - 1.0) * ainf])
    header = CSV_COLUMNS["constants"]
    write_rows(args.output, header, rows)
    print(f"constants: {len(rows)} rows")
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaklab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,  # _apply_config reads --config only, so --conf must not parse
    )
    parser.add_argument("--config", help="key = value file with defaults; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        return sub.add_parser(
            name, help=help_text,
            epilog="CSV columns: " + ", ".join(CSV_COLUMNS[name]),
        )

    def common(p):
        p.add_argument("--out", default=None, help="output directory (default $WEAKLAB_OUT or .)")
        p.add_argument("--output", default=None, help="output file path (overrides --out)")

    p = add("characteristic", "weight characteristic with witness cube")
    common(p)
    p.add_argument("--weight", required=True, type=_descriptor,
                   help="powerlog:a=..,b=..,c=.. or sampled:file.json (ainfty runs on its mesh; others read --radius)")
    p.add_argument("--kind", default="ap", choices=["ap", "a1", "ainfty", "rh", "apq", "a1q"])
    p.add_argument("--p", type=_finite, default=2.0, help="read by ap and apq")
    p.add_argument("--q", type=_finite, default=None, help="apq and a1q only")
    p.add_argument("--s", type=_finite, default=None, help="rh only")
    p.add_argument("--radius", type=_positive_finite, default=4.0, help="read by every kind")
    p.add_argument("--level", type=_mesh_level, default=8, help="the ainfty mesh; read by ainfty only")
    p.add_argument("--max-level", type=int, default=8, help="finest search level; read by every kind but ainfty")
    p.set_defaults(func=cmd_characteristic, default_name="characteristic.csv")

    p = add("weaktype", "weak-type quotient sweep over seeded step functions")
    common(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--operator", default="AS", choices=["AS", "M", "Md", "H", "Ialpha", "Malpha"])
    p.add_argument("--weight", required=True, type=_descriptor,
                   help="powerlog:a=..,b=..,c=.. or sampled:file.json (everything runs on its whole mesh)")
    p.add_argument("--p", type=_finite, default=2.0)
    p.add_argument("--alpha", type=_finite, default=None, help="fractional order, below 1/p; q from 1/p - 1/q = alpha")
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--radius", type=_positive_finite, default=4.0,
                   help="the mesh and char_main's domain; for a sampled weight, at least its mesh radius")
    p.add_argument("--level", type=_mesh_level, default=7)
    p.set_defaults(func=cmd_weaktype, default_name="weaktype.csv")

    p = add("lowerbound", "endpoint lower-bound delta sweep")
    common(p)
    p.add_argument("--delta", default="0.05,0.1,0.2", type=_finite_list,
                   help="comma-separated deltas in (0, 1/2)")
    p.add_argument("--cells-per-band", type=_positive_int, default=16)
    p.add_argument("--x-min", type=_x_min, default=1e-12)
    p.add_argument("--window", type=_positive_finite, default=4.0, help="lambda window factor around e^(1/delta)")
    p.add_argument("--json-output", default=None, help="also write a JSON report")
    p.set_defaults(func=cmd_lowerbound, default_name="lowerbound.csv")

    p = add("sparse-check", "CZ + sparse-family invariant suite")
    common(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--radius", type=_positive_finite, default=1.0)
    p.add_argument("--level", type=_mesh_level, default=7)
    p.set_defaults(func=cmd_sparse_check, default_name="sparse_check.csv")

    p = add("matrix-check", "matrix-weight invariant suite")
    common(p)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--trials", type=_positive_int, default=10)
    p.add_argument("--d", type=int, default=2, choices=[2, 3])
    p.add_argument("--p", type=_finite, default=2.0)
    p.add_argument("--weight", default="random", type=_descriptor,
                   help="random | diag:a1=..,a2=.. | rotdiag:a1=..,a2=..,turns=.. | json:file")
    p.add_argument("--radius", type=_positive_finite, default=1.0)
    p.add_argument("--level", type=_mesh_level, default=6)
    p.set_defaults(func=cmd_matrix_check, default_name="matrix_check.csv")

    p = add("constants", "proof-exponent table over |x|^-a weights")
    common(p)
    p.add_argument("--p", type=_finite, default=2.0)
    p.add_argument("--a-list", default="0.3,0.6,0.9", type=_finite_list)
    p.add_argument("--radius", type=_positive_finite, default=4.0)
    p.add_argument("--level", type=_mesh_level, default=8)
    p.set_defaults(func=cmd_constants, default_name="constants.csv")
    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Prepend config-file values as flags so the command line overrides them.
    ``--config=PATH`` is the same flag as ``--config PATH``."""
    argv = [part for arg in argv for part in (arg.split("=", 1) if arg.startswith("--config=") else [arg])]
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv) or not argv[i + 1]:
        raise ValueError("--config needs a file path")
    extra: list[str] = []
    for line in _read_text(argv[i + 1]).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        extra.extend([f"--{key.strip().replace('_', '-')}", val.strip()])
    head = argv[: i + 2]
    rest = argv[i + 2 :]
    if rest and not rest[0].startswith("-"):
        # subcommand first, then config defaults, then explicit flags
        return head[:i] + [rest[0]] + extra + rest[1:]
    return head[:i] + extra + rest


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        # the config flag may appear before the subcommand; fold its values in
        args = parser.parse_args(_apply_config(argv))
        if args.output is None:
            out_dir = args.out or os.environ.get("WEAKLAB_OUT", ".")
            args.output = os.path.join(out_dir, args.default_name)
        return args.func(args)
    except (NonIntegrableError, DegenerateWeightError, lb.MeshResolutionError, EllipsoidFitError, OverflowError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except ValueError as e:  # after its numerical subclasses: a malformed exponent or input
        print(f"error: {str(e).replace(_SCAN_ROUTE, 'a smaller --radius scans fewer cells')}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
