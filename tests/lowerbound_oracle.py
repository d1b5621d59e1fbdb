"""Reference level-set roots: the scalar ``brentq`` solve in ``log x`` that
``level_set_endpoint`` made before one vectorised Newton solve served the
whole lambda sweep, ``lower_bound_experiment`` as it ran then, one
``brentq`` root per lambda, and as it ran before it counted, checked and
scored the whole sweep at once, one lambda at a time.

The differential tests in ``test_lowerbound.py`` require the vector roots
to agree with these within ``_ROOT_RTOL`` and the experiment's report to
agree field for field, bit for bit, wherever the best quotient is counted.

``F_grid_max`` confirms the closed-form maximiser ``F_argmax`` by a grid
search.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize

from weaklab.lowerbound import (
    _ROOT_RTOL,
    F_argmax,
    F_lambda,
    GradedMesh,
    LowerBoundReport,
    MeshResolutionError,
    level_set_endpoints,
    output_magnitude,
    w_delta,
)
from weaklab.weights import SearchSpace, a1_characteristic, sharp_rh_exponent


def brentq_endpoint(delta: float, lam: float, x_hi: float = 0.5, x_lo: float = 1e-60) -> float:
    """x with G(x) = lam by brentq in u = log x over [x_lo, x_hi]; x_hi when
    G(x_hi) >= lam."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if output_magnitude(delta, x_hi) >= lam:
        return x_hi

    def g_log(u):
        return math.log(output_magnitude(delta, math.exp(u))) - math.log(lam)

    u_lo = math.log(x_lo)
    u_hi = math.log(x_hi)
    return float(math.exp(optimize.brentq(g_log, u_lo, u_hi, xtol=1e-14, rtol=8.9e-16)))


def counted_at(mesh: GradedMesh, values: np.ndarray, lam: float) -> tuple[float, int]:
    """One lam's (sum of the widths of the cells whose value exceeds lam, cell
    count), from the mesh's count of the one-lam array, so that a mesh that
    counts otherwise (the tests' centre-counting meshes) counts so here too."""
    counted, counts = mesh.counted_measure(values, np.array([lam]))
    return float(counted[0]), int(counts[0])


def sweep_lambdas(delta: float, lambda_window: float = 4.0, n_lambda: int = 161) -> np.ndarray:
    """The experiment's lambda sweep: n_lambda geometric points and lam* itself."""
    lam_star, _ = F_argmax(delta)
    lams = np.geomspace(lam_star / lambda_window, lam_star * lambda_window, n_lambda)
    return np.unique(np.append(lams, lam_star))


def per_lambda_experiment(delta: float, mesh: GradedMesh | None = None) -> LowerBoundReport:
    """lower_bound_experiment(delta, compute_nu=False) with one brentq root per
    lambda."""
    mesh = mesh or GradedMesh()
    lam_star, _ = F_argmax(delta)
    values = output_magnitude(delta, mesh.edges[1:])
    widths = mesh.widths

    best = (-np.inf, lam_star, "cells")
    for lam in sweep_lambdas(delta):
        counted, n_cells = counted_at(mesh, values, lam)
        if n_cells >= 4:
            measure, path = counted, "cells"
            exact = brentq_endpoint(delta, lam, mesh.x_hi)
            straddling = widths[n_cells] if n_cells < widths.size else 0.0
            slack = _ROOT_RTOL * exact
            if not -slack <= exact - counted <= straddling + slack:
                raise MeshResolutionError(f"cross-check failed at lam={lam:.3e}")
        else:
            measure, path = brentq_endpoint(delta, lam, mesh.x_hi), "closed-form"
        score = lam * measure
        if score > best[0]:
            best = (float(score), float(lam), path)

    quotient, best_lambda, path = best
    a1 = a1_characteristic(w_delta(delta), SearchSpace.anchored_only()).value
    return LowerBoundReport(
        delta=delta,
        a1_char=a1,
        sharp_rh_nu=float("nan"),
        lambda_star=lam_star,
        best_lambda=best_lambda,
        quotient=quotient,
        c0_lower=quotient,
        ratio_to_sqrt_a1=quotient / math.sqrt(a1),
        measure_path=path,
    )


def per_lambda_loop_experiment(
    delta: float,
    mesh: GradedMesh | None = None,
    lambda_window: float = 4.0,
    compute_nu: bool = True,
) -> LowerBoundReport:
    """``lower_bound_experiment`` one lambda at a time: each lambda's cells
    counted by its own ``counted_at`` call, cross-checked against
    the vector roots, and scored against the best so far."""
    mesh = mesh or GradedMesh()
    smallest = 1.0 / (math.log(np.finfo(float).max) - math.log(lambda_window))
    if delta <= smallest:
        raise ValueError(
            f"lambda window lam* x {lambda_window:g} overflows: delta must exceed {smallest:.6g}, got {delta:g}"
        )
    lam_star, _ = F_argmax(delta)
    lams = sweep_lambdas(delta, lambda_window)
    values = output_magnitude(delta, mesh.edges[1:])
    widths = mesh.widths
    roots = level_set_endpoints(delta, lams, mesh.x_hi)

    best = (-np.inf, lam_star, "cells")
    for i, lam in enumerate(lams):
        counted, n_cells = counted_at(mesh, values, lam)
        if n_cells >= 4:
            measure, path = counted, "cells"
            exact = roots[i]
            straddling = widths[n_cells] if n_cells < widths.size else 0.0
            slack = _ROOT_RTOL * exact
            if not -slack <= exact - counted <= straddling + slack:
                raise MeshResolutionError(
                    f"cell-counted measure {counted:.3e} is not within one cell "
                    f"below the closed form {exact:.3e} at lam={lam:.3e}; G must "
                    "decrease on (0, x_hi]"
                )
        else:
            measure, path = roots[i], "closed-form"
        score = lam * measure
        if score > best[0]:
            best = (float(score), float(lam), path)

    quotient, best_lambda, path = best
    a1 = a1_characteristic(w_delta(delta), SearchSpace.anchored_only()).value
    nu_sharp = sharp_rh_exponent(w_delta(delta), SearchSpace.anchored_only(n=48)) if compute_nu else float("nan")
    return LowerBoundReport(
        delta=delta,
        a1_char=a1,
        sharp_rh_nu=nu_sharp,
        lambda_star=lam_star,
        best_lambda=best_lambda,
        quotient=quotient,
        c0_lower=quotient,
        ratio_to_sqrt_a1=quotient / math.sqrt(a1),
        measure_path=path,
    )


def F_grid_max(delta: float, n: int = 10_000) -> tuple[float, float]:
    """Log-spaced grid search for the maximum of F."""
    lam_star, _ = F_argmax(delta)
    grid = np.geomspace(max(lam_star * 1e-3, 1.0 + 1e-9), lam_star * 1e3, n)
    vals = F_lambda(delta, grid)
    i = int(np.argmax(vals))
    return float(grid[i]), float(vals[i])
