import math

import numpy as np
import pytest
from hypothesis import settings
from scipy import optimize

from weaklab import Mesh, MeshFunction
from weaklab.cli import random_step  # the CLI's seeded step generator, re-exported for the tests
from weaklab.lowerbound import output_magnitude

settings.register_profile("stable", derandomize=True, deadline=None)
settings.load_profile("stable")


@pytest.fixture
def mesh() -> Mesh:
    return Mesh(1.0, 7)  # 256 cells on [-1, 1)


@pytest.fixture
def wide_mesh() -> Mesh:
    return Mesh(4.0, 8)  # 512 cells on [-4, 4)


def random_signed_step(mesh, rng, max_blocks=6):
    f = random_step(mesh, rng, max_blocks)
    signs = np.where(rng.uniform(size=mesh.n_cells) < 0.5, -1.0, 1.0)
    return MeshFunction(mesh, f.values * signs)


def exact_lower_bound_supremum(delta):
    """Q*(delta): the interior local maximum of s G(s) on (0, 1/2], with
    G = output_magnitude(delta, .), whose level lam = G(s) lies inside the
    lambda window.  At delta = 0.2 it is 1.583453, not the 1.61932 of the
    endpoint s = 1/2 (whose level lies outside the window).

    G is strictly decreasing, so lam |{G > lam}| = s G(s) at the root s of
    G(s) = lam, and Q* is the supremum over the window's lam that
    lower_bound_experiment bounds from below.  Computed by a bounded scalar
    maximisation in log s, independently of the lambda sweep and of
    GradedMesh; it agrees with a 40-digit mpmath maximisation to about 1e-15.
    """
    res = optimize.minimize_scalar(
        lambda u: -math.exp(u) * output_magnitude(delta, math.exp(u)),
        bounds=(math.log(1e-60), math.log(0.5)),
        method="bounded",
        options={"xatol": 1e-10},
    )
    return float(-res.fun)


def argmax_inside_window(report, window=4.0, n_lambda=161):
    """Whether a lower_bound_experiment report's maximising lambda is not an
    endpoint of its sweep [lam*/window, lam* window] of n_lambda log-spaced
    points, that is, whether the sweep brackets the supremum."""
    half_step = window ** (1.0 / (n_lambda - 1))
    return (
        report.lambda_star / window * half_step
        < report.best_lambda
        < report.lambda_star * window / half_step
    )
