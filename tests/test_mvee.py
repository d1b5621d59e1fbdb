"""The centred minimum-volume ellipsoid fit behind the p != 2 reducing
matrices: its certificate, its optimum against exact and first-order
references, its structured Newton solve against the dense one, and its
failure mode."""

import numpy as np
import pytest

from mvee_oracle import certified_factors, dense_newton_mvee, einsum_rho_values, exact_mvee_2d, khachiyan_mvee
from weaklab import DyadicGrid, EllipsoidFitError, Mesh, dual_reducing_matrix, random_matrix_weight, reducing_matrix
from weaklab import matrix
from weaklab.cli import main
from weaklab.matrix import _centered_mvee, _rho_values, unit_directions

MESH = Mesh(1.0, 6)
ROOT = DyadicGrid().cube(MESH.aligned_cell_level() - MESH.level, 0)  # [0, 1)
QUARTER = DyadicGrid().cube(ROOT.level + 2, 1)  # [1/4, 1/2)
CELL = DyadicGrid().cube(MESH.aligned_cell_level(), 20)  # one mesh cell, [5/16, 21/64)
P3_FITS = [(1.0 / 3.0, 3.0), (-1.0 / 3.0, 1.5)]  # reducing_matrix and dual_reducing_matrix at p = 3


def fit_sample(W, power, r, cube=ROOT):
    """The directions, norms and points that ``_reduce_field`` fits."""
    field = W.power(power)[W.cells_of(cube)]
    dirs = unit_directions(W.d, 64 * W.d)
    rho = _rho_values(field, r, dirs)
    return dirs, rho, dirs / rho[:, None]


def quad_max(A, points):
    return float(np.einsum("ni,ij,nj->n", points, A, points).max())


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize(
    "fit,power,r",
    [(reducing_matrix, *P3_FITS[0]), (dual_reducing_matrix, *P3_FITS[1])],
    ids=["p3", "dual-r1.5"],
)
def test_fit_matches_exact_plane_optimum(seed, fit, power, r):
    W = random_matrix_weight(MESH, 2, np.random.default_rng(seed))
    red = fit(W, ROOT, 3.0)
    dirs, rho, points = fit_sample(W, power, r)
    exact = exact_mvee_2d(points)
    lower, upper = certified_factors(exact, dirs, rho)
    assert red.lower_factor == pytest.approx(lower, rel=1e-9, abs=0)
    assert red.upper_factor == pytest.approx(upper, rel=1e-9, abs=0)
    # same ellipsoid shape: M^2 is a multiple of the exact A
    shape = red.matrix @ red.matrix
    assert shape / shape[0, 0] == pytest.approx(exact / exact[0, 0], rel=1e-8, abs=1e-8)
    A, _ = _centered_mvee(points)
    assert quad_max(A, points) <= 1 + 1e-10


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("cube", [ROOT, QUARTER], ids=["unit", "quarter"])
@pytest.mark.parametrize("power,r", P3_FITS, ids=["p3", "dual-r1.5"])
def test_structured_solve_matches_dense_newton(d, cube, power, r):
    # the same iterates as the dense (n+1) x (n+1) LU solve, so the same fit
    # after the same number of steps, up to rounding
    for seed in range(4):
        W = random_matrix_weight(MESH, d, np.random.default_rng([d, seed]))
        _, _, points = fit_sample(W, power, r, cube)
        A, steps = _centered_mvee(points)
        dense, dense_steps = dense_newton_mvee(points)
        assert abs(steps - dense_steps) <= 1
        assert np.abs(A - dense).max() <= 1e-12 * np.abs(dense).max()


def test_five_hundred_benchmark_shaped_fits_certify():
    # matrix-suite's fits: a fresh d = 2 weight on the 128 cells of [-1, 1),
    # reduced at p = 3 and its dual on [0, 1); a missed certificate raises
    for seed in range(250):
        W = random_matrix_weight(MESH, 2, np.random.default_rng([19, seed]))
        for red in (reducing_matrix(W, ROOT, 3.0), dual_reducing_matrix(W, ROOT, 3.0)):
            assert red.lower_factor <= 1.0 <= red.upper_factor <= np.sqrt(2.0) * red.lower_factor


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("power,r", [(1.0 / 3.0, 3.0), (-1.0 / 3.0, 1.5), (0.5, 2.0), (-0.5, 2.0)])
def test_gram_direction_norms_match_einsum_norms(d, power, r):
    dirs = unit_directions(d, 64 * d)
    for seed in range(5):
        W = random_matrix_weight(MESH, d, np.random.default_rng([d, seed]))
        for cube in (ROOT, QUARTER, CELL):
            field = W.power(power)[W.cells_of(cube)]
            ref = einsum_rho_values(field, r, dirs)
            assert np.max(np.abs(_rho_values(field, r, dirs) - ref) / ref) <= 1e-15


def test_three_dimensional_fit_meets_certificate_and_beats_khachiyan():
    W = random_matrix_weight(MESH, 3, np.random.default_rng(5))
    for power, r in P3_FITS:
        _, _, points = fit_sample(W, power, r)
        A, _ = _centered_mvee(points)
        assert quad_max(A, points) <= 1 + 1e-10
        # the capped first-order fit, shrunk until it contains every point,
        # has at least the Newton fit's volume (det A is inverse volume squared)
        old = khachiyan_mvee(points)
        old = old / quad_max(old, points)
        assert np.linalg.det(A) / np.linalg.det(old) >= 1.0
    red = reducing_matrix(W, ROOT, 3.0)
    assert red.lower_factor <= 1.0 <= red.upper_factor
    assert red.upper_factor / red.lower_factor <= np.sqrt(3.0)


def test_half_point_set_fits_the_symmetric_set():
    # the centred problem sees p and -p alike: both give one ellipsoid
    W = random_matrix_weight(MESH, 2, np.random.default_rng(2))
    _, _, points = fit_sample(W, 1.0 / 3.0, 3.0)
    half, _ = _centered_mvee(points)
    both, _ = _centered_mvee(np.concatenate([points, -points]))
    assert half == pytest.approx(both, rel=1e-8)


def test_round_ball_needs_no_step(monkeypatch):
    # every direction of the identity weight has norm 1: the uniform weights
    # are optimal and the certificate holds before any Newton step
    monkeypatch.setattr(matrix, "_MVEE_NEWTON_STEPS", 0)
    A, _ = _centered_mvee(unit_directions(2, 128))
    assert A == pytest.approx(np.eye(2), abs=1e-12)


def test_missed_certificate_raises(monkeypatch):
    monkeypatch.setattr(matrix, "_MVEE_NEWTON_STEPS", 2)
    W = random_matrix_weight(MESH, 2, np.random.default_rng(3))
    with pytest.raises(EllipsoidFitError, match=r"missed its certificate .* after 2 Newton steps"):
        reducing_matrix(W, ROOT, 3.0)


def test_missed_certificate_exits_3(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(matrix, "_MVEE_NEWTON_STEPS", 2)
    code = main(["matrix-check", "--p", "3", "--trials", "1", "--output", str(tmp_path / "m.csv")])
    assert code == 3
    assert "numerical failure: ellipsoid fit missed its certificate" in capsys.readouterr().err
