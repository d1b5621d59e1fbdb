"""The centred minimum-volume ellipsoid fit behind the p != 2 reducing
matrices: its certificate, its optimum against exact and first-order
references, and its failure mode."""

import numpy as np
import pytest

from mvee_oracle import certified_factors, exact_mvee_2d, khachiyan_mvee
from weaklab import DyadicGrid, EllipsoidFitError, Mesh, dual_reducing_matrix, random_matrix_weight, reducing_matrix
from weaklab import matrix
from weaklab.cli import main
from weaklab.matrix import _centered_mvee, _rho_values, unit_directions

MESH = Mesh(1.0, 6)
ROOT = DyadicGrid().cube(MESH.aligned_cell_level() - MESH.level, 0)  # [0, 1)


def fit_sample(W, power, r):
    """The directions, norms and points that ``_reduce_field`` fits."""
    field = W.power(power)[W.cells_of(ROOT)]
    dirs = unit_directions(W.d, 64 * W.d)
    rho = _rho_values(field, r, dirs)
    return dirs, rho, dirs / rho[:, None]


def quad_max(A, points):
    return float(np.einsum("ni,ij,nj->n", points, A, points).max())


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize(
    "fit,power,r",
    [(reducing_matrix, 1.0 / 3.0, 3.0), (dual_reducing_matrix, -1.0 / 3.0, 1.5)],
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
    A = _centered_mvee(points)
    assert quad_max(A, points) <= 1 + 1e-10


def test_three_dimensional_fit_meets_certificate_and_beats_khachiyan():
    W = random_matrix_weight(MESH, 3, np.random.default_rng(5))
    for power, r in ((1.0 / 3.0, 3.0), (-1.0 / 3.0, 1.5)):
        _, _, points = fit_sample(W, power, r)
        A = _centered_mvee(points)
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
    half = _centered_mvee(points)
    both = _centered_mvee(np.concatenate([points, -points]))
    assert half == pytest.approx(both, rel=1e-8)


def test_round_ball_needs_no_step(monkeypatch):
    # every direction of the identity weight has norm 1: the uniform weights
    # are optimal and the certificate holds before any Newton step
    monkeypatch.setattr(matrix, "_MVEE_NEWTON_STEPS", 0)
    A = _centered_mvee(unit_directions(2, 128))
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
