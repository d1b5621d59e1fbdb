"""The centred minimum-volume ellipsoid fit behind the p != 2 reducing
matrices: its certificate, the exact plane exchange against the enumeration
oracle, the Newton solve (d >= 3) against the same iteration factored by
scipy's LU and a first-order reference, and its failure modes."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvee_oracle import certified_factors, dense_newton_mvee, einsum_rho_values, exact_mvee_2d, khachiyan_mvee
from weaklab import DyadicGrid, EllipsoidFitError, Mesh, dual_reducing_matrix, random_matrix_weight, reducing_matrix
from weaklab import matrix
from weaklab.cli import main
from weaklab.matrix import _centered_mvee, _newton_mvee, _rho_values, unit_directions

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


def plane_points(kind, seed, n, eps):
    """``(points, frame)``: n points of one family, an anisotropic cloud, a
    circle with radii within eps of 1, the benchmark's v / rho(v) on n
    directions, or a line with perpendicular offsets of size eps; and a
    linear map that makes them well-conditioned, ``points @ frame``: it
    stretches the line's offsets back to size 1 (the identity otherwise)."""
    rng = np.random.default_rng(seed)
    if kind == "cloud":
        return rng.standard_normal((n, 2)) * np.exp(rng.uniform(-3.0, 3.0, 2)), np.eye(2)
    if kind == "round":
        theta = rng.uniform(0.0, np.pi, n)
        radii = 1.0 + eps * rng.uniform(-1.0, 1.0, n)
        return radii[:, None] * np.stack([np.cos(theta), np.sin(theta)], 1), np.eye(2)
    if kind == "benchmark":
        W = random_matrix_weight(MESH, 2, rng)
        power, r = P3_FITS[seed % 2]
        dirs = unit_directions(2, n)
        return dirs / _rho_values(W.power(power)[W.cells_of(ROOT)], r, dirs)[:, None], np.eye(2)
    t = rng.uniform(0.1, 1.0, n) * rng.choice([-1.0, 1.0], n)
    turn = np.array([[np.cos(seed), np.sin(seed)], [-np.sin(seed), np.cos(seed)]])
    return np.stack([t, eps * rng.standard_normal(n)], 1) @ turn, turn.T @ np.diag([1.0, 1.0 / eps])


@given(
    kind=st.sampled_from(["cloud", "round", "benchmark", "collinear"]),
    seed=st.integers(0, 2**16),
    n=st.integers(3, 32),
    eps=st.floats(1e-3, 0.3),
)
@example(kind="round", seed=0, n=32, eps=0.0)  # on the circle: every g ties at the optimum
@example(kind="cloud", seed=1, n=2, eps=0.1)  # two points: the starting pair is the fit
@example(kind="collinear", seed=2, n=32, eps=1e-3)  # the thinnest set drawn
@example(kind="benchmark", seed=0, n=128, eps=0.1)  # the benchmark's own size
@settings(max_examples=80, deadline=None)
def test_plane_exchange_is_the_exact_optimum(kind, seed, n, eps):
    points, frame = plane_points(kind, seed, n, eps)
    A, steps = _centered_mvee(points)
    assert steps <= 20
    # the fit is linearly equivariant: points @ frame have the ellipse
    # F^-1 A F^-T, compared where the enumeration oracle is well-conditioned
    inv = np.linalg.inv(frame)
    exact = exact_mvee_2d(points @ frame)
    assert np.abs(inv @ A @ inv.T - exact).max() <= 1e-9 * np.abs(exact).max()
    assert quad_max(inv @ A @ inv.T, points @ frame) <= 1 + 1e-10
    # the centred problem sees p and -p alike
    both, _ = _centered_mvee(np.concatenate([points, -points]))
    assert np.abs(both - A).max() <= 1e-9 * np.abs(A).max()


@given(seed=st.integers(0, 2**16), n=st.integers(3, 32), eps=st.floats(1e-3, 0.3))
@example(seed=15, n=24, eps=1.3e-3)  # absolute thresholds kept det A = 8,513 of the optimum's 53,222
@settings(max_examples=40, deadline=None)
def test_oracle_is_exact_on_near_collinear_sets_unstretched(seed, n, eps):
    # the enumeration's thresholds scale with the set's conditioning, so it
    # needs no stretched frame
    points, _ = plane_points("collinear", seed, n, eps)
    A, _ = _centered_mvee(points)
    exact = exact_mvee_2d(points)
    assert np.abs(A - exact).max() <= 1e-9 * np.abs(exact).max()


@pytest.mark.parametrize(
    "points",
    [np.array([[1.0, 2.0], [-2.0, -4.0], [0.5, 1.0]]), np.array([[0.0, 3.0]])],
    ids=["collinear", "one-point"],
)
def test_points_on_a_line_raise_by_name(points):
    with pytest.raises(EllipsoidFitError, match="span the plane"):
        _centered_mvee(points)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("cube", [ROOT, QUARTER], ids=["unit", "quarter"])
@pytest.mark.parametrize("power,r", P3_FITS, ids=["p3", "dual-r1.5"])
def test_structured_solve_matches_dense_newton(d, cube, power, r):
    # the same iterates as scipy's LU of the same (n+1) x (n+1) system, so
    # the same fit after the same number of steps, up to rounding
    for seed in range(4):
        W = random_matrix_weight(MESH, d, np.random.default_rng([d, seed]))
        _, _, points = fit_sample(W, power, r, cube)
        A, steps = _newton_mvee(points)
        dense, dense_steps = dense_newton_mvee(points)
        assert abs(steps - dense_steps) <= 1
        assert np.abs(A - dense).max() <= 1e-12 * np.abs(dense).max()


def test_five_hundred_benchmark_shaped_fits_certify():
    # matrix-suite's fits: a fresh d = 2 weight on the 128 cells of [-1, 1),
    # reduced at p = 3 and its dual on [0, 1); a missed certificate raises.
    # The exchange takes at most 10 steps on these (7.3 on average)
    steps = []
    for seed in range(250):
        W = random_matrix_weight(MESH, 2, np.random.default_rng([19, seed]))
        for red in (reducing_matrix(W, ROOT, 3.0), dual_reducing_matrix(W, ROOT, 3.0)):
            assert red.lower_factor <= 1.0 <= red.upper_factor <= np.sqrt(2.0) * red.lower_factor
        steps += [_centered_mvee(fit_sample(W, power, r)[2])[1] for power, r in P3_FITS]
    assert max(steps) <= 10


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
    # every direction of the identity weight has norm 1: the starting pair,
    # orthogonal, is optimal and the certificate holds before any step
    monkeypatch.setattr(matrix, "_MVEE_STEPS", 0)
    A, steps = _centered_mvee(unit_directions(2, 128))
    assert steps == 0
    assert A == pytest.approx(np.eye(2), abs=1e-12)


@pytest.mark.parametrize("d,steps_needed", [(2, 7), (3, 12)])
def test_missed_certificate_raises(monkeypatch, d, steps_needed):
    W = random_matrix_weight(MESH, d, np.random.default_rng(3))
    assert _centered_mvee(fit_sample(W, *P3_FITS[0])[2])[1] == steps_needed
    monkeypatch.setattr(matrix, "_MVEE_STEPS", 2)
    with pytest.raises(EllipsoidFitError, match=r"missed its certificate .* after 2 steps"):
        reducing_matrix(W, ROOT, 3.0)


def test_missed_certificate_exits_3(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(matrix, "_MVEE_STEPS", 2)
    code = main(["matrix-check", "--p", "3", "--trials", "1", "--output", str(tmp_path / "m.csv")])
    assert code == 3
    assert "numerical failure: ellipsoid fit missed its certificate" in capsys.readouterr().err


def test_matrix_suite_fits_never_reach_newton(monkeypatch):
    # matrix-suite reduces d = 2 weights at p = 3 on [0, 1), and every plane
    # fit takes the exact exchange: a change that sends them through Newton
    # fails here, not as a fourfold slower benchmark fit
    def refuse(points):
        raise AssertionError(f"a d = {points.shape[1]} fit reached _newton_mvee")

    monkeypatch.setattr(matrix, "_newton_mvee", refuse)
    for seed in range(20):
        W = random_matrix_weight(MESH, 2, np.random.default_rng([35, seed]))
        reducing_matrix(W, ROOT, 3.0)
        dual_reducing_matrix(W, ROOT, 3.0)
    with pytest.raises(AssertionError, match="a d = 3 fit reached _newton_mvee"):
        reducing_matrix(random_matrix_weight(MESH, 3, np.random.default_rng(35)), ROOT, 3.0)
