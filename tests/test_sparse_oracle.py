"""Differential tests: the level-synchronous stopping-time walk of
``weaklab.sparse`` against the reference walks in ``sparse_oracle.py``
(the per-cube ``Fraction`` recursion and the per-cube table-driven stacks it
replaced), compared with exact equality (cube order, the bytes of every
designated set, of ``apply`` and of the CZ outputs, and the messages of
``verify_sparseness``)."""

import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_step
from geometry_oracle import cells_inside, children, oracle_sparse_apply, parent
from sparse_oracle import (
    level_scan_covering_roots,
    oracle_covering_roots,
    oracle_cz_decompose,
    oracle_sparse_family,
    table_cz_decompose,
    table_sparse_family,
    table_verify_sparseness,
)
from weaklab import DyadicGrid, Mesh, MeshFunction, build_sparse_family, cz_decompose, shifted_grids, sparse
from weaklab.grid import default_levels
from weaklab.sparse import SparseFamily, covering_roots, verify_sparseness

seeds = st.integers(0, 2**32 - 1)


def step_function(mesh, seed, dyadic_heights, span=None):
    """Seeded step function; dyadic heights make exact stopping ties likely."""
    f = random_step(mesh, np.random.default_rng(seed), span=span)
    if dyadic_heights:
        f = MeshFunction(mesh, np.ceil(f.values * 8) / 8)
    return f


def keys(cubes):
    return [(c.level, c.index, c.grid.shift_index) for c in cubes]


def assert_same_family(f, oracle=oracle_sparse_family, **kwargs):
    new = build_sparse_family(f, **kwargs)
    old = oracle(f, **kwargs)
    assert keys(new.cubes) == keys(old.cubes)
    assert len(new.designated) == len(old.designated)
    for a, b in zip(new.designated, old.designated):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for alpha in (0.0, 0.25):
        assert new.apply(f, alpha).values.tobytes() == oracle_sparse_apply(old, f, alpha).tobytes()
    assert verify_sparseness(new) == table_verify_sparseness(old)
    return new


def assert_same_cz(h, height, roots=None, oracle=oracle_cz_decompose):
    new = cz_decompose(h, height, roots=roots)
    old = oracle(h, height, roots=roots)
    assert keys(new.cubes) == keys(old.cubes)
    assert new.good.values.tobytes() == old.good.values.tobytes()
    assert new.bad.values.tobytes() == old.bad.values.tobytes()
    assert new.omega_cells.tobytes() == old.omega_cells.tobytes()


@settings(max_examples=40)
@given(
    radius=st.sampled_from([0.5, 1.0, 4.0, 16.0]),
    level=st.integers(3, 8),
    seed=seeds,
    dyadic_heights=st.booleans(),
    min_width_cells=st.sampled_from([None, 1, 32]),
)
def test_standard_family_matches_oracle(radius, level, seed, dyadic_heights, min_width_cells):
    f = step_function(Mesh(radius, level), seed, dyadic_heights)
    assert_same_family(f, min_width_cells=min_width_cells)


@settings(max_examples=40)
@given(
    radius=st.sampled_from([0.5, 1.0, 3.0, 4.0]),
    level=st.integers(3, 7),
    shift=st.sampled_from([1, 2]),
    seed=seeds,
    dyadic_heights=st.booleans(),
    min_width_cells=st.sampled_from([None, 1, 32]),
)
def test_shifted_family_on_embedded_mesh_matches_oracle(
    radius, level, shift, seed, dyadic_heights, min_width_cells
):
    small = step_function(Mesh(radius, level), seed, dyadic_heights)
    big = small.embedded(4 * radius)
    grid = DyadicGrid(shift)
    roots = covering_roots(big.mesh, grid, (-radius, radius))
    assert_same_family(big, grid=grid, roots=roots, min_width_cells=min_width_cells)


@settings(max_examples=30)
@given(
    level=st.integers(3, 7),
    shift=st.sampled_from([0, 1, 2]),
    seed=seeds,
    dyadic_heights=st.booleans(),
)
def test_default_shifted_roots_match_oracle(level, shift, seed, dyadic_heights):
    mesh = Mesh(4.0, level)
    f = step_function(mesh, seed, dyadic_heights, span=(-2, 2))
    assert_same_family(f, grid=DyadicGrid(shift))


# distinct same-level roots, in drawn order: offsets from the cube holding
# the left domain edge, so some lie off the domain on either side
root_offsets = st.lists(st.integers(-2, 6), min_size=1, max_size=4, unique=True)


@settings(max_examples=30)
@given(
    radius=st.sampled_from([0.5, 1.0, 3.0]),
    level=st.integers(3, 7),
    shift=st.sampled_from([0, 1, 2]),
    k_offset=st.integers(-2, 1),
    offsets=root_offsets,
    seed=seeds,
    min_width_cells=st.sampled_from([None, 1, 32]),
)
def test_roots_partly_off_domain_match_oracle(radius, level, shift, k_offset, offsets, seed, min_width_cells):
    # cubes about as wide as the domain, straddling its edges or beyond it
    mesh = Mesh(radius, level)
    f = step_function(mesh, seed, False)
    grid = DyadicGrid(shift)
    k = -int(np.ceil(np.log2(radius))) + k_offset
    m0 = grid.cube_index_of(k, -radius)
    roots = [grid.cube(k, m0 + d) for d in offsets]
    assert_same_family(f, grid=grid, roots=roots, min_width_cells=min_width_cells)


@pytest.mark.parametrize("shift", [0, 1, 2])
def test_all_zero_root_matches_oracle(shift):
    mesh = Mesh(1.0, 6)
    f = MeshFunction.indicator(mesh, -1.0, -0.5)  # zero on the right half
    grid = DyadicGrid(shift)
    roots = [grid.cube_containing(1, x) for x in (-0.75, 0.25, 0.75)]
    fam = assert_same_family(f, grid=grid, roots=roots)
    assert keys(fam.cubes)[-1] == keys(roots[-1:])[0]
    assert fam.verify() == []
    assert_same_family(MeshFunction.zeros(mesh), grid=grid, roots=roots)


@pytest.mark.parametrize("shift", [0, 1, 2])
def test_roots_finer_than_max_level_match_oracle(shift):
    # the walk stops descending at max_level (cubes 8 cells wide) even while
    # it still visits the finer roots
    mesh = Mesh(1.0, 6)
    grid = DyadicGrid(shift)
    roots = [grid.cube_containing(1, -0.75)] + [grid.cube_containing(k, x) for k, x in ((5, 0.5), (6, 0.7))]
    # on the standard grid: averages 1.875 on [-1, -0.5), at most 4.5 down to
    # max_level, then 8 >= 4 * 1.875 one level below it
    spike = MeshFunction.indicator(mesh, -1, -0.5) + 7 * MeshFunction.indicator(mesh, -0.75, -0.75 + 4 * mesh.h)
    for f in [spike] + [step_function(mesh, seed, True) for seed in range(4)]:
        assert_same_family(f, grid=grid, roots=roots, min_width_cells=8)


@settings(max_examples=60)
@given(
    radius=st.sampled_from([0.5, 1.0, 4.0, 16.0]),
    level=st.integers(3, 9),
    seed=seeds,
    dyadic_heights=st.booleans(),
    rel_height=st.floats(0.1, 3.0),
)
def test_cz_matches_oracle(radius, level, seed, dyadic_heights, rel_height):
    h = step_function(Mesh(radius, level), seed, dyadic_heights)
    height = rel_height * max(float(h.values.mean()), 1e-3)
    if dyadic_heights:
        height = float(np.ceil(height * 8) / 8)  # ties between average and height
    assert_same_cz(h, height)


@settings(max_examples=30)
@given(
    level=st.integers(3, 7), seed=seeds, rel_height=st.floats(0.1, 3.0), k_offset=st.integers(-2, 1), offsets=root_offsets
)
def test_cz_roots_partly_off_domain_match_oracle(level, seed, rel_height, k_offset, offsets):
    mesh = Mesh(1.0, level)
    h = step_function(mesh, seed, False)
    grid = DyadicGrid()
    m0 = grid.cube_index_of(k_offset, -1.0)
    roots = [grid.cube(k_offset, m0 + d) for d in offsets]
    assert_same_cz(h, rel_height * max(float(h.values.mean()), 1e-3), roots=roots)


def test_roots_from_another_grid_rejected():
    mesh = Mesh(1.0, 5)
    f = MeshFunction.constant(mesh, 1.0)
    with pytest.raises(ValueError, match="grid"):
        build_sparse_family(f, roots=[shifted_grids(1)[1].cube(0, 0)])
    with pytest.raises(ValueError, match="grid"):
        cz_decompose(f, 2.0, roots=[shifted_grids(1)[2].cube(0, 0)])


def test_repeated_or_nested_roots_rejected():
    mesh = Mesh(4.0, 4)
    h = MeshFunction.indicator(mesh, 0.5, 0.75)
    g = DyadicGrid()
    repeated = [g.cube(-2, -1), g.cube(-2, 0), g.cube(-2, 0)]
    nested = [g.cube(-2, -1), g.cube(-1, 1), g.cube(-2, 0)]  # [2, 4) inside [0, 4)
    for roots in (repeated, nested):
        with pytest.raises(ValueError, match="disjoint"):
            build_sparse_family(h, roots=roots)
        with pytest.raises(ValueError, match="disjoint"):
            cz_decompose(h, 0.5, roots=roots)
    shifted = DyadicGrid(1)
    outer = shifted.cube_containing(-1, 0.0)
    with pytest.raises(ValueError, match="disjoint"):
        build_sparse_family(h, grid=shifted, roots=[children(outer)[1], outer])


def walk_visits(build):
    """Run ``build()`` and return {(level, index): average} of every cube the
    stopping-time walk asks ``stops`` about, and the roots it was given.
    The wrapper reads the level ``k`` and the live indices ``m`` from the
    walk's frame, the only place they exist together with the averages."""
    visits, roots = {}, []
    walk = sparse._stopping_walk

    def recording_walk(grid, averages, walk_roots, k_last, stops, generations):
        roots.extend(walk_roots)

        def recording_stops(avg, base):
            frame = sys._getframe(1).f_locals
            visits.update(((frame["k"], int(m)), a) for m, a in zip(frame["m"], avg))
            return stops(avg, base)

        return walk(grid, averages, walk_roots, k_last, recording_stops, generations)

    with mock.patch.object(sparse, "_stopping_walk", recording_walk):
        build()
    return visits, roots


@settings(max_examples=40)
@given(
    radius=st.sampled_from([0.5, 1.0, 4.0]),
    level=st.integers(3, 9),
    shift=st.sampled_from([0, 1, 2]),
    seed=seeds,
    rel_height=st.floats(0.1, 3.0),
)
def test_walk_visits_no_cube_below_a_zero_average(radius, level, shift, seed, rel_height):
    # for f >= 0 a cube averaging 0 holds no stopping cube, so the walk must
    # not descend below one; the outputs still match the oracles above
    f = step_function(Mesh(radius, level), seed, False, span=(-radius / 2, radius / 2))
    grid = DyadicGrid(shift)
    builds = [lambda: assert_same_family(f, oracle=table_sparse_family, grid=grid)]
    if shift == 0:
        height = rel_height * float(f.values.mean())
        builds.append(lambda: assert_same_cz(f, height, oracle=table_cz_decompose))
    for build in builds:
        visits, roots = walk_visits(build)
        assert visits
        for k, m in visits:
            cube = grid.cube(k, m)
            if cube not in roots:
                p = parent(cube)
                assert visits[(p.level, p.index)] > 0, f"{cube} visited below {p}, which averages 0"


# ---------------------------------------------------------------------------
# against the table-driven walks the level-synchronous walk replaced
# ---------------------------------------------------------------------------


@settings(max_examples=80)
@given(
    radius=st.sampled_from([0.5, 1.0, 3.0, 4.0, 16.0]),
    level=st.integers(3, 10),
    shift=st.sampled_from([0, 1, 2]),
    seed=seeds,
    dyadic_heights=st.booleans(),
    min_width_cells=st.sampled_from([None, 1, 32]),
    embed=st.booleans(),
)
def test_family_matches_table_oracle(radius, level, shift, seed, dyadic_heights, min_width_cells, embed):
    f = step_function(Mesh(radius, level), seed, dyadic_heights)
    grid = DyadicGrid(shift)
    kwargs = dict(grid=grid, min_width_cells=min_width_cells)
    if embed:  # covering roots of the original domain on a mesh four times as wide
        f = f.embedded(4 * radius)
        kwargs["roots"] = covering_roots(f.mesh, grid, (-radius, radius))
    elif not (grid.is_standard() and f.mesh.is_power_of_two()):  # roots cover the support
        f = step_function(f.mesh, seed, dyadic_heights, span=(-radius / 2, radius / 2))
        if grid.is_standard():  # the default roots tile the domain, which needs R = 2^j
            kwargs["roots"] = covering_roots(f.mesh, grid, (-radius / 2, radius / 2))
    assert_same_family(f, oracle=table_sparse_family, **kwargs)


@settings(max_examples=80)
@given(
    radius=st.sampled_from([0.5, 1.0, 4.0, 16.0]),
    level=st.integers(3, 10),
    seed=seeds,
    dyadic_heights=st.booleans(),
    rel_height=st.floats(0.1, 3.0),
    k_offset=st.integers(-2, 1),
    offsets=st.none() | root_offsets,
)
def test_cz_matches_table_oracle(radius, level, seed, dyadic_heights, rel_height, k_offset, offsets):
    h = step_function(Mesh(radius, level), seed, dyadic_heights)
    height = rel_height * max(float(h.values.mean()), 1e-3)
    if dyadic_heights:
        height = float(np.ceil(height * 8) / 8)  # ties between average and height
    roots = None
    if offsets is not None:
        grid = DyadicGrid()
        k = -int(np.ceil(np.log2(radius))) + k_offset
        roots = [grid.cube(k, grid.cube_index_of(k, -radius) + d) for d in offsets]
    assert_same_cz(h, height, roots=roots, oracle=table_cz_decompose)


def corrupted_family(kind: str) -> SparseFamily:
    mesh = Mesh(1.0, 5)
    fam = build_sparse_family(MeshFunction.indicator(mesh, -0.75, -0.5) * 6 + MeshFunction.indicator(mesh, 0.125, 0.25) * 9)
    cubes, designated = list(fam.cubes), [d.copy() for d in fam.designated]
    assert len(cubes) >= 4 and fam.verify() == []
    if kind == "claimed twice":  # the root also claims a cell of its stopping cube
        designated[0] = np.sort(np.append(designated[0], designated[1][0]))
    elif kind == "repeated in one set":
        designated[1] = np.sort(np.append(designated[1], designated[1][:2]))
    elif kind == "outside its cube":
        designated[1] = np.append(designated[1], cells_inside(mesh, cubes[-1])[-1])
    elif kind == "one cell past its cube":
        designated[1] = np.append(designated[1], cells_inside(mesh, cubes[1])[-1] + 1)
    elif kind == "too small":
        designated[0] = designated[0][: len(designated[0]) // 3]
    elif kind == "everything":
        designated = [np.concatenate([designated[0][:2], designated[-1]])] * len(cubes)
    elif kind == "all sets empty":
        designated = [d[:0] for d in designated]
    elif kind == "empty family":
        cubes, designated = [], []
    return SparseFamily(mesh, fam.grid, cubes, designated)


@pytest.mark.parametrize(
    "kind, expected",
    [
        ("claimed twice", ["overlaps"]),
        ("repeated in one set", []),
        ("outside its cube", ["not inside", "overlaps"]),
        ("one cell past its cube", ["not inside"]),
        ("too small", ["sparseness fails"]),
        ("everything", ["not inside", "sparseness fails", "overlaps"]),
        ("all sets empty", ["sparseness fails"]),
        ("empty family", []),
    ],
)
def test_verify_messages_match_set_based_loop(kind, expected):
    fam = corrupted_family(kind)
    issues = verify_sparseness(fam)
    assert issues == table_verify_sparseness(fam)
    for word in expected:
        assert any(word in message for message in issues), (word, issues)
    if not expected:
        assert issues == []


@settings(max_examples=60)
@given(seed=seeds, level=st.integers(3, 8), moves=st.integers(1, 6))
def test_verify_matches_set_based_loop_on_random_corruptions(seed, level, moves):
    mesh = Mesh(1.0, level)
    rng = np.random.default_rng(seed)
    fam = build_sparse_family(step_function(mesh, seed, True))
    designated = [d.copy() for d in fam.designated]
    for _ in range(moves):
        i, j = rng.integers(len(designated), size=2)
        cells = rng.integers(-2, mesh.n_cells + 2, size=rng.integers(0, 4))
        op = rng.integers(3)
        if op == 0:  # claim cells, anywhere, for cube i
            designated[i] = np.append(designated[i], cells)
        elif op == 1:  # drop a random part of E_Q
            designated[i] = designated[i][rng.random(len(designated[i])) < 0.5]
        else:  # copy part of one set into another
            designated[i] = np.append(designated[i], designated[j][: len(designated[j]) // 2])
    corrupted = SparseFamily(mesh, fam.grid, fam.cubes, designated)
    assert verify_sparseness(corrupted) == table_verify_sparseness(corrupted)


# ---------------------------------------------------------------------------
# covering roots against the Fraction loop they replaced
# ---------------------------------------------------------------------------


@st.composite
def covering_cases(draw):
    """(radius, level, shift, span): span ends at cell edges (one cell past
    the domain included), near or on shifted-grid cube edges (the float next
    to one, or the exact ``Fraction``), or anywhere within 1.25 R."""
    radius = draw(st.sampled_from([0.75, 1.0, 4.0, 5.25, 16.0]))
    level, shift = draw(st.integers(0, 12)), draw(st.integers(0, 2))
    mesh, grid = Mesh(radius, level), DyadicGrid(shift)
    k_top, k_cell = default_levels(mesh)

    def cube_edge(k, x, exact):
        edge = Fraction(grid.numerator(k, grid.cube_index_of(k, x)), 3) / Fraction(2) ** k
        return edge if exact else float(edge)

    cell_edge = st.integers(-1, mesh.n_cells + 1).map(lambda i: -radius + i * mesh.h)
    anywhere = st.floats(-1.25 * radius, 1.25 * radius)
    grid_edge = st.builds(cube_edge, st.integers(k_top, k_cell), anywhere, st.booleans())
    point = st.one_of(cell_edge, grid_edge, anywhere)
    return radius, level, shift, tuple(sorted(draw(st.tuples(point, point))))


@settings(max_examples=300)
@given(case=covering_cases())
@example(case=(1.0, 5, 1, (-1.0, 1.0)))  # the domain edge on a shifted grid
@example(case=(4.0, 6, 0, (-4.0, 4.0)))
@example(case=(16.0, 10, 2, (16.0, 16.0)))  # an empty span at the domain edge
@example(case=(0.75, 3, 1, (Fraction(1, 3), 0.75)))  # a grid-1 edge at level 0 to the domain edge
@example(case=(0.75, 3, 2, (Fraction(-1, 3), Fraction(1, 6))))  # grid-2 edges at levels 0 and 1
@example(case=(5.25, 12, 1, (float(Fraction(-5, 3)), 5.0)))  # from the float next to a grid-1 edge
@example(case=(4.0, 8, 1, (Fraction(-11, 3), Fraction(7, 3))))  # grid-1 edges at level 0
@example(case=(5.25, 12, 2, (Fraction(-21, 4), Fraction(-29, 6))))  # the domain edge to a grid-2 edge
@example(case=(16.0, 0, 1, (-16.0, 16.0)))  # two cells
@example(case=(1.0, 12, 2, (-1.0, -1.0 + 2.0**-11)))  # the first cell of a fine mesh
def test_covering_roots_match_the_fraction_loop(case):
    """Bisected levels, the integer level scan and the ``Fraction`` loop give
    the same roots, or the same error (a point no inside cube covers)."""
    radius, level, shift, span = case
    mesh, grid = Mesh(radius, level), DyadicGrid(shift)

    def outcome(roots_of):
        try:
            return [(c.level, c.index) for c in roots_of(mesh, grid, span)]
        except ValueError as err:
            return str(err)

    assert outcome(covering_roots) == outcome(level_scan_covering_roots) == outcome(oracle_covering_roots)


@pytest.mark.parametrize("shift", [1, 2])
def test_covering_roots_name_the_point_no_inside_cube_covers(shift):
    """A shifted grid's cubes shrink near the domain edge: at the edge no
    cube down to the cells lies inside, and all three name the same point."""
    mesh, grid = Mesh(1.0, 5), DyadicGrid(shift)
    messages = []
    for roots_of in (covering_roots, level_scan_covering_roots, oracle_covering_roots):
        with pytest.raises(ValueError, match="no grid cube inside the domain covers x") as err:
            roots_of(mesh, grid, (-1.0, 1.0))
        messages.append(str(err.value))
    assert messages[0] == messages[1] == messages[2]
