import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geometry_oracle import children, contains_cube, covering_cube, edge_fraction, enumerate_cubes, intersects, parent
from weaklab import (
    Cube,
    DyadicGrid,
    Mesh,
    MeshFunction,
    average,
    shifted_grids,
)
from weaklab.grid import _geometry, cell_cube_integrals, default_levels, level_cube_integrals
from weaklab.sparse import covering_roots


def exact_integral(f, lo, hi):
    """Integral of f over [lo, hi) in rational arithmetic, cell by cell."""
    mesh = f.mesh
    return sum(
        Fraction(float(f.values[i])) * (min(hi, edge_fraction(mesh, i + 1)) - max(lo, edge_fraction(mesh, i)))
        for i in range(*mesh.cell_span(lo, hi))
    )


class TestEnumerateCubes:
    def test_standard_grid_unit_interval_two_levels(self):
        cubes = enumerate_cubes(DyadicGrid(), (0, 1), 0, 1)
        ivs = sorted(c.interval() for c in cubes)
        assert ivs == [(0.0, 0.5), (0.0, 1.0), (0.5, 1.0)]

    def test_single_level(self):
        cubes = enumerate_cubes(DyadicGrid(), (0, 1), 0, 0)
        assert [c.interval() for c in cubes] == [(0.0, 1.0)]

    def test_partial_overlap_level_one(self):
        # [0.4, 0.6) meets both level-1 halves of [0, 1)
        cubes = enumerate_cubes(DyadicGrid(), (0.4, 0.6), 1, 1)
        assert sorted(c.interval() for c in cubes) == [(0.0, 0.5), (0.5, 1.0)]

    def test_empty_level_range(self):
        assert enumerate_cubes(DyadicGrid(), (0, 1), 3, 2) == []

    def test_unbounded_domain_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cubes(DyadicGrid(), (0, math.inf), 0, 1)

    def test_no_duplicates_and_all_intersect(self):
        for g in shifted_grids(1):
            cubes = enumerate_cubes(g, (-0.7, 1.3), -1, 4)
            assert len(set((c.level, c.index) for c in cubes)) == len(cubes)
            for c in cubes:
                assert intersects(c, Fraction(-0.7), Fraction(1.3))


class TestShiftedGrids:
    def test_count_dimension_one(self):
        assert len(shifted_grids(1)) == 3

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            shifted_grids(0)

    def test_grids_live_on_the_line_only(self):
        with pytest.raises(ValueError):
            shifted_grids(2)
        with pytest.raises(ValueError):
            DyadicGrid(3)

    def test_one_third_trick_cover(self):
        q = covering_cube(shifted_grids(1), 0.49, 0.51)
        assert q.left <= Fraction(0.49) and q.right >= Fraction(0.51)
        assert q.width <= 6 * 0.02

    @given(
        a=st.floats(-2, 2, allow_nan=False),
        length=st.floats(1e-4, 1.5, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_third_trick_random(self, a, length):
        q = covering_cube(shifted_grids(1), a, a + length)
        assert q.left <= Fraction(a) and q.right >= Fraction(a + length)
        assert q.width <= 6 * length


class TestNesting:
    @given(
        j=st.integers(0, 2),
        k1=st.integers(-3, 6),
        m1=st.integers(-20, 20),
        k2=st.integers(-3, 6),
        m2=st.integers(-20, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_two_cubes_nested_or_disjoint(self, j, k1, m1, k2, m2):
        g = DyadicGrid(j)
        a, b = Cube(k1, m1, g), Cube(k2, m2, g)
        inter_lo = max(a.left, b.left)
        inter_hi = min(a.right, b.right)
        if inter_hi > inter_lo:  # they overlap
            assert contains_cube(a, b) or contains_cube(b, a)

    @given(j=st.integers(0, 2), k=st.integers(-3, 6), m=st.integers(-40, 40))
    @settings(max_examples=100, deadline=None)
    def test_children_partition_parent(self, j, k, m):
        c = Cube(k, m, DyadicGrid(j))
        lo, hi = children(c)
        assert lo.left == c.left and hi.right == c.right and lo.right == hi.left
        assert parent(lo) == c and parent(hi) == c

    def test_level_tiling_covers_domain(self):
        mesh = Mesh(1.0, 4)
        for g in shifted_grids(1):
            for k in (-1, 0, 2):
                cubes = enumerate_cubes(g, (-1, 1), k, k)
                ivals = sorted((c.left, c.right) for c in cubes)
                # pairwise disjoint and consecutive
                for (l1, r1), (l2, r2) in zip(ivals, ivals[1:]):
                    assert r1 == l2
                assert ivals[0][0] <= -1 and ivals[-1][1] >= 1


class TestAverage:
    def test_constant(self, mesh):
        f = MeshFunction.constant(mesh, 3.25)
        q = DyadicGrid().cube(2, 1)  # [1/4, 1/2)
        assert average(f, q) == pytest.approx(3.25, rel=1e-14)

    def test_quarter_indicator(self, mesh):
        f = MeshFunction.indicator(mesh, 0, 0.25)
        assert average(f, DyadicGrid().cube(0, 0)) == pytest.approx(0.25, rel=1e-14)

    def test_scaled_indicator_on_half(self, mesh):
        f = MeshFunction.indicator(mesh, 0, 0.25) * 4
        assert average(f, DyadicGrid().cube(1, 0)) == pytest.approx(2.0, rel=1e-14)

    def test_cells_outside_domain_contribute_zero(self, mesh):
        f = MeshFunction.constant(mesh, 1.0)
        q = DyadicGrid().cube(-1, 0)  # [0, 2) sticks out of [-1, 1)
        assert average(f, q) == pytest.approx(0.5, rel=1e-14)

    @given(
        c1=st.floats(-3, 3, allow_nan=False),
        c2=st.floats(-3, 3, allow_nan=False),
        k=st.integers(0, 4),
        m=st.integers(-4, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_linearity_and_monotonicity(self, c1, c2, k, m):
        mesh = Mesh(1.0, 5)
        rng = np.random.default_rng(42)
        f = MeshFunction(mesh, rng.uniform(0, 1, mesh.n_cells))
        g = MeshFunction(mesh, rng.uniform(0, 1, mesh.n_cells))
        q = Cube(k, m)
        lin = average(f * c1 + g * c2, q)
        assert lin == pytest.approx(c1 * average(f, q) + c2 * average(g, q), abs=1e-12)
        assert average(f, q) <= average(f + g, q) + 1e-12  # g >= 0

    def test_small_cube_mass_beside_a_large_one_keeps_its_precision(self):
        # [0, 1) holds 1.66e-6 behind a left half of mass 0.24: a difference
        # of prefix sums would carry the left half's rounding, 3.7e-12 of it
        mesh = Mesh(1.0, 7)
        v = np.zeros(mesh.n_cells)
        v[30:105] = 0.4121718062597689
        v[255] = 0.0002123938356576316
        f = MeshFunction(mesh, v)
        right_half = DyadicGrid().cube(0, 0)
        assert f.integral(0, 1) == v[255] * mesh.h
        assert average(f, right_half) == v[255] * mesh.h
        [(q0, ints)] = level_cube_integrals(f, DyadicGrid(), 0, 0)
        assert ints[0 - q0] == v[255] * mesh.h

    @pytest.mark.parametrize(
        "level,block,value,coarse,fine",
        [
            # a block alone in [0, 1) and in its grandchild [3/4, 1)
            (9, (900, 1002), 0.2939312573571504, (0, 0), (2, 3)),
            # 52 cells in [-1, 0), 13 of them in [-3/4, -11/16): 52 = 4 * 13
            (8, (25, 77), 0.257422416331346, (0, -1), (4, -12)),
        ],
    )
    def test_exact_stopping_ties_stay_ties(self, level, block, value, coarse, fine):
        # the exact averages differ by exactly 4, the sparse threshold, and so
        # must the floats, or the stopping decision turns on summation order
        mesh = Mesh(1.0, level)
        v = np.zeros(mesh.n_cells)
        v[block[0] : block[1]] = value
        f = MeshFunction(mesh, v)
        grid = DyadicGrid()
        assert average(f, grid.cube(*fine)) == 4 * average(f, grid.cube(*coarse))
        tables = level_cube_integrals(f, grid, coarse[0], fine[0])
        (qc, ints_c), (qf, ints_f) = tables[0], tables[-1]
        assert ints_f[fine[1] - qf] * 2.0 ** fine[0] == 4 * ints_c[coarse[1] - qc] * 2.0 ** coarse[0]

    @given(
        seed=st.integers(0, 2**32 - 1),
        heights=st.sampled_from([1, 3, 50]),
        i0=st.integers(0, 64),
        length=st.integers(0, 64),
    )
    @settings(max_examples=80, deadline=None)
    def test_cell_aligned_integral_sums_its_own_cells(self, seed, heights, i0, length):
        # blocks drawn from a few heights: equal runs and mixed spans both occur
        mesh = Mesh(3.0, 6)
        rng = np.random.default_rng(seed)
        v = rng.choice(rng.uniform(-1, 1, heights), mesh.n_cells) * (rng.uniform(size=mesh.n_cells) < 0.7)
        v = np.repeat(v[::8], 8)
        f = MeshFunction(mesh, v)
        i1 = min(i0 + length, mesh.n_cells)
        got = f.integral(edge_fraction(mesh, i0), edge_fraction(mesh, i1))
        heights_inside = set(v[i0:i1][v[i0:i1] != 0])
        if len(heights_inside) <= 1:  # one correctly rounded product
            assert got == math.fsum(v[i0:i1]) * mesh.h
        else:
            own = math.fsum(np.abs(v[i0:i1])) * mesh.h
            assert abs(got - math.fsum(v[i0:i1]) * mesh.h) <= 2 * length * 2.0**-53 * own

    def test_integral_between_arbitrary_float_endpoints(self):
        # 0.1 and 0.7 have 2^-55-scale denominators: exact positions overflow int64
        mesh = Mesh(1.0, 4)
        vals = np.random.default_rng(3).uniform(0, 1, mesh.n_cells)
        f = MeshFunction(mesh, vals)
        exact = exact_integral(f, Fraction(0.1), Fraction(0.7))
        assert f.integral(0.1, 0.7) == pytest.approx(float(exact), rel=1e-15)

    @given(
        radius=st.sampled_from([0.5, 0.75, 1.0, 3.0, 4.0]),
        level=st.integers(1, 6),
        shift=st.sampled_from([0, 1, 2]),
        dk=st.integers(-3, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_level_tables_equal_average_bit_for_bit(self, radius, level, shift, dk, seed):
        mesh = Mesh(radius, level)
        rng = np.random.default_rng(seed)
        f = MeshFunction(mesh, rng.uniform(0, 1, mesh.n_cells) * (rng.uniform(size=mesh.n_cells) < 0.5))
        grid = DyadicGrid(shift)
        k = round(math.log2(1.0 / mesh.h)) + dk
        [(q0, ints)] = level_cube_integrals(f, grid, k, k)
        for j, integral in enumerate(ints):
            cube = grid.cube(k, q0 + j)
            assert f.integral(cube.left, cube.right) == integral
            assert average(f, cube) == integral / 2.0**-k
            # accurate relative to the cube's own mass: a few roundings per cell
            own = float(exact_integral(f, cube.left, cube.right))
            assert abs(integral - own) <= 4 * mesh.n_cells * 2.0**-53 * own

    def test_zero_measure_cube_rejected(self, mesh):
        f = MeshFunction.constant(mesh, 1.0)
        with pytest.raises(ValueError):
            f.average(0.5, 0.5)


def _table_bytes(tables):
    return [(q0, ints.shape, ints.tobytes()) for q0, ints in tables]


class TestCubeTableMemo:
    """``level_cube_integrals`` reads one table per grid kept on the
    function, over a window that grows to the hull of the levels asked for
    and the coarsest default level; a fresh ``MeshFunction`` with the same
    values is the oracle."""

    @given(
        radius=st.sampled_from([0.75, 1.0, 3.0, 5.25]),
        level=st.integers(0, 9),
        shift=st.sampled_from([0, 1, 2]),
        components=st.sampled_from([0, 1, 3]),  # 0: a scalar f
        windows=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 8)), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    # Mesh(1.0, 7) asks for levels -3..9 (start 0 is level -3): overlapping,
    # nested (inner window second, then first), disjoint and repeated windows
    @example(radius=1.0, level=7, shift=1, components=0, windows=[(6, 5), (2, 6)], seed=1)
    @example(radius=1.0, level=7, shift=0, components=0, windows=[(2, 8), (4, 2)], seed=2)
    @example(radius=1.0, level=7, shift=2, components=3, windows=[(4, 2), (2, 8)], seed=3)
    @example(radius=1.0, level=7, shift=2, components=0, windows=[(8, 3), (1, 2)], seed=4)
    @example(radius=1.0, level=7, shift=0, components=1, windows=[(5, 0), (5, 0)], seed=5)
    # coarser after finer: levels 5..7, then -3..-2 above the top anchor -1
    @example(radius=1.0, level=7, shift=1, components=0, windows=[(8, 2), (0, 1)], seed=6)
    @example(radius=1.0, level=7, shift=2, components=3, windows=[(8, 2), (0, 1)], seed=7)
    def test_memo_tables_equal_fresh_tables_bit_for_bit(self, radius, level, shift, components, windows, seed):
        # windows in draw order: repeated, overlapping, nested and disjoint ones all occur
        mesh = Mesh(radius, level)
        rng = np.random.default_rng(seed)
        shape = (mesh.n_cells, components) if components else (mesh.n_cells,)
        v = rng.uniform(-1, 1, shape) * (rng.uniform(size=shape) < 0.6)
        f, grid = MeshFunction(mesh, v), DyadicGrid(shift)
        k_top, k_fine = default_levels(mesh)
        k_lo, k_hi = k_top - 2, k_fine + 2  # two levels past each end of the default range
        levels = set()
        for start, length in windows:
            k0 = k_lo + start % (k_hi - k_lo + 1)
            k1 = min(k0 + length, k_hi)
            got = level_cube_integrals(f, grid, k0, k1)
            fresh = level_cube_integrals(MeshFunction(mesh, v), grid, k0, k1)
            assert _table_bytes(got) == _table_bytes(fresh)
            levels |= set(range(k0, k1 + 1))
        hull = (min(levels | {k_top}), max(levels | {k_top}))
        assert f._windows[grid] == hull
        table = f._tables[grid]
        assert isinstance(table, np.ndarray) and not table.flags.writeable
        assert len(table) == _geometry(mesh, grid, tuple(range(hull[0], hull[1] + 1))).at[-1]

    def test_level_tables_are_views_of_the_one_kept_table(self):
        mesh = Mesh(3.0, 6)
        rng = np.random.default_rng(6)
        for shape in ((mesh.n_cells,), (mesh.n_cells, 2)):
            f = MeshFunction(mesh, rng.uniform(0, 1, shape))
            for grid in shifted_grids(1):
                for k0, k1 in [(2, 5), (-1, 0), (-4, 8), (0, 8)]:  # widened twice
                    tables = level_cube_integrals(f, grid, k0, k1)
                    assert len(tables) == k1 - k0 + 1
                    assert all(np.shares_memory(ints, f._tables[grid]) for _, ints in tables)

    def test_an_empty_request_widens_no_table(self):
        # dyadic_maximal above the cell level clips its window to nothing
        mesh, grid = Mesh(1.0, 6), DyadicGrid(1)
        f = MeshFunction(mesh, np.random.default_rng(6).uniform(0, 1, mesh.n_cells))
        k_top, k_fine = default_levels(mesh)
        level_cube_integrals(f, grid, 0, 3)
        kept = f._tables[grid]
        assert cell_cube_integrals(f, grid, k_fine + 2, k_fine).shape == (0, mesh.n_cells)
        assert cell_cube_integrals(f, grid, 0, -4).shape == (0, mesh.n_cells)
        assert level_cube_integrals(f, grid, k_fine + 2, k_fine) == []
        assert f._tables[grid] is kept and f._windows[grid] == (k_top, 3)

    def test_tables_are_kept_per_grid(self):
        mesh = Mesh(1.0, 5)
        f = MeshFunction(mesh, np.arange(mesh.n_cells, dtype=float))
        std = level_cube_integrals(f, DyadicGrid(0), 0, 3)
        shifted = level_cube_integrals(f, DyadicGrid(1), 0, 3)
        assert set(f._tables) == {DyadicGrid(0), DyadicGrid(1)}
        assert _table_bytes(level_cube_integrals(f, DyadicGrid(0), 0, 3)) == _table_bytes(std)
        assert _table_bytes(shifted) != _table_bytes(std)
        assert level_cube_integrals(f, DyadicGrid(2), 3, 2) == []


class TestImmutableMeshFunction:
    def test_values_are_read_only(self, mesh):
        f = MeshFunction.constant(mesh, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            f.values[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            f.values += 1.0

    def test_values_are_copied_from_the_caller(self, mesh):
        v = np.linspace(0, 1, mesh.n_cells)
        f = MeshFunction(mesh, v)
        before = level_cube_integrals(f, DyadicGrid(), 0, 7)
        v[:] = 5.0
        assert np.array_equal(f.values, np.linspace(0, 1, mesh.n_cells))
        assert v.flags.writeable  # the caller's array stays the caller's
        assert _table_bytes(level_cube_integrals(f, DyadicGrid(), 0, 7)) == _table_bytes(before)

    def test_tables_are_read_only(self, mesh):
        f = MeshFunction(mesh, np.random.default_rng(4).uniform(size=(mesh.n_cells, 2)))
        for grid in shifted_grids(1):
            for _, ints in level_cube_integrals(f, grid, -1, 7):
                assert not ints.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    ints[0] = 1.0

    def test_magnitude_of_a_nonnegative_scalar_is_itself(self, mesh):
        f = MeshFunction(mesh, np.random.default_rng(5).uniform(0, 1, mesh.n_cells))
        assert f.magnitude() is f and abs(f) is f
        assert MeshFunction.zeros(mesh).magnitude().values.tobytes() == np.zeros(mesh.n_cells).tobytes()

    @pytest.mark.parametrize("entry", [-0.0, -0.25])
    def test_magnitude_with_a_sign_bit_is_a_new_function(self, mesh, entry):
        v = np.random.default_rng(6).uniform(0, 1, mesh.n_cells)
        v[17] = entry
        f = MeshFunction(mesh, v)
        g = f.magnitude()
        assert g is not f and g.values.tobytes() == np.abs(v).tobytes()
        assert not np.signbit(g.values).any() and g.magnitude() is g

    def test_magnitude_of_a_vector_is_a_new_scalar(self, mesh):
        f = MeshFunction(mesh, np.ones((mesh.n_cells, 2)))
        assert f.magnitude() is not f and not f.magnitude().is_vector


class TestMeshExactness:
    def test_cell_count_and_width(self):
        m = Mesh(4.0, 8)
        assert m.n_cells == 512
        assert m.h == 4.0 * 2.0**-8
        assert Fraction(m.radius) / 2**m.level == m.h

    def test_radius_must_be_a_binary_rational(self):
        # a float edge or cell width of 1/3 cannot be exact
        with pytest.raises(ValueError, match="binary rational"):
            Mesh(Fraction(1, 3), 3)

    def test_non_integral_level_is_refused(self):
        # a mesh of 2^3.5 = 11.31 "cells"
        with pytest.raises(ValueError, match="mesh level must be an integer, got 2.5"):
            Mesh(1.0, 2.5)

    def test_float_level_is_refused(self):
        # Mesh(1.0, 3.0) built, equalled Mesh(1.0, 3) as a cache key, and its
        # MeshFunction failed inside numpy
        with pytest.raises(ValueError, match="mesh level must be an integer, got 3.0"):
            Mesh(1.0, 3.0)

    def test_boolean_level_is_refused(self):
        # Mesh(1.0, True) was a 4-cell mesh
        with pytest.raises(ValueError, match="mesh level must be an integer, got True"):
            Mesh(1.0, True)

    def test_numpy_integer_level_is_stored_as_int(self):
        m = Mesh(1.0, np.int64(3))
        assert type(m.level) is int and m == Mesh(1.0, 3) and hash(m) == hash(Mesh(1.0, 3))
        assert MeshFunction.zeros(m).values.shape == (16,)

    @pytest.mark.parametrize("new_radius, grow", [(1.5, 0), (3.0, 1), (12.0, 3)])
    def test_embedded_grows_by_powers_of_two(self, new_radius, grow):
        f = MeshFunction.indicator(Mesh(1.5, 3), -0.75, 0.375)
        big = f.embedded(new_radius)
        assert big.mesh == Mesh(new_radius, 3 + grow) and big.mesh.h == f.mesh.h
        assert np.array_equal(big.values, MeshFunction.indicator(big.mesh, -0.75, 0.375).values)

    @pytest.mark.parametrize("new_radius", [4.5, 0.75, 2.0, 1.5 + 2.0**-40])
    def test_embedded_rejects_other_radii(self, new_radius):
        with pytest.raises(ValueError, match="power-of-two multiple"):
            MeshFunction.indicator(Mesh(1.5, 3), -0.75, 0.375).embedded(new_radius)

    def test_indicator_requires_alignment(self, mesh):
        with pytest.raises(ValueError):
            MeshFunction.indicator(mesh, 0.0, 1e-3)

    def test_infinite_endpoints_clip_to_the_domain(self):
        mesh = Mesh(1.0, 3)  # 16 cells over [-1, 1)
        f = MeshFunction(mesh, np.arange(1.0, 17.0))
        assert f.integral(-math.inf, math.inf) == f.integral() == f.integral(-1.0, 1.0)
        assert f.integral(0.0, math.inf) == f.integral(0.0, 1.0)
        assert f.integral(-math.inf, -0.25) == f.integral(-1.0, -0.25)
        assert f.integral(math.inf, math.inf) == f.integral(-math.inf, -math.inf) == 0.0
        assert mesh.cell_span(0, math.inf) == (8, 16)
        assert mesh.cell_span(-math.inf, 0.25) == (0, 10)
        assert mesh.cell_span(-math.inf, math.inf) == (0, 16)
        assert mesh.cell_span(math.inf, -math.inf) == (0, 0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_is_named(self, x):
        mesh = Mesh(1.0, 3)
        calls = [lambda: mesh.cell_of(x), lambda: MeshFunction.indicator(mesh, 0.0, x)]
        calls += [lambda: covering_roots(mesh, DyadicGrid(), (x, 0.5)), lambda: covering_roots(mesh, DyadicGrid(), (0.0, x))]
        if x != x:  # infinite endpoints of integrals and spans clip to the domain instead
            f = MeshFunction.constant(mesh, 1.0)
            calls += [lambda: f.integral(x, 0.5), lambda: mesh.cell_span(0.0, x)]
        for call in calls:
            with pytest.raises(ValueError, match=f"point {x} is not a finite number"):
                call()

    def test_integral_of_partial_cells_exact(self):
        mesh = Mesh(1.0, 3)  # 16 cells of width 1/8
        f = MeshFunction.constant(mesh, 1.0)
        # [1/16, 3/16) covers half of cell 8 and half of cell 9
        assert f.integral(Fraction(1, 16), Fraction(3, 16)) == pytest.approx(1 / 8, abs=1e-16)


@pytest.mark.parametrize("shift", [1.0, 2.0, np.float64(0.0), True, False], ids=["1.0", "2.0", "np0.0", "True", "False"])
def test_shift_index_must_be_an_integer(shift):
    # DyadicGrid(1.0) == DyadicGrid(1) would share the frozen-key caches
    with pytest.raises(ValueError, match=re.escape(f"shift index must be 0, 1 or 2, got {shift!r}")):
        DyadicGrid(shift)


def test_numpy_integer_shift_index_is_a_python_int():
    grid = DyadicGrid(np.int64(1))
    assert grid == DyadicGrid(1) and type(grid.shift_index) is int


@pytest.mark.parametrize("shape", [(), (16, 2, 2)], ids=["scalar", "3-d"])
def test_mesh_function_values_are_one_or_two_dimensional(shape):
    with pytest.raises(ValueError, match=re.escape(f"mesh function values must be 1-d or 2-d, got shape {shape}")):
        MeshFunction(Mesh(1.0, 3), np.ones(shape))
