from fractions import Fraction

import numpy as np
import pytest

from conftest import random_step
from geometry_oracle import cells_inside
from weaklab import (
    DyadicGrid,
    Mesh,
    MeshFunction,
    PowerLogWeight,
    SampledWeight,
    build_sparse_family,
    cz_decompose,
    dyadic_maximal,
    exceptional_set,
    multiplier_apply,
    shifted_grids,
    sparse_apply,
    verify_sparseness,
)
from weaklab import grid as grid_module
from weaklab.grid import average
from weaklab.sparse import SparseFamily, covering_roots, root_cubes


class TestCZDecomposition:
    def test_nan_height_rejected(self, mesh):
        # a NaN height compares false both ways: it stopped nothing and gave an empty Omega
        with pytest.raises(ValueError, match="height must be positive, got nan"):
            cz_decompose(MeshFunction.indicator(mesh, 0, 0.25), float("nan"))

    def test_no_stopping_cube(self, mesh):
        h = MeshFunction.constant(mesh, 0.5)
        dec = cz_decompose(h, 1.0)
        assert dec.cubes == []
        assert np.allclose(dec.good.values, h.values)
        assert np.allclose(dec.bad.values, 0.0)
        assert dec.omega_measure == 0.0

    def test_hand_example(self, mesh):
        # h = 4 chi_[0, 1/4), height 1: the maximal cube is [0, 1/2)
        # (average 2 > 1; its parent [0,1) has average exactly 1)
        h = MeshFunction.indicator(mesh, 0, 0.25) * 4
        dec = cz_decompose(h, 1.0)
        assert [c.interval() for c in dec.cubes] == [(0.0, 0.5)]
        c = mesh.centers()
        on = (c > 0) & (c < 0.5)
        assert np.allclose(dec.good.values[on], 2.0)
        assert np.allclose(dec.good.values[~on], h.values[~on])
        bad_expected = (h.values - 2.0) * on
        assert np.allclose(dec.bad.values, bad_expected)

    def test_height_validated(self, mesh):
        with pytest.raises(ValueError):
            cz_decompose(MeshFunction.constant(mesh, 1.0), 0.0)

    def test_invariants_on_seeded_functions(self, mesh):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            h = random_step(mesh, rng)
            height = float(rng.uniform(0.2, 3.0) * max(h.values.mean(), 1e-3))
            dec = cz_decompose(h, height)
            # reconstruction, support, disjointness, mean zero, L1, Linf
            assert np.allclose(dec.good.values + dec.bad.values, h.values, atol=1e-14)
            off = np.setdiff1d(np.arange(mesh.n_cells), dec.omega_cells)
            assert np.allclose(dec.bad.values[off], 0.0)
            for q in dec.cubes:
                assert abs(dec.bad.integral(q.left, q.right)) < 1e-12 * max(1.0, h.integral())
            for a, b in zip(dec.cubes, dec.cubes[1:]):
                pass
            ivs = sorted((q.left, q.right) for q in dec.cubes)
            for (l1, r1), (l2, r2) in zip(ivs, ivs[1:]):
                assert r1 <= l2  # pairwise disjoint
            assert dec.good.lp_norm(1) <= h.lp_norm(1) + 1e-12
            root_avgs = [average(h, r) for r in root_cubes(mesh, DyadicGrid())]
            if max(root_avgs) <= height:  # classical regime: no root stops
                assert dec.good.lp_norm(np.inf) <= 2 * height + 1e-12
            assert dec.omega_measure <= h.integral() / height + 1e-12

    def test_average_identity_off_omega(self, mesh):
        # <h>_Q = <good>_Q on every grid cube not inside Omega
        rng = np.random.default_rng(77)
        grid = DyadicGrid()
        for _ in range(10):
            h = random_step(mesh, rng)
            height = float(rng.uniform(0.3, 1.5) * max(h.values.mean(), 1e-3))
            dec = cz_decompose(h, height)
            omega = set(int(i) for i in dec.omega_cells)
            k_cell = mesh.aligned_cell_level()
            for k in range(k_cell - mesh.level, k_cell + 1):
                q0 = grid.cube_index_of(k, Fraction(-mesh.radius))
                q1 = grid.cube_index_of(k, Fraction(mesh.radius))
                for m in range(q0, q1):
                    cube = grid.cube(k, m)
                    if cube.right > Fraction(mesh.radius):
                        continue
                    cells = cells_inside(mesh, cube)
                    if len(cells) and all(int(i) in omega for i in cells):
                        continue  # inside Omega
                    assert average(h, cube) == pytest.approx(
                        average(dec.good, cube), rel=1e-12, abs=1e-14
                    )


class TestExceptionalSet:
    def _normalized(self, mesh, rng, p):
        f = random_step(mesh, rng)
        return f * (1.0 / f.lp_norm(p))

    def test_far_support_keeps_E(self, mesh):
        f = MeshFunction.indicator(mesh, -1.0, -0.75)
        p = 2.0
        f = f * (1.0 / f.lp_norm(p))
        E = np.arange(mesh.cell_of(0.5), mesh.cell_of(0.9))
        omega, eprime = exceptional_set(f, p, E, K=16.0)
        assert np.array_equal(np.sort(eprime), np.sort(E))

    def test_omega_measure_bound_on_seeded_data(self, mesh):
        rng = np.random.default_rng(123)
        p = 2.0
        for _ in range(50):
            f = self._normalized(mesh, rng, p)
            n_e = int(rng.integers(4, mesh.n_cells // 2))
            start = int(rng.integers(0, mesh.n_cells - n_e))
            E = np.arange(start, start + n_e)
            K = float(rng.uniform(2.5, 8.0))
            omega, eprime = exceptional_set(f, p, E, K)
            e_measure = len(E) * mesh.h
            assert len(omega) * mesh.h <= e_measure / K + 1e-12
            assert len(eprime) * mesh.h > e_measure / 2

    def test_default_constant_run(self, mesh):
        rng = np.random.default_rng(7)
        p = 1.0
        f = self._normalized(mesh, rng, p)
        E = np.arange(0, 64)
        omega, eprime = exceptional_set(f, p, E, K=4.0)
        ratio = len(eprime) / len(E)
        assert ratio > 0.5

    def test_small_K_rejected(self, mesh):
        f = MeshFunction.indicator(mesh, 0, 1)
        f = f * (1.0 / f.lp_norm(2))
        with pytest.raises(ValueError):
            exceptional_set(f, 2.0, np.arange(4), K=2.0)

    def test_nan_K_rejected(self, mesh):
        f = MeshFunction.indicator(mesh, 0, 1)
        f = f * (1.0 / f.lp_norm(2))
        with pytest.raises(ValueError, match="K > 2, got nan"):
            exceptional_set(f, 2.0, np.arange(4), K=float("nan"))

    @pytest.mark.parametrize(
        "cells, message",
        [([0, 1, 1, 1], "cell 1 is repeated"), ([0, 1, -3], "cell -3 is off the mesh"),
         ([0, 1, 40], "cell 40 is off the mesh"), ([40, 40, 1], "cell 40 is off the mesh")],
        ids=["repeated", "negative", "past-the-end", "first-bad-one"],
    )
    def test_repeated_or_off_mesh_cells_rejected(self, cells, message):
        # a repeated cell counted twice in |E|, a negative one indexed from the end
        mesh = Mesh(1.0, 4)  # 32 cells
        f = MeshFunction.indicator(mesh, 0, 1)
        f = f * (1.0 / f.lp_norm(2))
        with pytest.raises(ValueError, match=f"distinct cells 0..31: {message}$"):
            exceptional_set(f, 2.0, np.array(cells), K=4.0)

    @pytest.mark.parametrize(
        "cells", [[[0, 1], [2, 3]], [0.5, 1.7, 2.9], [True, False]], ids=["two-dimensional", "fractional", "mask"]
    )
    def test_cells_that_are_not_a_list_of_indices_rejected(self, cells):
        # a fractional cell was truncated to its integer part, a 2-D array counted by
        # rows, and a boolean mask read as the cells 1 and 0
        mesh = Mesh(1.0, 4)
        f = MeshFunction.indicator(mesh, 0, 1)
        f = f * (1.0 / f.lp_norm(2))
        with pytest.raises(ValueError, match="one-dimensional array of integer cell indices"):
            exceptional_set(f, 2.0, np.array(cells), K=4.0)

    def test_unnormalized_rejected(self, mesh):
        f = MeshFunction.indicator(mesh, 0, 1) * 3
        with pytest.raises(ValueError):
            exceptional_set(f, 2.0, np.arange(4), K=4.0)


class TestBuildSparseFamily:
    @pytest.mark.parametrize("min_width_cells", [0, -2, float("nan")])
    def test_min_width_below_one_cell_rejected(self, mesh, min_width_cells):
        with pytest.raises(ValueError, match=f"at least 1, got {min_width_cells}"):
            build_sparse_family(MeshFunction.indicator(mesh, 0, 1), min_width_cells=min_width_cells)

    def test_covering_roots_refuse_a_reversed_span(self, mesh):
        grid = DyadicGrid(1)
        with pytest.raises(ValueError, match=r"span \[0.5, -0.5\) ends before it starts"):
            covering_roots(mesh, grid, (0.5, -0.5))
        assert covering_roots(mesh, grid, (0.5, 0.5)) == []

    def test_constant_single_cube(self, mesh):
        f = MeshFunction.indicator(mesh, 0, 1)
        root = DyadicGrid().cube(0, 0)
        fam = build_sparse_family(f, roots=[root])
        assert [c.interval() for c in fam.cubes] == [(0.0, 1.0)]
        out = fam.apply(f)
        c = mesh.centers()
        assert np.allclose(out.values[(c > 0) & (c < 1)], 1.0)

    def test_hand_example_with_domination(self, mesh):
        f = MeshFunction.indicator(mesh, 0, 0.25) * 4
        root = DyadicGrid().cube(0, 0)
        fam = build_sparse_family(f, roots=[root])
        assert sorted(c.interval() for c in fam.cubes) == [(0.0, 0.25), (0.0, 1.0)]
        assert fam.verify() == []
        md = dyadic_maximal(f, max_level=mesh.aligned_cell_level())
        As = fam.apply(f)
        c = mesh.centers()
        on_root = (c > 0) & (c < 1)
        assert np.all(md.values[on_root] <= 4 * As.values[on_root] + 1e-12)

    def test_zero_function_keeps_root(self, mesh):
        root = DyadicGrid().cube(0, 0)
        fam = build_sparse_family(MeshFunction.zeros(mesh), roots=[root])
        assert [c.interval() for c in fam.cubes] == [(0.0, 1.0)]
        assert fam.verify() == []

    def test_sparseness_on_seeded_functions(self, mesh):
        rng = np.random.default_rng(99)
        for _ in range(40):
            f = random_step(mesh, rng)
            fam = build_sparse_family(f)
            assert fam.verify() == []
            for cube, cells in zip(fam.cubes, fam.designated):
                assert cube.width <= 2 * len(cells) * mesh.h + 1e-12

    def test_domination_and_reverse_bound(self, mesh):
        rng = np.random.default_rng(100)
        for _ in range(25):
            f = random_step(mesh, rng)
            fam = build_sparse_family(f)
            md = dyadic_maximal(f, max_level=mesh.aligned_cell_level())
            As = fam.apply(f)
            covered = As.values > 0
            assert np.all(md.values[covered] <= 4 * As.values[covered] + 1e-10)
            assert np.all(As.values <= 2 * md.values + 1e-10)

    def test_shifted_grid_family_sparse(self, wide_mesh):
        rng = np.random.default_rng(5)
        f = random_step(wide_mesh, rng, span=(-2, 2))
        for g in shifted_grids(1)[1:]:
            fam = build_sparse_family(f, grid=g)
            assert fam.verify() == []


class TestSparseApply:
    def test_single_cube(self, mesh):
        rng = np.random.default_rng(55)
        f = random_step(mesh, rng)
        root = DyadicGrid().cube(1, 0)  # [0, 1/2)
        fam = SparseFamily(mesh, DyadicGrid(), [root], [cells_inside(mesh, root)])
        out = sparse_apply(fam, f)
        c = mesh.centers()
        sel = (c > 0) & (c < 0.5)
        assert np.allclose(out.values[sel], average(f, root))
        assert np.allclose(out.values[~sel], 0.0)

    def test_linear_and_monotone(self, mesh):
        rng = np.random.default_rng(56)
        f, g = random_step(mesh, rng), random_step(mesh, rng)
        fam = build_sparse_family(f + g)
        a_f, a_g, a_fg = fam.apply(f), fam.apply(g), fam.apply(f + g)
        assert np.allclose(a_fg.values, a_f.values + a_g.values, atol=1e-12)
        assert np.all(a_f.values <= a_fg.values + 1e-12)

    def test_nested_two_cube_hand_sum(self, mesh):
        g = DyadicGrid()
        outer, inner = g.cube(0, 0), g.cube(2, 0)  # [0,1) and [0,1/4)
        fam = SparseFamily(
            mesh, g, [outer, inner],
            [np.setdiff1d(cells_inside(mesh, outer), cells_inside(mesh, inner)),
             cells_inside(mesh, inner)],
        )
        f = MeshFunction.indicator(mesh, 0, 0.25) * 4
        out = fam.apply(f)
        c = mesh.centers()
        assert np.allclose(out.values[(c > 0) & (c < 0.25)], 1.0 + 4.0)
        assert np.allclose(out.values[(c > 0.25) & (c < 1)], 1.0)

    def test_fractional_weighting(self, mesh):
        f = MeshFunction.indicator(mesh, 0, 0.5)
        root = DyadicGrid().cube(1, 0)
        fam = SparseFamily(mesh, DyadicGrid(), [root], [cells_inside(mesh, root)])
        out = fam.apply(f, alpha=0.5)
        c = mesh.centers()
        assert np.allclose(out.values[(c > 0) & (c < 0.5)], 0.5**0.5 * 1.0)


class TestTableWork:
    """Table batches (``grid._span_integrals`` calls) per (function, grid):
    the stopping-time layers read one table kept on the function."""

    @pytest.fixture
    def batches(self, monkeypatch):
        calls = []
        span_integrals = grid_module._span_integrals

        def counted(f, lo, *args, **kwargs):
            calls.append(len(lo))
            return span_integrals(f, lo, *args, **kwargs)

        monkeypatch.setattr(grid_module, "_span_integrals", counted)
        return calls

    @pytest.mark.parametrize("level", [7, 9])
    def test_sparse_check_sequence_builds_one_batch(self, batches, level):
        # the `weaklab sparse-check` sequence on one f: the first table holds
        # the coarsest default level and the levels down to the cells, so the
        # levels dyadic_maximal reads are already there; nothing is rebuilt
        mesh = Mesh(1.0, level)
        f = random_step(mesh, np.random.default_rng(level))
        cz_decompose(f, 0.5 * f.values.mean())
        fam = build_sparse_family(f)
        dyadic_maximal(f, max_level=mesh.aligned_cell_level())
        fam.apply(f)
        assert len(batches) == 1
        assert batches[0] >= mesh.n_cells

    def test_h_domination_builds_one_batch_per_grid(self, batches, wide_mesh):
        f = random_step(wide_mesh, np.random.default_rng(8), lo=0.25, span=(-2.0, 2.0)).embedded(16.0)
        mag = f.magnitude()
        for g in shifted_grids(1):
            fam = build_sparse_family(mag, grid=g, roots=covering_roots(f.mesh, g, (-4.0, 4.0)))
            fam.apply(mag)
        assert len(batches) == 3
        assert mag is f  # a nonnegative f is its own magnitude, tables and all

    @pytest.mark.parametrize("sampled", [False, True], ids=["powerlog", "sampled"])
    def test_sparse_multiplier_builds_one_batch(self, batches, mesh, sampled):
        # multiplier_apply builds the family on the g it applies it to, so
        # building and applying read one table
        w = SampledWeight(mesh, np.linspace(0.5, 2.0, mesh.n_cells)) if sampled else PowerLogWeight(0.5)
        multiplier_apply("AS", w, 2.0, random_step(mesh, np.random.default_rng(84)))
        assert len(batches) == 1

    def test_a_new_function_builds_its_own_table(self, batches, mesh):
        f = random_step(mesh, np.random.default_rng(10))
        build_sparse_family(f)
        build_sparse_family(MeshFunction(mesh, f.values))
        assert len(batches) == 2


class TestVerifySparseness:
    def test_valid_family_clean(self, mesh):
        fam = build_sparse_family(MeshFunction.indicator(mesh, 0, 0.25) * 4)
        assert verify_sparseness(fam) == []

    def test_overlapping_designated_flagged(self, mesh):
        g = DyadicGrid()
        q1, q2 = g.cube(1, 0), g.cube(1, 1)
        cells = cells_inside(mesh, q1)
        fam = SparseFamily(mesh, g, [q1, q2], [cells, cells])
        issues = verify_sparseness(fam)
        assert any("overlap" in s for s in issues)
        assert any("not inside" in s for s in issues)

    def test_too_small_designated_flagged(self, mesh):
        g = DyadicGrid()
        q = g.cube(0, 0)
        fam = SparseFamily(mesh, g, [q], [cells_inside(mesh, q)[:3]])
        issues = verify_sparseness(fam)
        assert any("sparseness fails" in s for s in issues)
