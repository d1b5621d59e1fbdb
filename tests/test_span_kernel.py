"""The span kernel (``grid._span_integrals``) over its run layout against the
three-reduction kernel it replaced (``geometry_oracle``), bit for bit and
sign of zero included, and the run layout built once per function.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weaklab.grid as grid_module
from geometry_oracle import three_reduction_span_integrals
from weaklab.grid import DyadicGrid, Mesh, MeshFunction, _geometry, _Spans, _span_integrals, default_levels, shifted_grids
from weaklab.matrix import christ_goldberg_maximal, random_matrix_weight
from weaklab.operators import hl_maximal
from weaklab.weights import _fujii_wilson

HEIGHTS = np.array([0.0, -0.0, 0.1, 1 / 3, -2.5, 7.0])
DENS = [1, 2, 3, 7, 48]


def same_floats(got: np.ndarray, ref: np.ndarray) -> bool:
    return got.shape == ref.shape and got.tobytes() == ref.tobytes()


def block_function(rng, mesh: Mesh, r: int | None) -> MeshFunction:
    """Blocks of one height at a power-of-two cell count, each component's
    heights drawn from ``HEIGHTS`` (so -0.0 lands in components whose
    neighbours are nonzero)."""
    block = 2 ** int(rng.integers(0, mesh.level + 2))
    shape = (mesh.n_cells // block,) if r is None else (mesh.n_cells // block, r)
    return MeshFunction(mesh, np.repeat(rng.choice(HEIGHTS, shape), block, axis=0))


def random_spans(rng, mesh: Mesh, n_spans: int, per_span_den: bool) -> _Spans:
    """Spans in cell units over one den per batch or one per span; about a
    quarter are empty (lo == hi), as a table's spans at its zeros are."""
    den = rng.choice(DENS, n_spans) if per_span_den else int(rng.choice(DENS))
    ends = np.sort(rng.integers(0, mesh.n_cells * den + 1, (2, n_spans)).T, axis=1)
    empty = rng.random(n_spans) < 0.25
    ends[empty, 1] = ends[empty, 0]
    return _Spans(ends[:, 0], ends[:, 1], den)


@settings(max_examples=150, deadline=None)
@given(
    level=st.integers(0, 6),
    r=st.sampled_from([None, 1, 2, 3]),
    per_span_den=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_reduction_equals_three_reductions(level, r, per_span_den, seed):
    """Random spans (straddling cells, inside one cell, empty), scalar and
    vector f, all components and one component per span: the floats of the
    three-reduction kernel."""
    rng = np.random.default_rng(seed)
    mesh = Mesh(1.0, level)
    f = block_function(rng, mesh, r)
    spans = random_spans(rng, mesh, int(rng.integers(1, 60)), per_span_den)
    assert same_floats(_span_integrals(f, spans), three_reduction_span_integrals(f, spans))
    if r is not None:
        comp = rng.integers(0, r, len(spans))
        assert same_floats(_span_integrals(f, spans, comp=comp), three_reduction_span_integrals(f, spans, comp=comp))


@settings(max_examples=60, deadline=None)
@given(
    radius=st.sampled_from([1.0, 0.75, 3.0]),
    level=st.integers(0, 6),
    shift=st.integers(0, 2),
    r=st.sampled_from([None, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_windows_equal_three_reductions(radius, level, shift, r, seed):
    """A table's spans, each level over its own den, with an empty span at
    every zero: the floats of the three-reduction kernel."""
    rng = np.random.default_rng(seed)
    mesh = Mesh(radius, level)
    f = block_function(rng, mesh, r)
    k_top, k_fine = default_levels(mesh)
    spans = _geometry(mesh, DyadicGrid(shift), tuple(range(k_top - 1, k_fine + 2))).window
    assert same_floats(_span_integrals(f, spans), three_reduction_span_integrals(f, spans))


@pytest.mark.parametrize("comp", [False, True], ids=["all-components", "comp"])
@pytest.mark.parametrize("zeros", [[-0.0, 0.0, 0.0, 0.0], [0.0, -0.0], [-0.0] * 12 + [0.0] * 5, [0.0, -0.0] * 9])
def test_zeros_of_both_signs_keep_the_sign_of_the_minimum(zeros, comp):
    """A component that is +-0 where another is nonzero: a span over those
    cells, between two negative straddling terms, is a zero whose sign the
    minimum of its cells gave, which need not be its first cell's."""
    n = len(zeros)
    mesh = Mesh(1.0, max((n + 1).bit_length() - 1, 1))
    values = np.ones((mesh.n_cells, 2))
    values[:, 0] = -1.0
    values[1 : n + 1, 0] = zeros
    f = MeshFunction(mesh, values)
    spans = _Spans(np.array([1, 0, 2]), np.array([n + 1, n + 1, n]), 1)
    kw = {"comp": np.zeros(3, dtype=np.int64)} if comp else {}
    got, ref = _span_integrals(f, spans, **kw), three_reduction_span_integrals(f, spans, **kw)
    assert same_floats(got, ref)


def count_layouts(monkeypatch) -> tuple[list, list]:
    """(layouts, calls): the function of every run layout built and of every
    span-kernel call."""
    layouts, calls = [], []

    class Counted(grid_module._Runs):
        __slots__ = ()

        def __init__(self, f):
            layouts.append(f)
            super().__init__(f)

    kernel = grid_module._span_integrals
    monkeypatch.setattr(grid_module, "_Runs", Counted)
    monkeypatch.setattr(grid_module, "_span_integrals", lambda f, *a, **k: calls.append(f) or kernel(f, *a, **k))
    return layouts, calls


def one_layout_per_function(layouts: list, calls: list) -> bool:
    """Each function read by the kernel built its layout once, and was read
    on each of the three grids."""
    ids = [id(f) for f in calls]
    return sorted(map(id, layouts)) == sorted(set(ids)) and all(ids.count(i) == 3 for i in set(ids))


def test_maximal_operators_lay_out_each_function_once(monkeypatch):
    mesh = Mesh(1.0, 5)
    rng = np.random.default_rng(44)
    layouts, calls = count_layouts(monkeypatch)
    hl_maximal(MeshFunction(mesh, rng.uniform(-1, 1, mesh.n_cells)))
    assert len(layouts) == 1 and one_layout_per_function(layouts, calls)
    layouts.clear(), calls.clear()
    W = random_matrix_weight(mesh, 2, rng)
    christ_goldberg_maximal(W, 2.0, MeshFunction(mesh, rng.uniform(-1, 1, (mesh.n_cells, 2))))
    assert len(layouts) == 1 and layouts[0].is_vector and one_layout_per_function(layouts, calls)


def test_vector_fujii_wilson_lays_out_its_weight_once(monkeypatch):
    mesh = Mesh(1.0, 5)
    wbar = MeshFunction(mesh, np.random.default_rng(45).uniform(0.5, 2.0, (mesh.n_cells, 4)))
    layouts, calls = count_layouts(monkeypatch)
    k_top, k_fine = default_levels(mesh)
    _fujii_wilson(wbar, shifted_grids(), k_top, k_fine)
    assert layouts == [wbar] and one_layout_per_function(layouts, calls)


def test_the_run_layout_is_read_only_and_kept_on_its_function():
    mesh = Mesh(1.0, 3)
    f = MeshFunction(mesh, np.r_[np.zeros(4), np.arange(1.0, 13.0)])
    assert f._runs is None
    f.integral(-0.5, 0.5)
    runs = f._runs
    f.integral(0.0, 0.25)
    assert f._runs is runs
    for name in ("cells", "before", "vals", "changes"):
        assert not getattr(runs, name).flags.writeable
    assert runs.before.tolist() == [0] * 5 + list(range(1, 13))
    g = MeshFunction(mesh, np.arange(1.0, 17.0))
    g.integral()
    assert g._runs.vals is g._runs.cells  # every cell nonzero: no gather
