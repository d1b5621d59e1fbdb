import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from conftest import argmax_inside_window, exact_lower_bound_supremum
from lowerbound_oracle import (
    F_grid_max,
    brentq_endpoint,
    counted_at,
    per_lambda_experiment,
    per_lambda_loop_experiment,
    sweep_lambdas,
)
from weaklab import (
    GradedMesh,
    Mesh,
    MeshFunction,
    delta_sweep,
    exact_a1_interval_average,
    lower_bound_experiment,
    mu,
    multiplier_apply,
    nu,
    w_delta,
)
from weaklab import lowerbound
from weaklab._special import lambertw
from weaklab.lowerbound import (
    _ROOT_RTOL,
    F_argmax,
    F_lambda,
    MeshResolutionError,
    h_magnitude,
    level_set_endpoint,
    level_set_endpoints,
    level_set_measure_bounds,
    mu_inverse,
    necessary_condition_violation,
    nu_of_mu,
    output_magnitude,
    sweep_slope,
)

E = math.e


class TestMuNu:
    def test_values_at_one(self):
        assert mu(1.0) == 1.0
        assert nu(1.0) == 1.0
        assert nu_of_mu(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_singularity_rejected(self):
        with pytest.raises(ValueError):
            mu(0.0)
        with pytest.raises(ValueError):
            nu(-1.0)

    def test_inverse_sandwich(self):
        for x in (1e-4, 1e-2, 0.5):
            v = nu_of_mu(x)
            assert x <= v <= 2 * x
            # closed form x (log(e/x) + log log(e/x)) / log(e/x)
            L = math.log(E / x)
            assert v == pytest.approx(x * (L + math.log(L)) / L, rel=1e-14)
            assert nu(mu(x)) == pytest.approx(v, rel=1e-14)

    def test_mu_monotone_decreasing(self):
        xs = np.geomspace(1e-6, 1.0, 200)
        vals = mu(xs)
        assert np.all(np.diff(vals) < 0)

    def test_mu_inverse_roundtrip(self):
        for lam in (1.0, 5.0, 1e3, 1e8, 1e100, 1e300):
            x = mu_inverse(lam)
            assert mu(x) == pytest.approx(lam, rel=1e-12)

    def test_mu_inverse_matches_brentq_and_rejects_overflow(self):
        # the Lambert W closed form against the bracketed brentq solve it replaced
        for lam in np.geomspace(1.0, 1e100, 41):
            lo, hi = 0.49 * nu(lam), min(1.0, 1.01 * nu(lam))
            ref = optimize.brentq(lambda x: mu(x) - lam, lo, hi, xtol=1e-300, rtol=8.9e-16)
            assert mu_inverse(lam) == pytest.approx(ref, rel=1e-15)
        for lam in (0.5, 1e308, math.inf):
            with pytest.raises(ValueError):
                mu_inverse(lam)


@settings(max_examples=200, deadline=None)
@given(z=st.one_of(st.floats(1.0, math.log(1e300)).map(math.exp), st.sampled_from([E, 3.0, 1e300])))
def test_lambertw_within_4e16_of_mpmath(z):
    import mpmath

    with mpmath.workdps(40):
        ref = mpmath.lambertw(mpmath.mpf(z)).real
        assert abs(lambertw(z) - ref) <= 4e-16 * ref


class TestNecessaryCondition:
    def test_ratio_grows_like_log_lambda(self):
        t = 0.5
        lams = [10.0, 1e3, 1e6]
        ratios = []
        for lam in lams:
            lhs, rhs = necessary_condition_violation(t, lam)
            ratios.append(lhs / rhs)
            # intermediate bound via the approximate inverse: LHS >= log(e lam)/(2t)
            assert lhs >= math.log(E * lam) / (2 * t) * (1 - 1e-12)
        assert ratios[0] < ratios[1] < ratios[2]
        # growth comparable to log(lambda)
        assert ratios[2] / ratios[0] > math.log(1e6) / math.log(10) / 2

    def test_measure_lower_bound_nu(self):
        t = 0.5
        for lam in (10.0, 100.0):
            lhs, _ = necessary_condition_violation(t, lam)
            measure = lhs * t / lam
            assert measure >= nu(lam) / 2 * (1 - 1e-12)

    def test_small_lambda_full_measure(self):
        t = 0.25
        lam = 0.5 * mu(t)
        lhs, rhs = necessary_condition_violation(t, lam)
        assert lhs == pytest.approx(lam, rel=1e-14)  # measure = t


class TestWDelta:
    def test_exact_value_at_one(self):
        for delta in (0.05, 0.1, 0.25):
            expected = 1.0 / delta + 1.0 / delta**2
            assert exact_a1_interval_average(delta, 1.0) == expected
            assert w_delta(delta).average(0, 1) == pytest.approx(expected, rel=1e-12)

    def test_closed_form_matches_quadrature(self):
        for delta in (0.05, 0.1, 0.25):
            for t in (0.01, 0.1, 1.0):
                closed = exact_a1_interval_average(delta, t)
                quad, _ = integrate.quad(
                    lambda x: math.log(E / x) * x ** (delta - 1.0), 0, t,
                    limit=400, epsabs=1e-14, epsrel=1e-12,
                )
                assert closed == pytest.approx(quad / t, rel=1e-8)

    def test_large_t_branch_bound(self):
        delta = 0.1
        t = 4.0
        avg = exact_a1_interval_average(delta, t)
        assert avg == pytest.approx((1 / delta + 1 / delta**2) / t + (t - 1) / t, rel=1e-14)
        assert avg <= 2.0 / delta**2  # w_delta(t) = 1 for t > 1

    def test_monotone_decreasing_and_continuous_at_one(self):
        for delta in (0.05, 0.2, 0.4):
            w = w_delta(delta)
            xs = np.geomspace(1e-8, 1.0, 300)
            vals = np.asarray(w(xs))
            assert np.all(np.diff(vals) < 0)
            assert vals[-1] == pytest.approx(1.0, rel=1e-12)
            assert float(w(1.5)) == 1.0

    def test_delta_range_validated(self):
        for bad in (0.0, 0.5, -0.1):
            with pytest.raises(ValueError):
                w_delta(bad)

    def test_pointwise_domination_of_mu_composition(self):
        # w_delta(x) >= mu(x^(1-delta)) on (0, 1/2]
        for delta in (0.05, 0.2, 0.45):
            xs = np.geomspace(1e-10, 0.5, 100)
            w = np.asarray(w_delta(delta)(xs))
            comp = mu(xs ** (1 - delta))
            assert np.all(w >= comp * (1 - 1e-12))


class TestF:
    def test_argmax_matches_grid_search(self):
        for delta in (0.05, 0.1, 0.2):
            lam_star, f_star = F_argmax(delta)
            assert lam_star == pytest.approx(math.exp(1 / delta), rel=1e-14)
            lam_grid, f_grid = F_grid_max(delta)
            assert f_grid == pytest.approx(f_star, rel=1e-2)
            assert abs(math.log(lam_grid / lam_star)) < 0.1

    def test_f_star_scales_like_inverse_delta(self):
        for delta in (0.05, 0.1, 0.2, 0.4):
            _, f_star = F_argmax(delta)
            assert math.exp(-2) <= f_star * delta <= 1.0

    def test_domain_validated(self):
        with pytest.raises(ValueError):
            F_lambda(0.1, 1.0)

    @pytest.mark.parametrize(
        "call",
        [lambda: F_argmax(-1.0), lambda: F_argmax(0.0), lambda: F_argmax(1.0), lambda: F_argmax(math.nan),
         lambda: F_lambda(1.0, 3.0), lambda: exact_a1_interval_average(0.5, 1.0)],
        ids=["argmax-negative", "argmax-zero", "argmax-one", "argmax-nan", "lambda-one", "average-half"],
    )
    def test_delta_outside_its_domain_is_named(self, call):
        # one domain for the family and its helpers: F_argmax(-1) gave a
        # complex F*, and delta = 0 or 1 divided by zero
        with pytest.raises(ValueError, match=re.escape("delta must lie in (0, 1/2), got")):
            call()
        assert F_argmax(0.4)[1] > 0


class TestLevelSets:
    def test_h_magnitude_exceeds_half(self):
        mesh = GradedMesh()
        vals = h_magnitude(mesh.centers)
        assert np.all(vals > 0.5)

    def test_h_magnitude_against_operator_module(self):
        # closed form vs the actual Hilbert transform of chi_[1,2]
        big = Mesh(4.0, 8)
        f = MeshFunction.indicator(big, 1, 2)
        out = multiplier_apply("H", w_delta(0.1), 1.0, f)
        c = big.centers()
        sel = (c > 0) & (c < 0.5)
        expected = np.asarray(w_delta(0.1)(c[sel])) * h_magnitude(c[sel])
        assert np.allclose(np.abs(out.values[sel]), expected, rtol=1e-12)

    def test_level_set_endpoint_is_exact_root(self):
        for delta in (0.05, 0.1, 0.2):
            lam = math.exp(1 / delta)
            x = level_set_endpoint(delta, lam)
            assert output_magnitude(delta, x) == pytest.approx(lam, rel=_ROOT_RTOL)

    def test_measure_sandwich_for_mu_composition(self):
        # exact measure of {mu(x^(1-delta)) > 2 lam} lies between the nu-based
        # lower and upper bounds
        for delta in (0.1, 0.2):
            for lam in (50.0, 1e4):
                lo, hi = level_set_measure_bounds(delta, lam)
                exact = mu_inverse(2 * lam) ** (1.0 / (1.0 - delta))
                assert lo * (1 - 1e-12) <= exact <= hi * (1 + 1e-12)


class TestVectorRoots:
    """level_set_endpoints against the scalar brentq oracle it replaced."""

    @pytest.mark.parametrize("delta", [0.02, 0.05, 0.1, 0.2])
    def test_sweep_matches_brentq(self, delta):
        lams = sweep_lambdas(delta)
        assert lams.size == 162
        roots = level_set_endpoints(delta, lams)
        expected = np.array([brentq_endpoint(delta, lam) for lam in lams])
        assert np.all(np.abs(roots - expected) <= _ROOT_RTOL * expected)
        assert level_set_endpoint(delta, lams[80]) == roots[80]

    @pytest.mark.parametrize("x_hi", [0.5, 0.25])
    def test_whole_interval_at_and_below_g_of_x_hi(self, x_hi):
        g = output_magnitude(0.1, x_hi)
        lams = np.array([g, np.nextafter(g, 0), 0.5 * g, 1e-300, g * (1 + 1e-9)])
        roots = level_set_endpoints(0.1, lams, x_hi)
        assert np.all(roots[:4] == x_hi)
        assert roots[4] < x_hi
        assert roots[4] == pytest.approx(brentq_endpoint(0.1, lams[4], x_hi), rel=_ROOT_RTOL)

    @pytest.mark.parametrize("lams", [[0.0], [-1.0], [10.0, 0.0], [math.nan]])
    def test_non_positive_lambda_raises(self, lams):
        with pytest.raises(ValueError, match="lam must be positive"):
            level_set_endpoints(0.1, lams)
        with pytest.raises(ValueError, match="lam must be positive"):
            level_set_endpoint(0.1, lams[-1])

    def test_roots_below_1e_minus_60(self):
        # at delta = 0.005, G(1e-60) < e^200: the root lies near e^-200, below the
        # fixed 1e-60 floor the bracket once had
        lams = np.array([1e3, math.exp(200.0), 1e300])
        roots = level_set_endpoints(0.005, lams)
        expected = np.array([brentq_endpoint(0.005, lam, x_lo=1e-305) for lam in lams])
        assert roots[1] < 1e-60
        assert np.all(np.abs(roots - expected) <= _ROOT_RTOL * expected)

    def test_unconverged_roots_raise(self, monkeypatch):
        monkeypatch.setattr(lowerbound, "_ROOT_MAX_STEPS", 1)
        with pytest.raises(MeshResolutionError, match="did not converge in 1 Newton steps"):
            level_set_endpoints(0.1, [1e6])

    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.2])
    def test_report_is_bit_identical_to_per_lambda_loop(self, delta):
        # criterion 3's grid: the best quotient is counted there, so every field
        # (repr is exact for floats and equates the two NaN sharp_rh_nu) agrees
        new = lower_bound_experiment(delta, compute_nu=False)
        assert new.measure_path == "cells"
        assert repr(new) == repr(per_lambda_experiment(delta))

    def test_closed_form_report_matches_per_lambda_loop(self):
        # at delta = 0.02 the level sets lie below the mesh, and the quotient is
        # lam times a root
        new = lower_bound_experiment(0.02, compute_nu=False)
        old = per_lambda_experiment(0.02)
        assert new.measure_path == old.measure_path == "closed-form"
        assert new.best_lambda == old.best_lambda
        assert new.quotient == pytest.approx(old.quotient, rel=_ROOT_RTOL)


def _outcome(experiment, delta, **kwargs):
    """The report of ``experiment``, or the type and message of its error."""
    try:
        return experiment(delta, **kwargs)
    except MeshResolutionError as e:
        return type(e), str(e)


class TestOnePassSweep:
    """The sweep counted, cross-checked and scored at once, against the loop
    one lambda at a time it replaced (``per_lambda_loop_experiment``)."""

    @pytest.mark.parametrize("delta", [0.2, 0.1, 0.05, 0.02, 0.007])
    def test_report_equals_the_per_lambda_loop(self, delta):
        got, want = (_outcome(run, delta) for run in (lower_bound_experiment, per_lambda_loop_experiment))
        assert got == want
        assert isinstance(got, lowerbound.LowerBoundReport)

    def test_first_failing_lambda_raises_the_loops_error(self):
        delta = 0.2

        class CentreCountingMesh(GradedMesh):
            def counted_measure(self, values, lam):
                return super().counted_measure(output_magnitude(delta, self.centers), lam)

        for d, match in ((0.2, "cell-counted measure 4.297e-02"), (0.1, "cell-counted measure 2.213e-04")):
            got, want = (
                _outcome(run, d, mesh=CentreCountingMesh(), compute_nu=False)
                for run in (lower_bound_experiment, per_lambda_loop_experiment)
            )
            assert got == want and got[0] is MeshResolutionError and match in got[1]

    def test_counted_measure_of_many_lams_equals_one_lam_at_a_time(self):
        mesh = GradedMesh()
        rng = np.random.default_rng(9)
        n = mesh.widths.size
        with_nan = rng.lognormal(0.0, 3.0, n)
        with_nan[::7] = np.nan
        for values in (
            output_magnitude(0.1, mesh.edges[1:]),
            rng.lognormal(0.0, 3.0, n),
            rng.integers(0, 6, n).astype(float),  # ties
            with_nan,
        ):
            lams = np.concatenate((values[rng.integers(0, n, 40)], rng.lognormal(0.0, 3.0, 40), [-1.0, np.inf]))
            counted, counts = mesh.counted_measure(values, lams)
            want = [(float(mesh.widths[values > lam].sum()), int(np.sum(values > lam))) for lam in lams]
            assert counted.tolist() == [c for c, _ in want] and counts.tolist() == [k for _, k in want]
            assert [counted_at(mesh, values, lam) for lam in lams] == want

    def test_default_mesh_edges_are_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            lowerbound._DEFAULT_MESH.edges[0] = 1.0
        assert np.array_equal(lowerbound._DEFAULT_MESH.edges, GradedMesh().edges)

    @pytest.mark.parametrize("x_hi, x_min, m", [(0.5, 1e-12, 16), (0.5, 1e-4, 4), (0.3, 1e-9, 7), (0.5, 0.4, 64)])
    def test_mesh_edges_are_the_sorted_distinct_band_points(self, x_hi, x_min, m):
        mesh = GradedMesh(x_hi=x_hi, x_min=x_min, cells_per_band=m)
        bands, hi = [], x_hi
        while hi > x_min:
            bands.append(np.linspace(hi / 2.0, hi, m, endpoint=False))
            hi /= 2.0
        assert mesh.edges.tobytes() == np.unique(np.concatenate([[0.0], *bands, [x_hi]])).tobytes()

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"x_hi": math.inf}, "x_hi=inf"),
            ({"x_hi": math.nan}, "x_hi=nan"),
            ({"x_min": math.nan}, "x_min=nan"),
            ({"x_min": -math.inf}, "x_min=-inf"),
            ({"x_hi": math.inf, "x_min": math.inf}, "x_hi=inf, x_min=inf"),
        ],
    )
    def test_non_finite_bounds_are_a_value_error_naming_the_field(self, kwargs, named):
        # x_hi = inf passes 0 < x_min < x_hi, and its band loop never ended
        with pytest.raises(ValueError, match="GradedMesh needs a finite x_hi and x_min") as err:
            GradedMesh(**kwargs)
        assert named in str(err.value)

    @pytest.mark.parametrize("m", [0, -2, 2.5, True, "16"], ids=["0", "-2", "2.5", "True", "str"])
    def test_cells_per_band_below_one_or_not_an_integer_is_a_value_error(self, m):
        # 0 built a mesh without bands, -2 raised numpy's "Number of samples"
        with pytest.raises(ValueError, match=re.escape(f"cells_per_band must be an integer of at least 1, got {m!r}")):
            GradedMesh(cells_per_band=m)
        assert np.array_equal(GradedMesh(cells_per_band=np.int64(4)).edges, GradedMesh(cells_per_band=4).edges)

    @staticmethod
    def numpy_ma_loaded_after(code):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        code = f"import sys, weaklab; {code}; print('numpy.ma' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        return run.stdout.strip() == "True"

    def test_import_leaves_numpy_ma_unloaded(self):
        # building the default mesh at import must not pull in numpy.ma
        assert not self.numpy_ma_loaded_after("pass")

    def test_experiment_leaves_numpy_ma_unloaded(self):
        # nor may the lambda sweep: np.unique's first call imports it (10-14 ms)
        assert not self.numpy_ma_loaded_after("weaklab.lower_bound_experiment(0.2)")


class TestExperiment:
    def test_quotient_floor_and_argmax_delta_01(self):
        rep = lower_bound_experiment(0.1, compute_nu=False)
        assert rep.quotient >= 1.25  # (1/8)/delta
        assert rep.lambda_star == pytest.approx(math.exp(10.0), rel=1e-12)
        assert argmax_inside_window(rep)
        # the chain bound from the closed-form estimates: quotient >= (1/4) F(lam*)
        assert rep.quotient >= 0.25 * F_lambda(0.1, rep.lambda_star)

    def test_counted_and_closed_form_measures_cross_check(self):
        # fine bands: the counted measure tracks the root-finding measure
        mesh = GradedMesh(cells_per_band=64)
        delta = 0.2
        values = output_magnitude(delta, mesh.centers)
        inner = output_magnitude(delta, mesh.edges[1:])
        for lam in np.geomspace(10, 1e3, 7):
            counted, n = counted_at(mesh, values, lam)
            exact = level_set_endpoint(delta, lam)
            assert counted == pytest.approx(exact, rel=3.0 / 64)
            # counting by right edges keeps only cells wholly inside the level
            # set: short of the exact measure by less than the straddling cell
            counted, n = counted_at(mesh, inner, lam)
            assert counted <= exact <= counted + mesh.widths[n]

    def test_cross_check_rejects_overshooting_count(self):
        # counting a cell whenever its centre clears lam overshoots the level
        # set; the one-sided cross-check must refuse such a count
        delta = 0.2

        class CentreCountingMesh(GradedMesh):
            def counted_measure(self, values, lam):
                return super().counted_measure(output_magnitude(delta, self.centers), lam)

        with pytest.raises(MeshResolutionError):
            lower_bound_experiment(delta, mesh=CentreCountingMesh(), compute_nu=False)

    @pytest.mark.parametrize("delta", [0.02, 0.05, 0.1, 0.2])
    def test_quotient_is_lower_bound_for_exact_supremum(self, delta):
        # regression: counting straddling cells whole put the quotient 2-3%
        # above the supremum Q* it is meant to bound from below
        exact = exact_lower_bound_supremum(delta)
        rep = lower_bound_experiment(delta, compute_nu=False)
        assert exact * (1 - 0.02) <= rep.quotient <= exact * (1 + 1e-9)

    @pytest.mark.parametrize("delta", [0.007, 0.005, 0.003, 0.0015])
    def test_small_delta_runs_on_closed_form_roots(self, delta):
        # the level sets lie far below 1e-60; every root comes from the data's
        # own bracket, so the quotient is lam x root and stays below the
        # supremum of s G(s) (within 1e-4 of it, though the sweep's argmax sits
        # on the window's end there)
        rep = lower_bound_experiment(delta, compute_nu=False)
        assert rep.measure_path == "closed-form"
        root = level_set_endpoint(delta, rep.best_lambda)
        assert rep.quotient == pytest.approx(rep.best_lambda * root, rel=_ROOT_RTOL)
        sup = -optimize.minimize_scalar(
            lambda u: -math.exp(u) * output_magnitude(delta, math.exp(u)),
            bounds=(-1.0 / delta - 10.0, math.log(0.5)),
            method="bounded",
            options={"xatol": 1e-10},
        ).fun
        assert sup * (1 - 1e-4) <= rep.quotient <= sup * (1 + 1e-9)
        assert rep.a1_char == pytest.approx(1 / delta + 1 / delta**2, rel=1e-9)

    @pytest.mark.parametrize("delta, window", [(0.0014, 4.0), (0.001, 4.0), (0.00141, 4.0), (0.0014, 1.0)])
    def test_delta_below_the_finite_window_is_a_value_error(self, delta, window):
        with pytest.raises(ValueError, match="delta must exceed 0.0014"):
            lower_bound_experiment(delta, lambda_window=window, compute_nu=False)

    @pytest.mark.parametrize("window", [0.0, -3.0, math.inf, math.nan])
    def test_window_not_positive_and_finite_is_a_value_error(self, window):
        # 0 and -3 ended in "math domain error"
        with pytest.raises(ValueError, match=f"lambda_window must be positive and finite, got {window}"):
            lower_bound_experiment(0.1, lambda_window=window, compute_nu=False)

    def test_f_argmax_overflow_is_a_value_error(self):
        with pytest.raises(ValueError, match="delta must exceed 0.00140888"):
            F_argmax(0.0014)
        assert math.isfinite(F_argmax(0.001409)[0])

    def test_a_level_set_below_a_coarse_mesh_takes_its_root(self):
        # every level set of the sweep ends below x_min = 1e-4, in the mesh's
        # one tail cell, so the best quotient is lam times a closed-form root
        coarse = GradedMesh(x_min=1e-4, cells_per_band=4)
        rep = lower_bound_experiment(0.05, mesh=coarse, compute_nu=False)
        assert rep.measure_path == "closed-form"
        assert rep.quotient.hex() == "0x1.5720ab359d8f1p+2"

    def test_sweep_scaling(self):
        reps = delta_sweep([0.05, 0.1, 0.2], compute_nu=False)
        for rep in reps:
            assert rep.quotient >= 0.125 / rep.delta
            assert rep.a1_char == pytest.approx(1 / rep.delta + 1 / rep.delta**2, rel=1e-9)
            assert rep.ratio_to_sqrt_a1 == pytest.approx(
                rep.quotient / math.sqrt(rep.a1_char), rel=1e-12
            )
        slope = sweep_slope(reps)
        # the exact supremum's slope on this grid is 0.880 (it approaches 1
        # only as delta -> 0); acceptance criterion 3 compares the two closely
        assert 0.8 <= slope <= 1.0
