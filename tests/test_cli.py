import json
import os
from pathlib import Path

import numpy as np
import pytest

from weaklab import grid as grid_module
from weaklab import operators
from weaklab.cli import CSV_COLUMNS, main, parse_weight
from weaklab.sparse import SparseFamily, build_sparse_family, sparse_apply

GOLDEN = Path(__file__).parent / "golden"


def run(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    return code, out


class TestSubcommands:
    def test_characteristic_runs(self, tmp_path):
        code, out = run(tmp_path, "c.csv", ["characteristic", "--weight", "powerlog:a=-0.5", "--p", "2"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#schema=v1,kind,")
        assert len(lines) == 2

    def test_weaktype_runs(self, tmp_path):
        code, out = run(
            tmp_path, "w.csv",
            ["weaktype", "--operator", "AS", "--weight", "powerlog:a=0.5", "--p", "2",
             "--trials", "3", "--level", "6"],
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 4

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
    def test_outputs_honour_the_umask(self, tmp_path, umask, mode):
        """CSV and JSON outputs get 0666 less the umask, as a plain open
        gives; the temporary file's 0600 was kept whatever the umask."""
        jout = tmp_path / "lb.json"
        old = os.umask(umask)
        try:
            code, out = run(tmp_path, "lb.csv", ["lowerbound", "--delta", "0.2", "--json-output", str(jout)])
        finally:
            os.umask(old)
        assert code == 0
        assert [p.stat().st_mode & 0o777 for p in (out, jout)] == [mode, mode]

    def test_lowerbound_json(self, tmp_path):
        jout = tmp_path / "lb.json"
        code, out = run(
            tmp_path, "lb.csv",
            ["lowerbound", "--delta", "0.2,0.1", "--json-output", str(jout)],
        )
        assert code == 0
        payload = json.loads(jout.read_text())
        assert "slope_log_quotient_vs_log_inv_delta" in payload
        assert len(payload["rows"]) == 2

    def test_sparse_check_passes(self, tmp_path):
        code, _ = run(tmp_path, "s.csv", ["sparse-check", "--seed", "7", "--trials", "10", "--level", "6"])
        assert code == 0

    def test_matrix_check_passes(self, tmp_path):
        code, _ = run(tmp_path, "m.csv", ["matrix-check", "--seed", "0", "--trials", "2"])
        assert code == 0

    def test_constants_runs(self, tmp_path):
        code, out = run(tmp_path, "k.csv", ["constants", "--a-list", "0.3,0.6"])
        assert code == 0
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize(
        "args",
        [["characteristic", "--kind", "ainfty"], ["weaktype", "--operator", "M", "--trials", "2"]],
        ids=["characteristic-ainfty", "weaktype-M"],
    )
    def test_a_sampled_weight_runs_on_its_own_mesh(self, tmp_path, capsys, args):
        """A sampled weight is tied to its mesh, so the default invocation runs
        on it and prints and writes what ``--radius 1 --level 5``, that mesh's
        flags, do.  Before, the default Mesh(--radius, --level) was passed to
        the weight, which exited 2: "sampled weight is tied to its own mesh"."""
        weight = tmp_path / "w.json"
        values = np.random.default_rng(3).uniform(0.5, 2.0, 64)
        weight.write_text(json.dumps({"mesh": {"radius": 1.0, "level": 5}, "values": values.tolist()}))
        outputs = []
        for flags in ([], ["--radius", "1", "--level", "5"]):
            code, out = run(tmp_path, f"x{len(outputs)}.csv", args + ["--weight", f"sampled:{weight}", *flags])
            assert code == 0
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_weaktype_refuses_a_radius_narrower_than_the_sampled_mesh(self, tmp_path, capsys):
        """The trials and char_ainfty run on the weight's whole mesh, so a
        char_main narrowed by ``--radius`` would mix two domains (it read
        0.4433 at ``--radius 0.25`` against 0.3866 on the whole mesh)."""
        weight = tmp_path / "w.json"
        values = np.random.default_rng(3).uniform(0.5, 2.0, 64)
        weight.write_text(json.dumps({"mesh": {"radius": 1.0, "level": 5}, "values": values.tolist()}))
        args = ["weaktype", "--operator", "M", "--trials", "2", "--weight", f"sampled:{weight}"]
        code, out = run(tmp_path, "narrow.csv", args + ["--radius", "0.25"])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert "--radius 0.25" in err and "mesh radius 1" in err
        code, _ = run(tmp_path, "wide.csv", args + ["--radius", "2"])
        assert code == 0 and "max empirical constant 0.386635731842" in capsys.readouterr().out


FRACTIONAL = ["--alpha", "0.25", "--weight", "powerlog:a=0.2"]


class TestWeaktypeOperators:
    @pytest.mark.parametrize("fractional", [False, True], ids=["plain", "alpha"])
    @pytest.mark.parametrize("operator", ["AS", "M", "Md", "H", "Ialpha", "Malpha"])
    def test_every_operator_choice_runs(self, tmp_path, capsys, operator, fractional):
        extra = FRACTIONAL if fractional else ["--weight", "powerlog:a=0.5"]
        code, out = run(tmp_path, "w.csv", ["weaktype", "--operator", operator, "--p", "2",
                                            "--trials", "3", "--level", "6", *extra])
        if not fractional and operator in ("Ialpha", "Malpha"):
            assert code == 2 and f"{operator} requires alpha" in capsys.readouterr().err
            return
        if fractional and operator == "H":  # no theorem pairs H with the fractional characteristic
            assert code == 2 and "H with --alpha" in capsys.readouterr().err
            assert not out.exists()
            return
        assert code == 0
        assert len(out.read_text().splitlines()) == 4

    def test_fractional_m_keeps_its_three_grids(self, tmp_path):
        """With --alpha, M is the fractional maximal function over the three
        shifted grids, not the one-grid Malpha that Md becomes."""
        csv = {}
        for operator in ("M", "Md", "Malpha"):
            code, out = run(tmp_path, f"{operator}.csv", ["weaktype", "--operator", operator, "--p", "2",
                                                          "--trials", "3", "--level", "6", *FRACTIONAL])
            assert code == 0
            csv[operator] = out.read_bytes()
        assert csv["Md"] == csv["Malpha"]
        assert csv["M"] != csv["Md"]
        rows = [line.split(",") for line in csv["M"].decode().splitlines()[1:]]
        one_grid = [line.split(",") for line in csv["Md"].decode().splitlines()[1:]]
        assert all(float(r[1]) >= float(o[1]) for r, o in zip(rows, one_grid))

    @pytest.mark.parametrize("alpha", ["-0.25", "0", "1", "1.5"])
    @pytest.mark.parametrize("operator", ["M", "H", "Ialpha"])
    def test_alpha_outside_the_unit_interval_is_2(self, tmp_path, capsys, operator, alpha):
        """An --alpha outside (0, 1) is named as an order, before 1/p is read."""
        code, out = run(tmp_path, "w.csv", ["weaktype", "--operator", operator, "--p", "2", "--trials", "1",
                                            "--level", "4", "--weight", "powerlog:a=0.2", "--alpha", alpha])
        assert code == 2
        assert f"0 < alpha < n = 1, got {float(alpha)}" in capsys.readouterr().err
        assert not out.exists()

    def test_hilbert_at_level_14_writes_its_row(self, tmp_path, capsys):
        """The L = 14 mesh once needed a 32,768 x 5,155 array: a MemoryError
        (exit 1), then a refusal (exit 2).  The cell convolution needs O(n)."""
        code, out = run(tmp_path, "w.csv", ["weaktype", "--operator", "H", "--weight", "powerlog:a=0.5", "--p", "2",
                                            "--trials", "1", "--seed", "7", "--level", "14"])
        assert code == 0
        assert "H: 1 trials" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 2

    @pytest.mark.parametrize(
        "args, flag",
        [(["weaktype", "--weight", "powerlog:a=0.2", "--alpha", "0.25", "--q", "4"], "--q")]
        + [(["characteristic", "--weight", "powerlog:a=-0.3", "--kind", kind, *needed, "--alpha", "0.25"], "--alpha")
           for kind, needed in [("ap", []), ("a1", []), ("ainfty", []), ("rh", ["--s", "1.5"]),
                                ("apq", ["--q", "4"]), ("a1q", ["--q", "2"])]],
        ids=["weaktype-q", "ap-alpha", "a1-alpha", "ainfty-alpha", "rh-alpha", "apq-alpha", "a1q-alpha"],
    )
    def test_exponent_the_rule_derives_is_no_flag(self, tmp_path, capsys, args, flag):
        """q is derived from --p and --alpha, so weaktype takes no --q; and no
        characteristic kind reads an --alpha (apq read one only to check it
        against --p and --q)."""
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "x.csv", args)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestWeaktypeFamilies:
    """`weaktype --operator AS` builds each trial's family in
    ``multiplier_apply``, on the g = f w^(-1/p) it applies it to."""

    @pytest.mark.parametrize(
        "extra",
        [["--weight", "powerlog:a=0.5"], ["--weight", "powerlog:a=0.2", "--alpha", "0.25"]],
        ids=["AS", "ASalpha"],
    )
    def test_each_trial_applies_its_family_to_the_function_it_was_built_on(self, tmp_path, monkeypatch, extra):
        built, applied = {}, []

        def build(g, *args, **kwargs):
            family = build_sparse_family(g, *args, **kwargs)
            built[id(family)] = (family, g)  # kept alive, so ids stay unique
            return family

        def apply(family, g, alpha=0.0):
            applied.append((family, g))
            return sparse_apply(family, g, alpha)

        monkeypatch.setattr(operators, "build_sparse_family", build)
        monkeypatch.setattr(SparseFamily, "apply", apply)
        code, _ = run(tmp_path, "w.csv", ["weaktype", "--operator", "AS", "--p", "2", "--trials", "6",
                                          "--level", "6", "--seed", "7", *extra])
        assert code == 0
        assert len(built) == len(applied) == 6
        assert all(built[id(family)][1] is g for family, g in applied)

    def test_readme_invocation_builds_one_table_batch_per_trial(self, tmp_path, monkeypatch):
        batches = []
        span_integrals = grid_module._span_integrals
        monkeypatch.setattr(grid_module, "_span_integrals", lambda *a, **k: batches.append(1) or span_integrals(*a, **k))
        code, _ = run(tmp_path, "w.csv", ["weaktype", "--operator", "AS", "--weight", "powerlog:a=0.5",
                                          "--p", "2", "--trials", "100", "--seed", "7"])
        assert code == 0
        # three for the A_inf characteristic, then one per trial, which the
        # family's construction and its application share
        assert len(batches) == 103


class TestExitCodes:
    @pytest.mark.parametrize("alpha", ["0.5", "0.6"])
    def test_alpha_not_below_one_over_p_is_2(self, tmp_path, capsys, alpha):
        """q follows from 1/p - 1/q = alpha, so an alpha at or above 1/p has no q."""
        code, out = run(
            tmp_path, "x.csv",
            ["weaktype", "--operator", "Ialpha", "--weight", "powerlog:a=-0.2",
             "--p", "2", "--alpha", alpha, "--trials", "1"],
        )
        assert code == 2
        assert f"alpha = {float(alpha)} must lie below 1/p = 0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_delta_is_2(self, tmp_path):
        code, _ = run(tmp_path, "x.csv", ["lowerbound", "--delta", "0.7"])
        assert code == 2

    def test_numerical_failure_is_3(self, tmp_path):
        # |x|^(-1/2) squared is non-integrable: RH_2 must fail with exit 3
        code, _ = run(
            tmp_path, "x.csv",
            ["characteristic", "--weight", "powerlog:a=-0.5", "--kind", "rh", "--s", "2"],
        )
        assert code == 3

    @pytest.mark.parametrize(
        "args,message",
        [
            (["characteristic", "--weight", "powerlog:a=0.5", "--p", "nan"], "--p: must be finite"),
            (["weaktype", "--weight", "powerlog:a=0.5", "--p", "inf"], "--p: must be finite"),
            (["characteristic", "--weight", "powerlog:a=nan"], "--weight: must be finite"),
            (["characteristic", "--weight", "powerlog:a=0.5,z=1"], "unknown descriptor parameter"),
            (["characteristic", "--weight", "powerlog:a=0.5", "--kind", "rh", "--s=-inf"],
             "--s: must be finite"),
            (["matrix-check", "--weight", "rotdiag:a1=-0.4,a2=inf"], "--weight: must be finite"),
            (["lowerbound", "--delta", "0.1,nan"], "--delta: must be finite"),
            (["constants", "--a-list", "0.3,inf"], "--a-list: must be finite"),
        ],
        ids=["p-nan", "p-inf", "weight-nan", "weight-unknown-key", "s-inf", "matrix-weight-inf",
             "delta-nan", "a-list-inf"],
    )
    def test_non_finite_input_is_2_at_parse_time(self, tmp_path, capsys, args, message):
        # rejected by the parser, before any computation can report a
        # numerical failure (exit 3)
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "x.csv", args)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["weaktype", "--weight", "powerlog:a=0.5", "--trials", "0"],
            ["sparse-check", "--trials", "-3"],
            ["matrix-check", "--trials", "-3"],
            ["weaktype", "--weight", "powerlog:a=0.5", "--trials", "1.5"],
        ],
        ids=["weaktype-0", "sparse-check-negative", "matrix-check-negative", "weaktype-fraction"],
    )
    def test_trials_below_one_is_2_at_parse_time(self, tmp_path, capsys, args):
        """--trials 0 ended in "max() arg is an empty sequence"; a negative
        count wrote an empty table and exited 0."""
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "x.csv", args)
        assert exc.value.code == 2
        assert f"--trials: must be a positive integer, got {args[-1]!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "args,message",
        [
            (["lowerbound", "--cells-per-band", "0", "--delta", "0.2"], "--cells-per-band: must be a positive integer, got '0'"),
            (["lowerbound", "--cells-per-band", "-2"], "--cells-per-band: must be a positive integer, got '-2'"),
            (["lowerbound", "--window", "0"], "--window: must be positive and finite, got '0'"),
            (["lowerbound", "--window", "-3"], "--window: must be positive and finite, got '-3'"),
            (["characteristic", "--weight", "powerlog:a=0.5", "--radius", "0"], "--radius: must be positive and finite, got '0'"),
            (["characteristic", "--weight", "powerlog:a=0.5", "--radius", "-1"], "--radius: must be positive and finite, got '-1'"),
            (["weaktype", "--weight", "powerlog:a=0.5", "--radius", "0"], "--radius: must be positive and finite, got '0'"),
            (["sparse-check", "--radius", "-0.5"], "--radius: must be positive and finite, got '-0.5'"),
            (["matrix-check", "--radius", "inf"], "--radius: must be positive and finite, got 'inf'"),
            (["constants", "--radius", "nan"], "--radius: must be positive and finite, got 'nan'"),
            (["characteristic", "--weight", "powerlog:a=0.5", "--level", "25"], "--level: must be a mesh level in 0..20, got '25'"),
            (["characteristic", "--weight", "powerlog:a=-0.3", "--level", "30", "--kind", "ainfty"],
             "--level: must be a mesh level in 0..20, got '30'"),
            (["weaktype", "--weight", "powerlog:a=0.5", "--level", "-1"], "--level: must be a mesh level in 0..20, got '-1'"),
            (["sparse-check", "--level", "21"], "--level: must be a mesh level in 0..20, got '21'"),
            (["matrix-check", "--level", "2.5"], "--level: must be a mesh level in 0..20, got '2.5'"),
            (["constants", "--level", "99"], "--level: must be a mesh level in 0..20, got '99'"),
            (["sparse-check", "--seed", "-1"], "--seed: must be a non-negative integer, got '-1'"),
            (["weaktype", "--weight", "powerlog:a=0.5", "--seed", "1.5"], "--seed: must be a non-negative integer, got '1.5'"),
            (["lowerbound", "--x-min", "0"], "--x-min: must be in (0, 0.5), below the graded mesh's x_hi, got '0'"),
            (["lowerbound", "--x-min", "0.5"], "--x-min: must be in (0, 0.5), below the graded mesh's x_hi, got '0.5'"),
            (["lowerbound", "--x-min", "nan"], "--x-min: must be in (0, 0.5), below the graded mesh's x_hi, got 'nan'"),
        ],
        ids=["cells-per-band-0", "cells-per-band-negative", "window-0", "window-negative",
             "characteristic-radius-0", "characteristic-radius-negative", "weaktype-radius-0",
             "sparse-check-radius-negative", "matrix-check-radius-inf", "constants-radius-nan",
             "characteristic-level-25", "level-30", "weaktype-level-negative", "sparse-check-level-21",
             "matrix-check-level-fraction", "constants-level-99", "sparse-check-seed-negative", "weaktype-seed-fraction",
             "x-min-0", "x-min-at-x-hi", "x-min-nan"],
    )
    def test_out_of_domain_flag_is_2_at_parse_time(self, tmp_path, capsys, args, message):
        """Before, --cells-per-band 0 exited 0, --window 0 and
        --radius 0 "math domain error", and --level 25 exited 0 for every
        characteristic kind but ainfty, which alone reads it."""
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "x.csv", args)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_mesh_level_bounds_parse(self, tmp_path):
        # 0 and 20 are mesh levels; a1 reads neither
        for level in ("0", "20"):
            code, out = run(tmp_path, "x.csv", ["characteristic", "--weight", "powerlog:a=-0.3", "--kind", "a1",
                                                "--level", level, "--max-level", "3"])
            assert code == 0 and out.exists()

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--max-level", "-40"], "--max-level -40 is below the coarsest search level -3 of --radius 4"),
            (["--max-level", "-1", "--radius", "0.25"], "--max-level -1 is below the coarsest search level 1"),
            (["--max-level", "20"], "above the limit of 4,194,304"),
        ],
        ids=["below-coarsest", "below-coarsest-small-radius", "too-many-cubes"],
    )
    def test_max_level_outside_the_search_is_2(self, tmp_path, capsys, args, message):
        """Before, --max-level -40 exited 0 with no grid candidate, and
        --max-level 20 ended in a MemoryError traceback under a 3 GB cap."""
        code, out = run(tmp_path, "x.csv", ["characteristic", "--weight", "powerlog:a=0.5", *args])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not out.exists()

    def test_max_level_at_the_coarsest_search_level_runs(self, tmp_path):
        code, out = run(tmp_path, "x.csv", ["characteristic", "--weight", "powerlog:a=0.5", "--max-level", "-3"])
        assert code == 0 and out.exists()

    @pytest.mark.parametrize(
        "args,message",
        [
            (["characteristic", "--weight", "powerlog:a=-0.3", "--kind", "rh"], "--kind rh needs --s"),
            (["characteristic", "--weight", "powerlog:a=-0.3", "--kind", "apq"], "--kind apq needs --q"),
            (["characteristic", "--weight", "powerlog:a=-0.3", "--kind", "a1q"], "--kind a1q needs --q"),
            (["characteristic", "--weight", "powerlog:a=-0.3", "--kind", "rh", "--s", "0.5"],
             "reverse Holder requires s > 1"),
            (["characteristic", "--weight", "powerlog:a=-0.3", "--kind", "ap", "--p", "1"], "A_p requires p > 1"),
            (["characteristic", "--weight", "powerlog:a=-0.3", "--kind", "apq", "--p", "2", "--q", "1.5"],
             "A_(p,q) requires q > p"),
            (["matrix-check", "--p", "1", "--trials", "1"], "matrix A_p requires p > 1"),
            (["constants", "--p", "0.5", "--a-list", "0.3"], "p must be >= 1"),
            (["weaktype", "--weight", "powerlog:a=-0.3", "--p", "0.5", "--trials", "1", "--level", "5"],
             "weak-type quotients need p >= 1"),
        ],
        ids=["rh-no-s", "apq-no-q", "a1q-no-q", "rh-s-below-1", "ap-p-1", "apq-q-below-p", "matrix-p-1",
             "constants-p-below-1", "weaktype-p-below-1"],
    )
    def test_malformed_exponent_is_2(self, tmp_path, capsys, args, message):
        code, out = run(tmp_path, "x.csv", args)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind,unread",
        [("ap", "q"), ("ap", "s"), ("a1", "q"), ("a1", "s"), ("ainfty", "q"), ("ainfty", "s"), ("rh", "q"),
         ("apq", "s"), ("a1q", "s")],
    )
    def test_flag_the_kind_does_not_read_is_2(self, tmp_path, capsys, kind, unread):
        """Before, ``--kind ap --s 3`` exited 0 and wrote the plain A_2 row:
        the flag was dropped without a word."""
        needed = {"rh": ["--s", "1.5"], "apq": ["--q", "4"], "a1q": ["--q", "2"]}.get(kind, [])
        value = {"q": "4", "s": "1.5"}[unread]
        code, out = run(tmp_path, "x.csv", ["characteristic", "--weight", "powerlog:a=-0.3", "--kind", kind,
                                            *needed, f"--{unread}", value])
        assert code == 2
        assert capsys.readouterr().err == f"error: --kind {kind} does not read --{unread}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind,content,message",
        [
            ("sampled", None, "No such file or directory"),
            ("sampled", "", "Is a directory"),
            ("sampled", '{"values": [1.0, 1.0]}', "needs mesh.radius, mesh.level and values"),
            ("sampled", '{"mesh": {"radius": 1.0}, "values": [1.0, 1.0]}', "needs mesh.radius"),
            ("sampled", "[1.0, 1.0]", "needs mesh.radius"),
            ("sampled", '{"mesh": {"radius": 1.0, "level": 2.9}, "values": [1, 1, 1, 1, 1, 1, 1, 1]}',
             "mesh level must be an integer, got 2.9"),
            ("json", None, "No such file or directory"),
            ("json", '{"values": []}', "needs matrices"),
            ("json", '"matrices"', "needs matrices"),
        ],
        ids=["sampled-missing", "sampled-directory", "sampled-no-mesh", "sampled-no-level",
             "sampled-list", "sampled-fractional-level", "json-missing", "json-no-matrices", "json-string"],
    )
    def test_unreadable_weight_file_is_2(self, tmp_path, capsys, kind, content, message):
        path = tmp_path / "w.json"
        if content == "":
            path.mkdir()
        elif content is not None:
            path.write_text(content)
        if kind == "sampled":
            args = ["characteristic", "--weight", f"sampled:{path}", "--p", "2"]
        else:
            args = ["matrix-check", "--weight", f"json:{path}", "--trials", "1", "--level", "3"]
        code, out = run(tmp_path, "x.csv", args)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_a_cell_scan_above_its_limit_is_2(self, tmp_path, capsys):
        # the 2,048-cell spike weight: every cell interval is 2,098,176 of
        # them, so the scan refuses by name instead of searching fewer
        values = np.random.default_rng(0).uniform(0.5, 1.5, 2048)
        values[1025], values[1026] = 1e4, 0.5
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"mesh": {"radius": 1.0, "level": 10}, "values": values.tolist()}))
        code, out = run(tmp_path, "x.csv", ["characteristic", "--weight", f"sampled:{path}", "--p", "2"])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        # the route the command line has: it cannot search the aligned cubes
        assert err == (
            "error: a cell scan of 2,048 cells has 2,098,176 intervals, above the limit of 2,097,152; "
            "a smaller --radius scans fewer cells\n"
        )
        assert "--radius" in err

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--weight", "diag:a1=-0.4"], "--d 2 needs the diag parameter a2"),
            (["--weight", "diag:a1=-0.4,a2=0.25", "--d", "3"], "--d 3 needs the diag parameter a3"),
            (["--weight", "diag:a1=-0.4,a2=0.25,a3=0.1"], "--d 2 does not read the diag parameter a3"),
            (["--weight", "diag:a2=0.25,a3=0.1", "--d", "3"], "--d 3 needs the diag parameter a1"),
            (["--weight", "rotdiag:a2=0.25,turns=2"], "--d 2 needs the rotdiag parameter a1"),
            (["--weight", "rotdiag:a1=-0.4,a2=0.25,a3=0.1"], "--d 2 does not read the rotdiag parameter a3"),
            (["--weight", "rotdiag:a1=-0.4,a2=0.25", "--d", "3"], "rotdiag descriptors are two-dimensional"),
        ],
        ids=["diag-d2-no-a2", "diag-d3-no-a3", "diag-d2-surplus-a3", "diag-d3-no-a1", "rotdiag-no-a1",
             "rotdiag-surplus-a3", "rotdiag-d3"],
    )
    def test_diagonal_exponents_must_match_d(self, tmp_path, capsys, args, message):
        """A missing a{i} ended in a KeyError traceback (exit 1), a surplus one
        was dropped without a word."""
        code, out = run(tmp_path, "x.csv", ["matrix-check", "--trials", "1", "--level", "3", *args])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--config", "{missing}", "constants"], "cannot read"),
            (["constants", "--config"], "--config needs a file path"),
            (["--config=", "constants"], "--config needs a file path"),
        ],
        ids=["config-missing-file", "config-without-path", "config-equals-without-path"],
    )
    def test_config_errors_are_2(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        code = main([arg.format(missing=tmp_path / "absent" / "run.cfg") for arg in argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_overflowing_characteristic_product_is_3(self, tmp_path, capsys):
        """[w]_A_inf^p overflowed a float at p = 1e300: an OverflowError
        traceback and exit 1."""
        code, out = run(tmp_path, "x.csv", ["weaktype", "--operator", "M", "--weight", "powerlog:a=0.5",
                                            "--p", "1e300", "--trials", "1"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("numerical failure: the characteristic product 1 * ") and err.count("\n") == 1
        assert err.rstrip().endswith("^1e+300 overflows")
        assert not out.exists()

    def test_output_directory_is_2(self, tmp_path, capsys):
        """An existing directory as --output ended in an IsADirectoryError
        traceback and exit 1."""
        target = tmp_path / "out"
        target.mkdir()
        code = main(["characteristic", "--weight", "powerlog:a=-0.5", "--output", str(target)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: cannot write {str(target)!r}: Is a directory\n"
        assert list(tmp_path.iterdir()) == [target] and not list(target.iterdir())

    def test_no_closed_form_is_no_flag(self, tmp_path, capsys):
        """A level set the graded mesh cannot count takes its closed-form root;
        no flag turns that off."""
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "x.csv", ["lowerbound", "--delta", "0.2", "--no-closed-form"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --no-closed-form" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


def test_csv_columns_are_the_schema_document_lists():
    """Each subcommand's CSV_COLUMNS is the bullet list under its heading in
    docs/cli_schema.md, in order."""
    lists, heading = {}, None
    for line in (Path(__file__).parents[1] / "docs" / "cli_schema.md").read_text().splitlines():
        if line.startswith("## "):
            heading = lists.setdefault(line[3:].strip("`"), [])
        elif line.startswith("- `") and heading is not None:
            heading.append(line[3:].split("`")[0])
    assert lists == CSV_COLUMNS


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["characteristic", "--weight", "powerlog:a=-0.5", "--p", "2"],
            ["weaktype", "--operator", "AS", "--weight", "powerlog:a=0.5", "--p", "2",
             "--trials", "3", "--level", "6", "--seed", "11"],
            ["lowerbound", "--delta", "0.2"],
            ["sparse-check", "--seed", "7", "--trials", "5", "--level", "6"],
            ["matrix-check", "--seed", "1", "--trials", "2"],
            ["constants", "--a-list", "0.3"],
        ],
        ids=["characteristic", "weaktype", "lowerbound", "sparse-check", "matrix-check", "constants"],
    )
    def test_byte_identical_reruns(self, tmp_path, args):
        _, out1 = run(tmp_path, "r1.csv", list(args))
        _, out2 = run(tmp_path, "r2.csv", list(args))
        assert out1.read_bytes() == out2.read_bytes()


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "golden,args",
        [
            ("characteristic_a-05_p2.csv",
             ["characteristic", "--weight", "powerlog:a=-0.5", "--p", "2"]),
            ("constants_p2.csv", ["constants", "--p", "2", "--a-list", "0.3,0.6,0.9"]),
            ("lowerbound_d02.csv", ["lowerbound", "--delta", "0.2"]),
            ("sparse_check_seed7.csv",
             ["sparse-check", "--seed", "7", "--trials", "20", "--level", "6"]),
            ("weaktype_as_seed3.csv",
             ["weaktype", "--operator", "AS", "--weight", "powerlog:a=0.5", "--p", "2",
              "--trials", "5", "--level", "6", "--seed", "3"]),
            ("matrix_check_seed0.csv", ["matrix-check", "--seed", "0", "--trials", "3"]),
        ],
        ids=["characteristic", "constants", "lowerbound", "sparse-check", "weaktype", "matrix-check"],
    )
    def test_pinned_output(self, tmp_path, golden, args):
        _, out = run(tmp_path, "g.csv", args)
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()


class TestConfigAndEnv:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("weight = powerlog:a=-0.5\np = 2\n")
        out = tmp_path / "c.csv"
        code = main(["--config", str(cfg), "characteristic", "--output", str(out)])
        assert code == 0
        assert "powerlog:a=-0.5" in out.read_text()

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize(
        "args",
        [["characteristic", "--weight", "powerlog:a=-0.5"], ["lowerbound", "--delta", "0.2"],
         ["constants", "--a-list", "0.3"]],
        ids=["characteristic", "lowerbound", "constants"],
    )
    def test_seed_is_no_flag_where_nothing_is_drawn(self, tmp_path, capsys, args, via):
        """A subcommand takes only the flags it reads: these three draw no
        random numbers, so a --seed, given or from a config key, is refused."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\n")
        argv = [*args, "--seed", "3"] if via == "flag" else ["--config", str(cfg), *args]
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "x.csv", argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_config_equals_path_is_config_path(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("weight = powerlog:a=-0.5\np = 2\n")
        csv = []
        for form in (["--config", str(cfg)], [f"--config={cfg}"]):
            out = tmp_path / f"c{len(csv)}.csv"
            assert main([*form, "characteristic", "--output", str(out)]) == 0
            csv.append(out.read_bytes())
        assert csv[0] == csv[1]

    @pytest.mark.parametrize("flag", ["--conf", "--conf=", "--confi="])
    def test_config_abbreviations_are_2(self, tmp_path, capsys, flag):
        # an abbreviation of --config would parse and silently drop the file
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 3\n")
        out = tmp_path / "c.csv"
        argv = [f"{flag}{cfg}"] if flag.endswith("=") else [flag, str(cfg)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "characteristic", "--weight", "powerlog:a=-0.5", "--output", str(out)])
        assert exc.value.code == 2
        assert "weaklab: error:" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("weight = powerlog:a=-0.5\ntrials = 50\n")
        out = tmp_path / "w.csv"
        code = main(
            ["--config", str(cfg), "weaktype", "--trials", "2", "--level", "6",
             "--output", str(out)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 3  # header + 2 trials

    def test_env_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WEAKLAB_OUT", str(tmp_path))
        code = main(["characteristic", "--weight", "powerlog:a=-0.5", "--p", "2"])
        assert code == 0
        assert (tmp_path / "characteristic.csv").exists()

    def test_parse_weight_descriptors(self, tmp_path):
        w = parse_weight("powerlog:a=-0.5,b=1,c=2")
        assert (w.exponent, w.log_exponent, w.scale) == (-0.5, 1.0, 2.0)
        data = {"mesh": {"radius": 1.0, "level": 3}, "values": [1.0] * 16}
        path = tmp_path / "w.json"
        path.write_text(json.dumps(data))
        ws = parse_weight(f"sampled:{path}")
        assert ws.mesh.n_cells == 16
        with pytest.raises(ValueError):
            parse_weight("fourier:a=1")
