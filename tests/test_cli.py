import collections
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmlab import cli, collision, nvmodel, sdc, spectra

import oracles
from test_nvmodel import nv_params, oracle_nm

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
FIG4_VALUES = ["c_a", "mi_4state", "mi_3state", "mi_4state_alice_only", "capacity"]


def load_config(name):
    return json.loads((CONFIGS / f"{name}.json").read_text())


def patch_paths(scenario, params, tmp_path):
    # Input CSVs in the templates are repo-relative.
    if scenario == "fig6":
        params["spectrum_csv"] = str(CONFIGS / "fig6_spectrum.csv")
    if scenario == "synth":
        params["kappa_csv"] = str(CONFIGS / "synth_kappa.csv")
    return params


def each_row(f):
    return lambda rows: [f(r) for r in rows]


def set_cell(row, column, value):
    return lambda rows: [r[:column] + [value] + r[column + 1:] if i == row else r
                         for i, r in enumerate(rows)]


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestValidate:
    def test_epsilon_out_of_range(self):
        violations = cli.validate("fig2", {"eps_min": 0.0, "eps_max": 0.6, "eps_step": 0.005})
        assert any("epsilon must be <= 0.5" in v for v in violations)

    def test_correlation_out_of_range(self):
        params = load_config("fig4")
        params["K"] = -1.2
        assert any("K in [-1, 1]" in v for v in cli.validate("fig4", params))

    def test_wellformed_fig3_config(self):
        assert cli.validate("fig3", load_config("fig3")) == []

    def test_missing_key(self):
        params = load_config("fig1")
        del params["sigma"]
        assert any("sigma" in v and "missing" in v for v in cli.validate("fig1", params))

    def test_unknown_scenario(self):
        assert cli.validate("fig9", {}) != []

    @pytest.mark.parametrize(
        "scenario, key, value",
        [
            ("fig4", "K", True),
            ("fig1", "a_theta_values", [0.5, True]),
            ("fig4", "delta_n", float("nan")),
            ("fig1", "t_max", float("inf")),
            ("fig4", "sigma", float("-inf")),
            ("fig1", "a_theta_values", [0.5, float("inf")]),
            ("fig4", "n_t", 2.9),
            ("fig4", "n_t", 10**400),
            ("fig1", "sigma", "1.5"),
            ("fig2", "eps_step", "0.01"),
            ("fig4", "sigma", "1.5"),
            ("classify", "epsilon", "0.26"),
        ],
        ids=["bool_float", "bool_list_entry", "nan", "inf", "minus_inf", "inf_list_entry",
             "nonintegral_int", "int_beyond_float", "fig1_numeric_string",
             "fig2_numeric_string", "fig4_numeric_string", "classify_numeric_string"],
    )
    def test_strict_scalars_rejected(self, scenario, key, value, tmp_path, capsys):
        params = dict(load_config(scenario), **{key: value})
        assert any(v.startswith(f"{key}: expected") for v in cli.validate(scenario, params))
        assert cli.run(scenario, params, tmp_path) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "invalid config"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", [None, 5, True, ["configs/fig6_spectrum.csv"], {"x": "y"}],
                             ids=["null", "int", "bool", "list", "object"])
    @pytest.mark.parametrize("scenario, key", [("fig6", "spectrum_csv"), ("synth", "kappa_csv"),
                                               ("fig3", "envelope_shape")])
    def test_non_string_rejected(self, scenario, key, value, tmp_path, capsys):
        # str() would accept any of these: a path key would then open a file named 'None' or '5'.
        params = dict(patch_paths(scenario, load_config(scenario), tmp_path), **{key: value})
        out = tmp_path / "out"
        assert cli.run(scenario, params, out) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "invalid config",
                                      "violations": [f"{key}: expected a string"]}
        assert not out.exists()

    def test_nan_literal_in_config_file_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(load_config("fig1")).replace('"delta_n": 1.0', '"delta_n": NaN'))
        assert "NaN" in cfg.read_text()
        assert cli.main(["fig1", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_integral_float_accepted_as_int(self):
        assert cli.validate("fig4", dict(load_config("fig4"), n_t=5.0)) == []

    @pytest.mark.parametrize(
        "scenario, overrides, keys, budget",
        [
            ("fig1", {"n_t": 10**12}, "n_t, a_theta_values", "ROWS_MAX"),
            ("fig1", {"n_t": 1e12}, "n_t, a_theta_values", "ROWS_MAX"),
            ("fig3", {"n_t": 10**9}, "n_t, phi_values, n_phi", "ROWS_MAX"),
            ("fig3", {"n_phi": 10**9}, "n_t, phi_values, n_phi", "ROWS_MAX"),
            # 120 300 rows, but 40 000 x (3 + 300) = 12 120 000 dense cells.
            ("fig3", {"n_t": 40_000, "n_phi": 300}, "n_t, phi_values, n_phi", "CELLS_MAX"),
            ("fig4", {"n_t": 10**10}, "n_t", "ROWS_MAX"),
            ("fig4", {"n_t": cli.ROWS_MAX + 1}, "n_t", "ROWS_MAX"),
            ("fig5", {"n_tau": 10**10}, "n_tau", "ROWS_MAX"),
            ("fig6", {"n_t": 10**10}, "n_t", "ROWS_MAX"),
        ],
        ids=["fig1", "fig1_float", "fig3_n_t", "fig3_n_phi", "fig3_cells", "fig4", "fig4_edge",
             "fig5", "fig6"],
    )
    def test_grid_over_budget(self, scenario, overrides, keys, budget):
        # Through validate only: run would refuse the same config before allocating.
        (violation,) = cli.validate(scenario, dict(load_config(scenario), **overrides))
        assert violation.startswith(f"{keys}: ")
        assert violation.endswith(f"exceed the budget {budget} = {getattr(cli, budget)}")

    @pytest.mark.parametrize(
        "scenario, overrides",
        [
            ("fig1", {"n_t": 5010, "a_theta_values": [0.0, 0.33, 0.5, 1.0, 1.5]}),
            ("fig3", {"n_t": 20_010, "phi_values": [0.0, 0.5, 1.5], "n_phi": 250}),
            ("fig4", {"n_t": 310}),
            ("fig4", {"n_t": cli.ROWS_MAX}),
            ("fig5", {"n_tau": 3010}),
            ("fig6", {"n_t": 9766}),
            ("fig6", {"n_t": cli.ROWS_MAX}),
            ("fig3", {"n_t": cli.CELLS_MAX // 20, "phi_values": [0.0], "n_phi": 19}),
        ],
        ids=["fig1", "fig3", "fig4", "fig4_edge", "fig5", "fig6", "fig6_edge", "fig3_cells_edge"],
    )
    def test_scaled_grids_within_budget(self, scenario, overrides):
        # The benchmark's largest requests and the scaled configs, and the budgets' edges.
        assert cli.validate(scenario, dict(load_config(scenario), **overrides)) == []

    def test_all_templates_valid(self):
        for scenario in cli.SCENARIOS:
            assert cli.validate(scenario, load_config(scenario)) == [], scenario

    @pytest.mark.parametrize("scenario", cli.SCENARIOS)
    def test_template_keys_match_schema(self, scenario):
        assert set(load_config(scenario)) == set(cli.SCENARIOS[scenario].schema)


class TestRun:
    @pytest.mark.parametrize("scenario", cli.SCENARIOS)
    def test_scenario_runs_and_writes_manifest(self, scenario, tmp_path):
        params = patch_paths(scenario, load_config(scenario), tmp_path)
        out = tmp_path / "out"
        assert cli.run(scenario, params, out) == 0
        manifest = json.loads((out / f"{scenario}_manifest.json").read_text())
        assert manifest["scenario"] == scenario
        assert manifest["outputs"]
        for entry in manifest["outputs"]:
            data = (out / entry["file"]).read_bytes()
            import hashlib

            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_fig4_memory_is_bounded(self, tmp_path):
        # fig4's closed forms hold their output columns and a few temporaries: about 70 B per row.
        tracemalloc.start()
        try:
            assert cli.run("fig4", dict(load_config("fig4"), n_t=100_000), tmp_path) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 15 * 2**20

    @pytest.mark.parametrize("scenario", cli.SCENARIOS)
    def test_byte_identical_reruns(self, scenario, tmp_path):
        params = patch_paths(scenario, load_config(scenario), tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.run(scenario, dict(params), out1) == 0
        assert cli.run(scenario, dict(params), out2) == 0
        for f in sorted(out1.glob("*.csv")):
            assert f.read_bytes() == (out2 / f.name).read_bytes()

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        code = cli.run("fig2", {"eps_min": 0, "eps_max": 0.7, "eps_step": 0.01}, tmp_path)
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["violations"]

    def test_singular_epsilon_exit_code(self, tmp_path, capsys):
        code = cli.run("classify", {"epsilon": 0.25}, tmp_path / "out")
        assert code == 4
        assert "singular" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("eps", [0.5, 0.5 - 1e-12, 0.5 - 1e-10])
    def test_half_window_exit_code(self, eps, tmp_path, capsys):
        # The first collision is singular within 1e-9 of eps = 1/2 too: exit 4, nothing written.
        assert cli.run("classify", {"epsilon": eps}, tmp_path) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "singular channel"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("eps, row", [
        (0.5 - 2e-9, "0.499999998,249999998.13158897,-0.999999992,249999998.13158897,"
                     "-124999999.06579448,249999998.13158897,strong"),
        (0.25 + 2e-9, "0.250000002,1.000000008,-7.999999995789153e-09,1.000000008,"
                      "-0.25000000600000005,1.000000008,strong"),
        (0.0, "0.0,1.0,1.0,1.0,0.0,1.0,markovian"),
        (1.893063552937946e-06, "1.893063552937946e-06,0.9999962138872289,0.9999924277457882,"
                                "0.9999962138872289,-7.167406367635605e-12,0.9999962138872289,"
                                "weak"),
    ])
    def test_just_outside_the_edge_windows(self, eps, row, tmp_path):
        # Locked bytes: the lambdas are the channel path's quotient bit for bit, and min Choi is
        # -2 eps^2/(1 - 2 eps), within 2 ulp of exact (here correctly rounded). At the region
        # edge eps = 0 it reads 0.0, not -0.0, and a positive eps is weak however small (a 1e-10
        # tolerance on a cancelling sum of Choi weights called 1.89e-6 markovian).
        assert cli.run("classify", {"epsilon": eps}, tmp_path) == 0
        header = ("epsilon,lambda_x,lambda_y,lambda_z,min_choi_eigenvalue,"
                  "max_abs_bloch_eigenvalue,classification")
        assert (tmp_path / "classify.csv").read_bytes() == f"{header}\n{row}\n".encode()

    def test_fig2_labels_a_tiny_eps_weak(self, tmp_path):
        params = {"eps_min": 1.893063552937946e-06, "eps_max": 0.5, "eps_step": 0.005}
        assert cli.run("fig2", params, tmp_path) == 0
        with open(tmp_path / "fig2.csv", newline="") as f:
            first = next(csv.DictReader(f))
        assert (first["epsilon"], first["classification"]) == ("1.893063552937946e-06", "weak")

    def test_io_failure_exit_code(self, tmp_path, capsys):
        params = load_config("synth")
        params["kappa_csv"] = str(tmp_path / "missing.csv")
        assert cli.run("synth", params, tmp_path / "out") == 3
        assert not (tmp_path / "out").exists()

    def test_main_entrypoint(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(load_config("fig2")))
        out = tmp_path / "out"
        assert cli.main(["fig2", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "fig2.csv").exists()

    # Excel's "CSV UTF-8" export starts a file with a UTF-8 byte-order mark.
    @pytest.mark.parametrize("scenario, key", [("fig6", "spectrum_csv"), ("synth", "kappa_csv")])
    def test_input_with_a_bom_writes_the_same_bytes(self, scenario, key, tmp_path):
        params = patch_paths(scenario, load_config(scenario), tmp_path)
        bom, plain = tmp_path / "bom", tmp_path / "plain"
        (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + Path(params[key]).read_bytes())
        assert cli.run(scenario, params, plain) == 0
        assert cli.run(scenario, dict(params, **{key: str(tmp_path / "bom.csv")}), bom) == 0
        written = sorted(f.name for f in plain.glob("*.csv"))
        assert written == sorted(f.name for f in bom.glob("*.csv"))
        for name in written:
            assert (bom / name).read_bytes() == (plain / name).read_bytes()

    def test_config_with_a_bom_runs(self, tmp_path):
        cfg, bom, plain = tmp_path / "cfg.json", tmp_path / "bom", tmp_path / "plain"
        cfg.write_bytes(b"\xef\xbb\xbf" + (CONFIGS / "fig2.json").read_bytes())
        assert cli.main(["fig2", "--config", str(cfg), "--out", str(bom)]) == 0
        assert cli.main(["fig2", "--config", str(CONFIGS / "fig2.json"), "--out", str(plain)]) == 0
        for name in ("fig2.csv", "fig2_manifest.json"):
            assert (bom / name).read_bytes() == (plain / name).read_bytes()

    @pytest.mark.parametrize(
        "scenario, header, transform, overrides",
        [
            ("fig6", "omega,density", None, {}),
            ("fig6", "omega,density,phase", each_row(lambda r: [r[0], 2 * r[1], r[2]]), {}),
            ("fig6", "omega,density,phase", each_row(lambda r: [r[0], -r[1], r[2]]), {}),
            ("fig6", "omega,density,phase", each_row(lambda r: [r[0] ** 3, r[1], r[2]]), {}),
            ("fig6", "omega,density,phase", each_row(lambda r: r[:2]), {}),
            ("fig6", "omega,density,phase",
             lambda rows: [["x" * 200_000] + rows[0][1:]] + rows[1:], {}),
            ("fig6", "omega,density,phase", None,
             {"delta_n": 1e300, "t_max": 1e300, "two_pi": True, "n_t": 3}),
            ("synth", "t,re_kappa", None, {}),
            ("synth", "t,re_kappa,im_kappa", each_row(lambda r: [r[0], 2.0, 0.0]), {}),
            ("synth", "t,re_kappa,im_kappa",
             lambda rows: [[t] + r[1:] for t, r in zip([0.0, 1.0, 2.5, 4.0, 6.0], rows)], {}),
            ("synth", "t,re_kappa,im_kappa", lambda rows: rows[:2], {}),
            ("synth", "t,re_kappa,im_kappa", lambda rows: [[0.0] + r[1:] for r in rows[:3]], {}),
            ("fig6", "omega,density,phase", set_cell(5, 1, float("nan")), {}),
            ("fig6", "omega,density,phase", set_cell(5, 2, float("inf")), {}),
            ("synth", "t,re_kappa,im_kappa", set_cell(5, 1, float("nan")), {}),
            ("synth", "t,re_kappa,im_kappa", set_cell(5, 0, float("nan")), {}),
            # Reader rules: no quoting, no comment rows, no underscores (float() takes '0_0.0').
            ("synth", "t,re_kappa,im_kappa", set_cell(0, 1, '"1.0"'), {}),
            ("fig6", "omega,density,phase", lambda rows: [["# omega,density,phase"]] + rows, {}),
            ("synth", "t,re_kappa,im_kappa", lambda rows: [], {}),
            ("synth", None, lambda rows: [], {}),
            ("synth", "t,re_kappa,im_kappa", set_cell(0, 0, "0_0.0"), {}),
            # Synthesis assumes t_m = m dt: a grid from another start gave a wrong spectrum.
            ("synth", "t,re_kappa,im_kappa", each_row(lambda r: [r[0] + 0.5] + r[1:]), {}),
            ("synth", "t,re_kappa,im_kappa", each_row(lambda r: [r[0] + 2.0] + r[1:]), {}),
            # A start within 1e-9 dt is a start at 0 for kappa(0) = 1 too.
            ("synth", "t,re_kappa,im_kappa",
             lambda rows: [[1e-14, 0.5, rows[0][2]]] + rows[1:], {}),
        ],
        ids=["missing_column", "unnormalized", "negative", "nonuniform", "short_row", "huge_field",
             "phase_overflow", "kappa_missing_column", "kappa_above_one", "kappa_nonuniform_t",
             "kappa_two_rows", "kappa_constant_t", "nan_density", "inf_phase", "kappa_nan_re",
             "kappa_nan_t", "quoted_cell", "comment_row", "header_only", "empty_file",
             "underscore_cell", "kappa_t_from_half", "kappa_t_from_two", "kappa_t_from_1e-14"],
    )
    def test_invalid_input_file_exit_code(self, scenario, header, transform, overrides, tmp_path,
                                          capsys, recwarn):
        if scenario == "fig6":
            p = spectra.read_profile_csv(CONFIGS / "fig6_spectrum.csv")
            rows = np.column_stack([p.omega, p.density, p.phase]).tolist()
            key = "spectrum_csv"
        else:
            k = spectra.read_trajectory_csv(CONFIGS / "synth_kappa.csv")
            rows = np.column_stack([k.t, k.kappa.real, k.kappa.imag]).tolist()
            key = "kappa_csv"
        if transform is not None:
            rows = transform(rows)
        # Text cells are written as they are, numbers as their repr; no header: a 0-byte file.
        lines = [header] if header is not None else []
        width = (header or "").count(",") + 1
        lines += [",".join(v if isinstance(v, str) else repr(v) for v in r[:width]) for r in rows]
        path = tmp_path / "input.csv"
        path.write_text("".join(line + "\n" for line in lines))
        params = dict(load_config(scenario), **{key: str(path)}, **overrides)
        assert cli.run(scenario, params, tmp_path / "out") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert not recwarn.list
        report = json.loads(err[0])
        assert report["error"] == "invalid input file"
        assert report["violations"][0].startswith(f"{path}: ")
        assert not (tmp_path / "out").exists()

    def test_fig2_grid_over_budget(self, tmp_path, capsys):
        params = {"eps_min": 0, "eps_max": 0.5, "eps_step": 1e-300}
        assert cli.run("fig2", params, tmp_path / "out") == 2
        (violation,) = json.loads(capsys.readouterr().err)["violations"]
        assert "5e+299" in violation
        assert violation.endswith(f"exceed the budget ROWS_MAX = {cli.ROWS_MAX}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "scenario, overrides, columns",
        [
            ("fig1", {"delta_n": 1e300, "t_max": 1e300}, ["fig1.csv: column kappa_mag"]),
            ("fig3", {"coupling": 1e300, "envelope_time": 1e-300, "envelope_shape": "exponential",
                      "t_max": 1e300}, ["fig3_bloch.csv: column r"]),
            ("fig5", {"coupling": 1e300, "envelope_time": 1e-300, "t_wait": 1e300,
                      "tau_max": 1e300},
             [f"fig5.csv: column {c}" for c in ("p0_u1", "p0_u2", "p0_u3", "p0_u4", "contrast")]),
        ],
        ids=["fig1", "fig3", "fig5"],
    )
    def test_non_finite_output_refused(self, scenario, overrides, columns, tmp_path, capsys,
                                       recwarn):
        out = tmp_path / "out"
        assert cli.run(scenario, dict(load_config(scenario), **overrides), out) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert not recwarn.list
        report = json.loads(err[0])
        assert report["error"] == "non-finite output"
        assert report["violations"] == [f"{column} is not finite" for column in columns]
        assert not out.exists()

    @pytest.mark.parametrize("scenario, overrides, columns",
                             [("fig1", {"sigma": 1e200}, ["kappa_mag"]),
                              ("fig4", {"delta_n": 1e200}, FIG4_VALUES),
                              ("fig4", {"sigma": 1e150, "delta_n": 1e150}, FIG4_VALUES),
                              ("fig4", {"sigma": 1e-300, "t_max": 1e300},
                               ["c_a", "mi_4state_alice_only"]),
                              ("fig4", {"K": 1.0, "t_max": 1.7e308},
                               ["c_a", "mi_4state_alice_only"]),
                              ("fig4", {"K": -1.0, "t_max": 1.7e308}, [])],
                             ids=["fig1_sigma", "fig4_delta_n", "fig4_rate", "fig4_zero_rate",
                                  "fig4_cross_term", "fig4_anticorrelated"])
    def test_square_overflow_is_a_config_error(self, scenario, overrides, columns, tmp_path,
                                               capsys, recwarn):
        # A square that overflows to inf meets a 0 (t = 0, a rate that underflows, or
        # 2(1 + K) t_a at t_b = 0): the nan cells are refused by the one check of every output
        # column. At the shipped K = -1 the joint exponent (t - t)^2 + 0 t t is 0 at every t, so
        # only the marginal c_a = exp(-(dn sigma t)^2 / 2) meets one: at a rate that underflows.
        # With a rate that does not, nothing is nan and the joint columns are two bits exactly.
        out = tmp_path / "out"
        code = cli.run(scenario, dict(load_config(scenario), **overrides), out)
        err = capsys.readouterr().err.strip().splitlines()
        assert not recwarn.list
        if not columns:
            assert code == 0 and not err
            rows = read_rows(out / "fig4.csv")
            assert {r["mi_4state"] for r in rows} == {r["capacity"] for r in rows} == {"2.0"}
            return
        assert code == 2 and len(err) == 1
        report = json.loads(err[0])
        assert report["error"] == "non-finite output"
        assert report["violations"] == [f"{scenario}.csv: column {c} is not finite"
                                         for c in columns]
        assert not out.exists()

    def test_fig4_overflowed_joint_kappa_refused(self, tmp_path, capsys, recwarn):
        # t^2 overflows at t_max, where t^2 + t^2 - 2 t t is inf - inf (a refusal, exit 2). The
        # joint exponent (t - t)^2 + 0 t t squares nothing that overflows, so perfectly
        # anti-correlated noise recoheres to two bits at every t; c_a is 0 and Alice alone 1 bit.
        out = tmp_path / "out"
        assert cli.run("fig4", dict(load_config("fig4"), K=-1.0, t_max=1e200), out) == 0
        assert not capsys.readouterr().err and not recwarn.list
        rows = read_rows(out / "fig4.csv")
        assert {r["mi_4state"] for r in rows} == {r["capacity"] for r in rows} == {"2.0"}
        assert (rows[-1]["t_a"], rows[-1]["c_a"], rows[-1]["mi_4state_alice_only"]) == (
            "1e+200", "0.0", "1.0")

    def test_square_check_edge(self, tmp_path, capsys, recwarn):
        # sigma**2 overflows from 2**512 on, and not below it: kappa_mag at t = 0 is inf * 0.
        params = load_config("fig1")
        below, at = tmp_path / "below", tmp_path / "at"
        assert cli.run("fig1", dict(params, sigma=math.nextafter(2.0**512, 0)), below) == 0
        assert cli.run("fig1", dict(params, sigma=2.0**512), at) == 2
        (line,) = capsys.readouterr().err.strip().splitlines()
        assert json.loads(line) == {"error": "non-finite output",
                                    "violations": ["fig1.csv: column kappa_mag is not finite"]}
        assert not recwarn.list and not at.exists()

    def test_fig2_scaled_grid_within_budget(self):
        # Ten times the benchmark's largest (1001-point) grid.
        assert cli.validate("fig2", {"eps_min": 0, "eps_max": 0.5, "eps_step": 0.5 / 10_000}) == []

    @pytest.mark.parametrize("scenario", ["fig1", "fig5"])
    def test_output_path_is_a_file(self, scenario, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        assert cli.run(scenario, load_config(scenario), target) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "io failure"

    def test_main_bad_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert cli.main(["fig2", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_manifest_path_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "classify_manifest.json").mkdir()
        assert cli.run("classify", load_config("classify"), tmp_path) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "io failure"

    def test_failed_rerun_leaves_no_manifest(self, tmp_path, capsys):
        # The rerun rewrites fig3_bloch.csv, then cannot write fig3_nm.csv: the manifest of the
        # first run, which records its n_t and its fig3_bloch.csv's sha256, must not survive.
        assert cli.run("fig3", dict(load_config("fig3"), n_t=2001), tmp_path) == 0
        (tmp_path / "fig3_nm.csv").unlink()
        (tmp_path / "fig3_nm.csv").mkdir()
        capsys.readouterr()
        assert cli.run("fig3", dict(load_config("fig3"), n_t=1001), tmp_path) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "io failure"
        assert not (tmp_path / "fig3_manifest.json").exists()

    def test_write_failing_on_second_file_leaves_no_manifest(self, tmp_path, capsys,
                                                             monkeypatch):
        assert cli.run("fig3", load_config("fig3"), tmp_path) == 0
        write_csv, calls = spectra.write_csv, []

        def failing_second(path, header, columns):
            calls.append(path)
            if len(calls) == 2:
                raise OSError(f"{path}: disk full")
            return write_csv(path, header, columns)

        monkeypatch.setattr(spectra, "write_csv", failing_second)
        capsys.readouterr()
        assert cli.run("fig3", load_config("fig3"), tmp_path) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and json.loads(err[0])["error"] == "io failure"
        assert len(calls) == 2
        assert not (tmp_path / "fig3_manifest.json").exists()

    @pytest.mark.parametrize("note", ["NaN", "[1, Infinity]", '{"x": -Infinity}'])
    def test_non_json_value_outside_schema_refused(self, note, tmp_path, capsys):
        # json.loads accepts these literals; the manifest copying them would not be JSON.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"epsilon": 0.1, "note": %s}' % note)
        out = tmp_path / "out"
        assert cli.main(["classify", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        report = json.loads(err[0])
        assert report["error"] == "invalid config"
        assert [v.split(":")[0] for v in report["violations"]] == ["note"]
        assert not out.exists()

    @pytest.mark.parametrize("epsilon, violation", [
        (np.float32(0.125), "epsilon: must be valid JSON (no NaN or +-Infinity)"),
        (np.int64(0), "epsilon: must be valid JSON (no NaN or +-Infinity)"),
        (float("nan"), "epsilon: expected a finite number"),
    ], ids=["float32", "int64", "nan"])
    def test_non_json_value_under_schema_key_refused(self, epsilon, violation, tmp_path, capsys):
        # _real converts numpy scalars, but the manifest copies the config as it was given;
        # a value that fails its kind as well is reported once.
        out = tmp_path / "out"
        assert cli.run("classify", {"epsilon": epsilon}, out) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0]) == {"error": "invalid config", "violations": [violation]}
        assert not out.exists()


# (config file text or bytes, or None for no file, exit code, error, end of the one violation
# or detail)
REJECTIONS = [
    pytest.param(json.dumps({"eps_min": 0.3, "eps_max": 0.1, "eps_step": 0.01}), 2,
                 "invalid config", "eps_max: must be >= eps_min", id="eps_max_below_eps_min"),
    pytest.param("[0.0, 0.5, 0.01]", 2, "invalid config", "config: must be a JSON object",
                 id="config_not_an_object"),
    pytest.param(None, 3, "io failure", "cfg.json'", id="unreadable_config"),
    # UnicodeDecodeError and RecursionError are not JSONDecodeErrors, and exit 2 too.
    pytest.param(b'{"epsilon": 0.1\xff}', 2, "invalid config", "invalid start byte",
                 id="non_utf8_byte"),
    pytest.param(b"[" * 200_000 + b"]" * 200_000, 2, "invalid config", "from a unicode string",
                 id="nested_too_deep"),
]


@pytest.mark.parametrize("config, code, error, detail_end", REJECTIONS)
def test_rejected_by_main(config, code, error, detail_end, tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    if config is not None:
        cfg.write_bytes(config if isinstance(config, bytes) else config.encode())
    assert cli.main(["fig2", "--config", str(cfg), "--out", str(out)]) == code
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1
    report = json.loads(err[0])
    assert report["error"] == error
    (detail,) = report["violations"] if "violations" in report else [report["detail"]]
    assert detail.endswith(detail_end)
    assert not out.exists()


def fail(*args):
    raise AssertionError("a kappa kernel ran where it must not")


def write_kappa(path, n_t):
    """A decayed, realizable kappa on n_t samples: a Gaussian density centred at omega = 2."""
    t = np.linspace(0, 10, n_t)
    spectra.write_trajectory_csv(spectra.DecoherenceTrajectory(t, np.exp(-t**2 / 2 + 2j * t)), path)
    return str(path)


def write_spectrum(path, n_w, jitter=0.0):
    """A Gaussian spectrum on n_w points, one of them moved by jitter (a fraction of the step)."""
    omega = np.linspace(-6, 6, n_w)
    omega[n_w // 2] += jitter * (omega[1] - omega[0])
    density = np.exp(-omega**2 / 2)
    profile = spectra.SpectralProfile(omega, density / np.trapezoid(density, omega), 0 * omega)
    spectra.write_profile_csv(profile, path)
    return str(path)


def input_params(scenario, path):
    if scenario == "synth":
        return dict(load_config("synth"), kappa_csv=path)
    return dict(load_config("fig6"), spectrum_csv=path, n_t=25)


INPUT_BUDGETS = (
    "scenario, write, budget, limit, refusal",
    [
        # synth writes and round-trips its spectrum on 2 * 51 - 2 = 100 rows: at ROWS_MAX 99
        # it reads at most (99 + 2) // 2 = 50.
        pytest.param("synth", lambda path: write_kappa(path, 51), "ROWS_MAX", 100,
                     "51 data rows exceed max_rows = 50", id="synth_rows"),
        pytest.param("fig6", lambda path: write_spectrum(path, 100), "ROWS_MAX", 100,
                     "100 data rows exceed max_rows = 99", id="fig6_rows"),
        # Uniform within SpectralProfile's 1e-9 but not to rounding: the kernel adds Taylor
        # terms in the deviation, and the rows are the one bound.
        pytest.param("fig6", lambda path: write_spectrum(path, 400, jitter=1e-10), "ROWS_MAX",
                     400, "400 data rows exceed max_rows = 399", id="fig6_jittered_rows"),
    ],
)


@pytest.fixture
def chirp_calls(monkeypatch):
    """Counts of the spectra._chirp_z plans built ("builds") and of their calls ("applies"),
    which all still run."""
    calls, chirp_z = collections.Counter(), spectra._chirp_z

    def build(*args):
        calls["builds"] += 1
        plan = chirp_z(*args)
        return lambda h: calls.update(["applies"]) or plan(h)

    monkeypatch.setattr(spectra, "_chirp_z", build)
    return calls


class TestKernelBudget:
    """fig6 and synth bound the rows of the file they read before any quadrature; kappa_numeric's
    one kernel needs no cell budget."""

    def test_synth_at_20000_samples_takes_the_chirp_kernel(self, tmp_path, chirp_calls):
        params = dict(load_config("synth"), kappa_csv=write_kappa(tmp_path / "k.csv", 20_000))
        assert cli.run("synth", params, tmp_path / "out") == 0
        manifest = json.loads((tmp_path / "out" / "synth_manifest.json").read_text())
        assert manifest["realizable"] and manifest["roundtrip_error"] <= 1e-11
        assert chirp_calls == {"builds": 1, "applies": 1}  # uniform to rounding: one term

    def test_fig6_over_cell_count_on_uniform_grids_takes_the_chirp_kernel(self, tmp_path,
                                                                         chirp_calls):
        # 9766 x 2048 = 2e7 n_t * n_omega cells, twice CELLS_MAX: the benchmark's largest fig6.
        params = patch_paths("fig6", dict(load_config("fig6"), n_t=9766), tmp_path)
        assert cli.run("fig6", params, tmp_path / "out") == 0
        assert chirp_calls == {"builds": 1, "applies": 1}

    def test_jittered_spectrum_needs_no_cell_budget(self, tmp_path, monkeypatch, chirp_calls):
        monkeypatch.setattr(cli, "CELLS_MAX", 1)
        spectrum = write_spectrum(tmp_path / "in.csv", 2048, jitter=1e-10)
        params = dict(load_config("fig6"), spectrum_csv=spectrum, n_t=501)
        assert cli.run("fig6", params, tmp_path / "out") == 0
        # One plan, applied to each Taylor term in omega's deviation.
        assert chirp_calls["builds"] == 1 and chirp_calls["applies"] > 1
        rows = np.loadtxt(tmp_path / "out" / "fig6.csv", delimiter=",", skiprows=1)
        t, kappa = rows[:, 0], rows[:, 1] + 1j * rows[:, 2]
        profile = spectra.read_profile_csv(spectrum)
        dense = oracles.dense_kappa(profile, params["delta_n"], t, params["two_pi"])
        assert np.max(np.abs(kappa - dense)) < 1e-12

    def test_jittered_kappa_file_round_trips(self, tmp_path, chirp_calls):
        # Every t moved by 1e-10 of a step, alternately up and down: synth's round trip adds
        # Taylor terms in t's deviation, the one CLI path with a t that is not from linspace.
        t = np.linspace(0, 10, 512)
        t[1:-1] += (-1) ** np.arange(1, 511) * 1e-10 * (t[1] - t[0])
        path = tmp_path / "k.csv"
        spectra.write_trajectory_csv(spectra.DecoherenceTrajectory(t, np.exp(-t**2 / 2 + 2j * t)),
                                     path)
        assert cli.run("synth", dict(load_config("synth"), kappa_csv=str(path)), tmp_path) == 0
        manifest = json.loads((tmp_path / "synth_manifest.json").read_text())
        # The conjugate grid's step comes from t's uniform fit, whose ends did not move, so
        # omega is the unjittered grid's to the bit.
        assert manifest["realizable"] and manifest["roundtrip_error"] <= 5e-11
        omega = spectra.read_profile_csv(tmp_path / "synth_spectrum.csv").omega
        assert np.array_equal(omega, np.sort(2 * np.pi * np.fft.fftfreq(1022, d=10 / 511)))
        assert chirp_calls["builds"] == 1 and chirp_calls["applies"] > 1

    def test_jittered_spectrum_past_the_series_limit_exits_2(self, tmp_path, capsys,
                                                             monkeypatch):
        # The moved point deviates by about 1e-10 steps of 12/399 from the uniform fit, so at
        # t_max 1e12 the phase t_max * max|delta| is about 3 rad, above 1: no series converges.
        # Within the alias half-period pi / d_omega that phase is at most pi * max|delta| /
        # d_omega, below 1e-2 on any grid the readers accept, so the window refuses it first;
        # kappa_numeric's own "cannot converge" is tested in test_spectra.py.
        spectrum = write_spectrum(tmp_path / "in.csv", 400, jitter=1e-10)
        limit = spectra.alias_t_max(spectra.read_profile_csv(spectrum), 1.0)
        monkeypatch.setattr(spectra, "_chirp_z", fail)
        out = tmp_path / "out"
        params = dict(load_config("fig6"), spectrum_csv=spectrum, n_t=25, t_max=1e12)
        assert cli.run("fig6", params, out) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        report = json.loads(err[0])
        assert report["error"] == "invalid input file"
        (violation,) = report["violations"]
        assert violation == f"{spectrum}: t_max = {1e12} exceeds the alias half-period {limit}"
        assert not out.exists()

    def test_nonuniform_time_grid_is_reported_before_its_size(self, tmp_path, monkeypatch,
                                                              capsys):
        monkeypatch.setattr(cli, "CELLS_MAX", 1)
        t = np.linspace(0, 10, 50) ** 1.1
        path = tmp_path / "k.csv"
        spectra.write_trajectory_csv(spectra.DecoherenceTrajectory(t, np.exp(-t**2 / 2)), path)
        assert cli.run("synth", dict(load_config("synth"), kappa_csv=str(path)), tmp_path) == 2
        (violation,) = json.loads(capsys.readouterr().err)["violations"]
        assert violation == f"{path}: time grid must be uniform and increasing"

    @pytest.mark.parametrize(*INPUT_BUDGETS)
    def test_input_over_budget_exits_before_quadrature(self, scenario, write, budget, limit,
                                                        refusal, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, budget, limit - 1)
        monkeypatch.setattr(spectra, "_chirp_z", fail)
        out, path = tmp_path / "out", write(tmp_path / "in.csv")
        assert cli.run(scenario, input_params(scenario, path), out) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        violation = f"{path}: {refusal}"
        assert json.loads(err[0]) == {"error": "invalid input file", "violations": [violation]}
        assert not out.exists()

    @pytest.mark.parametrize(*INPUT_BUDGETS)
    def test_input_at_budget_runs(self, scenario, write, budget, limit, refusal, tmp_path,
                                  monkeypatch):
        monkeypatch.setattr(cli, budget, limit)
        params = input_params(scenario, write(tmp_path / "in.csv"))
        assert cli.run(scenario, params, tmp_path / "out") == 0


    @pytest.mark.parametrize("scenario, write, rows, overrides, refusal", [
        ("fig6", write_spectrum, 11, {"n_t": 5}, "11 data rows exceed max_rows = 10"),
        # synth would write and round-trip its spectrum on 2 * 11 - 2 rows.
        ("synth", write_kappa, 11, {}, "11 data rows exceed max_rows = 6"),
        # Fewer rows than ROWS_MAX, but 2 * 7 - 2 of them above it.
        ("synth", write_kappa, 7, {}, "7 data rows exceed max_rows = 6"),
    ], ids=["fig6", "synth", "synth_below_rows_max"])
    def test_input_over_row_budget_is_not_parsed(self, scenario, write, rows, overrides, refusal,
                                                 tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "ROWS_MAX", 10)
        path = write(tmp_path / "in.csv", rows)
        monkeypatch.setattr(spectra.np, "loadtxt", fail)
        out = tmp_path / "out"
        assert cli.run(scenario, dict(input_params(scenario, path), **overrides), out) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        violation = f"{path}: {refusal}"
        assert json.loads(err[0]) == {"error": "invalid input file", "violations": [violation]}
        assert not out.exists()

    def test_refusal_does_not_hold_the_file(self, tmp_path, monkeypatch, capsys):
        # 4.8 MB of 400 000 rows: the reader counts them a line at a time and refuses the file
        # without reading it whole, which alone would peak at the file's 4.6 MiB.
        monkeypatch.setattr(cli, "ROWS_MAX", 10)
        path = tmp_path / "in.csv"
        path.write_bytes(b"omega,density,phase\n" + b"0.5,1.0,0.0\n" * 400_000)
        tracemalloc.start()
        try:
            code = cli.run("fig6", dict(input_params("fig6", str(path)), n_t=5), tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 2**20
        violation = f"{path}: 400000 data rows exceed max_rows = 10"
        assert json.loads(capsys.readouterr().err)["violations"] == [violation]

    @pytest.mark.parametrize("ending", [b"\r\n\r\n", b"\r\r", b"\n\n"],
                             ids=["crlf", "cr", "lf"])
    def test_blank_lines_do_not_count_against_the_row_budget(self, ending, tmp_path,
                                                             monkeypatch):
        # 10 rows in 22 lines, with an empty line after each: at the budget, so it runs, over
        # t_max 2, within the 10-point spectrum's alias half-period 3 pi / 4.
        monkeypatch.setattr(cli, "ROWS_MAX", 10)
        path = tmp_path / "in.csv"
        write_spectrum(path, 10)
        path.write_bytes(path.read_bytes().replace(b"\n", ending))
        params = dict(input_params("fig6", str(path)), n_t=5, t_max=2.0)
        assert cli.run("fig6", params, tmp_path / "out") == 0


class TestAliasWindow:
    """fig6 refuses a t_max past its spectrum's alias half-period pi / (|scale| d_omega), by more
    than the readers' 1e-9, before the quadrature, and runs up to it."""

    @pytest.mark.parametrize("jitter", [0.0, 1e-10], ids=["uniform", "jittered"])
    @pytest.mark.parametrize("two_pi", [False, True])
    @pytest.mark.parametrize("delta_n", [0.5, -0.5])
    def test_refused_just_past_the_limit(self, delta_n, two_pi, jitter, tmp_path, monkeypatch,
                                         capsys):
        spectrum = write_spectrum(tmp_path / "in.csv", 400, jitter=jitter)
        scale = abs(spectra._kernel_scale(delta_n, two_pi))
        limit = spectra.alias_t_max(spectra.read_profile_csv(spectrum), delta_n, two_pi)
        assert limit == pytest.approx(np.pi / (scale * 12 / 399), rel=1e-14)
        params = dict(load_config("fig6"), spectrum_csv=spectrum, delta_n=delta_n,
                      two_pi=two_pi, n_t=25)
        for t_max in (limit, limit * (1 + 5e-10)):
            assert cli.run("fig6", dict(params, t_max=t_max), tmp_path / "at") == 0
        monkeypatch.setattr(spectra, "_chirp_z", fail)
        t_max, out = limit * (1 + 2e-9), tmp_path / "out"
        assert cli.run("fig6", dict(params, t_max=t_max), out) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        violation = f"{spectrum}: t_max = {t_max} exceeds the alias half-period {limit}"
        assert json.loads(err[0]) == {"error": "invalid input file", "violations": [violation]}
        assert not out.exists()

    def test_shipped_spectrum_at_t_max_2000_exits_2(self, tmp_path, capsys):
        # |kappa| is below 3e-10 on [20, 400], but the unrefused run wrote the trapezoid's
        # alias, 0.995 at t = 803.9, near its period 2 pi / d_omega = 803.86, with exit 0.
        params = patch_paths("fig6", dict(load_config("fig6"), t_max=2000.0, n_t=20001), tmp_path)
        assert cli.run("fig6", params, tmp_path / "out") == 2
        (violation,) = json.loads(capsys.readouterr().err)["violations"]
        assert violation == (f"{params['spectrum_csv']}: t_max = 2000.0 exceeds the alias "
                             f"half-period {np.pi / (16 / 2047)}")
        assert not (tmp_path / "out").exists()


class TestWarmReads:
    """Runs that reuse an input parsed earlier in the process write what a fresh process does."""

    @pytest.mark.parametrize(
        "scenario, key, rewrite",
        [
            ("fig6", "spectrum_csv", lambda data: data.replace(b",0.0\n", b",0.1\n")),
            ("synth", "kappa_csv", lambda data: data.replace(b",0.99", b",0.98", 1)),
        ],
        ids=["fig6", "synth"],
    )
    def test_warm_runs_match_a_fresh_process(self, scenario, key, rewrite, tmp_path):
        params = patch_paths(scenario, load_config(scenario), tmp_path)
        path = tmp_path / Path(params[key]).name
        path.write_bytes(Path(params[key]).read_bytes())
        params[key] = str(path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(params))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
        for n in range(3):
            if n == 2:  # new content of the same length, under the old mtime
                data, stat = path.read_bytes(), path.stat()
                path.write_bytes(rewrite(data))
                assert len(path.read_bytes()) == len(data) and path.read_bytes() != data
                os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
            warm, cold = tmp_path / f"warm{n}", tmp_path / f"cold{n}"
            assert cli.run(scenario, dict(params), warm) == 0
            subprocess.run([sys.executable, "-m", "nmlab.cli", scenario, "--config", str(config),
                            "--out", str(cold)], env=env, check=True)
            names = sorted(f.name for f in cold.iterdir())
            assert sorted(f.name for f in warm.iterdir()) == names
            for name in names:
                assert (warm / name).read_bytes() == (cold / name).read_bytes(), (n, name)
        csv_name = next(name for name in names if name.endswith(".csv"))
        assert (tmp_path / "warm2" / csv_name).read_bytes() != (
            tmp_path / "warm1" / csv_name).read_bytes()


class TestOutputs:
    def test_fig1_schema(self, tmp_path):
        cli.run("fig1", load_config("fig1"), tmp_path)
        rows = read_rows(tmp_path / "fig1.csv")
        assert set(rows[0]) == {"t", "A_theta", "kappa_mag"}
        a_values = sorted({float(r["A_theta"]) for r in rows})
        assert a_values == load_config("fig1")["a_theta_values"]

    def test_fig2_strong_row(self, tmp_path):
        cli.run("fig2", load_config("fig2"), tmp_path)
        rows = read_rows(tmp_path / "fig2.csv")
        by_eps = {round(float(r["epsilon"]), 3): r for r in rows}
        assert by_eps[0.26]["classification"] == "strong"
        assert by_eps[0.1]["classification"] == "weak"
        assert by_eps[0.25]["classification"] == "singular"
        assert by_eps[0.0]["classification"] == "markovian"

    def test_fig4_alice_only_column_decays(self, tmp_path):
        cli.run("fig4", load_config("fig4"), tmp_path)
        rows = read_rows(tmp_path / "fig4.csv")
        alice_only = [float(r["mi_4state_alice_only"]) for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(alice_only, alice_only[1:]))

    def test_fig4_capacity_survives_c_a_underflow(self, tmp_path):
        # c_a = exp(-(4*2*5)^2/2) underflows to 0 at t = 5; c_a^{2(1+K)} = exp(-6.25) does not.
        params = {"sigma": 2, "K": -0.99609375, "delta_n": 4, "t_max": 5, "n_t": 6}
        assert cli.run("fig4", params, tmp_path) == 0
        rows = read_rows(tmp_path / "fig4.csv")
        assert float(rows[-1]["c_a"]) == 0.0
        assert float(rows[-1]["capacity"]) > 1 + 2e-6
        assert all(float(r["capacity"]) >= float(r["mi_4state"]) for r in rows)

    def test_fig2_labels_match_classify_scenario(self, tmp_path):
        # Both scenarios read one edge table: classify exits 4 exactly where |eps - 1/4| or
        # |eps - 1/2| is <= 1e-9, and elsewhere writes fig2's label. The grids cross both edges.
        rows = []
        for i, (lo, hi, step) in enumerate([(0.0, 0.5, 0.025), (0.25 - 3e-9, 0.25 + 3e-9, 5e-10),
                                            (0.5 - 3e-9, 0.5, 5e-10)]):
            params = {"eps_min": lo, "eps_max": hi, "eps_step": step}
            assert cli.run("fig2", params, tmp_path / f"fig2_{i}") == 0
            rows += read_rows(tmp_path / f"fig2_{i}" / "fig2.csv")
        codes = []
        for i, row in enumerate(rows):
            eps, out = float(row["epsilon"]), tmp_path / str(i)
            codes.append(cli.run("classify", {"epsilon": eps}, out))
            if abs(eps - 0.25) <= 1e-9 or abs(eps - 0.5) <= 1e-9:
                assert codes[-1] == 4 and not out.exists()
                assert row["classification"] == ("singular" if eps < 0.4 else "strong")
            else:
                assert codes[-1] == 0
                assert read_rows(out / "classify.csv")[0]["classification"] == row["classification"]
        assert 0 in codes and 4 in codes

    def test_fig5_cells_are_float_literals(self, tmp_path):
        assert cli.run("fig5", load_config("fig5"), tmp_path) == 0
        rows = read_rows(tmp_path / "fig5.csv")
        assert rows
        for row in rows:
            for cell in row.values():
                float(cell)

    def test_synth_manifest_reports_roundtrip(self, tmp_path):
        params = patch_paths("synth", load_config("synth"), tmp_path)
        cli.run("synth", params, tmp_path)
        manifest = json.loads((tmp_path / "synth_manifest.json").read_text())
        assert manifest["roundtrip_error"] < 1e-6
        assert manifest["realizable"] is True
        profile = spectra.read_profile_csv(tmp_path / "synth_spectrum.csv")
        assert np.all(profile.density >= 0)

    def test_fig6_kappa_magnitude_bounded(self, tmp_path):
        params = patch_paths("fig6", load_config("fig6"), tmp_path)
        cli.run("fig6", params, tmp_path)
        rows = read_rows(tmp_path / "fig6.csv")
        assert all(float(r["kappa_mag"]) <= 1 + 1e-6 for r in rows)
        assert float(rows[0]["kappa_mag"]) == pytest.approx(1.0, abs=1e-9)

    def test_lf_line_endings_and_header(self, tmp_path):
        cli.run("fig2", load_config("fig2"), tmp_path)
        raw = (tmp_path / "fig2.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.split(b"\n", 1)[0] == b"epsilon,C1,C2,C2_minus_C1,classification"


class TestFig3Fold:
    """r depends on phi only through cos^2(phi), so fig3 evaluates nm on its grid's phi <= pi/2
    and mirrors it onto the rest."""

    @pytest.mark.parametrize("n_phi", [2, 3, 24, 25])
    @settings(max_examples=20, deadline=None)
    @given(params=nv_params, t_max=st.floats(0.1, 20.0), n_t=st.integers(2, 300))
    def test_nm_column_is_its_half_grid_mirrored(self, n_phi, params, t_max, n_t,
                                                  tmp_path_factory):
        out, calls, measure = tmp_path_factory.mktemp("fig3"), [], nvmodel.nm_measure_phi
        config = dict(dataclasses.asdict(params), phi_values=[0.5], t_max=t_max, n_t=n_t,
                      n_phi=n_phi)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nvmodel, "nm_measure_phi", lambda *args: calls.append(args) or measure(*args))
            assert cli.run("fig3", config, out) == 0
        assert len(calls) == 1
        nm = np.array([float(row["nm"]) for row in read_rows(out / "fig3_nm.csv")])
        grid, t = np.linspace(0, np.pi, n_phi), np.linspace(0, t_max, n_t)
        assert np.array_equal(nm, nm[::-1])
        half = grid[:(n_phi + 1) // 2]
        assert np.array_equal(nm[:half.size], measure(params, half, t))
        np.testing.assert_allclose(nm, oracle_nm(params, grid, t), rtol=0, atol=1e-12)


class TestExactCells:
    """Cells where a closed form's textbook expression cancels, each locked to its correctly
    rounded value; each comment gives what the textbook expression writes there. fig4 at
    K = -1, t_max 1e200 is TestRun::test_fig4_overflowed_joint_kappa_refused."""

    def test_fig4_near_anticorrelation(self, tmp_path):
        # t^2 + t^2 + 2K t^2 loses 1e-6 of this exponent of 1, and the cells read
        # 1.0999544084764648 and 0.9849321063721326.
        params = {"sigma": 1.0, "K": -0.9999999999, "delta_n": 1.0, "t_max": 1e5, "n_t": 2}
        assert cli.run("fig4", params, tmp_path) == 0
        row = read_rows(tmp_path / "fig4.csv")[-1]
        assert row["t_a"] == "100000.0"
        assert row["mi_4state"] == row["capacity"] == "1.0999543915272632"
        assert row["mi_3state"] == "0.9849320950726649"

    def test_fig1_equal_peaks_at_pi(self, tmp_path):
        # 1 + 1 + 2 cos(pi) rounds to 0.0, and so does |kappa|.
        params = {"a_theta_values": [1.0], "sigma": 1.0, "delta_omega": 1.0, "delta_n": 1.0,
                  "t_max": math.pi, "n_t": 2}
        assert cli.run("fig1", params, tmp_path) == 0
        row = read_rows(tmp_path / "fig1.csv")[-1]
        assert (row["t"], row["kappa_mag"]) == ("3.141592653589793", "4.403758465776943e-19")

    def test_fig2_tiny_eps(self, tmp_path):
        # b^2 - b at b = 1 - 4e-12 keeps 5 digits: -4.0000225354219765e-12.
        assert cli.run("fig2", {"eps_min": 1e-12, "eps_max": 1e-12, "eps_step": 1}, tmp_path) == 0
        (row,) = read_rows(tmp_path / "fig2.csv")
        assert row["C2_minus_C1"] == "-3.999999999984e-12"

    def test_fig2_shipped_first_row(self, tmp_path):
        # -4 eps C1 alone is -0.0 at eps = 0; the column must read 0.0.
        assert cli.run("fig2", load_config("fig2"), tmp_path) == 0
        lines = (tmp_path / "fig2.csv").read_bytes().split(b"\n")
        assert lines[1] == b"0.0,1.0,1.0,0.0,markovian"

    @settings(max_examples=200, deadline=None)
    @given(eps=st.floats(0.0, 1e-6))
    @example(eps=1e-12)
    def test_fig2_gap_within_ulps_of_exact(self, eps):
        # -4 eps C1 rounds twice (C1 = 1 - 4 eps, then the product; 4 eps is exact): at most
        # 2 ulp. b^2 - b cancels to within ulp(1) and misses by up to 8e15 ulp here.
        values, violations = cli._validated("fig2", {"eps_min": eps, "eps_max": eps,
                                                     "eps_step": 1.0})
        assert not violations
        (_, _, columns), = cli._fig2(values)[0]
        gap = float(columns[3][0])
        assert oracles.ulps(gap, oracles.exact_c2_minus_c1(eps)) <= 2
        assert math.copysign(1.0, gap) == (1.0 if eps == 0 else -1.0)


FIG4_PARAMS = {"sigma": st.floats(1e-3, 5.0),
               "K": st.one_of(st.just(-1.0), st.just(1.0), st.floats(-1.0, 1.0)),
               "delta_n": st.floats(-5.0, 5.0).filter(lambda x: x != 0),
               "t_max": st.floats(1e-3, 10.0), "n_t": st.integers(2, 200)}
FIG4_UNDERFLOW = {"sigma": 2.0, "K": -0.99609375, "delta_n": 4.0, "t_max": 5.0, "n_t": 6}


class TestFig4Oracle:
    """fig4's closed forms against the full protocol simulation in tests/oracles.py."""

    @settings(max_examples=100, deadline=None)
    @given(**FIG4_PARAMS)
    @example(**FIG4_UNDERFLOW)  # c_a underflows at t_max
    def test_columns_match_protocol(self, sigma, K, delta_n, t_max, n_t, tmp_path_factory):
        out = tmp_path_factory.mktemp("fig4")
        params = {"sigma": sigma, "K": K, "delta_n": delta_n, "t_max": t_max, "n_t": n_t}
        assert cli.run("fig4", params, out) == 0
        header, cells = read_columns(out / "fig4.csv")
        col = dict(zip(header, (np.array(c, dtype=float) for c in cells)))
        spec = sdc.CorrelatedSpectrum(sigma=sigma, correlation=K, delta_n=delta_n)
        t = col["t_a"]
        assert np.array_equal(t, np.linspace(0, t_max, n_t))
        assert np.array_equal(col["c_a"], sdc.marginal_kappa(spec, t))
        oracle = {"mi_4state": oracles.simulate_protocol(spec, t, t, 4),
                  "mi_3state": oracles.simulate_protocol(spec, t, t, 3),
                  "mi_4state_alice_only": oracles.simulate_protocol(spec, t, 0.0, 4),
                  "capacity": oracles.simulate_protocol(spec, t, t, 4)}
        for name, want in oracle.items():
            assert np.max(np.abs(col[name] - want)) <= 1e-12, name
        assert cells[header.index("mi_4state")] == cells[header.index("capacity")]

    @settings(max_examples=50, deadline=None)
    @given(**FIG4_PARAMS)
    @example(**FIG4_UNDERFLOW)
    def test_fig4_curve_is_the_cli_column(self, sigma, K, delta_n, t_max, n_t, tmp_path_factory):
        # sdc.fig4_columns is the CLI's closed form, so the cells are equal bit for bit.
        out = tmp_path_factory.mktemp("fig4")
        params = {"sigma": sigma, "K": K, "delta_n": delta_n, "t_max": t_max, "n_t": n_t}
        assert cli.run("fig4", params, out) == 0
        header, cells = read_columns(out / "fig4.csv")
        spec = sdc.CorrelatedSpectrum(sigma=sigma, correlation=K, delta_n=delta_n)
        columns = sdc.fig4_columns(spec, np.linspace(0, t_max, n_t))
        names = ("c_a", "mi_4state", "mi_3state", "mi_4state_alice_only")
        for name, column in zip(names, columns, strict=True):
            assert list(map(repr, column.tolist())) == list(cells[header.index(name)]), name


def read_columns(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, list(zip(*rows))


def without_checksums(manifest):
    outputs = [{k: v for k, v in o.items() if k != "sha256"} for o in manifest["outputs"]]
    return dict(manifest, outputs=outputs)


class TestGolden:
    """The shipped configs reproduce the outputs locked in tests/golden/."""

    def test_golden_cells_are_finite(self):
        for path in sorted(GOLDEN.glob("*.csv")):
            _, columns = read_columns(path)
            for column in columns:
                for cell in column:
                    try:
                        value = float(cell)
                    except ValueError:  # classifications
                        continue
                    assert np.isfinite(value), (path.name, cell)

    @pytest.mark.parametrize("scenario", cli.SCENARIOS)
    def test_outputs_match_golden(self, scenario, tmp_path, monkeypatch):
        monkeypatch.chdir(REPO)  # the templates' input paths are repo-relative
        assert cli.run(scenario, load_config(scenario), tmp_path) == 0
        got, want = (without_checksums(json.loads((d / f"{scenario}_manifest.json").read_text()))
                     for d in (tmp_path, GOLDEN))
        assert got.keys() == want.keys()
        for key, value in want.items():
            if isinstance(value, float):
                assert abs(got[key] - value) <= 1e-12, key
            else:
                assert got[key] == value, key
        for entry in want["outputs"]:
            got_header, got_cols = read_columns(tmp_path / entry["file"])
            want_header, want_cols = read_columns(GOLDEN / entry["file"])
            assert got_header == want_header
            assert len(got_cols) == len(want_cols)
            for column, g, w in zip(want_header, got_cols, want_cols):
                try:
                    expected = np.array(w, dtype=float)
                except ValueError:  # classifications and other strings
                    assert g == w, column
                    continue
                np.testing.assert_allclose(np.array(g, dtype=float), expected, rtol=0, atol=1e-12,
                                           err_msg=f"{entry['file']}:{column}")


# Scaled configs whose tables go through the vectorized float formatter block by block.
SCALED = {"fig1_5010x5": ("fig1", {"n_t": 5010, "a_theta_values": [0.0, 0.33, 0.5, 1.0, 1.5]}),
          "fig3_20010": ("fig3", {"n_t": 20010}), "fig5_3010": ("fig5", {"n_tau": 3010})}


class TestCanonicalCells:
    """Every float cell is the repr of the float it reads back to.

    TestGolden compares values within 1e-12, so a change of layout alone
    (1e-05 written as 1e-5, say) would pass it but not this.
    """

    @pytest.mark.parametrize("scenario, overrides",
                             [(s, {}) for s in cli.SCENARIOS] + list(SCALED.values()),
                             ids=list(cli.SCENARIOS) + list(SCALED))
    def test_float_cells_are_repr(self, scenario, overrides, tmp_path):
        params = dict(patch_paths(scenario, load_config(scenario), tmp_path), **overrides)
        assert cli.run(scenario, params, tmp_path / "out") == 0
        floats = 0
        for path in sorted((tmp_path / "out").glob("*.csv")):
            _, *rows = path.read_text(encoding="utf-8").splitlines()
            for cell in ",".join(rows).split(","):
                try:
                    value = float(cell)
                except ValueError:  # classifications
                    continue
                assert repr(value) == cell, (path.name, cell)
                floats += 1
        assert floats


class TestWriterMemory:
    """The tracemalloc peak of one write of a scaled table, at most the 46-column writer's.

    The bounds are the peaks of the writer whose every cell took WIDTH template bytes and
    WIDTH mask bytes (Python 3.11, numpy 2.4): narrower cells pay for any larger block.
    """

    @pytest.mark.parametrize("scenario, overrides, bound_mib", [
        ("fig3", {"n_t": 20010}, 4.62), ("fig5", {"n_tau": 3010}, 2.06),
        ("fig6", {"n_t": 9766}, 1.59)], ids=["fig3_20010x3", "fig5_3010", "fig6_9766x4"])
    def test_peak(self, scenario, overrides, bound_mib, tmp_path):
        params = dict(patch_paths(scenario, load_config(scenario), tmp_path), **overrides)
        values, violations = cli._validated(scenario, params)
        assert not violations
        (_, header, columns), *_ = cli.SCENARIOS[scenario].runner(values)[0]
        columns = list(map(np.asarray, columns))
        spectra.write_csv(tmp_path / "warm.csv", header, columns)  # builds _floatfmt's tables
        tracemalloc.start()
        try:
            spectra.write_csv(tmp_path / "t.csv", header, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20

    @pytest.mark.parametrize("header, columns, bound_mib", [
        (["t", "A_theta"], (np.linspace(0, 5, 200_000), np.c_[[0.0, 0.25, 0.5, 0.75, 1.0]]), 12),
        (["i", "j"], (np.arange(10**6), 7 * np.arange(10**6) - 3), 1)], ids=["t_x_a", "ints"])
    def test_peak_without_full_size_floats(self, header, columns, bound_mib, tmp_path):
        # 10**6 rows with no full-size float column go in blocks, not one % string: measured
        # 9.0 and 0.3 MiB (Python 3.11, numpy 2.4), against 76 and 115 MiB joined.
        spectra.write_csv(tmp_path / "warm.csv", header, [c[:10] for c in columns])
        tracemalloc.start()
        try:
            spectra.write_csv(tmp_path / "t.csv", header, columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20

    def test_fig2_runner_peak_per_row(self):
        # fig2's runner at 999 999 eps holds its five columns (68 B per row, the labels <U9)
        # and classify's closed-form temporaries: measured 85 B per row (Python 3.11, numpy
        # 2.4), against 112 B with a 4 x n stack of Kraus weights. The bound leaves 11 B (13 %).
        params = {"eps_min": 0.0, "eps_max": 0.5, "eps_step": 0.5 / 999_998}
        values, violations = cli._validated("fig2", params)
        assert not violations
        tracemalloc.start()
        try:
            (_, _, columns), = cli._fig2(values)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(columns[0]) == 999_999
        assert peak < 96 * len(columns[0])

    def test_peak_with_a_text_column(self, tmp_path):
        # The text check holds one _WRITE_BLOCK_CELLS slice of Python strings at a time: fig2's
        # labels beside their epsilon at 2 * 10**5 rows peaked at 1.06 MiB, the blocks' own
        # (Python 3.11, numpy 2.4), against 11.8 MiB with a set of every cell at once.
        eps = np.linspace(0, 0.5, 2 * 10**5)
        columns = (eps, collision.classify(eps).classification)
        spectra.write_csv(tmp_path / "warm.csv", ["epsilon", "c"], [c[:10] for c in columns])
        tracemalloc.start()
        try:
            spectra.write_csv(tmp_path / "t.csv", ["epsilon", "c"], columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2**20


# JSON values of every kind: strings, booleans, null, +-1e308 and other finite floats, ints that
# are small or at least 10**12 in magnitude, and lists and objects nesting any of them.
JSON_VALUES = st.recursive(
    st.one_of(st.text(max_size=12), st.booleans(), st.none(), st.sampled_from([1e308, -1e308]),
              st.floats(allow_nan=False, allow_infinity=False), st.integers(-100, 100),
              st.integers(min_value=10**12), st.integers(max_value=-10**12)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=8)
# The JSON type each parameter kind takes; a value of another type must exit 2.
JSON_TYPES = {cli._real: (int, float), cli._integer: (int, float), cli._reals: list,
              cli._string: str, cli._flag: bool}


def wrong_json_type(kind, value):
    return not isinstance(value, JSON_TYPES[kind]) or (kind is not cli._flag
                                                      and isinstance(value, bool))


class TestFuzz:
    """cli.run on random JSON under every key of every scenario: a documented exit code, one
    JSON line on stderr for a failure and none for a success, no traceback and no warning."""

    @pytest.mark.parametrize("scenario", cli.SCENARIOS)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_config(self, scenario, data, tmp_path_factory):
        schema = cli.SCENARIOS[scenario].schema
        # Any set of keys takes random values and the rest keep the template's, so that runs
        # also get past validation; a key may be missing and extra keys may come along.
        template = patch_paths(scenario, load_config(scenario), None)
        keys = st.sampled_from(sorted(template))
        drawn, missing = data.draw(st.sets(keys)), data.draw(st.sets(keys, max_size=1))
        params = {key: data.draw(JSON_VALUES) if key in drawn else value
                  for key, value in template.items() if key not in missing}
        params.update(data.draw(st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=2)))
        params = json.loads(json.dumps(params))
        out = tmp_path_factory.mktemp(scenario)
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(stderr), pytest.MonkeyPatch.context() as mp:
            warnings.simplefilter("always")
            mp.chdir(out)  # a random relative path names no file of the repository
            code = cli.run(scenario, params, out / "out")
        assert not caught, [str(w.message) for w in caught]
        assert code in (0, 2, 3, 4)
        if any(wrong_json_type(kind, params[key])
               for key, (kind, _, _) in schema.items() if key in params):
            assert code == 2
        lines = stderr.getvalue().splitlines()
        if code == 0:
            assert lines == []
        else:
            assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
