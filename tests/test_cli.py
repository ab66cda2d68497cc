"""CLI contract: exit codes, determinism, file schemas, round-trips."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import immunochain
from immunochain import analytics
from immunochain import simulate as simulate_module
from immunochain.analytics import hitting_time_mean_exact
from immunochain.cli import _FIELD_TYPES, ExperimentConfig, build_parser, main
from immunochain.models import SingleColumnParams
from immunochain.simulate import MAX_EXPECTED_EVENTS, SimulationConfig, simulate_single_column


def run(args):
    return main(args)


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


# Raw rates (p, lambda_m, alpha) mixed with per-step probabilities (pd, pm):
# all but the first once ran with one of the values dropped or reread.
MIXED_RATE_KEYS = [
    {"model": "matrix", "p": 0.1, "pd": 0.1},
    {"model": "matrix", "pd": 0.1, "lambda_m": 1.0},
    {"model": "single-column", "pd": 0.1, "alpha": 3},
    {"model": "single-column", "p": 0.1, "pm": 0.5},
    {"model": "matrix", "p": 0.1, "pm": 0.5},
]


# Raw rates the chosen model has no use for: both once ran with the key
# dropped (and echoed back in the summary's config).
UNREAD_RATE_KEYS = [
    {"model": "matrix", "p": 0.3, "alpha": 5},
    {"model": "single-column", "p": 0.3, "lambda_m": 5},
]


def _mix_id(mix):
    return "-".join([mix["model"], *list(mix)[1:]])


class TestConfigResolution:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_mapping({"model": "matrix", "turbo": True})

    @pytest.mark.parametrize("mix", MIXED_RATE_KEYS, ids=_mix_id)
    def test_mixed_parameterizations_rejected(self, mix):
        with pytest.raises(ValueError, match="not both"):
            ExperimentConfig.from_mapping({"M": 4, "N": 2, **mix})

    def test_pd_mapping(self):
        cfg = ExperimentConfig.from_mapping(
            {"model": "matrix", "M": 200, "N": 100, "pd": 0.1, "pm": 0.005}
        )
        params = cfg.params()
        assert params.p == 0.1
        assert params.lambda_m == pytest.approx(1.0)
        single = ExperimentConfig.from_mapping(
            {"model": "single-column", "M": 200, "N": 100, "pd": 0.1, "pm": 0.005}
        ).params()
        assert single.p == pytest.approx(0.001)
        assert single.alpha == pytest.approx(2.0)

    def test_flags_override_config_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"model": "matrix", "M": 10, "N": 5, "p": 0.5, "seed": 1}))
        out = tmp_path / "out"
        code = run([
            "analyze", "--config", str(cfg_file), "--M", "20", "--out", str(out),
        ])
        assert code == 0
        summary = read_summary(out)
        assert summary["config"]["M"] == 20


class TestExitCodes:
    def test_invalid_model_is_config_error(self, tmp_path):
        assert run(["analyze", "--model", "matrix", "--M", "0", "--N", "5",
                    "--p", "0.5", "--out", str(tmp_path)]) == 1

    def test_missing_replicates_is_config_error(self, tmp_path):
        assert run(["simulate", "--model", "matrix", "--M", "2", "--N", "2",
                    "--p", "0.5", "--out", str(tmp_path)]) == 1

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"model": "matrix", "frobnicate": 1}))
        assert run(["analyze", "--config", str(cfg_file), "--out", str(tmp_path)]) == 1

    def test_unreadable_config_is_config_error(self, tmp_path):
        assert run(["analyze", "--config", str(tmp_path / "missing.json")]) == 1

    def test_unwritable_output_is_io_error(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        code = run(["analyze", "--model", "matrix", "--M", "4", "--N", "2",
                    "--p", "0.5", "--out", str(blocker / "sub")])
        assert code == 2

    def test_unreachable_hitting_target_is_config_error(self, tmp_path, capsys):
        assert run(["simulate", "--model", "single-column", "--M", "64", "--p", "0.3",
                    "--replicates", "1", "--format", "json", "--out", str(tmp_path)]) == 1
        assert "beyond simulation" in capsys.readouterr().err

    def test_unreachable_matrix_target_is_config_error(self, tmp_path, capsys):
        # The power-law steady count overflows here, but that only moves it
        # out of the predictions; the simulator's own guard refuses the run.
        assert run(["simulate", "--model", "matrix", "--M", "64", "--N", "1", "--p", "0.99",
                    "--replicates", "1", "--format", "json", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        # At p = 0.5 the predictions are finite and the simulation refuses.
        assert run(["simulate", "--model", "matrix", "--M", "64", "--N", "1", "--p", "0.5",
                    "--replicates", "1", "--format", "json", "--out", str(tmp_path)]) == 1
        assert "beyond simulation" in capsys.readouterr().err

    @pytest.mark.parametrize("command, model", [
        ("simulate", "matrix"), ("simulate", "single-column"), ("figure-data", "matrix"),
    ])
    def test_non_finite_horizon_is_config_error(self, tmp_path, capsys, command, model):
        assert run([command, "--model", model, "--M", "3", "--N", "2", "--p", "0.3",
                    "--replicates", "1", "--horizon", "inf", "--format", "json",
                    "--out", str(tmp_path)]) == 1
        assert "positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("model_args", [
        ["--model", "matrix", "--M", "200", "--N", "100", "--p", "0.1"],
        ["--model", "single-column", "--M", "64", "--p", "0.0154"],
    ])
    def test_horizon_beyond_event_cap_is_config_error(self, tmp_path, capsys, model_args):
        assert run(["simulate", *model_args, "--replicates", "1", "--horizon", "1e12",
                    "--format", "json", "--out", str(tmp_path)]) == 1
        assert "expected events" in capsys.readouterr().err

    def test_verify_full_grid_passes(self, capsys):
        assert run(["verify", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        ok = [line.split(":")[0].removeprefix("verify ") for line in out.splitlines()
              if line.startswith("verify ") and line.endswith(" ok")]
        assert ok == ["invariant-pmf-vs-oracle", "hitting-mean-vs-oracle", "coupon-vs-enumeration",
                      "steady-probability-vs-oracle", "reversal-sampler-tv"]
        assert "all checks passed" in out

    def test_module_run_executes_command(self, tmp_path):
        src = str(Path(immunochain.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "immunochain.cli", "analyze", "--model", "single-column",
             "--M", "4", "--p", "0.5", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "summary.json").exists()


class TestAnalyze:
    def test_fig_parameters_summary(self, tmp_path):
        out = tmp_path / "out"
        code = run(["analyze", "--model", "matrix", "--M", "200", "--N", "100",
                    "--p", "0.1", "--lambda-m", "0", "--out", str(out)])
        assert code == 0
        summary = read_summary(out)
        assert summary["transition_time_prediction"] == pytest.approx(1177.4, abs=0.05)
        ids = {p["formula_id"] for p in summary["predictions"]}
        assert "transition_time_mlogm" in ids
        assert "steady_count_gamma_ratio" in ids
        methods = {p["method"] for p in summary["predictions"]}
        assert methods == {"exact", "asymptotic"}
        assert "unavailable_predictions" not in summary

    def test_power_law_overflow_keeps_the_exact_reports(self, tmp_path):
        # b_tilde = 6336: the power law leaves double precision, the exact
        # count and the transition time do not.
        out = tmp_path / "out"
        assert run(["analyze", "--model", "matrix", "--M", "64", "--N", "1",
                    "--p", "0.99", "--out", str(out)]) == 0
        summary = read_summary(out)
        values = {p["formula_id"]: p["value"] for p in summary["predictions"]}
        assert values["steady_count_gamma_ratio"] == pytest.approx(4.417e-155, rel=1e-3)
        assert values["transition_time_mlogm"] == pytest.approx(64 * np.log(64) / 0.01)
        unavailable = summary["unavailable_predictions"]
        assert [u["formula_id"] for u in unavailable] == ["steady_count_power_law"]
        assert "overflows double precision" in unavailable[0]["reason"]
        assert unavailable[0]["formula_id"] not in values

    def test_single_column_summary(self, tmp_path):
        out = tmp_path / "out"
        code = run(["analyze", "--model", "single-column", "--M", "2",
                    "--alpha", "1.0", "--p", "0.5", "--out", str(out)])
        assert code == 0
        summary = read_summary(out)
        assert summary["predictions"][0]["value"] == 10.0
        assert summary["invariant_pmf"] == pytest.approx([0.5, 1 / 3, 1 / 6])

    def test_single_column_overflow_lists_both_means(self, tmp_path):
        out = tmp_path / "out"
        assert run(["analyze", "--model", "single-column", "--M", "100000", "--p", "0.5",
                    "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["predictions"] == []
        unavailable = summary["unavailable_predictions"]
        assert [u["formula_id"] for u in unavailable] == ["hitting_mean_recursion", "hitting_mean_power_law"]
        assert all("overflows double precision" in u["reason"] for u in unavailable)

    def test_single_column_keeps_the_finite_reports(self, tmp_path):
        # p = 1e-320: the power law overflows; the exact mean and the pmf
        # stay (their precision is pinned in test_analytics).
        out = tmp_path / "out"
        assert run(["analyze", "--model", "single-column", "--M", "64", "--p", "1e-320",
                    "--out", str(out)]) == 0
        summary = read_summary(out)
        values = {p["formula_id"]: p["value"] for p in summary["predictions"]}
        assert values == {"hitting_mean_recursion": hitting_time_mean_exact(
            SingleColumnParams(M=64, alpha=1.0, p=1e-320), 0)}
        assert [u["formula_id"] for u in summary["unavailable_predictions"]] == [
            "hitting_mean_power_law"]
        assert summary["invariant_pmf"][-1] == pytest.approx(1.0, rel=1e-13)

    def test_pmf_at_huge_alpha_is_written(self, tmp_path):
        # beta = 6.4e-299 is far below M's last digit; nearly all the mass
        # is at M.
        out = tmp_path / "out"
        assert run(["analyze", "--model", "single-column", "--M", "64", "--p", "0.5",
                    "--alpha", "1e300", "--out", str(out)]) == 0
        summary = read_summary(out)
        assert {p["formula_id"] for p in summary["predictions"]} == {
            "hitting_mean_recursion", "hitting_mean_power_law"}
        assert "unavailable_predictions" not in summary
        assert summary["invariant_pmf"][-1] == pytest.approx(1.0, rel=1e-13)


class TestSimulateCommand:
    def test_horizon_run_needs_no_mean(self, tmp_path):
        out = tmp_path / "out"
        assert run(["simulate", "--model", "single-column", "--M", "100000", "--p", "0.5",
                    "--horizon", "1", "--replicates", "1", "--format", "json", "--out", str(out)]) == 0
        summary = read_summary(out)
        assert summary["predictions"] == []
        assert [u["formula_id"] for u in summary["unavailable_predictions"]] == ["hitting_mean_recursion"]
        assert len(summary["end_values"]) == 1

    def test_byte_identical_rerun(self, tmp_path):
        args = ["simulate", "--model", "matrix", "--M", "4", "--N", "3",
                "--p", "0.4", "--replicates", "5", "--horizon", "30",
                "--seed", "11"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(out_a)]) == 0
        assert run(args + ["--out", str(out_b)]) == 0
        assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()
        # summaries differ only in the echoed output path
        sa, sb = read_summary(out_a), read_summary(out_b)
        sa["config"].pop("out"), sb["config"].pop("out")
        assert sa == sb

    def test_round_trip_from_echoed_config(self, tmp_path):
        out_a = tmp_path / "a"
        assert run(["simulate", "--model", "matrix", "--M", "3", "--N", "2",
                    "--p", "0.4", "--replicates", "4", "--horizon", "25",
                    "--seed", "9", "--out", str(out_a)]) == 0
        echoed = read_summary(out_a)["config"]
        cfg_file = tmp_path / "echo.json"
        cfg_file.write_text(json.dumps(echoed))
        out_b = tmp_path / "b"
        assert run(["simulate", "--config", str(cfg_file), "--out", str(out_b)]) == 0
        assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()

    def test_series_schema_header(self, tmp_path):
        out = tmp_path / "out"
        assert run(["simulate", "--model", "matrix", "--M", "2", "--N", "2",
                    "--p", "0.5", "--replicates", "2", "--horizon", "10",
                    "--seed", "1", "--out", str(out)]) == 0
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0].startswith("# schema=immunochain-series-v1")
        assert lines[1] == "time,all_ones_count,replicate"

    def test_single_column_series_rows_are_indicator_changes(self, tmp_path):
        # Each row is a change of the column-complete indicator, as a plain
        # loop over the replicate's own series finds them.
        out = tmp_path / "out"
        assert run(["simulate", "--model", "single-column", "--M", "3", "--p", "0.3",
                    "--replicates", "4", "--horizon", "40", "--seed", "5", "--out", str(out)]) == 0
        params = SingleColumnParams(M=3, alpha=1.0, p=0.3)
        expected = []
        for r in range(4):
            config = SimulationConfig(master_seed=5, replicate_index=r, horizon=40.0, record_series=True)
            traj = simulate_single_column(params, config)
            last = None
            for t, k in zip(traj.series_times, traj.series_values):
                if int(k == params.M) != last:
                    last = int(k == params.M)
                    expected.append(f"{float(t)!r},{last},{r}")
        assert (out / "series.csv").read_text().splitlines()[2:] == expected
        assert len(expected) > 4

    def test_single_column_hit_run_draws_the_same_taus_in_csv_and_json(self, tmp_path):
        # The format once chose the algorithm: CSV laid the climbs out for a
        # series and JSON counted them, so one seed gave two sets of taus.
        args = ["simulate", "--model", "single-column", "--M", "8", "--p", "0.2",
                "--replicates", "3", "--seed", "5"]
        csv_out, json_out = tmp_path / "csv", tmp_path / "json"
        assert run(args + ["--out", str(csv_out)]) == 0
        assert run(args + ["--format", "json", "--out", str(json_out)]) == 0
        taus = read_summary(json_out)["taus"]
        assert read_summary(csv_out)["taus"] == taus
        rows = (csv_out / "series.csv").read_text().splitlines()[2:]
        assert rows == [row for r, tau in enumerate(taus) for row in (f"0.0,0,{r}", f"{tau!r},1,{r}")]

    def test_single_column_hit_run_series_costs_no_events(self, tmp_path):
        # Laid out, these climbs would cost ~1.7e10 expected events and be
        # refused; the indicator needs only each tau.
        out = tmp_path / "out"
        assert run(["simulate", "--model", "single-column", "--M", "64", "--p", "0.1",
                    "--replicates", "2", "--seed", "1", "--out", str(out)]) == 0
        rows = (out / "series.csv").read_text().splitlines()[2:]
        assert [row.split(",")[1:] for row in rows] == [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]

    def test_taus_recorded(self, tmp_path):
        out = tmp_path / "out"
        assert run(["simulate", "--model", "single-column", "--M", "2", "--p", "0.5",
                    "--replicates", "8", "--seed", "2", "--out", str(out)]) == 0
        summary = read_summary(out)
        assert len(summary["taus"]) == 8
        assert all(t > 0 for t in summary["taus"])
        assert "tau_mean" in summary

    def test_requested_observables_filter_outputs(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "model": "matrix", "M": 2, "N": 2, "p": 0.5, "replicates": 2,
            "horizon": 10, "seed": 1, "outputs": ["taus"],
        }))
        out = tmp_path / "out"
        assert run(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 0
        summary = read_summary(out)
        assert "taus" in summary
        assert "end_values" not in summary
        assert not (out / "series.csv").exists()

    def test_json_run_asking_for_a_series_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"format": "json", "outputs": ["series"]}))
        out = tmp_path / "out"
        assert run(["simulate", "--config", str(cfg_file), "--model", "single-column", "--M", "8",
                    "--p", "0.2", "--replicates", "3", "--horizon", "5", "--out", str(out)]) == 1
        assert "format: csv" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_observable_rejected(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "model": "matrix", "M": 2, "N": 2, "p": 0.5, "replicates": 2,
            "horizon": 10, "outputs": ["everything"],
        }))
        assert run(["simulate", "--config", str(cfg_file), "--out", str(tmp_path)]) == 1


class TestSampleSteady:
    def test_summary_contains_estimate_and_predictions(self, tmp_path):
        out = tmp_path / "out"
        code = run(["sample-steady", "--model", "matrix", "--M", "2", "--N", "2",
                    "--p", "0.4", "--replicates", "400", "--seed", "5",
                    "--out", str(out)])
        assert code == 0
        summary = read_summary(out)
        est = summary["all_ones_count_mean"]
        exact = next(p["value"] for p in summary["predictions"]
                     if p["formula_id"] == "steady_count_gamma_ratio")
        assert abs(est["point"] - exact) < 5 * (est["half_width"] / 1.96 + 1e-9) + 0.05

    def test_single_replicate_writes_no_mean(self, tmp_path):
        out = tmp_path / "out"
        assert run(["sample-steady", "--model", "matrix", "--M", "2", "--N", "2",
                    "--p", "0.4", "--replicates", "1", "--seed", "5",
                    "--out", str(out)]) == 0
        assert "all_ones_count_mean" not in read_summary(out)
        assert len((out / "samples.csv").read_text().splitlines()) == 3

    def test_rejects_single_column(self, tmp_path):
        assert run(["sample-steady", "--model", "single-column", "--M", "2",
                    "--p", "0.5", "--replicates", "10", "--out", str(tmp_path)]) == 1


class TestFigureData:
    def test_emits_both_csvs_with_predictions(self, tmp_path):
        out = tmp_path / "fig"
        code = run(["figure-data", "--model", "matrix", "--M", "20", "--N", "10",
                    "--pd", "0.1", "--pm", "0.005", "--replicates", "3",
                    "--horizon", "80", "--seed", "6", "--out", str(out)])
        assert code == 0
        counts = (out / "figure_counts.csv").read_text().splitlines()
        assert counts[0].startswith("# schema=immunochain-figure-counts-v1")
        header = counts[1].split(",")
        assert header == ["time", "mean_all_ones_count",
                          "predicted_transition_time", "predicted_steady_count"]
        pm_lines = (out / "figure_transition_vs_pm.csv").read_text().splitlines()
        taus = [float(line.split(",")[1]) for line in pm_lines[2:]]
        assert all(b < a for a, b in zip(taus, taus[1:]))

    def test_fig1_prediction_columns(self, tmp_path):
        # Full Fig-1 scale is too slow for unit tests; the prediction
        # columns must carry the closed-form values regardless of R.
        out = tmp_path / "fig"
        assert run(["figure-data", "--model", "matrix", "--M", "200", "--N", "100",
                    "--pd", "0.1", "--pm", "0.005", "--replicates", "1",
                    "--horizon", "10", "--seed", "1", "--out", str(out)]) == 0
        line = (out / "figure_counts.csv").read_text().splitlines()[2]
        t_pred = float(line.split(",")[2])
        assert t_pred == pytest.approx(557.7, abs=0.05)

    def test_missing_replicates_rejected(self, tmp_path):
        assert run(["figure-data", "--model", "matrix", "--M", "4", "--N", "2",
                    "--p", "0.1", "--out", str(tmp_path)]) == 1


# (model, key, value): JSON values of the wrong type, each of which once
# ended ``simulate --config`` in a TypeError traceback (``M: true`` ran as M=1).
WRONG_TYPED_CONFIGS = [
    ("matrix", "replicates", 2.5),
    ("matrix", "p", "0.3"),
    ("matrix", "lambda_m", "1"),
    ("single-column", "alpha", "1"),
    ("matrix", "M", True),
]


@pytest.mark.parametrize("model, key, value", WRONG_TYPED_CONFIGS)
def test_wrong_typed_config_value_is_config_error(tmp_path, capsys, model, key, value):
    config = {"model": model, "M": 3, "N": 2, "p": 0.3, "replicates": 2, "horizon": 5.0, key: value}
    cfg_file = tmp_path / "c.json"
    cfg_file.write_text(json.dumps(config))
    returned = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert returned == 1
    assert err.startswith(f"error: {key} must be")
    assert "Traceback" not in err


SINGLE = ["--model", "single-column"]
MATRIX = ["--model", "matrix"]

# analyze is O(1) in M for both models.
ANALYZE_AT_A_BILLION = [
    ["analyze", *SINGLE, "--M", "1000000000", "--p", "1e-9"],
    ["analyze", *MATRIX, "--M", "1000000000", "--N", "1000000000", "--p", "0.01"],
]

# (argv, exit code): points where a prediction or a run leaves double
# precision or the simulator's caps, each of which once ended, or could
# end, in a traceback.
EXTREME_INPUTS = [
    (["analyze", *SINGLE, "--M", "100000", "--p", "0.5"], 0),
    *[(argv, 0) for argv in ANALYZE_AT_A_BILLION],
    (["simulate", *SINGLE, "--M", "100000", "--p", "0.5", "--horizon", "1", "--replicates", "1"], 0),
    (["simulate", *SINGLE, "--M", "100000", "--p", "0.5", "--replicates", "1"], 1),
    (["simulate", *SINGLE, "--M", "1000000", "--p", "0.5", "--replicates", "1"], 1),
    (["analyze", *SINGLE, "--M", "64", "--p", "1e-320"], 0),
    (["simulate", *SINGLE, "--M", "3", "--p", "5e-324", "--replicates", "2"], 0),
    (["analyze", *SINGLE, "--M", "64", "--p", "0.5", "--alpha", "1e300"], 0),
    (["analyze", *SINGLE, "--M", "64", "--p", "0.5", "--alpha", "1e-306"], 0),
    (["analyze", *SINGLE, "--M", "512", "--p", "0.999999999", "--alpha", "1e-9"], 0),
    (["analyze", *SINGLE, "--M", "64", "--p", "0.5", "--alpha", "5e-324"], 1),
    (["simulate", *SINGLE, "--M", "64", "--p", "0.3", "--replicates", "1"], 1),
    (["simulate", *SINGLE, "--M", "64", "--p", "0.0154", "--replicates", "1", "--horizon", "1e12"], 1),
    (["analyze", *MATRIX, "--M", "64", "--N", "1", "--p", "0.99"], 0),
    (["analyze", *MATRIX, "--M", "64", "--N", "1", "--p", "1e-320"], 0),
    (["analyze", *MATRIX, "--M", "4", "--N", "2", "--p", "0.5", "--lambda-m", "1e308"], 0),
    (["simulate", *MATRIX, "--M", "64", "--N", "1", "--p", "0.99", "--replicates", "1"], 1),
    (["simulate", *MATRIX, "--M", "64", "--N", "1", "--p", "0.5", "--replicates", "1"], 1),
    (["simulate", *MATRIX, "--M", "3", "--N", "2", "--p", "0.3", "--replicates", "1", "--horizon", "inf"], 1),
    (["simulate", *MATRIX, "--M", "200", "--N", "100", "--p", "0.1", "--replicates", "1", "--horizon", "1e12"], 1),
    (["sample-steady", *MATRIX, "--M", "64", "--N", "1", "--p", "0.99", "--replicates", "2"], 0),
    # Integers beyond any float: the refusal shows them exactly.
    (["sample-steady", *MATRIX, "--M", "3", "--N", str(10**400), "--p", "0.3", "--replicates", "2"], 1),
    (["simulate", *MATRIX, "--M", "3", "--N", str(10**400), "--p", "0.3", "--replicates", "1", "--horizon", "5"], 1),
    (["simulate", *MATRIX, "--M", "3", "--N", "2", "--p", "0.3", "--replicates", str(10**400), "--horizon", "5"], 1),
    (["figure-data", *MATRIX, "--M", "64", "--N", "1", "--p", "0.99", "--replicates", "1", "--horizon", "10"], 0),
    # A size beyond any float has no balance exponent; a single column of
    # that size would build its level tables for ever.
    (["analyze", *MATRIX, "--M", "3", "--N", str(10**400), "--p", "0.3"], 1),
    (["analyze", *SINGLE, "--M", str(10**400), "--p", "0.5"], 1),
    (["simulate", *SINGLE, "--M", str(10**400), "--p", "0.5", "--replicates", "1"], 1),
]


@pytest.mark.parametrize("argv, code", EXTREME_INPUTS, ids=[" ".join(a) for a, _ in EXTREME_INPUTS])
def test_extreme_inputs_never_leave_a_traceback(tmp_path, capsys, argv, code):
    # In process: an exception escaping main() fails the test with the
    # traceback the command line would have printed.
    returned = main([*argv, "--out", str(tmp_path)])
    assert "Traceback" not in capsys.readouterr().err
    assert returned in (0, 1, 2, 3)
    assert returned == code


def _assert_refused_at_once(argv, capsys):
    began = time.perf_counter()
    returned = main(argv)
    elapsed = time.perf_counter() - began
    err = capsys.readouterr().err
    assert returned == 1
    assert elapsed < 1.0
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_state_beyond_the_cell_cap_is_refused_at_once(tmp_path, capsys):
    # Three entries by 10^8 columns: about 5 expected events to the
    # horizon, but the state alone is 3e8 cells.
    _assert_refused_at_once(["simulate", *MATRIX, "--M", "3", "--N", "100000000", "--p", "0.3",
                             "--replicates", "2", "--horizon", "5", "--out", str(tmp_path)], capsys)


def test_steady_draw_beyond_the_clock_cap_is_refused_at_once(tmp_path, capsys):
    # Three rows by 10^9 columns: a draw would take about 29 GB of clocks.
    _assert_refused_at_once(["sample-steady", *MATRIX, "--M", "3", "--N", "1000000000", "--p", "0.3",
                             "--replicates", "2", "--out", str(tmp_path)], capsys)


@pytest.mark.parametrize("M", [MAX_EXPECTED_EVENTS, 10**400])
def test_single_column_tables_beyond_the_cap_are_never_built(tmp_path, capsys, monkeypatch, M):
    # The M + 1 table levels are charged before the tables are built, so
    # the refusal never waits on lists over range(M + 1).
    def built(params):
        raise AssertionError(f"level tables built at M={params.M}")

    monkeypatch.setattr(simulate_module, "_column_tables", built)
    _assert_refused_at_once(["simulate", *SINGLE, "--M", str(M), "--p", "0.5", "--replicates", "1",
                             "--out", str(tmp_path)], capsys)


@pytest.mark.parametrize("argv", ANALYZE_AT_A_BILLION, ids=" ".join)
def test_analyze_is_o1_in_m(tmp_path, argv):
    # Each closed form is one Gamma-ratio kernel call: at M = 10^9 the old
    # running products would have needed about 8 GB.
    tracemalloc.start()
    try:
        began = time.perf_counter()
        returned = main([*argv, "--out", str(tmp_path)])
        elapsed = time.perf_counter() - began
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert returned == 0
    assert elapsed < 1.0
    assert peak < 2**20


@pytest.mark.parametrize("p", ["0.5", repr(3 / (10**6 + 3))])
def test_unreachable_single_column_hit_is_refused_before_its_tables(tmp_path, capsys, p):
    # A climb from 0 reaches M = 10^6 with probability about 10^-602056 at
    # p = 0.5. Its closed form refuses the run before the O(M) level tables
    # are built: they once took 0.75 s and 267 MB to print this refusal.
    # At p = 3/(10^6 + 3) it is 6e-18 and the exact mean from 0, which the
    # message prints, is finite; it took 1.16 s as an O(M) loop.
    tracemalloc.start()
    try:
        began = time.perf_counter()
        returned = main(["simulate", *SINGLE, "--M", "1000000", "--p", p, "--replicates", "1",
                         "--out", str(tmp_path)])
        elapsed = time.perf_counter() - began
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert returned == 1
    assert err.startswith("error:") and "beyond simulation" in err
    assert elapsed < 0.5
    assert peak < 2**20


@pytest.mark.parametrize("command", ["simulate", "sample-steady", "figure-data"])
def test_batch_beyond_the_event_cap_is_refused_at_once(tmp_path, capsys, command):
    # Every replicate costs at least one event, so 10^12 of them are
    # refused before the first run (sample-steady used to fail in np.empty).
    _assert_refused_at_once([command, *MATRIX, "--M", "3", "--N", "2", "--p", "0.3", "--horizon", "5",
                             "--replicates", str(10**12), "--out", str(tmp_path)], capsys)


@pytest.mark.parametrize("mix", MIXED_RATE_KEYS, ids=_mix_id)
def test_mixed_rate_flags_are_refused(tmp_path, capsys, mix):
    argv = [f"--{key.replace('_', '-')}={value}" for key, value in mix.items()]
    _assert_refused_at_once(["analyze", "--M", "4", "--N", "2", *argv, "--out", str(tmp_path)], capsys)


@pytest.mark.parametrize("via", ["flags", "config"])
@pytest.mark.parametrize("keys", UNREAD_RATE_KEYS, ids=_mix_id)
def test_rate_keys_the_model_does_not_read_are_refused(tmp_path, capsys, keys, via):
    def argv(mapping):
        if via == "flags":
            return [f"--{key.replace('_', '-')}={value}" for key, value in mapping.items()]
        config = tmp_path / "config.json"
        config.write_text(json.dumps(mapping))
        return ["--config", str(config)]

    _assert_refused_at_once(["analyze", "--M", "4", "--N", "2", *argv(keys), "--out", str(tmp_path)], capsys)
    # Without that key the same run goes through; N on a raw single column is
    # kept, since the per-step mapping reads it.
    read = {key: value for key, value in keys.items() if key not in ("alpha", "lambda_m")}
    assert main(["analyze", "--M", "4", "--N", "2", *argv(read), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("command", ["simulate", "sample-steady", "figure-data"])
def test_empty_batch_is_refused_by_the_shared_check(tmp_path, capsys, command):
    assert main([command, *MATRIX, "--M", "3", "--N", "2", "--p", "0.3", "--horizon", "5",
                 "--replicates", "0", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: need at least one replicate\n"


def test_commands_without_a_batch_ignore_replicates(tmp_path):
    # analyze reads no replicates, so --replicates 0 goes unread, as 5 does.
    assert main(["analyze", *MATRIX, "--M", "3", "--N", "2", "--p", "0.3", "--replicates", "0",
                 "--out", str(tmp_path)]) == 0


def test_verify_small_is_refused(capsys):
    assert main(["verify", "--small"]) == 1
    assert "unrecognized arguments: --small" in capsys.readouterr().err


@pytest.mark.parametrize("check, function, poisoned", [
    ("invariant-pmf-vs-oracle", "invariant_pmf", lambda params: params.M == 5 and params.alpha == 1.0),
    ("hitting-mean-vs-oracle", "hitting_time_means_exact", lambda params: params.M == 8 and params.p == 0.5),
    ("coupon-vs-enumeration", "coupon_done_by_draws", lambda N, k: (N, k) == (3, 4)),
    ("steady-probability-vs-oracle", "steady_allones_probability", lambda params: params.lambda_m == 0.3),
], ids=["invariant-pmf", "hitting-mean", "coupon", "steady-probability"])
def test_verify_fails_a_nan_error(monkeypatch, capsys, check, function, poisoned):
    # Python's max(0.0, nan) is 0.0, so a check that kept its worst error
    # with max() printed the other chains' error and passed.
    real = getattr(analytics, function)
    monkeypatch.setattr(analytics, function, lambda *args: real(*args) * (np.nan if poisoned(*args) else 1.0))
    assert main(["verify", "--seed", "3"]) == 3
    out, err = capsys.readouterr()
    failed = [line for line in out.splitlines() if line.endswith(" FAIL")]
    assert len(failed) == 1 and failed[0].startswith(f"verify {check}: max_err=nan ")
    assert f"oracle cross-checks failed: ['{check}']" in err


def test_batch_beyond_the_event_cap_in_a_config_file_is_refused_at_once(tmp_path, capsys):
    # A config file's integers are unbounded: 10^20 replicates used to loop
    # until the process was killed.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": "matrix", "M": 3, "N": 2, "p": 0.3, "horizon": 5,
                                  "replicates": 10**20}))
    _assert_refused_at_once(["simulate", "--config", str(config), "--out", str(tmp_path)], capsys)


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_subcommand_options(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == ["simulate", "sample-steady", "analyze", "verify", "figure-data"]
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        flags = ["-h", "--help", "--config"] + ["--" + n.replace("_", "-") for n in names if n != "outputs"]
        for name, parser in sub.choices.items():
            options = [s for action in parser._actions for s in action.option_strings]
            assert options == flags, name
        typed = [n for field_names, _, _ in _FIELD_TYPES for n in field_names]
        assert sorted(typed) == sorted(names)

    def test_bad_flag_leaves_the_parser_usable(self, tmp_path, capsys):
        assert main(["analyze", "--bogus", "1"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert main(["analyze", *MATRIX, "--M", "4", "--N", "2", "--p", "0.3",
                     "--out", str(tmp_path)]) == 0
        assert read_summary(tmp_path)["config"]["M"] == 4


# A runnable config with 0-2 keys overwritten by values of every JSON
# type. Numbers come from fixed sets, so that no horizon or rate asks for
# real work: every size is 1..8 or beyond any float, and a batch holds at
# most 2 replicates (or 10^400, refused).
_ANY_VALUE = st.one_of(
    st.integers(-1, 2),
    st.just(10**400),
    st.sampled_from([0.0, 0.5, 2.5, -1.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]),
    st.sampled_from(["", "matrix", "single-column", "csv", "json", "0.5"]),
    st.booleans(),
    st.lists(st.sampled_from(["taus", "counts", "series", "everything"]), max_size=3),
    st.none(),
)
_RUNNABLE = st.fixed_dictionaries(
    {
        "model": st.sampled_from(["matrix", "single-column"]),
        "M": st.one_of(st.integers(1, 8), st.just(10**400)),
        "N": st.one_of(st.integers(1, 8), st.just(10**400)),
        "p": st.sampled_from([0.1, 0.5, 5e-324]),
        "replicates": st.integers(1, 2),
    },
    optional={
        "lambda_m": st.sampled_from([0.0, 0.5, 2.5, 1e308]),
        "alpha": st.sampled_from([0.5, 2.5, 1e308]),
        "horizon": st.sampled_from([5e-324, 0.5, 2.5]),
        "seed": st.sampled_from([0, 3, 2**64 - 1]),
        "format": st.sampled_from(["csv", "json"]),
        "outputs": st.lists(st.sampled_from(["taus", "counts", "series"]), max_size=3),
    },
)
_OVERWRITES = st.dictionaries(st.sampled_from([f.name for f in dataclasses.fields(ExperimentConfig)]),
                              _ANY_VALUE, max_size=2)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(config=_RUNNABLE, overwrites=_OVERWRITES)
def test_any_config_file_exits_with_a_documented_code(config, overwrites):
    # Whatever a config file holds, every command that reads one ends with
    # exit 0-3 and never with a traceback.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({**config, **overwrites}))
        for command in ("analyze", "simulate", "sample-steady", "figure-data"):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                returned = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
            assert "Traceback" not in err.getvalue()
            assert returned in (0, 1, 2, 3)
