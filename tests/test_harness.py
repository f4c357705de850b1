"""Config handling, run records, reports, and the CLI surface."""

import csv
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from htx.cli import main
from htx.config import (ExperimentConfig, build_density, build_operator,
                        build_sampler, build_schedule, build_weights,
                        rbf_field_prior)
from htx.errors import ConfigError
from htx import cli, experiments, oracle, verify
from htx.experiments import (RunRecord, draw_trials, emit_report, restore_trials,
                             run_ablate_exponent, run_ablate_weight_family,
                             run_baseline_sdedit, run_restore)
from htx.report import svg_line_chart, write_csv
from htx.schedules import CONSTANT, WeightSchedule
from htx.solvers import trial_rng
from htx.verify import check_identity_gap, run_verify
from make_fingerprints import value_hash


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    """The header and the rows of a CSV file `write_csv` wrote, as strings."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        return next(reader), list(reader)


def small_restore_config(**experiment):
    doc = {
        "experiment": {"kind": "restore", "trials": 8, "seed": 1, **experiment},
        "density": {"kind": "mixture"},
        "operator": {"kind": "shrink", "factor": 0.5, "noise_std": 0.1},
        "sampler": {"steps": 60},
    }
    return ExperimentConfig.from_dict(doc)


def _subprocess_env() -> dict:
    """The environment of a child interpreter that imports htx from this checkout."""
    root = Path(__file__).resolve().parents[1]
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


class TestConfig:
    def test_minimal_config_is_one_line(self):
        cfg = ExperimentConfig.from_dict({"experiment": {"kind": "restore"}})
        assert cfg.experiment["trials"] == 200
        assert cfg.schedule["kind"] == "vp"

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"nonsense": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"sampler": {"stepz": 5}})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": {"kind": "frobnicate"}})

    def test_digest_is_content_addressed(self):
        a = ExperimentConfig.from_dict({"experiment": {"kind": "restore"}})
        b = ExperimentConfig.from_dict({"experiment": {"kind": "restore"}})
        c = ExperimentConfig.from_dict({"experiment": {"kind": "restore", "seed": 9}})
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    def test_builders(self):
        cfg = small_restore_config()
        schedule = build_schedule(cfg)
        gm = build_density(cfg)
        op = build_operator(cfg, gm.dim)
        ws = build_weights(cfg)
        scfg = build_sampler(cfg, schedule)
        assert gm.dim == 2 and op.dim == 2
        assert scfg.start == schedule.t_max and scfg.end == schedule.t_min
        assert ws.exponent == 5.0

    def test_field_prior_is_spd(self):
        gm = rbf_field_prior(16, 3.0)
        assert gm.dim == 16
        assert np.all(np.linalg.eigvalsh(gm.covs[0]) > 0)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": {"kind": "restore", "trials": 3}}))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.experiment["trials"] == 3

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(path)


class TestRestoreRecord:
    def test_reproducible_bitwise(self):
        cfg = small_restore_config()
        a = run_restore(cfg)
        b = run_restore(cfg)
        assert a.per_trial == b.per_trial
        assert a.aggregates == b.aggregates
        assert a.digest == b.digest

    def test_identity_zero_noise_fully_pinned(self):
        doc = {
            "experiment": {"kind": "restore", "trials": 4, "seed": 2},
            "operator": {"kind": "identity", "noise_std": 0.0},
            "guidance": {"family": "constant", "constant": 1.0},
            "sampler": {"steps": 2000},
        }
        record = run_restore(ExperimentConfig.from_dict(doc))
        assert max(record.per_trial["guided"]["mse_to_y"]) < 1e-3

    def test_guided_beats_unguided_on_shrink_toy(self):
        cfg = small_restore_config(trials=64)
        record = run_restore(cfg)
        by_series = {row["series"]: row for row in record.aggregates}
        assert by_series["guided"]["mse_to_y_mean"] < by_series["unguided"]["mse_to_y_mean"]

    def test_field_restore_frozen_values(self):
        # the 16-cell blurred field runs both arms as one jump in the prior's
        # eigenbasis; these means were frozen from that jump, so any bit it
        # moves shows here
        record = run_restore(ExperimentConfig.from_dict({
            "experiment": {"kind": "restore", "trials": 8},
            "density": {"kind": "gaussian_field", "cells": 16, "length_scale": 3.0},
            "operator": {"kind": "blur", "kernel_std": 2.0, "noise_std": 0.25},
            "sampler": {"steps": 200},
        }))
        by_series = {row["series"]: row["mse_to_y_mean"] for row in record.aggregates}
        assert by_series == {"guided": 0.6930380459138334, "unguided": 2.4434099631263897}

    def test_posterior_reference_column_present(self):
        record = run_restore(small_restore_config())
        guided = record.per_trial["guided"]
        assert len(guided["posterior_mse"]) == len(guided["mse_to_y"])
        # squared error of any estimator is at least the per-trial MMSE on average
        assert np.mean(guided["mse_to_y"]) >= np.mean(guided["posterior_mse"])

    def test_save_layout(self, tmp_path):
        record = run_restore(small_restore_config())
        out = record.save(tmp_path)
        assert (out / "record.json").exists()
        assert (out / "metrics.csv").exists()
        assert out.name == record.digest
        loaded = RunRecord.from_json(out / "record.json")
        assert loaded.aggregates == record.aggregates

    def test_rerun_from_embedded_config(self, tmp_path):
        record = run_restore(small_restore_config())
        out = record.save(tmp_path)
        loaded = RunRecord.from_json(out / "record.json")
        again = run_restore(ExperimentConfig.from_dict(loaded.config))
        assert again.aggregates == record.aggregates


ENDPOINT_METRICS = ["mse_to_y", "mse_to_coarse", "loglik_p0"]


def saved_record(tmp_path, command: str, noise_std: float) -> Path:
    """The record.json that `htx <command>` saves on a small run of the 2-d mixture."""
    work = tmp_path / f"{command}-{noise_std}"
    work.mkdir()
    (work / "cfg.json").write_text(json.dumps({
        "experiment": {"trials": 5, "seed": 3, "exponents": [3.0, 5.0],
                       "t0_fractions": [0.3, 0.6]},
        "operator": {"kind": "shrink", "factor": 0.5, "noise_std": noise_std},
        "sampler": {"steps": 20}}))
    assert main([command, "--config", str(work / "cfg.json"), "--out", str(work / "runs")]) == 0
    [path] = (work / "runs").rglob("record.json")
    return path


class TestRecordLayout:
    """record.json's per-trial table is {arm: {metric: [trial 0, trial 1, ...]}}."""

    @pytest.mark.parametrize("noise_std", [0.0, 0.1])
    @pytest.mark.parametrize("command", list(cli.RUN_DRIVERS))
    def test_columns_give_the_aggregate_rows(self, tmp_path, command, noise_std):
        doc = json.loads(saved_record(tmp_path, command, noise_std).read_text())
        assert len(doc["per_trial"]) == len(doc["aggregates"])
        for columns, row in zip(doc["per_trial"].values(), doc["aggregates"]):
            assert row["n"] == 5
            assert [len(column) for column in columns.values()] == [row["n"]] * len(columns)
            assert [key[:-len("_mean")] for key in row if key.endswith("_mean")] == list(columns)
            for key, column in columns.items():
                # bit for bit: json writes each float so that it reads back exactly
                assert (row[f"{key}_mean"], row[f"{key}_se"]) == experiments.mean_se(column)
            if command == "sample":
                assert list(columns) == ["loglik_p0"]
            elif command == "baseline-sdedit":
                assert list(columns) == ENDPOINT_METRICS
            else:
                posterior = ["posterior_mse"] if noise_std > 0 else []
                assert list(columns) == ENDPOINT_METRICS + posterior

    @pytest.mark.parametrize("command", list(cli.RUN_DRIVERS))
    def test_report_reads_a_record_with_one_row_per_trial(self, tmp_path, command):
        # records written before the column table hold one {metric: value} row per
        # trial; report reads only the aggregates, so it writes the same metrics.csv
        path = saved_record(tmp_path, command, 0.1)
        doc = json.loads(path.read_text())
        doc["per_trial"] = {arm: [dict(zip(columns, trial)) for trial in zip(*columns.values())]
                            for arm, columns in doc["per_trial"].items()}
        rows = tmp_path / "rows"
        rows.mkdir()
        (rows / "record.json").write_text(json.dumps(doc, indent=2))
        assert value_hash(doc) == value_hash(json.loads(path.read_text()))
        assert main(["report", "--record", str(rows / "record.json")]) == 0
        assert (rows / "metrics.csv").read_bytes() == (path.parent / "metrics.csv").read_bytes()


FIELD = {"kind": "gaussian_field", "cells": 16, "length_scale": 3.0}
DRAW_CONFIGS = {
    "default": {},
    "field-blur": {"density": FIELD,
                   "operator": {"kind": "blur", "kernel_std": 2.0, "noise_std": 0.25}},
    "field-downsample": {"density": FIELD,
                         "operator": {"kind": "downsample", "factor": 2, "noise_std": 0.25}},
    "field-mask-noiseless": {"density": FIELD,
                             "operator": {"kind": "mask", "indices": [0, 5, 6],
                                          "noise_std": 0.0}},
    "identity-noiseless": {"operator": {"kind": "identity", "noise_std": 0.0}},
    "three-components": {"density": {"weights": [0.1, 0.2, 0.7],
                                     "means": [[-3.0, 0.0], [3.0, 0.0], [0.0, 2.0]]}},
}


class TestDrawTrials:
    """draw_trials reads each trial's stream in one pass; its draws are pinned to
    the per-trial calls whose stream layout it reproduces.  The one-pass path
    relies on `Generator.choice(p=...)` drawing one `random()` per pick and
    taking the component by `searchsorted(side="right")` on the normalised
    cumulative weights, as numpy 2.4.6 does."""

    @staticmethod
    def per_trial_reference(gm, op, n, seed):
        rows = []
        for i in range(n):
            rng = trial_rng(seed, i)
            y = oracle.gm_sample(gm, 1, rng)[0]
            pair = oracle.degrade(op, y, rng)
            rows.append((y, pair.coarse, pair.measurement, rng.standard_normal(gm.dim)))
        return [np.array(column) for column in zip(*rows)]

    @pytest.mark.parametrize("name", DRAW_CONFIGS)
    @pytest.mark.parametrize("n, seed", [(200, 0), (37, 7919)])
    def test_bitwise_equal_to_per_trial_draws(self, name, n, seed):
        cfg = ExperimentConfig.from_dict(DRAW_CONFIGS[name])
        gm = build_density(cfg)
        op = build_operator(cfg, gm.dim)
        drawn = draw_trials(gm, op, n, seed)
        for got, want, field in zip(drawn, self.per_trial_reference(gm, op, n, seed),
                                    drawn._fields):
            assert got.shape == want.shape, field
            assert np.array_equal(got, want), field


class TestAblations:
    def test_one_row_per_exponent(self):
        record = run_ablate_exponent(small_restore_config(trials=4, exponents=[5.0]))
        assert len(record.aggregates) == 1
        record = run_ablate_exponent(small_restore_config(trials=4, exponents=[1.0, 5.0, 9.0]))
        assert [row["x"] for row in record.aggregates] == [1.0, 5.0, 9.0]

    def test_weight_family_grid(self):
        cfg = small_restore_config(trials=4)
        record = run_ablate_weight_family(cfg)
        assert len(record.aggregates) == 6  # 2 families x 3 exponents
        families = {row["series"] for row in record.aggregates}
        assert families == {"power_of_sigma", "power_of_time"}
        assert all(np.isfinite(row["mse_to_y_mean"]) for row in record.aggregates)

    def test_constant_zero_family_matches_unguided(self):
        cfg = small_restore_config(trials=64)
        gm, schedule = build_density(cfg), build_schedule(cfg)
        scfg = build_sampler(cfg, schedule)
        trials = draw_trials(gm, build_operator(cfg, gm.dim), cfg.experiment["trials"],
                             cfg.experiment["seed"])
        un = restore_trials(gm, schedule, scfg, trials, None)["mse_to_y"]
        const0 = restore_trials(gm, schedule, scfg, trials,
                                WeightSchedule(CONSTANT, constant=0.0))["mse_to_y"]
        np.testing.assert_allclose(np.mean(const0), np.mean(un), atol=1e-12)

    def test_arms_share_drawn_trials(self):
        # common random numbers: an arm's columns do not depend on the driver that
        # runs it, and the posterior reference is the same for every arm
        cfg = small_restore_config(exponents=[5.0])
        restore = run_restore(cfg)
        ablate = run_ablate_exponent(cfg)
        assert ablate.per_trial["a=5"] == restore.per_trial["guided"]
        assert (restore.per_trial["guided"]["posterior_mse"]
                == restore.per_trial["unguided"]["posterior_mse"])

    def test_sdedit_rows(self):
        cfg = small_restore_config(trials=8, t0_fractions=[0.3, 0.6])
        record = run_baseline_sdedit(cfg)
        assert [row["x"] for row in record.aggregates] == [0.3, 0.6]


class TestReports:
    def test_csv_round_trip(self, tmp_path):
        header = ["series", "x", "value"]
        rows = [["a", 1.0, 0.123456789012345], ["b, with comma", 2.0, 7.0]]
        path = write_csv(tmp_path / "t.csv", header, rows)
        got_header, got_rows = read_csv(path)
        assert got_header == header
        assert got_rows[1][0] == "b, with comma"
        assert float(got_rows[0][2]) == rows[0][2]

    def test_csv_header_only_when_empty(self, tmp_path):
        path = write_csv(tmp_path / "e.csv", ["a", "b"], [])
        header, rows = read_csv(path)
        assert header == ["a", "b"] and rows == []

    def test_svg_tick_per_configuration(self, tmp_path):
        path = svg_line_chart(tmp_path / "c.svg", [1, 3, 5, 7, 9],
                              {"metric": [0.1, 0.2, 0.3, 0.2, 0.4]},
                              xlabel="exponent", ylabel="metric")
        text = (tmp_path / "c.svg").read_text()
        assert text.count('class="xtick"') == 5
        assert text.count('class="series"') == 1
        assert "exponent" in text

    def test_emit_report_csv_matches_aggregates(self, tmp_path):
        record = run_ablate_exponent(small_restore_config(trials=4, exponents=[1.0, 5.0]))
        path = emit_report(record, "csv", tmp_path)
        header, rows = read_csv(path)
        x_col = header.index("x")
        assert [float(r[x_col]) for r in rows] == [1.0, 5.0]
        mean_col = header.index("mse_to_y_mean")
        for row, agg in zip(rows, record.aggregates):
            assert float(row[mean_col]) == agg["mse_to_y_mean"]

    def test_emit_report_svg(self, tmp_path):
        record = run_ablate_exponent(small_restore_config(trials=4,
                                                          exponents=[1.0, 5.0, 9.0]))
        paths = emit_report(record, "svg", tmp_path)
        assert any(p.endswith("mse_to_y.svg") for p in paths)


class TestVerifyPlumbing:
    @pytest.fixture(autouse=True)
    def identity_gap_only(self, monkeypatch):
        monkeypatch.setattr(verify, "ALL_CHECKS", (check_identity_gap,))

    def test_subset_run_and_record(self, capsys):
        record = run_verify()
        assert record.extras["all_passed"]
        assert record.checks[0]["name"] == "identity_gap"
        assert capsys.readouterr().out.startswith("PASS identity_gap: ")

    def test_verify_record_saves_checks_csv(self, tmp_path):
        record = run_verify()
        out = record.save(tmp_path)
        assert (out / "record.json").exists()
        header, rows = read_csv(out / "metrics.csv")
        assert header[0] == "name" and rows[0][0] == "identity_gap"
        loaded = RunRecord.from_json(out / "record.json")
        assert loaded.checks == record.checks

    def test_flipped_sign_hook_fails_endpoint_check(self, monkeypatch):
        from htx import oracle
        from htx.verify import check_endpoint_guarantee

        exact_h = oracle.exact_h
        monkeypatch.setattr(oracle, "exact_h", lambda *args: -exact_h(*args))
        result = check_endpoint_guarantee()
        assert not result.passed


class TestFixedRuns:
    """A run is chosen by its config and a check by its own body."""

    def test_drivers_take_only_the_config(self):
        drivers = [fn for name, fn in vars(experiments).items()
                   if name.startswith("run_") and inspect.isfunction(fn)]
        assert len(drivers) == 5
        for fn in drivers:
            assert list(inspect.signature(fn).parameters) == ["cfg"], fn.__name__

    def test_verify_and_checks_take_no_parameters(self):
        checks = {fn for name, fn in vars(verify).items() if name.startswith("check_")}
        assert set(verify.ALL_CHECKS) == checks and len(checks) == 10
        for fn in (run_verify, *verify.ALL_CHECKS):
            assert not inspect.signature(fn).parameters, fn.__name__


class TestCli:
    def test_restore_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": {"kind": "restore", "trials": 4, "seed": 0,
                           "out": str(tmp_path / "runs")},
            "operator": {"kind": "shrink", "factor": 0.5, "noise_std": 0.1},
            "sampler": {"steps": 40},
        }))
        assert main(["restore", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "record.json" in out

    @pytest.mark.parametrize("command, driver", [
        ("restore", "run_restore"), ("ablate-exponent", "run_ablate_exponent"),
        ("ablate-weightfn", "run_ablate_weight_family"),
        ("baseline-sdedit", "run_baseline_sdedit"), ("sample", "run_sample_unguided")])
    def test_run_command_looks_its_driver_up_when_it_runs(self, tmp_path, monkeypatch,
                                                          capsys, command, driver):
        # a stub put on htx.experiments after import is what the command runs and saves
        ran = []

        def stub(cfg):
            ran.append(cfg)
            columns = {"mse_to_y": np.array([1.0, 3.0])}
            return RunRecord.of(cfg, "stub", {"arm": {"mse_to_y": [1.0, 3.0]}},
                                [experiments.aggregate_row(columns, "arm", 0.0)])

        monkeypatch.setattr(experiments, driver, stub)
        assert main([command, "--seed", "4", "--out", str(tmp_path)]) == 0
        assert [cfg.experiment["seed"] for cfg in ran] == [4]
        out = tmp_path / ran[0].digest()
        record = RunRecord.from_json(out / "record.json")
        assert (record.kind, record.seed, record.aggregates[0]["mse_to_y_mean"]) == ("stub", 4, 2.0)
        assert f"wrote {out}/record.json" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"experiment": {"kind": "bogus"}}))
        assert main(["restore", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("doc", [
        None,  # no file at the --config path
        {"experiment": {"trials": "5"}},
        {"sampler": {"steps": 2.5}},
        {"experiment": {"seed": True}},
    ])
    def test_bad_config_input_exit_two(self, tmp_path, doc):
        cfg_path = tmp_path / "cfg.json"
        if doc is not None:
            cfg_path.write_text(json.dumps(doc))
        assert main(["restore", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("doc", [
        {"experiment": 5},
        {"sampler": [1000]},
        {"sampler": {"start": "x"}},
        {"sampler": {"end": True}},
        {"density": {"weights": [0.5, 0.6]}},
        {"density": {"weights": [1.0]}},
        {"density": {"weights": "half"}},
        {"density": {"variance": 0.0}},
        {"schedule": {"beta_min": "x"}},
        {"density": {"kind": "gaussian_field", "cells": "16"}},
        {"guidance": {"exponent": "5"}},
        {"operator": {"noise_std": "0.1"}},
        {"operator": {"kind": "blur", "kernel_std": "2"}},
        {"operator": {"kind": "downsample", "factor": 2.0}},
        {"operator": {"kind": "mask", "indices": [20]}},
        {"operator": {"kind": "mask", "indices": 5}},
        {"operator": {"kind": "mask", "indices": [-1]}},
        {"operator": {"kind": "mask", "indices": [0.5]}},
        {"density": {"kind": "gaussian_field", "jitter": -1.0}},
        {"experiment": {"exponents": []}},
        {"experiment": {"exponents": ["a"]}},
        {"experiment": {"t0_fractions": "x"}},
        {"sampler": {"start": 2.0}},
        {"sampler": {"end": 0.0}},
        {"density": {"variance": float("inf")}},
        {"guidance": {"exponent": float("nan")}},
        {"guidance": {"parameterization": "score"}},
        {"sampler": {"solver": "euler_maruyama"}},
        {"experiment": {"out": 5}},
        {"schedule": {"t_min": 1e-16}},
        {"guidance": {"constant": 2.0}},
        {"guidance": {"exponent": -1.0}},
        {"density": {"weights": ["0.5", "0.5"]}},
        {"density": {"means": [["-3", 0.0], [3.0, 0.0]]}},
        {"density": {"kind": "gaussian_field", "cells": 10**12}},
        {"density": {"kind": "gaussian_field", "cells": 1025}},
        ({}, ["--seed", "-1"]),  # (config, extra command-line flags)
    ])
    def test_bad_section_or_field_exit_two(self, tmp_path, doc, monkeypatch):
        # a case that got past the checks would write under the default out dir
        monkeypatch.chdir(tmp_path)
        doc, flags = doc if isinstance(doc, tuple) else (doc, [])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["restore", "--config", str(cfg_path), *flags]) == 2
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["restore", "ablate-exponent", "ablate-weightfn",
                                         "baseline-sdedit", "sample", "train"])
    @pytest.mark.parametrize("field", ["density.kind", "operator.kind", "schedule.kind",
                                       "guidance.family"])
    def test_bogus_choice_exit_two_names_the_field(self, tmp_path, monkeypatch, capsys,
                                                   command, field):
        # every command rejects the value, not only the drivers that build its section
        monkeypatch.chdir(tmp_path)
        section, key = field.split(".")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({section: {key: "bogus"}, "sampler": {"steps": 2}}))
        flags = ["--steps", "1"] if command == "train" else []
        assert main([command, "--config", str(cfg_path), "--trials", "2", *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and field in err[0]
        assert not (tmp_path / "runs").exists() and not (tmp_path / "scorenet.htx").exists()

    @pytest.mark.parametrize("command", ["restore", "sample"])
    @pytest.mark.parametrize("doc, field", [
        ({"guidance": {"constant": 2.0}}, "guidance.constant"),
        ({"guidance": {"constant": -0.5}}, "guidance.constant"),
        ({"guidance": {"exponent": -1.0}}, "guidance.exponent"),
        ({"guidance": {"valid_exponent": -1.0}}, "guidance.valid_exponent"),
        ({"guidance": {"invalid_exponent": -1.0}}, "guidance.invalid_exponent"),
        ({"density": {"weights": ["0.5", "0.5"]}}, "density.weights"),
        ({"density": {"means": [[True, 0.0], [3.0, 0.0]]}}, "density.means"),
        ({"density": {"kind": "gaussian_field", "cells": 10**12}}, "density.cells"),
        ({"density": {"kind": "gaussian_field", "cells": 1025}}, "density.cells"),
        ({"density": {"cells": 0}}, "density.cells"),
    ])
    def test_out_of_range_value_exit_two_names_the_field(self, tmp_path, monkeypatch, capsys,
                                                         command, doc, field):
        # unguided sampling rejects a guidance value too, not only the guided drivers
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**doc, "sampler": {"steps": 2}}))
        assert main([command, "--config", str(cfg_path), "--trials", "2"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and field in err[0]
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["restore", "ablate-exponent", "ablate-weightfn",
                                         "baseline-sdedit", "sample", "train"])
    @pytest.mark.parametrize("doc, field", [
        ({"operator": {"kernel_std": -1.0}}, "operator.kernel_std"),
        ({"schedule": {"beta_min": 5.0, "beta_max": 1.0}}, "schedule.beta_min"),
        ({"sampler": {"record_every": -1}}, "sampler.record_every"),
        ({"experiment": {"exponents": [-1.0]}}, "experiment.exponents"),
    ])
    def test_constructor_range_exit_two_for_every_command(self, tmp_path, monkeypatch, capsys,
                                                          command, doc, field):
        # a range that a section's constructor holds is checked when the config is
        # parsed, whether or not the command's driver uses that section
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**doc, "sampler": {"steps": 2, **doc.get("sampler", {})}}))
        flags = ["--steps", "1"] if command == "train" else []
        assert main([command, "--config", str(cfg_path), "--trials", "2", *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and field in err[0]
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_main_calls_in_one_process_give_what_fresh_processes_give(
            self, tmp_path, monkeypatch, capsys):
        # the parser is built once per process: each call, a config error among
        # them, prints, saves and exits as `python -m htx` does in a new process
        env = _subprocess_env()
        calls = [["sample", "--trials", "3"], ["restore", "--trials", "0"],
                 ["baseline-sdedit", "--trials", "2", "--seed", "5"]]
        fresh, here = tmp_path / "fresh", tmp_path / "here"
        for cwd in (fresh, here):
            cwd.mkdir()
            (cwd / "cfg.json").write_text(json.dumps({"sampler": {"steps": 30}}))
        monkeypatch.chdir(here)
        codes = []
        for argv in calls:
            argv = [*argv, "--config", "cfg.json", "--out", "runs"]
            proc = subprocess.run([sys.executable, "-m", "htx", *argv], cwd=fresh, env=env,
                                  capture_output=True, text=True, timeout=120)
            codes.append(main(argv))
            assert (codes[-1], *capsys.readouterr()) == (proc.returncode, proc.stdout,
                                                         proc.stderr)
        assert codes == [0, 2, 0]

        def saved(cwd):
            return {path.relative_to(cwd): path.read_bytes()
                    for path in sorted((cwd / "runs").rglob("*")) if path.is_file()}
        assert saved(here) == saved(fresh) and len(saved(here)) >= 4

    def test_vanishing_sigma_at_t_min_prints_one_line(self, tmp_path):
        # at t_min = 1e-16 the vp alpha rounds to 1, so sigma(t_min) is exactly 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"schedule": {"t_min": 1e-16}}))
        env = _subprocess_env()
        proc = subprocess.run([sys.executable, "-m", "htx", "restore", "--config",
                               str(cfg_path), "--trials", "2"], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1 and "t_min" in proc.stderr
        assert not (tmp_path / "runs").exists()

    def test_diverged_run_exit_two_names_the_step(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": {"trials": 3, "out": str(tmp_path / "runs")},
            "density": {"means": [[1e200, 0], [0, 0]]},
            "sampler": {"steps": 20},
        }))
        with np.errstate(all="ignore"):
            assert main(["restore", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines() == [
            "run failed: DivergenceError: non-finite state at step 0 (t=1, trajectory 0)"]

    def test_diverged_run_prints_only_its_message(self, tmp_path):
        # numpy's overflow warnings on the way to the divergence stay silent
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"density": {"means": [[1e200, 0], [0, 0]]},
                                        "sampler": {"steps": 20}}))
        env = _subprocess_env()
        proc = subprocess.run([sys.executable, "-m", "htx", "restore", "--config",
                               str(cfg_path), "--trials", "3"], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == ("run failed: DivergenceError: non-finite state at step 0 "
                               "(t=1, trajectory 0)\n")

    @pytest.mark.parametrize("command, empty", [
        pytest.param(command, empty, id=command + "-empty" * empty)
        for empty in (False, True) for command in ("restore", "train", "report", "verify")])
    def test_unwritable_out_exit_two_before_the_run(self, tmp_path, monkeypatch, capsys,
                                                    command, empty):
        # below a regular file no directory can be made, and an empty path is none;
        # the run never starts
        monkeypatch.chdir(tmp_path)
        record_path = run_restore(small_restore_config(trials=2)).save(tmp_path) / "record.json"
        blocker = tmp_path / "file"
        blocker.write_text("")
        ran = []
        monkeypatch.setattr(experiments, "run_restore", lambda cfg: ran.append(cfg))
        monkeypatch.setattr(experiments, "emit_report", lambda *a: ran.append(a))
        monkeypatch.setattr("htx.cli.train", lambda *a: ran.append(a))
        monkeypatch.setattr(verify, "run_verify", lambda: ran.append("verify"))
        flags = {"restore": ["--trials", "2"], "train": ["--steps", "1"],
                 "report": ["--record", str(record_path)], "verify": []}[command]
        assert main([command, *flags, "--out", "" if empty else str(blocker / "sub")]) == 2
        err = capsys.readouterr().err.splitlines()
        # an empty --out of a run command is rejected with the config, as experiment.out
        assert len(err) == 1 and ("--out" in err[0] or empty and "experiment.out" in err[0])
        assert ran == [] and not (tmp_path / "runs").exists()

    def test_unwritable_experiment_out_names_the_field(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": {"out": str(blocker / "sub")}}))
        assert main(["sample", "--config", str(cfg_path), "--trials", "2"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "experiment.out" in err[0]

    @pytest.mark.parametrize("command", ["restore", "sample", "train"])
    @pytest.mark.parametrize("doc, field", [
        ({"sampler": {"steps": 10**12}}, "sampler.steps"),
        ({"sampler": {"steps": 100_001}}, "sampler.steps"),
        ({"sampler": {"steps": 0}}, "sampler.steps"),
        ({"experiment": {"trials": 10**12}}, "experiment.trials"),
        ({"experiment": {"trials": 10_001}}, "experiment.trials"),
    ])
    def test_unbounded_size_exit_two_names_the_field(self, tmp_path, monkeypatch, capsys,
                                                     command, doc, field):
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and field in err[0]
        assert not (tmp_path / "runs").exists()

    def test_train_zero_steps_exit_two(self, tmp_path, capsys):
        assert main(["train", "--steps", "0", "--out", str(tmp_path / "w")]) == 2
        assert "--steps" in capsys.readouterr().err
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("doc, field", [
        ({"experiment": {"t0_fractions": [2.0]}}, "experiment.t0_fractions[0]"),
        ({"experiment": {"t0_fractions": [0.8, 0.3]}, "sampler": {"end": 0.5}},
         "experiment.t0_fractions[1]"),
        ({"guidance": {"family": "constant", "valid_exponent": 1.0}},
         "guidance.valid_exponent"),
        ({"guidance": {"family": "constant", "invalid_exponent": 1.0}},
         "guidance.invalid_exponent"),
    ])
    def test_driver_only_value_exit_two_only_in_its_driver(self, tmp_path, monkeypatch, capsys,
                                                           doc, field):
        # a start time is read by baseline-sdedit alone, a per-region exponent by restore
        # alone: that driver rejects it before any trial is drawn, the others run
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**doc, "sampler": {**doc.get("sampler", {}),
                                                           "steps": 2}}))
        rejecting = "baseline-sdedit" if "experiment" in doc else "restore"
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "draw_trials", lambda *a: pytest.fail("trials drawn"))
            assert main([rejecting, "--config", str(cfg_path), "--trials", "2"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and field in err[0]
        assert not (tmp_path / "runs").exists()
        for command in [c for c in ("restore", "baseline-sdedit", "sample") if c != rejecting]:
            assert main([command, "--config", str(cfg_path), "--trials", "2"]) == 0

    def test_train_steps_above_the_bound_exit_two(self, tmp_path, monkeypatch, capsys):
        # the flag is checked before the config is read or any data is drawn
        monkeypatch.setattr(cli, "gm_sample", lambda *a: pytest.fail("train drew data"))
        for value in (str(cli.MAX_TRAIN_STEPS + 1), "100000000000"):
            assert main(["train", "--steps", value, "--out", str(tmp_path / "w")]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and "--steps" in err[0]
        assert not (tmp_path / "w").exists()

    def test_sample_one_trial_writes_strict_json(self, tmp_path):
        # one endpoint has no sample covariance; the record says null, not NaN
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sampler": {"steps": 30}}))
        assert main(["sample", "--config", str(cfg_path), "--trials", "1",
                     "--out", str(tmp_path / "r")]) == 0
        (record_path,) = (tmp_path / "r").glob("*/record.json")

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")
        doc = json.loads(record_path.read_text(), parse_constant=reject)
        assert doc["aggregates"][0]["moment_distances"]["cov_gap"] is None
        assert RunRecord.from_json(record_path).aggregates[0]["n"] == 1

    def test_config_errors_name_the_field(self):
        for doc, name in (({"experiment": 5}, "'experiment'"),
                          ({"sampler": {"start": "x"}}, "sampler.start"),
                          ({"density": {"cells": 16.0}}, "density.cells"),
                          ({"guidance": {"invalid_exponent": "1"}},
                           "guidance.invalid_exponent"),
                          ({"experiment": {"exponents": []}}, "experiment.exponents"),
                          ({"experiment": {"exponents": ["a"]}}, "experiment.exponents"),
                          ({"experiment": {"t0_fractions": "x"}}, "experiment.t0_fractions"),
                          (json.loads('{"density": {"variance": 1e400}}'), "density.variance"),
                          ({"density": {"kind": "bogus"}}, "density.kind"),
                          ({"operator": {"kind": "bogus"}}, "operator.kind"),
                          ({"schedule": {"kind": "bogus"}}, "schedule.kind"),
                          ({"guidance": {"family": "bogus"}}, "guidance.family"),
                          ({"guidance": {"constant": 2.0}}, "guidance.constant"),
                          ({"guidance": {"exponent": -1.0}}, "guidance.exponent"),
                          ({"density": {"cells": 10**12}}, "density.cells"),
                          ({"density": {"cells": 1025}}, "density.cells"),
                          # ranges a section's constructor holds: from_dict builds every section
                          ({"density": {"weights": [0.5, 0.6]}}, "density.weights"),
                          ({"density": {"kind": "gaussian_field", "jitter": -1.0}},
                           "density.jitter"),
                          ({"density": {"weights": [float("nan"), 0.5]}}, "density.weights"),
                          ({"density": {"means": [[]], "weights": [1.0]}}, "density.means"),
                          ({"density": {"weights": ["0.5", "0.5"]}}, "density.weights"),
                          ({"density": {"means": [["-3", 0.0], [3.0, 0.0]]}}, "density.means"),
                          ({"density": {"kind": "gaussian_field", "jitter": 0.0,
                                        "length_scale": 100.0}},
                           "density.variance, length_scale and jitter"),
                          *(({"operator": {"kind": "mask", "indices": indices}},
                             "operator.indices") for indices in ([20], 5, [-1], [0.5])),
                          ({"sampler": {"start": 2.0}}, "sampler.start"),
                          ({"sampler": {"end": 0.0}}, "sampler.end")):
            with pytest.raises(ConfigError, match=name):
                ExperimentConfig.from_dict(doc)

    def test_underflowed_posterior_weight_exit_zero(self, tmp_path):
        # the conjugate posterior gives one mode of each trial a weight of exactly 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": {"trials": 3, "out": str(tmp_path / "runs")},
            "density": {"variance": 0.001},
            "operator": {"noise_std": 0.01},
        }))
        assert main(["restore", "--config", str(cfg_path)]) == 0

    @pytest.mark.parametrize("rows", [
        {"aggregates": [{"series": "guided", "n": 3}]},
        {"aggregates": [7]},
        {"aggregates": [], "checks": [{"name": "c", "passed": True}]},
    ])
    def test_report_on_malformed_rows_exit_two(self, tmp_path, rows):
        record = run_restore(small_restore_config(trials=2))
        out = record.save(tmp_path / "runs")
        doc = json.loads((out / "record.json").read_text())
        doc.update(rows)
        path = tmp_path / "record.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--record", str(path)]) == 2

    def test_report_on_non_record_exit_two(self, tmp_path):
        path = tmp_path / "record.json"
        path.write_text(json.dumps({"experiment": {"kind": "restore"}}))
        assert main(["report", "--record", str(path)]) == 2

    def test_trials_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": {"kind": "restore", "trials": 99, "out": str(tmp_path / "r")},
            "operator": {"kind": "shrink", "factor": 0.5, "noise_std": 0.1},
            "sampler": {"steps": 30},
        }))
        assert main(["restore", "--config", str(cfg_path), "--trials", "3"]) == 0
        run_dirs = list((tmp_path / "r").iterdir())
        record = RunRecord.from_json(run_dirs[0] / "record.json")
        assert record.aggregates[0]["n"] == 3

    def test_train_writes_weight_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "experiment": {"kind": "train_score", "out": str(tmp_path / "w")},
        }))
        assert main(["train", "--config", str(cfg_path), "--steps", "20"]) == 0
        blob = (tmp_path / "w" / "scorenet.htx").read_bytes()
        assert blob[:7] == b"HTXNET1"

    def test_report_command(self, tmp_path):
        record = run_restore(small_restore_config())
        out = record.save(tmp_path)
        assert main(["report", "--record", str(out / "record.json"),
                     "--format", "csv", "--out", str(tmp_path / "again")]) == 0
        assert (tmp_path / "again" / "metrics.csv").exists()

    def test_report_svg_prints_one_line_per_chart(self, tmp_path, capsys):
        # a restore record has one point per series, too few for a chart
        cases = [(run_ablate_exponent(small_restore_config(trials=3, exponents=[1.0, 5.0])),
                  ["mse_to_y", "mse_to_coarse", "loglik_p0"]),
                 (run_restore(small_restore_config(trials=3)), [])]
        for i, (record, charts) in enumerate(cases):
            path = record.save(tmp_path / "runs") / "record.json"
            out = tmp_path / f"svg{i}"
            capsys.readouterr()
            assert main(["report", "--record", str(path), "--format", "svg",
                         "--out", str(out)]) == 0
            assert capsys.readouterr().out.splitlines() == [
                f"wrote {out / name}.svg" for name in charts]


    @staticmethod
    def _ablation_record(tmp_path, **changes):
        """A saved two-arm ablate-exponent record, its first aggregate row changed."""
        record = run_ablate_exponent(small_restore_config(trials=3, exponents=[1.0, 5.0]))
        path = record.save(tmp_path / "runs") / "record.json"
        doc = json.loads(path.read_text())
        doc["aggregates"][0].update(changes)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    @pytest.mark.parametrize("changes, field", [
        ({"x": "foo"}, "aggregates[0].x"),
        ({"series": ["a=1"]}, "aggregates[0].series"),
        ({"mse_to_y_mean": "0.5"}, "aggregates[0].mse_to_y_mean"),
        ({"n": 2.5}, "aggregates[0].n"),
    ])
    def test_report_on_mistyped_aggregate_exit_two(self, tmp_path, capsys, fmt, changes, field):
        path = self._ablation_record(tmp_path, **changes)
        capsys.readouterr()
        assert main(["report", "--record", str(path), "--format", fmt,
                     "--out", str(tmp_path / "again")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and field in err[0]

    def test_report_leaves_out_the_chart_of_a_null_metric(self, tmp_path, capsys):
        # record.json writes a non-finite metric as null; it re-reports with no chart
        path = self._ablation_record(tmp_path, mse_to_y_mean=None)
        out = tmp_path / "again"
        capsys.readouterr()
        assert main(["report", "--record", str(path), "--format", "svg", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"wrote {out / name}.svg" for name in ("mse_to_coarse", "loglik_p0")]
        assert main(["report", "--record", str(path), "--out", str(out)]) == 0
        header, rows = read_csv(out / "metrics.csv")
        assert rows[0][header.index("mse_to_y_mean")] == ""


@pytest.fixture(scope="module")
def tracing():
    """perfbench/tracing.py, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_targets_resolve(tracing):
    """Every function the benchmark's tracer wraps exists under its listed name."""
    targets = [t for ts in tracing.LAYERS.values() for t in ts]
    targets += list(tracing.COUNTED.values())
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = vars(getattr(owner, cls_name))
            assert attr in owner, f"{module_name}.{cls_name}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module_name}.{attr}"


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, imported the way the benchmark's set-up probe does."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(perfbench)


@pytest.mark.parametrize("name", ["bridge-exact", "ensemble-sde", "restore-field",
                                  "train-dsm"])
def test_benchmark_workload_smoke(workloads, name, tmp_path):
    """Each workload builds at seed 0 and its first case passes its own check."""
    wl = workloads.WORKLOADS[name](0, tmp_path)
    for case in _first_cases(wl):
        ok, detail = wl.check(case, wl.run(case))
        assert ok, f"{name} {case}: {detail}"


def _first_cases(wl):
    """A workload's first case; ensemble-sde's SDE case is checked against the
    ODE case of the same target run before it, so both cases of target 0."""
    return [c for c in wl.cases if c[0] == 0] if wl.name == "ensemble-sde" else wl.cases[:1]


# LAYERS rows that no workload's first case reaches, because production code no
# longer calls the functions they wrap; each is a FOUND: line in CHANGES.md,
# mended by retargeting the row in perfbench/tracing.py
SILENT_LAYERS = {
    "guidance.drift": "planned steppers never call GuidedDrift.__call__",
    "oracle.draw": "draw_trials places its trials without gm_sample or degrade",
    "oracle.posterior": "restore conditions through posterior_mean",
    "solvers.trial_rng": "trial streams come from trial_rngs",
}


def test_traced_layers_record_spans(workloads, tracing, tmp_path):
    """Every LAYERS row records a span on some workload's first case, except
    the known silent rows; the exact-h step keeps its coefficient, pushforward
    and exact_h spans on bridge-exact."""
    live = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(0, tmp_path)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for case in _first_cases(wl):
                wl.run(case)
        finally:
            tracer.uninstall()
        live[name] = {tracing.SPAN_LAYER[span[0]] for span in tracer.spans}
    assert set(tracing.LAYERS) - set().union(*live.values()) == set(SILENT_LAYERS)
    assert {"schedules.coef", "oracle.pushforward", "oracle.exact_h"} <= live["bridge-exact"]


# bridge-exact's check allows 1% of alpha |y| + sigma |z| at the end time, where
# sigma is about 0.01, but the Euler error of the noise part is about 26% of
# sigma |z|; a target near the origin (seed 55, case 8: |y| = 0.24) fails it.
# See the FOUND: line on bridge-exact's check in CHANGES.md; when the benchmark's
# check is mended this test passes and the mark comes off.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="bridge-exact's tolerance ignores the Euler error of the noise part")
def test_bridge_exact_check_holds_on_seed_55(workloads, tmp_path):
    wl = workloads.WORKLOADS["bridge-exact"](55, tmp_path)
    failed = [(i, detail) for i in wl.cases for ok, detail in [wl.check(i, wl.run(i))]
              if not ok]
    assert failed == []


def test_import_and_train_leave_scipy_unloaded(tmp_path):
    """scipy serves only the conjugate posterior, so htx and htx train never load it."""
    script = ("import sys\n"
              "import htx\n"
              "assert 'scipy' not in sys.modules, 'import htx loaded scipy'\n"
              "from htx.cli import main\n"
              f"code = main(['train', '--steps', '1', '--out', {str(tmp_path)!r}])\n"
              "assert code == 0, code\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "scorenet.htx").is_file()


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("workload", ["bridge-exact", "ensemble-sde", "restore-field"])
def test_benchmark_output_contract(workload):
    """A short benchmark run exits cleanly and ends its stdout with its result line.

    The result is the last line of stdout, strict JSON (no NaN or Infinity),
    with a passing verdict and exactly the end-to-end metrics that
    BENCHMARK.json names; nothing reaches stderr.
    """
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=root,
                          env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
