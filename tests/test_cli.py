from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from pace.bench.run import RunConfig, prepare_assets, run_prepared
from pace.cli import main

TINY_CONFIG = """
method = pace
seed = 0
domain_sequence = feature_scale:2.2:4,feature_scale:0.45:4
batch_size = 32
train_samples = 512
train_epochs = 8
source_samples = 256
calibration_batches = 40
calibration_warmup = 10
dim = 8
population = 4
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestRunCommand:
    def test_run_writes_outputs_and_exits_zero(self, tmp_path, config_file, capsys):
        out = tmp_path / "results"
        code = main(["run", "--config", str(config_file), "--out", str(out)])
        assert code == 0
        assert (out / "batches.csv").exists()
        assert (out / "summary.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "pace"
        stdout = capsys.readouterr().out
        assert "accuracy=" in stdout

    def test_summary_config_rebuilds_the_run(self, tmp_path, config_file):
        # what pace run does, then the rebuild the README shows; the recurring
        # domain and the looser stop make the run retrieve from a non-empty bank
        config = replace(
            RunConfig.from_file(config_file),
            domain_sequence="feature_scale:2.2:20,feature_scale:0.45:20,feature_scale:2.2:20",
            epsilon=0.2,
            out_dir=str(tmp_path / "run"),
        )
        model, stats, gamma = prepare_assets(config)
        report = run_prepared(config, model, stats, gamma)
        assert report.telemetry["retrieval_forwards"] > report.telemetry["shifts_detected"] > 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        rebuilt_config = RunConfig.from_mapping(summary["config"])
        assert rebuilt_config == config
        rebuilt, rebuilt_stats, rebuilt_gamma = prepare_assets(rebuilt_config)
        assert set(rebuilt.weights) == set(model.weights)
        for key, arr in model.weights.items():
            assert rebuilt.weights[key].dtype == arr.dtype, key
            np.testing.assert_array_equal(rebuilt.weights[key], arr)
        for a, b in zip(stats.means + stats.stds, rebuilt_stats.means + rebuilt_stats.stds):
            np.testing.assert_array_equal(a, b)
        assert rebuilt_gamma == gamma == summary["gamma"]
        replayed = run_prepared(
            replace(rebuilt_config, out_dir=None), rebuilt, rebuilt_stats, rebuilt_gamma
        )
        np.testing.assert_equal(replayed.batches, report.batches)

    def test_cli_overrides_config(self, tmp_path, config_file):
        out = tmp_path / "results"
        code = main(
            [
                "run",
                "--config",
                str(config_file),
                "--method",
                "noadapt",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["method"] == "noadapt"
        assert summary["seed"] == 3

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("bogus = 1\n")
        code = main(["run", "--config", str(path)])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "dim = abc",
            "epsilon = 0.1.2",
            "domain_sequence = feature_scale:abc:5",
            "domain_sequence = feature_scale:2:2.5",
            "domain_sequence = mask:0.5:5",
        ],
    )
    def test_unparsable_value_is_config_error_naming_its_key(self, tmp_path, capsys, line):
        path = tmp_path / "unparsable.cfg"
        path.write_text(TINY_CONFIG + line + "\n")
        code = main(["run", "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {line.split()[0]}: ")
        if line.startswith("domain_sequence"):  # and the spec that failed
            assert repr(line.split()[-1]) in err

    @pytest.mark.parametrize("warmup", [0, -1])
    def test_calibration_warmup_below_one_is_config_error(self, tmp_path, capsys, warmup):
        # without a warmup batch the detector EMA never exists to score against
        path = tmp_path / "warmup.cfg"
        path.write_text(
            TINY_CONFIG.replace("calibration_warmup = 10", f"calibration_warmup = {warmup}")
        )
        code = main(["run", "--config", str(path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param("train_epochs = -1", id="train_epochs"),
            pytest.param("blob_std = -1", id="blob_std"),
        ],
    )
    def test_negative_setting_is_config_error(self, tmp_path, capsys, line):
        path = tmp_path / "negative.cfg"
        path.write_text(TINY_CONFIG + line + "\n")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"{line.split()[0]} must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "args, text",
        [
            pytest.param(["--population", "1"], TINY_CONFIG, id="population"),
            pytest.param(["--dim", "0"], TINY_CONFIG, id="dim"),
            pytest.param(["--epsilon", "-1"], TINY_CONFIG, id="epsilon"),
            pytest.param(
                [],
                TINY_CONFIG.replace("calibration_batches = 40", "calibration_batches = 20")
                .replace("calibration_warmup = 10", "calibration_warmup = 20"),
                id="calibration_batches",
            ),
            # noadapt builds no controller, yet its settings are checked as pace's are
            *(
                pytest.param(
                    [],
                    TINY_CONFIG.replace("method = pace", "method = noadapt") + line + "\n",
                    id=f"noadapt-{line.split()[0]}",
                )
                for line in (
                    "epsilon = -1",
                    "gamma = -1",
                    "beta = 7",
                    "tau0 = -1",
                    "dim = 0",
                    "population = 1",
                    "bank_capacity = -1",
                    "lambda_weight = -1",
                )
            ),
        ],
    )
    def test_bad_controller_setting_fails_before_set_up(
        self, tmp_path, capsys, monkeypatch, args, text
    ):
        def pretrain(*_, **__):
            raise AssertionError("set-up ran before the config was checked")

        monkeypatch.setattr("pace.bench.run.pretrain", pretrain)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        code = main(["run", "--config", str(path), *args])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCalibrateGamma:
    def test_prints_machine_readable_gamma(self, config_file, capsys):
        code = main(["calibrate-gamma", "--config", str(config_file)])
        assert code == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert record["gamma"] > 0
        _, _, calibrated = prepare_assets(RunConfig.from_file(config_file))
        assert record["gamma"] == calibrated
        # a configured gamma is what the command replaces, not what it prints
        fixed = config_file.with_name("fixed.cfg")
        fixed.write_text(TINY_CONFIG + "gamma = 0.5\n")
        assert main(["calibrate-gamma", "--config", str(fixed)]) == 0
        record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert record["gamma"] == calibrated


class TestCompareCommand:
    def _write_summaries(self, tmp_path, config_file):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(config_file), "--method", "noadapt",
                     "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(config_file), "--method", "pace",
                     "--out", str(out_b)]) == 0
        return out_a / "summary.json", out_b / "summary.json"

    def test_compare_prints_deltas(self, tmp_path, config_file, capsys):
        path_a, path_b = self._write_summaries(tmp_path, config_file)
        capsys.readouterr()
        code = main(["compare", str(path_a), str(path_b)])
        assert code == 0
        delta = json.loads(capsys.readouterr().out)
        assert delta["method_a"] == "noadapt"
        assert delta["method_b"] == "pace"
        assert "overall_accuracy_delta" in delta

    def test_compare_rejects_mismatched_streams(self, tmp_path, config_file, capsys):
        path_a, _ = self._write_summaries(tmp_path, config_file)
        other = tmp_path / "other.cfg"
        other.write_text(TINY_CONFIG.replace("seed = 0", "seed = 1"))
        out_c = tmp_path / "c"
        assert main(["run", "--config", str(other), "--out", str(out_c)]) == 0
        capsys.readouterr()
        code = main(["compare", str(path_a), str(out_c / "summary.json")])
        assert code == 2
        assert "fingerprints" in capsys.readouterr().err
