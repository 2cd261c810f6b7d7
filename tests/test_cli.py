from __future__ import annotations

import json

import pytest

from pace.bench.run import RunConfig, prepare_assets
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
