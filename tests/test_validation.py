from __future__ import annotations

import json

import numpy as np
import pytest

from pace import cmaes
from pace.bank import VectorBank
from pace.bench.run import RunConfig
from pace.bench.stream import DomainSpec, StreamConfig
from pace.controller import ControllerConfig
from pace.model import CHECKPOINT_SCHEMA_VERSION, ArchitectureConfig, load_checkpoint
from pace.projection import FastfoodProjector
from pace.validation import check_array, check_int


def test_length_check_of_zero_dimensional_input_names_its_shape():
    with pytest.raises(ValueError, match=r"x must have length 4, got shape \(\)"):
        check_array(3.0, "x", length=4)


def _load_checkpoint_with_width(width, tmp_path):
    # Python's json writes and reads Infinity and NaN
    config = {"kind": "mlp", "in_dim": 3, "class_count": 4, "width": width, "blocks": 4}
    path = tmp_path / "model.npz"
    with open(path, "wb") as fh:
        np.savez(
            fh,
            schema_version=np.array([CHECKPOINT_SCHEMA_VERSION]),
            config_json=np.array(json.dumps(config)),
        )
    load_checkpoint(path)


def _stream(**overrides):
    return StreamConfig(domain_sequence=(DomainSpec("mask", 0.5, 1),), **overrides)


# every count setting: (its name, its minimum, a call that sets it to ``value``)
COUNTS = {
    "check_int": ("width", 1, lambda value, _: check_int(value, "width")),
    "ArchitectureConfig": (
        "width", 1, lambda value, _: ArchitectureConfig("mlp", 3, 4, width=value)
    ),
    "ArchitectureConfig.in_dim": (
        "in_dim", 1, lambda value, _: ArchitectureConfig("mlp", value, 4)
    ),
    "ArchitectureConfig.class_count": (
        "class_count", 2, lambda value, _: ArchitectureConfig("mlp", 3, value)
    ),
    "ArchitectureConfig.blocks": (
        "blocks", 2, lambda value, _: ArchitectureConfig("residual", 3, 4, blocks=value)
    ),
    "cmaes.init": ("d", 1, lambda value, _: cmaes.init(value)),
    "cmaes.init.population_size": (
        "population_size", 2, lambda value, _: cmaes.init(4, population_size=value)
    ),
    "FastfoodProjector": ("d", 1, lambda value, _: FastfoodProjector(d=value, D=8)),
    "FastfoodProjector.D": ("D", 1, lambda value, _: FastfoodProjector(d=4, D=value)),
    "load_checkpoint": ("width", 1, _load_checkpoint_with_width),
    "VectorBank.dim": ("dim", 1, lambda value, _: VectorBank(value)),
    "VectorBank.capacity": ("capacity", 0, lambda value, _: VectorBank(4, capacity=value)),
    "DomainSpec.batch_count": ("batch_count", 1, lambda value, _: DomainSpec("mask", 0.5, value)),
    "StreamConfig.batch_size": ("batch_size", 1, lambda value, _: _stream(batch_size=value)),
    "StreamConfig.rounds": ("rounds", 1, lambda value, _: _stream(rounds=value)),
    "RunConfig.train_epochs": ("train_epochs", 0, lambda value, _: RunConfig(train_epochs=value)),
    "RunConfig.train_samples": (
        "train_samples", 1, lambda value, _: RunConfig(train_samples=value)
    ),
    "RunConfig.source_samples": (
        "source_samples", 1, lambda value, _: RunConfig(source_samples=value)
    ),
    "RunConfig.calibration_batches": (
        "calibration_batches", 1, lambda value, _: RunConfig(calibration_batches=value)
    ),
    "RunConfig.calibration_warmup": (
        "calibration_warmup", 1, lambda value, _: RunConfig(calibration_warmup=value)
    ),
    "ControllerConfig.dim": ("dim", 1, lambda value, _: ControllerConfig(dim=value)),
    "ControllerConfig.population_size": (
        "population_size", 2, lambda value, _: ControllerConfig(population_size=value)
    ),
    "ControllerConfig.bank_capacity": (
        "bank_capacity", 0, lambda value, _: ControllerConfig(bank_capacity=value)
    ),
}
CALLERS = {site: call for site, (_, minimum, call) in COUNTS.items() if minimum == 1}


@pytest.mark.parametrize("caller", CALLERS)
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_is_not_a_positive_integer(value, caller, tmp_path):
    with pytest.raises(ValueError, match=r"must be a positive integer, got -?(inf|nan)"):
        CALLERS[caller](value, tmp_path)


@pytest.mark.parametrize("site", COUNTS)
@pytest.mark.parametrize(
    "value",
    [2.5, np.inf, -np.inf, np.nan, None],
    ids=["2.5", "inf", "-inf", "nan", "below-minimum"],
)
def test_count_rejection_names_the_setting(value, site, tmp_path):
    setting, minimum, call = COUNTS[site]
    with pytest.raises(ValueError, match=rf"^{setting} must be "):
        call(minimum - 1 if value is None else value, tmp_path)
