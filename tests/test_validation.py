from __future__ import annotations

import json

import numpy as np
import pytest

from pace import cmaes
from pace.bank import VectorBank
from pace.bench.run import RunConfig
from pace.bench.stream import DomainSpec, StreamConfig
from pace.controller import ControllerConfig
from pace.fitness import FitnessConfig
from pace.model import ArchitectureConfig
from pace.projection import FastfoodProjector
from pace.validation import check_array, check_int, check_positive, check_real


def test_length_check_of_zero_dimensional_input_names_its_shape():
    with pytest.raises(ValueError, match=r"x must have length 4, got shape \(\)"):
        check_array(3.0, "x", length=4)


def _stream(**overrides):
    return StreamConfig(domain_sequence=(DomainSpec("feature_scale", 0.5, 1),), **overrides)


# every count setting: (its name, its minimum, a call that sets it to ``value``)
COUNTS = {
    "check_int": ("width", 1, lambda value: check_int(value, "width")),
    "ArchitectureConfig": (
        "width", 1, lambda value: ArchitectureConfig("mlp", 3, 4, width=value)
    ),
    "ArchitectureConfig.in_dim": (
        "in_dim", 1, lambda value: ArchitectureConfig("mlp", value, 4)
    ),
    "ArchitectureConfig.class_count": (
        "class_count", 2, lambda value: ArchitectureConfig("mlp", 3, value)
    ),
    "ArchitectureConfig.blocks": (
        "blocks", 2, lambda value: ArchitectureConfig("residual", 3, 4, blocks=value)
    ),
    "cmaes.init": ("d", 1, lambda value: cmaes.init(value)),
    "cmaes.init.population_size": (
        "population_size", 2, lambda value: cmaes.init(4, population_size=value)
    ),
    "FastfoodProjector": ("d", 1, lambda value: FastfoodProjector(d=value, D=8)),
    "FastfoodProjector.D": ("D", 1, lambda value: FastfoodProjector(d=4, D=value)),
    "VectorBank.dim": ("dim", 1, lambda value: VectorBank(value)),
    "VectorBank.capacity": ("capacity", 0, lambda value: VectorBank(4, capacity=value)),
    "DomainSpec.batch_count": (
        "batch_count", 1, lambda value: DomainSpec("feature_scale", 0.5, value)
    ),
    "StreamConfig.in_dim": ("in_dim", 1, lambda value: _stream(in_dim=value)),
    "StreamConfig.class_count": ("class_count", 2, lambda value: _stream(class_count=value)),
    "StreamConfig.batch_size": ("batch_size", 1, lambda value: _stream(batch_size=value)),
    "StreamConfig.rounds": ("rounds", 1, lambda value: _stream(rounds=value)),
    "StreamConfig.seed": ("seed", 0, lambda value: _stream(seed=value)),
    "RunConfig.seed": ("seed", 0, lambda value: RunConfig(seed=value)),
    "RunConfig.rounds": ("rounds", 1, lambda value: RunConfig(rounds=value)),
    "RunConfig.train_epochs": ("train_epochs", 0, lambda value: RunConfig(train_epochs=value)),
    "RunConfig.train_samples": (
        "train_samples", 1, lambda value: RunConfig(train_samples=value)
    ),
    "RunConfig.source_samples": (
        "source_samples", 1, lambda value: RunConfig(source_samples=value)
    ),
    "RunConfig.calibration_batches": (
        "calibration_batches", 1, lambda value: RunConfig(calibration_batches=value)
    ),
    "RunConfig.calibration_warmup": (
        "calibration_warmup", 1, lambda value: RunConfig(calibration_warmup=value)
    ),
    "ControllerConfig.dim": ("dim", 1, lambda value: ControllerConfig(dim=value)),
    "ControllerConfig.population_size": (
        "population_size", 2, lambda value: ControllerConfig(population_size=value)
    ),
    "ControllerConfig.bank_capacity": (
        "bank_capacity", 0, lambda value: ControllerConfig(bank_capacity=value)
    ),
    "ControllerConfig.seed": ("seed", 0, lambda value: ControllerConfig(seed=value)),
    # noadapt builds no controller, yet its RunConfig checks the controller's settings
    "RunConfig.noadapt.dim": ("dim", 1, lambda value: RunConfig(method="noadapt", dim=value)),
    "RunConfig.noadapt.population": (
        "population_size", 2, lambda value: RunConfig(method="noadapt", population=value)
    ),
    "RunConfig.noadapt.bank_capacity": (
        "bank_capacity", 0, lambda value: RunConfig(method="noadapt", bank_capacity=value)
    ),
}
CALLERS = {site: call for site, (_, minimum, call) in COUNTS.items() if minimum == 1}


@pytest.mark.parametrize("caller", CALLERS)
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_is_not_a_positive_integer(value, caller):
    with pytest.raises(ValueError, match=r"must be a positive integer, got -?(inf|nan)"):
        CALLERS[caller](value)


@pytest.mark.parametrize("site", COUNTS)
@pytest.mark.parametrize(
    "value",
    [4.0, 2.5, np.inf, -np.inf, np.nan, True, False, np.True_, None],
    ids=["4.0", "2.5", "inf", "-inf", "nan", "True", "False", "numpy-True", "below-minimum"],
)
def test_count_rejection_names_the_setting(value, site):
    setting, minimum, call = COUNTS[site]
    with pytest.raises(ValueError, match=rf"^{setting} must be "):
        call(minimum - 1 if value is None else value)


STORED_AS = {"cmaes.init": "dim", "RunConfig.noadapt.population": "population"}


@pytest.mark.parametrize("site", COUNTS)
def test_numpy_integer_count_is_stored_as_python_int(site):
    setting, _, call = COUNTS[site]
    built = call(np.int64(32))
    # check_int returns the count; a CMA-ES state keeps d as its dimension
    stored = built if site == "check_int" else getattr(built, STORED_AS.get(site, setting))
    assert type(stored) is int and stored == 32


def test_numpy_integer_seed_fingerprints_and_serializes_as_int():
    numpy_seed, python_seed = RunConfig(seed=np.int64(3)), RunConfig(seed=3)
    assert numpy_seed.stream_fingerprint() == python_seed.stream_fingerprint()
    assert json.dumps(numpy_seed.as_dict()) == json.dumps(python_seed.as_dict())


POSITIVE, REAL = "a positive finite number", "a real number"
CONTROLLER_REALS = ("epsilon", "gamma", "beta", "lambda_weight")
BLOB_REALS = ("blob_radius", "blob_std", "blob_center")


def _noadapt(**setting):
    return RunConfig(method="noadapt", **setting)


# every real setting: (its name, the rule its message states, a call that sets it to ``value``)
REALS = {
    "check_positive": ("tau0", POSITIVE, lambda value: check_positive(value, "tau0")),
    "cmaes.init.tau0": ("tau0", POSITIVE, lambda value: cmaes.init(4, tau0=value)),
    "ControllerConfig.tau0": ("tau0", POSITIVE, lambda value: ControllerConfig(tau0=value)),
    "RunConfig.tau0": ("tau0", POSITIVE, lambda value: RunConfig(tau0=value)),
    "RunConfig.noadapt.tau0": ("tau0", POSITIVE, lambda value: _noadapt(tau0=value)),
    "DomainSpec.severity": (
        "severity", POSITIVE, lambda value: DomainSpec("feature_scale", value, 1)
    ),
    "check_real": ("epsilon", REAL, lambda value: check_real(value, "epsilon")),
    "FitnessConfig.lambda_weight": ("lambda_weight", REAL, lambda value: FitnessConfig(value)),
    **{
        f"{site}.{name}": (name, REAL, lambda value, build=build, name=name: build(**{name: value}))
        for site, build, names in [
            ("ControllerConfig", ControllerConfig, CONTROLLER_REALS),
            ("RunConfig", RunConfig, CONTROLLER_REALS + BLOB_REALS),
            ("RunConfig.noadapt", _noadapt, CONTROLLER_REALS),
            ("StreamConfig", _stream, BLOB_REALS),
        ]
        for name in names
    },
}


@pytest.mark.parametrize("site", REALS)
@pytest.mark.parametrize("value", [True, False, np.True_], ids=["True", "False", "numpy-True"])
def test_bool_is_not_a_positive_real(value, site):
    setting, rule, call = REALS[site]
    message = rf"^{setting} must be {rule}, got {value}$"
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize(
    "value", [2, np.int64(2), np.float32(2.0), 2.0], ids=["int", "int64", "float32", "float"]
)
def test_positive_real_is_returned_as_python_float(value):
    real = check_positive(value, "tau0")
    assert type(real) is float and real == 2.0
