from __future__ import annotations

import json
import re

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
from pace.validation import check_array, check_int, check_real


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


# where a site keeps its setting, when not under the setting's name
STORED_AS = {
    "cmaes.init": "dim",
    "cmaes.init.tau0": "step_size",
    "RunConfig.noadapt.population": "population",
}


@pytest.mark.parametrize("site", COUNTS)
def test_numpy_integer_count_is_stored_as_python_int(site):
    setting, _, call = COUNTS[site]
    built = call(np.int64(32))
    # check_int returns the count; a CMA-ES state keeps d as its dimension
    stored = built if site == "check_int" else getattr(built, STORED_AS.get(site, setting))
    assert type(stored) is int and stored == 32


@pytest.mark.parametrize(
    "setting, given, stored",
    [
        ("seed", np.int64(3), 3),
        ("tau0", np.float32(0.05), float(np.float32(0.05))),
        ("blob_radius", 4, 4.0),
        ("blob_radius", np.int64(4), 4.0),
    ],
    ids=["numpy-seed", "float32-tau0", "int-blob_radius", "int64-blob_radius"],
)
def test_setting_fingerprints_and_serializes_as_its_python_value(setting, given, stored):
    given_config, python_config = RunConfig(**{setting: given}), RunConfig(**{setting: stored})
    assert given_config.stream_fingerprint() == python_config.stream_fingerprint()
    assert json.dumps(given_config.as_dict()) == json.dumps(python_config.as_dict())


# each real setting's interval, as its refusal message writes it
INTERVALS = {
    "tau0": "(0, inf)",
    "severity": "(0, inf)",
    "epsilon": "[0, inf]",
    "gamma": "(0, inf]",
    "beta": "(0, 1]",
    "lambda_weight": "[0, inf)",
    "blob_radius": "[0, inf)",
    "blob_std": "[0, inf)",
    "blob_center": "(-inf, inf)",
}
CONTROLLER_REALS = ("epsilon", "gamma", "beta", "lambda_weight")
BLOB_REALS = ("blob_radius", "blob_std", "blob_center")


def _noadapt(**setting):
    return RunConfig(method="noadapt", **setting)


# every real setting: (its name, a call that sets it to ``value``)
REALS = {
    "check_real": ("epsilon", lambda value: check_real(value, "epsilon", 0, np.inf, "[]")),
    "cmaes.init.tau0": ("tau0", lambda value: cmaes.init(4, tau0=value)),
    "ControllerConfig.tau0": ("tau0", lambda value: ControllerConfig(tau0=value)),
    "RunConfig.tau0": ("tau0", lambda value: RunConfig(tau0=value)),
    "RunConfig.noadapt.tau0": ("tau0", lambda value: _noadapt(tau0=value)),
    "DomainSpec.severity": ("severity", lambda value: DomainSpec("feature_scale", value, 1)),
    "FitnessConfig.lambda_weight": ("lambda_weight", lambda value: FitnessConfig(value)),
    **{
        f"{site}.{name}": (name, lambda value, build=build, name=name: build(**{name: value}))
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
@pytest.mark.parametrize(
    "value",
    [True, False, np.True_, "0.5", None, np.nan],
    ids=["True", "False", "numpy-True", "string", "None", "nan"],
)
def test_non_real_is_refused_naming_the_setting(value, site):
    setting, call = REALS[site]
    if value is None and site.startswith("RunConfig") and setting == "gamma":
        assert call(value).gamma is None  # a run config's gamma = None calibrates gamma
        return
    message = rf"^{setting} must be a real number in {re.escape(INTERVALS[setting])}, got "
    with pytest.raises(ValueError, match=message):
        call(value)


@pytest.mark.parametrize("site", REALS)
@pytest.mark.parametrize(
    "value", [1, np.int64(1), np.float32(0.05), np.float64(0.05)],
    ids=["int", "int64", "float32", "float64"],
)
def test_real_is_stored_as_python_float(value, site):
    setting, call = REALS[site]
    built = call(value)
    stored = built if site == "check_real" else getattr(built, STORED_AS.get(site, setting))
    assert type(stored) is float and stored == float(value)


# the ends of each interval: a value is accepted or refused, whatever the message
ENDS = {
    "tau0": ([], [0, np.inf]),
    "severity": ([], [0, np.inf]),
    "epsilon": ([0, np.inf], []),
    "gamma": ([np.inf], [0]),
    "beta": ([1], [0]),
    "lambda_weight": ([0], [np.inf]),
    "blob_radius": ([0], [np.inf]),
    "blob_std": ([0], [np.inf]),
    "blob_center": ([], [np.inf, -np.inf]),
}
END_CASES = [
    pytest.param(site, value, accepted, id=f"{site}-{value}-{'in' if accepted else 'out'}")
    for site, (setting, _) in REALS.items()
    if site != "check_real"  # its interval is its caller's argument
    for accepted, values in zip((True, False), ENDS[setting])
    for value in values
]


@pytest.mark.parametrize("site, value, accepted", END_CASES)
def test_interval_end_is_accepted_or_refused(site, value, accepted):
    _, call = REALS[site]
    if accepted:
        call(value)
    else:
        with pytest.raises(ValueError):
            call(value)
