from __future__ import annotations

import json

import numpy as np
import pytest

from pace import cmaes
from pace.model import CHECKPOINT_SCHEMA_VERSION, ArchitectureConfig, load_checkpoint
from pace.projection import FastfoodProjector
from pace.validation import check_array, check_positive_int


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


CALLERS = {
    "check_positive_int": lambda value, _: check_positive_int(value, "width"),
    "ArchitectureConfig": lambda value, _: ArchitectureConfig("mlp", 3, 4, width=value),
    "cmaes.init": lambda value, _: cmaes.init(value),
    "FastfoodProjector": lambda value, _: FastfoodProjector(d=value, D=8),
    "load_checkpoint": _load_checkpoint_with_width,
}


@pytest.mark.parametrize("caller", CALLERS)
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_is_not_a_positive_integer(value, caller, tmp_path):
    with pytest.raises(ValueError, match=r"must be a positive integer, got -?(inf|nan)"):
        CALLERS[caller](value, tmp_path)
