"""The names the benchmark's tracer patches must exist where it looks them up.

``perfbench.trace`` wraps each target by replacing ``owner.__dict__[attr]``;
a renamed or moved entry point would only surface as a ``KeyError`` in a
traced benchmark run, so this resolves every target the same way.
"""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from pace import cmaes  # noqa: E402
from perfbench.trace import (  # noqa: E402
    SERVING_TARGETS,
    SETUP_TARGETS,
    Tracer,
    _cmaes_condition,
)


def test_every_traced_name_resolves_as_the_tracer_patches_it():
    missing = []
    for module_name, path, *_ in SERVING_TARGETS + SETUP_TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{module_name}.{path}")
    assert not missing


def test_cmaes_condition_counter_is_the_covariance_condition_number():
    d = 16
    state = cmaes.init(d, m0=np.ones(d), tau0=0.3)
    rng = np.random.default_rng(0)
    for _ in range(30):
        ranked = [cmaes.RankedCandidate(v, float(np.sum(v**2)))
                  for v in cmaes.sample_population(state, rng)]
        result = cmaes.update(state, ranked)
        state = result[0]
    tracer = Tracer()
    _cmaes_condition(tracer, (), result, None)
    condition = np.linalg.cond(state.covariance)
    assert condition > 1.5  # the covariance has left the identity
    np.testing.assert_allclose(tracer.counters["cmaes.cond_max"], condition, rtol=1e-8)
