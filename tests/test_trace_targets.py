"""The names the benchmark's tracer patches must exist where it looks them up.

``perfbench.trace`` wraps each target by replacing ``owner.__dict__[attr]``;
a renamed or moved entry point would only surface as a ``KeyError`` in a
traced benchmark run, so this resolves every target the same way.
"""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.trace import SERVING_TARGETS, SETUP_TARGETS  # noqa: E402


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
