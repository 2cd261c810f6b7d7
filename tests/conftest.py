from __future__ import annotations

import numpy as np
import pytest

from pace.bench.run import RunConfig, prepare_assets
from pace.bench.stream import StreamConfig, DomainSpec, make_source_batches
from pace.model import ArchitectureConfig, compute_source_stats, pretrain


@pytest.fixture(scope="session")
def standard_assets():
    """Pretrained benchmark model, source statistics and calibrated gamma (seed 0)."""
    config = RunConfig(seed=0)
    model, stats, gamma = prepare_assets(config)
    return config, model, stats, gamma


def _tiny(kind):
    stream_cfg = StreamConfig(
        domain_sequence=(DomainSpec("feature_scale", 1.5, 2),),
        in_dim=2,
        class_count=3,
        blob_radius=4.0,
        blob_std=0.5,
        seed=9,
    )
    batches = make_source_batches(stream_cfg, 1024, 128, tag=1)
    X = np.concatenate([b[0] for b in batches])
    y = np.concatenate([b[1] for b in batches])
    arch = ArchitectureConfig(kind=kind, in_dim=2, class_count=3, width=8, blocks=3)
    model = pretrain(arch, X, y, seed=1, epochs=25)
    stats = compute_source_stats(model, [b[0] for b in make_source_batches(stream_cfg, 512, tag=2)])
    return stream_cfg, model, stats


@pytest.fixture(scope="session")
def tiny_setup():
    """A small, fast mlp + stats for plumbing tests (3 classes, width 8)."""
    return _tiny("mlp")


@pytest.fixture(scope="session")
def tiny_residual_setup():
    """The residual counterpart of ``tiny_setup``: a stem and three blocks."""
    return _tiny("residual")
