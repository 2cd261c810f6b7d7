"""pace: backpropagation-free continual test-time adaptation.

Evolutionary search over a low-dimensional subspace, expanded by a structured
random projection into offsets for normalization-layer parameters, with
automatic adaptation stopping, streaming distribution-shift detection, and a
bounded bank of domain-specialized vectors.
"""
from . import bench
from .bank import RetrievalResult, VectorBank, mean_pairwise_cosine
from .cmaes import (
    CmaesState,
    RankedCandidate,
    init,
    sample_population,
    update,
)
from .controller import (
    BatchReport,
    ControllerConfig,
    EmaStats,
    PaceController,
    Telemetry,
    calibrate_gamma,
    shift_score,
    update_ema,
)
from .fitness import FitnessConfig, fitness
from .model import (
    ActivationStats,
    AdaptableModel,
    ArchitectureConfig,
    Layer,
    SourceStats,
    compute_source_stats,
    pretrain,
)
from .projection import FastfoodProjector, fwht

__version__ = "0.1.0"

__all__ = [
    "bench",
    "RetrievalResult",
    "VectorBank",
    "mean_pairwise_cosine",
    "CmaesState",
    "RankedCandidate",
    "init",
    "sample_population",
    "update",
    "BatchReport",
    "ControllerConfig",
    "EmaStats",
    "PaceController",
    "Telemetry",
    "calibrate_gamma",
    "shift_score",
    "update_ema",
    "FitnessConfig",
    "fitness",
    "ActivationStats",
    "AdaptableModel",
    "ArchitectureConfig",
    "Layer",
    "SourceStats",
    "compute_source_stats",
    "pretrain",
    "FastfoodProjector",
    "fwht",
    "__version__",
]
