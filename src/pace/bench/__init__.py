from .stream import (
    CORRUPTION_KINDS,
    DomainSpec,
    StreamBatch,
    StreamConfig,
    generate_stream,
    make_source_batches,
    parse_domain_sequence,
)
from .run import (
    METHODS,
    RunConfig,
    RunReport,
    calibrate_gamma_for_config,
    compare,
    prepare_assets,
    run_prepared,
    standard_domain_sequence,
)

__all__ = [
    "CORRUPTION_KINDS",
    "DomainSpec",
    "StreamBatch",
    "StreamConfig",
    "generate_stream",
    "make_source_batches",
    "parse_domain_sequence",
    "METHODS",
    "RunConfig",
    "RunReport",
    "calibrate_gamma_for_config",
    "compare",
    "prepare_assets",
    "run_prepared",
    "standard_domain_sequence",
]
