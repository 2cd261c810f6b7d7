"""Experiment driver: pretraining, calibration, method runners, metrics, run outputs."""
from __future__ import annotations

import csv
import hashlib
import json
import numbers
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ..controller import (
    FROZEN,
    BatchReport,
    ControllerConfig,
    EmaStats,
    PaceController,
    calibrate_gamma,
    shift_score,
    update_ema,
)
from ..model import (
    AdaptableModel,
    ArchitectureConfig,
    SourceStats,
    compute_source_stats,
    pretrain,
)
from ..validation import check_int
from .stream import (
    DomainSpec,
    StreamConfig,
    format_domain_sequence,
    generate_stream,
    make_source_batches,
    parse_domain_sequence,
)

SUMMARY_SCHEMA_VERSION = 1
CSV_COLUMNS = [
    "batch_index",
    "domain_id",
    "mode",
    "fitness_best",
    "rel_mean_change",
    "U",
    "shift_detected",
    "forward_passes",
    "accuracy_if_labels_available",
]

METHODS = ("noadapt", "pace", "pace-always", "pace-v1", "pace-v2", "pace-v3")


def standard_domain_sequence(batch_count: int = 100) -> tuple[DomainSpec, ...]:
    """The default 4-domain corruption sequence used by the regression gates.

    Four distinct feature-scale patterns: each one is a per-feature affine
    distortion of the inputs, the shift family that normalization offsets can
    actually counteract, so the stream rewards adaptation on every domain.
    Custom configs vary the severities and batch counts of the same kind.
    """
    return (
        DomainSpec("feature_scale", 2.2, batch_count),
        DomainSpec("feature_scale", 0.45, batch_count),
        DomainSpec("feature_scale", 1.7, batch_count),
        DomainSpec("feature_scale", 0.55, batch_count),
    )


@dataclass(frozen=True)
class RunConfig:
    """Flat configuration for one benchmark run (mirrors the key=value file format).

    Checked whole at construction, through the types it builds: architecture,
    stream and controller config, the latter for every method.
    """

    method: str = "pace"
    seed: int = 0
    out_dir: str | None = None
    # stream
    base_task: str = "blobs8"
    in_dim: int = 2
    class_count: int = 8
    domain_sequence: str = ""
    batch_size: int = 64
    rounds: int = 1
    blob_radius: float = 4.0
    blob_std: float = 0.7
    blob_center: float = 2.5
    # model / pretraining
    arch: str = "mlp"
    width: int = 64
    res_blocks: int = 4
    train_samples: int = 4096
    train_epochs: int = 60
    # controller
    dim: int = 32
    population: int = 12
    tau0: float = 0.05
    epsilon: float = 0.1
    gamma: float | None = None  # None -> calibrate on held-out clean batches
    beta: float = 0.8
    lambda_weight: float = 0.4
    bank_capacity: int = 30
    # gamma calibration
    source_samples: int = 2000
    calibration_batches: int = 200
    calibration_warmup: int = 20

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        # every integer count is stored as a Python int, which JSON takes and np.int64 not;
        # a bool is left for check_int to refuse
        for f in fields(self):
            value = getattr(self, f.name)
            integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if f.type == "int" and integral:
                object.__setattr__(self, f.name, int(value))
        check_int(self.train_epochs, "train_epochs", minimum=0)
        for name in ("train_samples", "source_samples", "calibration_batches"):
            check_int(getattr(self, name), name)
        check_int(self.calibration_warmup, "calibration_warmup")  # the detector EMA needs a batch
        self.architecture()
        self.stream_config()
        controller_config_for_method(self, np.inf if self.gamma is None else self.gamma)
        if self.gamma is None and self.calibration_batches <= self.calibration_warmup:
            raise ValueError("calibration_batches must exceed calibration_warmup")

    def stream_config(self) -> StreamConfig:
        try:
            seq = (
                parse_domain_sequence(self.domain_sequence)
                if self.domain_sequence
                else standard_domain_sequence()
            )
        except ValueError as exc:
            raise ValueError(f"domain_sequence: {exc}") from exc
        return StreamConfig(
            domain_sequence=seq,
            base_task=self.base_task,
            in_dim=self.in_dim,
            class_count=self.class_count,
            batch_size=self.batch_size,
            rounds=self.rounds,
            seed=self.seed,
            blob_radius=self.blob_radius,
            blob_std=self.blob_std,
            blob_center=self.blob_center,
        )

    def architecture(self) -> ArchitectureConfig:
        return ArchitectureConfig(
            kind=self.arch,
            in_dim=self.in_dim,
            class_count=self.class_count,
            width=self.width,
            blocks=self.res_blocks,
        )

    def stream_fingerprint(self) -> str:
        stream = self.stream_config()
        payload = {f.name: getattr(stream, f.name) for f in fields(stream)}
        payload["domains"] = format_domain_sequence(payload.pop("domain_sequence"))
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
        return digest.hexdigest()[:16]

    @classmethod
    def from_mapping(cls, mapping: dict) -> "RunConfig":
        kwargs = {}
        valid = {f.name: f for f in fields(cls)}
        for key, raw in mapping.items():
            key = key.replace("-", "_")
            if key not in valid:
                raise ValueError(f"unknown config key: {key}")
            try:
                kwargs[key] = _coerce(raw, valid[key])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from exc
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        mapping = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                mapping[key.strip()] = value.strip()
        return cls.from_mapping(mapping)

    def as_dict(self) -> dict:
        out = asdict(self)
        if not out["domain_sequence"]:
            out["domain_sequence"] = format_domain_sequence(standard_domain_sequence())
        return out


def _coerce(raw, field_spec):
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    name = field_spec.name
    if name in ("gamma", "out_dir") and text.lower() in ("none", "auto", ""):
        return None
    if field_spec.type == "int":
        return int(text)
    if field_spec.type in ("float", "float | None"):
        return float(text)
    return text


# per-domain / per-round summary fields, keyed by int in memory
_INT_KEYED = ("per_domain_accuracy", "per_round_accuracy", "adapted_batches_per_round")


@dataclass
class RunReport:
    """Per-run metrics plus the per-batch trace."""

    method: str
    seed: int
    stream_fingerprint: str
    gamma: float
    overall_accuracy: float
    per_domain_accuracy: dict[int, float]
    per_round_accuracy: dict[int, float]
    adapted_fraction: float
    adapted_batches_per_round: dict[int, int]
    total_forward_passes: int
    identity_ok: bool
    wall_seconds: float
    telemetry: dict
    batches: list[dict] = field(repr=False, default_factory=list)

    @classmethod
    def _summary_fields(cls) -> list[str]:
        return [f.name for f in fields(cls) if f.name != "batches"]

    def summary_dict(self) -> dict:
        """The ``summary.json`` record: the schema version, then every field but ``batches``."""
        return {
            "schema_version": SUMMARY_SCHEMA_VERSION,
            **{name: getattr(self, name) for name in self._summary_fields()},
        }

    @classmethod
    def from_summary_dict(cls, record: dict) -> "RunReport":
        """Inverse of ``summary_dict``; extra keys such as ``config`` are ignored."""
        if record.get("schema_version") != SUMMARY_SCHEMA_VERSION:
            raise ValueError(f"unsupported summary schema: {record.get('schema_version')}")
        kwargs = {name: record[name] for name in cls._summary_fields()}
        for name in _INT_KEYED:  # JSON object keys are strings
            kwargs[name] = {int(k): v for k, v in kwargs[name].items()}
        return cls(**kwargs)


def prepare_assets(config: RunConfig) -> tuple[AdaptableModel, SourceStats, float]:
    """Pretrain the source model, aggregate source statistics, resolve gamma."""
    stream_cfg = config.stream_config()
    train_batches = make_source_batches(stream_cfg, config.train_samples, 256, tag=1)
    X = np.concatenate([b[0] for b in train_batches])
    y = np.concatenate([b[1] for b in train_batches])
    model = pretrain(
        config.architecture(),
        X,
        y,
        seed=config.seed,
        epochs=config.train_epochs,
    )
    stats_batches = [b[0] for b in make_source_batches(stream_cfg, config.source_samples, tag=2)]
    source_stats = compute_source_stats(model, stats_batches)
    gamma = config.gamma
    if gamma is None:
        gamma = calibrate_gamma_for_config(config, model)
    return model, source_stats, float(gamma)


def calibrate_gamma_for_config(config: RunConfig, model: AdaptableModel) -> float:
    """Shift threshold from the score distribution on held-out clean batches.

    Mirrors deployment: the detector EMA is warmed up and then frozen, and
    the remaining stationary batches are scored against it.
    """
    stream_cfg = config.stream_config()
    total = config.calibration_batches * config.batch_size
    batches = make_source_batches(stream_cfg, total, config.batch_size, tag=3)
    warmup = config.calibration_warmup
    ema = None
    for X, _ in batches[:warmup]:
        ema = update_ema(ema, EmaStats(*model.stem_moments(X)), config.beta)
    scores = [shift_score(ema, EmaStats(*model.stem_moments(X))) for X, _ in batches[warmup:]]
    return calibrate_gamma(scores)


def controller_config_for_method(config: RunConfig, gamma: float) -> ControllerConfig | None:
    """Translate a method preset into controller flags; None means no adaptation.

    The settings as given are checked for every method, ``noadapt`` and the
    presets that override some of them included.
    """
    given = ControllerConfig(
        dim=config.dim,
        population_size=config.population,
        tau0=config.tau0,
        epsilon=config.epsilon,
        gamma=gamma,
        beta=config.beta,
        lambda_weight=config.lambda_weight,
        bank_capacity=config.bank_capacity,
        seed=config.seed,
    )
    method = config.method
    if method == "noadapt":
        return None
    if method in ("pace-always", "pace-v1"):
        # never freezes and never sees a shift, so the bank stays empty; the
        # detector still scores every batch
        return replace(given, epsilon=0.0, gamma=np.inf)
    if method == "pace-v2":
        return replace(given, epsilon=0.0)
    if method == "pace-v3":
        return replace(given, bank_capacity=0)
    return given


def run_prepared(
    config: RunConfig,
    model: AdaptableModel,
    source_stats: SourceStats,
    gamma: float,
) -> RunReport:
    """Execute the configured method over the stream with prepared assets."""
    stream_cfg = config.stream_config()
    controller_cfg = controller_config_for_method(config, gamma)
    controller = (
        PaceController(model, source_stats, controller_cfg)
        if controller_cfg is not None
        else None
    )
    zero = model.bind(model.zero_offset()) if controller is None else None

    rows = []
    start = time.perf_counter()
    seq_len = len(stream_cfg.domain_sequence)
    batches_per_round = stream_cfg.total_batches // stream_cfg.rounds
    for batch in generate_stream(stream_cfg):
        features = batch.features  # labels and domain id stay on the metrics side
        if controller is None:
            probs = model.serve(zero, features)[0]
            report = BatchReport(batch.index, FROZEN, np.nan, np.nan, np.nan, False, 1)
        else:
            probs, report = controller.process_batch(features)
        predictions = np.argmax(probs, axis=1)
        rows.append(
            {
                "batch_index": report.batch_index,
                "mode": report.mode,
                "fitness_best": report.fitness_best,
                "rel_mean_change": report.rel_mean_change,
                "U": report.shift_score,
                "shift_detected": report.shift_detected,
                "forward_passes": report.forward_passes,
                "accuracy_if_labels_available": float(
                    100.0 * np.mean(predictions == batch.labels)
                ),
                "domain_id": batch.domain_id,
                "round": batch.index // batches_per_round,
            }
        )
    wall = time.perf_counter() - start

    if controller is not None:
        telemetry = controller.telemetry
        identity_ok = telemetry.identity_holds(controller.config.population_size)
        if not identity_ok:
            raise RuntimeError("forward-pass accounting identity violated")
        adapted = telemetry.adapted_batches
        total_fp = telemetry.forward_passes
        telem_dict = telemetry.as_dict()
    else:
        adapted = 0
        total_fp = len(rows)
        identity_ok = True
        telem_dict = {"batches": len(rows), "forward_passes": total_fp}

    per_domain = {}
    for did in range(seq_len):
        accs = [r["accuracy_if_labels_available"] for r in rows if r["domain_id"] == did]
        per_domain[did] = float(np.mean(accs))
    per_round = {}
    adapted_per_round = {}
    for rnd in range(stream_cfg.rounds):
        in_round = [r for r in rows if r["round"] == rnd]
        per_round[rnd] = float(np.mean([r["accuracy_if_labels_available"] for r in in_round]))
        adapted_per_round[rnd] = sum(1 for r in in_round if r["mode"] == "adapting")

    report = RunReport(
        method=config.method,
        seed=config.seed,
        stream_fingerprint=config.stream_fingerprint(),
        gamma=gamma,
        overall_accuracy=float(np.mean([r["accuracy_if_labels_available"] for r in rows])),
        per_domain_accuracy=per_domain,
        per_round_accuracy=per_round,
        adapted_fraction=float(adapted / len(rows)),
        adapted_batches_per_round=adapted_per_round,
        total_forward_passes=int(total_fp),
        identity_ok=identity_ok,
        wall_seconds=float(wall),
        telemetry=telem_dict,
        batches=rows,
    )
    if config.out_dir:
        _write_outputs(config, report)
    return report


def _write_outputs(config, report):
    """Write ``batches.csv`` and ``summary.json``; the summary's ``config`` rebuilds the assets."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "batches.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in report.batches:
            writer.writerow(row)
    summary = report.summary_dict()
    summary["config"] = config.as_dict()
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")


def compare(report_a: RunReport, report_b: RunReport) -> dict:
    """Per-domain and overall deltas (B minus A) for runs over the same stream."""
    if report_a.stream_fingerprint != report_b.stream_fingerprint:
        raise ValueError(
            "stream fingerprints do not match: "
            f"{report_a.stream_fingerprint} vs {report_b.stream_fingerprint}"
        )
    domains = sorted(report_a.per_domain_accuracy)
    return {
        "method_a": report_a.method,
        "method_b": report_b.method,
        "overall_accuracy_delta": report_b.overall_accuracy - report_a.overall_accuracy,
        "per_domain_accuracy_delta": {
            d: report_b.per_domain_accuracy[d] - report_a.per_domain_accuracy[d]
            for d in domains
        },
        "adapted_fraction_delta": report_b.adapted_fraction - report_a.adapted_fraction,
        "forward_passes_delta": report_b.total_forward_passes - report_a.total_forward_passes,
    }


def load_summary(path) -> RunReport:
    with open(path, "r", encoding="utf-8") as fh:
        return RunReport.from_summary_dict(json.load(fh))
