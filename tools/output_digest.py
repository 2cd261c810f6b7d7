"""Print one sha256 per output component of the program, for bit-identity checks.

Run it on two checkouts and compare the lines: equal lines mean bit-identical
outputs, and the name of a differing line points at the component that moved.

    python3 tools/output_digest.py

The inputs are fixed and there are no options.  The components:

* ``presets.<method>`` -- for each of the six method presets on the standard
  stream, seeds 0-4: every batch's probabilities and ``BatchReport``, then
  the final mode and CMA-ES mean;
* ``presets.pace.rounds3`` -- the same for ``pace`` on the standard stream
  at ``rounds=3``, seeds 0-4, with the same assets: the stream on which some
  seeds see a shift while adapting;
* ``telemetry.<method>`` -- the final ``Telemetry`` of the same runs, for
  each preset that runs a controller: a telemetry field added or deleted
  moves these lines alone, and a preset whose outputs are bit-identical keeps
  its ``presets`` line;
* ``run_prepared`` -- the per-batch rows ``run_prepared`` returns for the
  same 30 runs;
* ``run_dir`` -- the bytes of ``batches.csv`` and ``summary.json`` that the
  same 30 runs write, without the lines of ``wall_seconds`` and
  ``config.out_dir``;
* ``transform`` -- the projector at (d, D) = (32, 256), (256, 3584) and
  (2304, 34800) on fixed inputs;
* ``cmaes`` -- 20 CMA-ES generations at d = 32, 256 and 512 on a fixed
  quadratic: mean, step size, covariance, mean shift and both factors;
* ``shift_score`` -- the detector's score, both ways round, of fixed
  ``EmaStats`` pairs of 1, 8 and 64 features whose variances include zeros,
  values below the floor and values up to 1e150;
* ``weights``, ``source_stats``, ``gamma`` -- the assets ``prepare_assets``
  builds for ``RunConfig(seed=0..4)`` and for sub-stream 0 of the
  ``wide-adapt`` benchmark workload; that last model is the one whose
  pretraining runs its backward on more than one usable CPU.  The weights
  are hashed as the model stores them: pretrained in float32, the first
  layer cast exactly into float64;
* ``forward.wide`` -- the probabilities and block moments of one K = 12
  population forward of that ``wide-adapt`` model on a fixed batch: the shape
  whose population forward runs in chunks on more than one usable CPU, so
  equal lines under ``taskset -c 0`` and on more CPUs mean the chunks move
  no bit;
* ``weights.wide.partial`` -- the weights of the ``wide-adapt``
  architecture pretrained for 1 epoch on 1001 clean source samples, drawn as
  ``prepare_assets`` draws its own, so that the last minibatch holds 105
  rows.  This is the shape whose pretraining runs its backward's lane on
  the thread pool when two CPUs are usable, as the full-size case in the
  ``weights`` line does, so equal lines under ``taskset -c 0`` and on more
  CPUs mean the pool moves no bit, at a full and at an odd-row minibatch;
* ``stream`` -- the stream fingerprint and every batch's features, labels,
  domain id and index, for ``RunConfig(seed=0..4)``, sub-stream 0 of the
  ``recurring-toy`` and ``wide-adapt`` workloads, and a stream of severity
  1.0000001, which six significant digits would round to 1.

It reads only the public program API and the benchmark's workload table, so
the same file runs on any checkout that has them.  About 45 s on a 2-CPU x86
box.

Every line is equal at one and at two OpenBLAS threads, and CI checks that.
A BLAS thread count may still change the rounding of some products in other
BLAS builds, so before numpy loads the tool sets ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1 unless they are already set,
as ``perfbench/run.py`` does.
"""
from __future__ import annotations

import dataclasses
import hashlib
import os
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads

import numpy as np  # noqa: E402

from pace import cmaes  # noqa: E402
from pace.bench.run import (  # noqa: E402
    METHODS,
    RunConfig,
    controller_config_for_method,
    prepare_assets,
    run_prepared,
)
from pace.bench.stream import generate_stream, make_source_batches  # noqa: E402
from pace.controller import EmaStats, PaceController, shift_score  # noqa: E402
from pace.model import pretrain  # noqa: E402
from pace.projection import FastfoodProjector  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SEEDS = range(5)
# summary.json lines that differ between identical runs: a timing and a path
UNSTABLE_LINE = re.compile(rb'^ *"(wall_seconds|out_dir)": ')


def feed(h, obj) -> None:
    """Hash ``obj`` by value: arrays by dtype, shape and bytes, the rest by repr."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        feed(h, [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)])
    elif isinstance(obj, dict):
        feed(h, sorted(obj.items(), key=lambda kv: repr(kv[0])))
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            feed(h, item)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())


def serve_all(h, config, model, source_stats, gamma) -> dict | None:
    """Hash every batch's outputs into ``h``; return the telemetry, None without a controller."""
    controller_cfg = controller_config_for_method(config, gamma)
    if controller_cfg is None:
        zero = model.zero_offset()
        for batch in generate_stream(config.stream_config()):
            feed(h, model.forward(zero, batch.features)[0])
        return None
    controller = PaceController(model, source_stats, controller_cfg)
    for batch in generate_stream(config.stream_config()):
        feed(h, controller.process_batch(batch.features))
    feed(h, (controller.mode, controller.cmaes_state.mean))
    return controller.telemetry.as_dict()


def feed_run_dir(h, out: Path) -> None:
    """Hash the two files of a run directory, byte for byte but for ``UNSTABLE_LINE``."""
    for name in ("batches.csv", "summary.json"):
        lines = (out / name).read_bytes().splitlines(keepends=True)
        h.update(name.encode())
        h.update(b"".join(line for line in lines if not UNSTABLE_LINE.match(line)))


def feed_population_forward(h, model) -> None:
    """Hash a K = 12 population forward of ``model`` on a fixed batch and fixed offsets."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2020)))
    batch = rng.standard_normal((64, model.config.in_dim))
    probs, stats = model.forward(0.1 * rng.standard_normal((12, model.offset_dim)), batch)
    feed(h, (probs, stats.means, stats.stds))


def feed_partial_pretraining(h, config) -> None:
    """Hash ``config``'s model pretrained 1 epoch on 1001 samples: 7 full minibatches, then 105 rows."""
    batches = make_source_batches(config.stream_config(), 1001, 256, tag=1)
    X = np.concatenate([b[0] for b in batches])
    y = np.concatenate([b[1] for b in batches])
    feed(h, pretrain(config.architecture(), X, y, seed=config.seed, epochs=1).weights)


def feed_shift_scores(h) -> None:
    """Hash ``shift_score`` both ways round over fixed ``EmaStats`` pairs."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2027)))
    # zero, below the floor, at it, and large enough that the ratio terms dominate
    special = np.array([0.0, 1e-12, 1e-8, 1e150])
    for n in (1, 8, 64):
        for _ in range(10):
            pair = []
            for _ in range(2):
                var = rng.random(n) * 10.0 ** rng.integers(-10, 4, size=n)
                picked = rng.random(n) < 0.3
                var[picked] = rng.choice(special, size=int(picked.sum()))
                pair.append(EmaStats(rng.standard_normal(n) * 3.0, var))
            feed(h, (shift_score(*pair), shift_score(*pair[::-1])))


def main() -> int:
    digests = {f"presets.{m}": hashlib.sha256() for m in METHODS}
    digests["presets.pace.rounds3"] = hashlib.sha256()
    for name in (
        "run_prepared", "run_dir", "transform", "cmaes", "shift_score", "weights",
        "source_stats", "gamma", "forward.wide", "weights.wide.partial", "stream",
    ):
        digests[name] = hashlib.sha256()

    asset_configs = [RunConfig(seed=s) for s in SEEDS]
    asset_configs.append(WORKLOADS["wide-adapt"].configs(0, 30)[0])
    stream_configs = asset_configs + [
        WORKLOADS["recurring-toy"].configs(0, 30)[0],
        RunConfig(domain_sequence="feature_scale:1.0000001:5"),
    ]
    for config in stream_configs:
        feed(digests["stream"], config.stream_fingerprint())
        for batch in generate_stream(config.stream_config()):
            feed(digests["stream"], batch)
    with tempfile.TemporaryDirectory(prefix="output_digest-") as tmp:
        out = Path(tmp)
        for i, base in enumerate(asset_configs):
            model, source_stats, gamma = prepare_assets(base)
            feed(digests["weights"], model.weights)
            feed(digests["source_stats"], source_stats)
            feed(digests["gamma"], gamma)
            if i >= len(SEEDS):
                feed_population_forward(digests["forward.wide"], model)
                feed_partial_pretraining(digests["weights.wide.partial"], base)
                continue  # the wide-adapt assets only
            for method in METHODS:
                config = dataclasses.replace(base, method=method)
                telemetry = serve_all(
                    digests[f"presets.{method}"], config, model, source_stats, gamma
                )
                if telemetry is not None:
                    feed(digests.setdefault(f"telemetry.{method}", hashlib.sha256()), telemetry)
                config = dataclasses.replace(config, out_dir=str(out))
                rows = run_prepared(config, model, source_stats, gamma).batches
                feed(digests["run_prepared"], rows)
                feed_run_dir(digests["run_dir"], out)
            rounds3 = dataclasses.replace(base, method="pace", rounds=3)
            serve_all(digests["presets.pace.rounds3"], rounds3, model, source_stats, gamma)

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2024)))
    for d, D in ((32, 256), (256, 3584), (2304, 34800)):
        projector = FastfoodProjector(d, D, seed=5)
        feed(digests["transform"], projector.transform(rng.standard_normal((12, d))))

    for d in (32, 256, 512):
        state = cmaes.init(d, tau0=0.3)
        target = np.linspace(-1.0, 1.0, d)
        gen_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(d)))
        for _ in range(20):
            population = cmaes.sample_population(state, gen_rng)
            ranked = [
                cmaes.RankedCandidate(v, float(np.sum((v - target) ** 2))) for v in population
            ]
            state, rel = cmaes.update(state, ranked)
            feed(digests["cmaes"], (state.mean, state.step_size, state.covariance, rel))
            feed(digests["cmaes"], (state.factor, state.factor_inv))

    feed_shift_scores(digests["shift_score"])

    for name, h in digests.items():
        print(f"{name} {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
