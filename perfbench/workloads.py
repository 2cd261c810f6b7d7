"""The benchmark's workloads: which configurations a run serves, and how many.

A run's work is fixed by ``--seconds`` and ``--seed`` alone, never by the
machine's speed, so counts (accuracy, forward passes, shifts) repeat exactly.
``--seconds`` is turned into work at a nominal cost per batch measured on a
2-CPU x86 box with one BLAS thread; a faster program finishes the same work
sooner.

Each run serves several sub-streams, each with its own sub-seed, pretrained
model and calibrated gamma.  Set-up is thereby repeated, so ``setup_s`` is a
median, and seed-to-seed differences in how often the controller adapts are
averaged within a run instead of showing up as run-to-run spread.  Every
sub-stream is served ``passes`` times and each batch's time is its median
over the passes, which drops a pass that a short slow spell of the machine
hit; longer spells are taken out by the reference kernel (see serve.py).
``recurring-toy`` adapts on 5-20 % of batches depending on the seed, so it
spends its time on more sub-streams served twice rather than on a third pass.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from pace.bench.run import RunConfig, standard_domain_sequence
from pace.bench.stream import format_domain_sequence

from .serve import Reference

SEED_MODULUS = 2**64  # any integer seed maps into [0, 2**64); sub-seeds are 1000 * that + i


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, int], list[RunConfig]]
    reference: Reference  # kernel of the width the workload's layers have
    passes: int  # untraced passes over every sub-stream

    def configs(self, seed: int, seconds: int) -> list[RunConfig]:
        """One config per sub-stream; sub-stream 0 of seed s uses RunConfig seed 1000 * s.

        Every integer is a valid seed: the program seeds ``SeedSequence``,
        which takes any non-negative integer, so a negative or very large
        seed is only brought into [0, 2**64) first.
        """
        if seconds < 1:
            raise ValueError(f"seconds must be >= 1, got {seconds}")
        return self.build(seed % SEED_MODULUS, seconds)


def _substreams(base: RunConfig, seed: int, count: int) -> list[RunConfig]:
    return [replace(base, seed=1000 * seed + i) for i in range(count)]


def _recurring_toy(seed: int, seconds: int) -> list[RunConfig]:
    # preset pace on the default mlp (d=32, D=256, K=12, B=64); 8 rounds of the
    # standard 4-domain stream (3200 batches) fill the 30-slot bank and evict.
    # Nominal cost 1 ms per batch, i.e. 3.2 s per pass over a sub-stream;
    # 2 passes over 6 sub-streams at 30 s.
    count = max(2, round(seconds / 5))
    return _substreams(RunConfig(method="pace", rounds=8), seed, count)


WIDE_PASSES = 3


def _wide_adapt(seed: int, seconds: int) -> list[RunConfig]:
    # Always adapting, so the stream length scales with --seconds at a nominal
    # 70 ms per batch, split over 3 sub-streams of the 4 standard domains.
    domains = standard_domain_sequence()
    count = 3
    per_domain = max(1, round(seconds * 1000 / 70 / (WIDE_PASSES * count * len(domains))))
    base = RunConfig(
        method="pace-v1",
        arch="residual",
        in_dim=32,
        width=256,
        res_blocks=8,
        dim=256,
        # the 8-blob task converges in a few epochs; the default 60 would make
        # set-up about 50 s per sub-stream at this width
        train_epochs=4,
        domain_sequence=format_domain_sequence(
            tuple(replace(d, batch_count=per_domain) for d in domains)
        ),
    )
    return _substreams(base, seed, count)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "recurring-toy",
            "Closed loop, 1 caller. Paper's recurring-domain protocol at toy scale: "
            "loads frozen path, shift detector, bank retrieval and eviction, CMA-ES; "
            "Python overhead dominates.",
            _recurring_toy,
            Reference(width=64, iterations=40, nominal_s=3.2e-3),
            passes=2,
        ),
        Workload(
            "wide-adapt",
            "Closed loop, 1 caller. Always adapting at offset_dim 3584: loads "
            "BLAS-bound forward, CMA-ES update with eigh at d=256, projection; "
            "bypasses frozen path, detector and bank.",
            _wide_adapt,
            Reference(width=256, iterations=8, nominal_s=3.2e-3),
            passes=WIDE_PASSES,
        ),
    )
}
