"""Bounded memory of archived search-distribution means from past domains.

When the bank overflows its capacity, the entry with the highest mean
pairwise cosine similarity to the rest is discarded (the newcomer included),
keeping the stored vectors maximally diverse.  Retrieval evaluates the
adaptation fitness of every stored vector on the current batch -- plus the
zero vector, so a fresh start is always a candidate -- in one population
forward pass and returns the argmin as the warm-start mean.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .fitness import FitnessConfig, fitness
from .validation import check_array, check_int

BANK_SCHEMA_VERSION = 1


@dataclass
class RetrievalResult:
    vector: np.ndarray
    forward_passes: int
    fitnesses: list[float]


def mean_pairwise_cosine(vectors: list[np.ndarray]) -> np.ndarray:
    """Mean cosine similarity of each vector to all others.

    Any pair involving a zero vector contributes -1 (cosine is undefined
    there; -1 totalizes the rule without divisions by zero).
    """
    n = len(vectors)
    if n < 2:
        raise ValueError("need at least two vectors")
    stacked = np.stack(vectors)
    norms = np.linalg.norm(stacked, axis=1)
    nonzero = norms > 0
    safe = np.where(nonzero, norms, 1.0)
    unit = stacked / safe[:, None]
    sims = unit @ unit.T
    degenerate = ~(nonzero[:, None] & nonzero[None, :])
    sims = np.where(degenerate, -1.0, sims)
    np.fill_diagonal(sims, 0.0)
    return sims.sum(axis=1) / (n - 1)


class VectorBank:
    """Capacity-bounded store of length-``dim`` vectors in insertion order."""

    def __init__(self, dim: int, capacity: int = 30):
        self.dim = check_int(dim, "dim")
        self.capacity = check_int(capacity, "capacity", minimum=0)
        self.vectors: list[np.ndarray] = []

    @property
    def count(self) -> int:
        return len(self.vectors)

    def archive(self, m) -> "VectorBank":
        """Append ``m``; evict the most redundant entry if over capacity.

        Ties pick the oldest entry.  Returns the bank for chaining.
        """
        m = check_array(m, "m", ndim=1, length=self.dim).copy()
        self.vectors.append(m)
        if len(self.vectors) > self.capacity:
            if len(self.vectors) == 1:
                self.vectors.pop()
            else:
                drop = int(np.argmax(mean_pairwise_cosine(self.vectors)))
                self.vectors.pop(drop)
        return self

    def retrieve_init(
        self, batch, model, projector, source_stats, fitness_config: FitnessConfig
    ) -> RetrievalResult:
        """Warm-start vector: fitness argmin over the zero vector and the bank.

        All candidates are projected in one ``transform`` and scored in one
        population ``forward`` and one ``fitness`` call; each still counts as
        one logical forward pass in the reported count.  The zero vector comes
        first, so it wins ties and is returned when every candidate evaluates
        non-finite (``fitness`` scores them all ``inf``).
        """
        candidates = [np.zeros(self.dim), *self.vectors]
        probs, stats = model.forward(projector.transform(np.stack(candidates)), batch)
        scores = fitness(probs, stats, source_stats, fitness_config)
        best = int(np.argmin(scores))
        return RetrievalResult(candidates[best].copy(), len(candidates), scores.tolist())

    # -- persistence ---------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": BANK_SCHEMA_VERSION,
                "d": self.dim,
                "capacity": self.capacity,
                "vectors": [v.tolist() for v in self.vectors],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "VectorBank":
        record = json.loads(text)
        if record.get("schema_version") != BANK_SCHEMA_VERSION:
            raise ValueError(f"unsupported bank schema: {record.get('schema_version')}")
        bank = cls(dim=record["d"], capacity=record["capacity"])
        for row in record["vectors"]:
            vec = check_array(row, "bank vector", ndim=1, length=bank.dim)
            bank.vectors.append(vec.copy())
        if bank.count > bank.capacity:
            raise ValueError("bank file holds more vectors than its capacity")
        return bank

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "VectorBank":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
