"""Deletion-request stream generators: random subsets per round, or a single
class drained progressively (stream-for-class)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError

MODE_RANDOM = "random-subset"
MODE_CLASS = "class-stream"


@dataclass(frozen=True)
class StreamSpec:
    mode: str = MODE_RANDOM
    rounds: int = 20
    per_round: int = 400
    target_class: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in (MODE_RANDOM, MODE_CLASS):
            raise ConfigError(f"mode {self.mode!r} is unknown")
        if not (self.rounds >= 0 and self.per_round >= 0):
            raise ConfigError("rounds and per_round must be non-negative")
        if self.mode == MODE_CLASS and self.target_class is None:
            raise ConfigError("mode 'class-stream' needs a target_class")
        if not self.seed >= 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")


def generate_stream(train: Dataset, spec: StreamSpec,
                    min_class_count: int) -> list[np.ndarray]:
    """Ordered list of disjoint per-round id arrays drawn from the train split."""
    total = spec.rounds * spec.per_round

    rng = np.random.default_rng(spec.seed)
    if spec.mode == MODE_RANDOM:
        budget = train.n - train.n_classes * min_class_count
        if total > budget:
            raise ConfigError(
                f"stream requests {total} deletions, but only {budget} are "
                f"deletable while every class keeps {min_class_count} samples"
            )
        pool = train.ids
    else:
        members = train.ids[train.y == spec.target_class]
        if total > len(members):
            raise ConfigError(
                f"stream requests {total} deletions from class "
                f"{spec.target_class}, which has only {len(members)} samples"
            )
        pool = members

    chosen = rng.choice(pool, size=total, replace=False)
    return [
        chosen[t * spec.per_round : (t + 1) * spec.per_round]
        for t in range(spec.rounds)
    ]
