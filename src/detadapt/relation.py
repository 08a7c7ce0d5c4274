"""Class-relation matrix: an EMA-smoothed, row-normalized confusion matrix.

Row c holds the running distribution of predicted classes for instances whose
(pseudo-)label is c. Rows update independently, so classes absent from a batch
keep their previous estimate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .util import write_atomic


class NotReadyError(RuntimeError):
    """Raised when a derived quantity needs rows that were never updated."""


def batch_confusion(pairs: list[tuple[int, int]], num_classes: int) -> np.ndarray:
    """Count matrix: entry (c, x) is the number of (true c, predicted x) pairs."""
    counts = np.zeros((num_classes, num_classes))
    for true_cls, pred_cls in pairs:
        if not (0 <= true_cls < num_classes and 0 <= pred_cls < num_classes):
            raise ValueError(f"class pair ({true_cls}, {pred_cls}) out of range")
        counts[true_cls, pred_cls] += 1.0
    return counts


@dataclass
class ClassSplit:
    majority: frozenset[int]
    minority: frozenset[int]
    rcm_avg: float


@dataclass
class RelationMatrix:
    matrix: np.ndarray        # (C, C), updated rows stay row-stochastic
    ema_rate: float           # weight kept on the old row at each update
    update_counts: np.ndarray = field(default=None)  # per-row update tally

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if not 0.0 <= self.ema_rate <= 1.0:
            raise ValueError("ema_rate must lie in [0, 1]")
        if self.update_counts is None:
            self.update_counts = np.zeros(self.matrix.shape[0], dtype=int)

    @classmethod
    def identity(cls, num_classes: int, ema_rate: float = 0.99) -> "RelationMatrix":
        # Identity start assumes every class is classified correctly, which
        # keeps early loss weights neutral until real statistics arrive.
        return cls(np.eye(num_classes), ema_rate)

    @property
    def num_classes(self) -> int:
        return self.matrix.shape[0]

    @property
    def ready(self) -> bool:
        return bool(np.all(self.update_counts > 0))

    def update(self, counts: np.ndarray) -> "RelationMatrix":
        """Fold a batch count matrix into the running estimate, row by row.

        Rows with no observations are skipped entirely (normalizing them would
        divide by zero), so every batch may cover only a subset of classes.
        """
        counts = np.asarray(counts, dtype=float)
        if counts.shape != self.matrix.shape:
            raise ValueError("count matrix shape mismatch")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        for c in range(self.num_classes):
            row_sum = counts[c].sum()
            if row_sum <= 0:
                continue
            batch_row = counts[c] / row_sum
            self.matrix[c] = self.ema_rate * self.matrix[c] + (1.0 - self.ema_rate) * batch_row
            self.update_counts[c] += 1
        return self

    def split(self) -> ClassSplit:
        """Majority/minority partition around the mean diagonal value.

        Classes strictly above the mean are majority; ties count as minority so
        borderline classes stay eligible for augmentation.
        """
        if not self.ready:
            missing = [c for c in range(self.num_classes) if self.update_counts[c] == 0]
            raise NotReadyError(f"rows never updated: {missing}")
        diag = np.diag(self.matrix)
        avg = float(diag.mean())
        majority = frozenset(int(c) for c in range(self.num_classes) if diag[c] > avg)
        minority = frozenset(range(self.num_classes)) - majority
        return ClassSplit(majority, minority, avg)

    def to_dict(self) -> dict:
        return {
            "matrix": self.matrix.tolist(),
            "ema_rate": self.ema_rate,
            "update_counts": self.update_counts.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RelationMatrix":
        return cls(np.array(data["matrix"], dtype=float), float(data["ema_rate"]),
                   np.array(data["update_counts"], dtype=int))

    def save_rows(self, path) -> None:
        """Checkpoint the matrix as a plain JSON array of rows."""
        write_atomic(path, json.dumps(self.matrix.tolist()))
