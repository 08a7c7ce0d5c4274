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


def batch_confusion(true_cls, pred_cls, num_classes: int) -> np.ndarray:
    """Count matrix of one batch: entry (c, x) counts the labels of class c on
    which the student predicted class x.

    The two class arrays are 1-D, of one length, with every class in
    [0, num_classes); anything else raises `ValueError`.
    """
    true_cls, pred_cls = np.asarray(true_cls, dtype=int), np.asarray(pred_cls, dtype=int)
    if true_cls.ndim != 1 or true_cls.shape != pred_cls.shape:
        raise ValueError(f"class arrays of shapes {true_cls.shape} and {pred_cls.shape}")
    both = np.concatenate((true_cls, pred_cls))
    if np.any((both < 0) | (both >= num_classes)):
        raise ValueError(f"class ids outside [0, {num_classes})")
    counts = np.bincount(true_cls * num_classes + pred_cls, minlength=num_classes ** 2)
    return counts.reshape(num_classes, num_classes).astype(float)


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
        """Fold a batch count matrix into the running estimate.

        Each row with observations moves toward its normalized counts. Rows
        with none are left alone (normalizing them would divide by zero), so a
        batch may cover only a subset of classes and all-zero counts change
        nothing.
        """
        counts = np.asarray(counts, dtype=float)
        if counts.shape != self.matrix.shape:
            raise ValueError("count matrix shape mismatch")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        sums = counts.sum(axis=1)
        seen = sums > 0
        self.matrix[seen] = (self.ema_rate * self.matrix[seen]
                             + (1.0 - self.ema_rate) * (counts[seen] / sums[seen, None]))
        self.update_counts += seen
        return self

    def majority(self) -> frozenset[int]:
        """The majority classes: those whose diagonal entry lies strictly above
        the mean diagonal value. Every other class is minority, ties included,
        so borderline classes stay eligible for augmentation. Raises
        `NotReadyError` while any row has never been updated.
        """
        if not self.ready:
            missing = [c for c in range(self.num_classes) if self.update_counts[c] == 0]
            raise NotReadyError(f"rows never updated: {missing}")
        diag = np.diag(self.matrix)
        return frozenset(np.flatnonzero(diag > diag.mean()).tolist())

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
