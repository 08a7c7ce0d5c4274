"""Per-instance loss weights derived from the class-relation matrix.

Correctly classified instances of well-learned classes get small weights;
instances confused toward dominant classes get large ones. Foreground weights
are mean-normalized to match the constant background weight of 1, then pulled
toward 1 by a regularizer so no single instance dominates the loss.
"""

from __future__ import annotations

import numpy as np

from .relation import RelationMatrix

DENOM_FLOOR = 1e-6


class DegenerateBatchError(ValueError):
    """Raised when foreground weights cannot be mean-normalized."""


def instance_weight(relation: RelationMatrix, true_cls: int, pred_cls: int) -> float:
    """sqrt(1 - R[c,c]) when correct, sqrt(R[c,x] / R[c,c]) when confused."""
    r = relation.matrix
    if true_cls == pred_cls:
        return float(np.sqrt(max(1.0 - r[true_cls, true_cls], 0.0)))
    denom = max(r[true_cls, true_cls], DENOM_FLOOR)
    return float(np.sqrt(r[true_cls, pred_cls] / denom))


def normalize_foreground(weights) -> np.ndarray:
    """Rescale so the mean is exactly 1; degenerate input raises."""
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise DegenerateBatchError("no foreground weights to normalize")
    mean = float(w.mean())
    if mean <= 0.0:
        raise DegenerateBatchError(f"foreground weight mean {mean} is not positive")
    return w / mean


def regularize(weights, reg: float) -> np.ndarray:
    """(w + reg) / (1 + reg): pulls weights toward 1, preserving a mean of 1."""
    if reg < 0:
        raise ValueError("regularizer must be non-negative")
    w = np.asarray(weights, dtype=float)
    return (w + reg) / (1.0 + reg)


def relation_weights(relation: RelationMatrix, pairs: list[tuple[int, int]], reg: float) -> np.ndarray:
    """Full weighting pipeline for a batch of (label, prediction) class pairs.

    Falls back to uniform weights when the raw weights all vanish (e.g. a fresh
    identity matrix with all-correct predictions), so training never stalls.
    """
    raw = np.array([instance_weight(relation, c, x) for c, x in pairs])
    try:
        normalized = normalize_foreground(raw)
    except DegenerateBatchError:
        normalized = np.ones(len(pairs))
    return regularize(normalized, reg)
