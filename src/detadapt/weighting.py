"""Per-instance loss weights derived from the class-relation matrix.

A label of class c on which the student predicts class x gets the raw weight
sqrt(1 - R[c,c]) when x == c and sqrt(R[c,x] / R[c,c]) otherwise: correct
instances of well-learned classes weigh little, instances confused toward
dominant classes weigh much. A sample's foreground weights are then divided by
their mean, to match the constant background weight of 1, and pulled toward 1
by a regularizer so no single instance dominates the loss. One call weighs
a block's labels, each sample's alone: in adaptation, a batch's
pseudo-labels and expert labels together.
"""

from __future__ import annotations

import numpy as np

from .relation import RelationMatrix, check_class_ids
from .util import check_offsets

DENOM_FLOOR = 1e-6


def relation_weights(relation: RelationMatrix, true_cls, pred_cls, reg: float,
                     offsets) -> np.ndarray:
    """Weights of a block's labels, from their label and predicted classes.

    Sample i's labels are entries offsets[i]:offsets[i + 1] (a sample alone
    has offsets [0, n]). One gather from the matrix gives each label's R[c,x]
    and R[c,c]. The raw weights (R[c,c] floored at `DENOM_FLOOR` as a divisor)
    are divided by their sample's mean, or set to 1 where that mean is not
    positive, so a fresh identity matrix with all-correct predictions does not
    stall training. They then become (w + reg) / (1 + reg), which keeps each
    sample's mean at 1. No labels give no weights. A negative `reg`, a class
    id outside [0, C) or offsets that do not rise from 0 to the label count
    (`check_offsets`) raise `ValueError`.
    """
    if reg < 0:
        raise ValueError("regularizer must be non-negative")
    true_cls, pred_cls = np.asarray(true_cls, dtype=int), np.asarray(pred_cls, dtype=int)
    check_class_ids(np.concatenate((true_cls, pred_cls)), relation.num_classes)
    offsets = np.array(offsets, dtype=int)
    check_offsets(offsets, len(true_cls))
    counts = offsets[1:] - offsets[:-1]
    pair, diag = relation.matrix[true_cls, np.array((pred_cls, true_cls))]
    raw = np.sqrt(np.maximum(np.where(true_cls == pred_cls, 1.0 - pair,
                                      pair / np.maximum(diag, DENOM_FLOOR)), 0.0))
    # each sample's mean as its `raw.mean()`, bit for bit: `np.sum` adds fewer
    # than 8 terms in order, as `np.bincount` does, and more pairwise
    sums = np.bincount(np.arange(len(counts)).repeat(counts), raw, len(counts))
    long = (counts >= 8).nonzero()[0]
    sums[long] = [raw[a:b].sum() for a, b in zip(offsets[long], offsets[long + 1])]
    mean = (sums / np.maximum(counts, 1)).repeat(counts)
    w = np.ones(len(raw))
    np.divide(raw, mean, out=w, where=mean > 0.0)
    return (w + reg) / (1.0 + reg)
