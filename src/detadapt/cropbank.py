"""Instance crop banks and relation-guided feature MixUp, one batch at a time.

Crops are feature vectors (this world has no pixels). The bank keeps each
instance's feature row in a fixed-capacity FIFO buffer per class, a ring
that a push fills with one scatter; the buffer gives the row's class.
Augmentation pairs a base instance with a row drawn by relation-weighted
class sampling from the buffers, then blends the two features, and the
base's class vector with the one-hot vector of the row's class, convexly.

The bank is built for the relation's classes. A batch is augmented with one
`augment_sample` call, which reads the bank as it stood before the batch, and
then filed with one `Cropbank.push`, so no batch draws its own rows: the
order of the MoCo queue (He et al., CVPR 2020). Both take the repeats of a
key (a row's class, a blend's feature row) apart by `occurrence_rank`, so
neither loops over classes or rows. In adaptation a blend's feature row is
its pseudo-label's own pass row, and a batch's rows are distinct, so a
batch blends in one round; only a direct caller's matches repeat rows.

The majority set carries SA's rescue. With an empty set in its place, so that
every base draws over its own relation row as a minority base does, seeds
0-19 of the default world at 50 epochs give, against `majority()`, final
mAP50 -.1454 (SE .0118, higher on 0 of 20 seeds) and mean AP3/AP4 -.3707
(SE .0290) on +SA, and mAP50 -.0078 (SE .0022) and mean AP3/AP4 -.0076
(SE .0046) on full. Majority bases drawing partners from their relation
column are what lifts the rare classes.
"""

from __future__ import annotations

import numpy as np

from .detector import Labels
from .relation import RelationMatrix, check_class_ids


def occurrence_rank(keys: np.ndarray) -> np.ndarray:
    """Each entry's count of equal entries before it in the 1-D integer `keys`:
    0 at a key's first occurrence, 1 at its second, and so on."""
    order = keys.argsort(kind="stable")
    ranked = keys[order]
    index = np.arange(len(keys))
    # each sorted entry's run of equal keys starts at the last index where the key changed
    starts = np.where(np.concatenate(([True], ranked[1:] != ranked[:-1])), index, 0)
    rank = np.empty_like(index)
    rank[order] = index - np.maximum.accumulate(starts)
    return rank


class Cropbank:
    """Per-class FIFO buffers of at most `capacity` feature rows, one per class
    in [0, num_classes), filed a batch at a time.

    The buffers are one preallocated (num_classes, capacity, D) array of
    copies, a ring per class: the n-th row ever filed under class c (from 0)
    sits at [c, n % capacity] until `capacity` later rows of c replace it. A
    class's rows, oldest first, are its last `sizes()[c]` filed.
    """

    def __init__(self, capacity: int, num_classes: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._storage = np.zeros((num_classes, capacity, 0))
        self._filed = np.zeros(num_classes, dtype=int)  # rows ever filed per class

    def push(self, class_ids, features) -> None:
        """File a batch: feature row r goes to the buffer of class
        class_ids[r], in row order, and a buffer keeps its last `capacity`
        rows. The bank stores copies. Class ids are integers in [0,
        num_classes) (`check_class_ids`). An empty batch, in any form, files
        nothing. One scatter writes each row that stays into its ring slot;
        a row with `capacity` later rows of its class in the batch is not
        written.
        """
        class_ids = np.asarray(class_ids)
        features = np.asarray(features, dtype=float)
        num_classes = len(self._storage)
        if len(class_ids) != len(features):
            raise ValueError(f"{len(class_ids)} class ids for {len(features)} feature rows")
        if len(features) and (features.ndim != 2
                              or self._storage.shape[2] not in (0, features.shape[1])):
            raise ValueError(f"feature rows must be (rows, D), one D per bank, "
                             f"got {features.shape}")
        if len(class_ids) and class_ids.dtype.kind not in "iu":
            raise ValueError("class ids must be integers")
        class_ids = class_ids.astype(int, copy=False)  # an empty list reads as float
        check_class_ids(class_ids, num_classes)
        if not len(class_ids):
            return
        if not self._storage.shape[2]:
            self._storage = np.zeros((num_classes, self.capacity, features.shape[1]))
        counts = np.bincount(class_ids, minlength=num_classes)
        rank = occurrence_rank(class_ids)
        # NumPy leaves unspecified which of repeated scatter indices wins, so none repeat
        kept = rank >= counts[class_ids] - self.capacity
        cls = class_ids[kept]
        self._storage[cls, (self._filed[cls] + rank[kept]) % self.capacity] = features[kept]
        self._filed += counts

    def sizes(self) -> np.ndarray:
        """(num_classes,) rows held per class."""
        return np.minimum(self._filed, self.capacity)

    def rows(self, classes, indices) -> np.ndarray:
        """(n, D) copies: row indices[j], oldest first, of the buffer of class
        classes[j], for each j; `IndexError` for an index outside its rows."""
        classes, indices = (np.asarray(a, dtype=int) for a in (classes, indices))
        filed = self._filed[classes]
        counts = np.minimum(filed, self.capacity)
        outside = (indices < 0) | (indices >= counts)
        if outside.any():
            j = int(np.argmax(outside))
            raise IndexError(f"class {classes[j]} holds {counts[j]} rows, not row {indices[j]}")
        return self._storage[classes, (filed - counts + indices) % self.capacity]


def augment_sample(
    features: np.ndarray,
    labels: Labels,
    relation: RelationMatrix,
    majority: frozenset[int],
    bank: Cropbank,
    p_aug: float,
    mix_ratio: float,
    rng: np.random.Generator,
    *,
    matches: np.ndarray,
) -> tuple[np.ndarray, Labels]:
    """Independently blend each labeled instance of a batch with probability
    `p_aug`, in [0, 1], keeping `mix_ratio`, in (0, 1], of the base.

    `features` are the (rows, D) features of the batch's proposals, laid end
    to end, `labels` its block and `matches` the labels' feature rows: in
    adaptation each pseudo-label's own pass row, so no two labels share one;
    for free label boxes, their `match_labels` rows. The batch draws from
    `bank` as it stands, so the caller files the batch's own rows after this
    call. A rate out of its range, a bank of other classes than the
    relation's or a majority class outside them (`check_class_ids`) raises
    `ValueError`.

    Classes outside `majority` (`RelationMatrix.majority`) are minority. A
    majority base draws its partner class over its relation column, its own
    class left out (classes commonly mistaken *for* the base class); a
    minority base over its own row, itself included, so self-augmentation is
    allowed. Classes without rows drop out before renormalizing; if every
    remaining weight is zero, the class is drawn uniformly, and a base with
    no candidate is not blended. One (C, C) CDF matrix, a row per base class,
    serves the whole batch; a row without weight takes its allowed classes
    as weights, and one without any candidate every class, so no row
    divides by zero. The stream takes three vector draws: `rng.random(n)`
    for the n labels against p_aug, then one `rng.random` per blend, which
    picks its partner class as `Generator.choice` with that row's weights
    would, then `rng.integers` of the partner class's row count per blend,
    for the partner row.

    A blend: feature row `matches[i]` and label i's class vector become
    `mix_ratio * base + (1 - mix_ratio) * pair`, with the partner class's
    one-hot vector as the pair's, so the class vector turns soft; geometry
    stays the base's, as resizing the pair to the base is an identity in
    feature space. A row matched by two labels is blended twice, in label
    order: round k blends, at once, each row's k-th pair in label order
    (`occurrence_rank`), so a batch without such a row, as every batch of
    adaptation, takes one round; repeated rows come only from direct callers.
    Returns a blended copy of the features and the labels (the input
    labels if nothing was blended); the inputs are not modified. Labels keep
    their boxes and offsets, so `matches` holds for them too.
    """
    if not 0.0 <= p_aug <= 1.0:
        raise ValueError("p_aug must lie in [0, 1]")
    if not 0.0 < mix_ratio <= 1.0:
        raise ValueError("mix_ratio must lie in (0, 1]")
    num_classes = relation.num_classes
    sizes = bank.sizes()
    if sizes.shape != (num_classes,):
        raise ValueError("the bank's classes are not the relation's")
    majority = np.array(list(majority), dtype=int)
    check_class_ids(majority, num_classes)
    is_majority = np.bincount(majority, minlength=num_classes) > 0
    # row b: base class b's weight on each partner class, zero where it may not draw
    allowed = (sizes > 0) & ~np.diag(is_majority)
    candidates = allowed.any(axis=1)
    weights = np.where(allowed, np.where(is_majority[:, None], relation.matrix.T,
                                         relation.matrix), 0.0)
    weights = np.where(weights.sum(axis=1, keepdims=True) > 0, weights,
                       allowed | ~candidates[:, None])
    cdf = (weights / weights.sum(axis=1, keepdims=True)).cumsum(axis=1)
    cdf /= cdf[:, -1:]

    base_classes = labels.classes.argmax(axis=1)
    blended = ((rng.random(len(labels)) < p_aug) & candidates[base_classes]).nonzero()[0]
    # a uniform's class is the first whose CDF entry exceeds it
    pair_classes = (cdf[base_classes[blended]] <= rng.random(len(blended))[:, None]).sum(axis=1)
    pairs = bank.rows(pair_classes, rng.integers(sizes[pair_classes]))
    strong = features.copy()
    if not len(blended):
        return strong, labels

    base_rows = matches[blended]
    rank = occurrence_rank(base_rows)
    for k in range(rank.max() + 1):
        hit = rank == k
        rows = base_rows[hit]
        strong[rows] = mix_ratio * strong[rows] + (1.0 - mix_ratio) * pairs[hit]
    classes = labels.classes.copy()
    classes[blended] = mix_ratio * labels.classes[blended] \
        + (1.0 - mix_ratio) * np.eye(num_classes)[pair_classes]
    return strong, Labels(labels.boxes, classes, labels.offsets)
