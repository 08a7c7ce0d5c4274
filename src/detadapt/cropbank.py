"""Instance crop banks and relation-guided feature MixUp, one batch at a time.

Crops are feature vectors (this world has no pixels). The bank keeps each
instance's feature row in a fixed-capacity FIFO buffer per class; the buffer
gives the row's class. Augmentation pairs a base instance with a row drawn by
relation-weighted class sampling from the buffers, then blends the two
features, and the base's class vector with the one-hot vector of the row's
class, convexly.

The bank is built for the relation's classes. A batch is filed with one
`Cropbank.push` and augmented with one `augment_sample` call. Sample k of the
batch draws from the bank as it stood after the rows of samples 0..k-1 were
filed, its own and later ones not yet, so the batch draws what filing and
augmenting one sample at a time would.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .detector import Labels
from .relation import RelationMatrix, check_class_ids
from .util import check_offsets


class Cropbank:
    """Per-class FIFO buffers of feature rows, one per class in [0,
    num_classes), filed a batch at a time.

    The buffers are one preallocated (num_classes, rows, D) array of copies,
    class c's at [c]. A `push` first drops the rows that the previous batch
    evicted, so a buffer holds at most `capacity` rows plus one batch's rows;
    a buffer's rows as sample k of the last batch sees them are the last
    `capacity` of those filed before sample k's. `sizes` and `rows` read the
    bank as each sample of the last push sees it.
    """

    def __init__(self, capacity: int, num_classes: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._storage = np.zeros((num_classes, capacity, 0))
        # the last push: (samples + 1, classes) rows stored per class before
        # each sample's rows, then after the batch
        self._ends = np.zeros((1, num_classes), dtype=int)

    def push(self, class_ids, features, offsets) -> None:
        """File a batch: sample i owns rows offsets[i]:offsets[i + 1] of
        `class_ids` and `features` (`check_offsets`), and feature row r goes
        to the buffer of class class_ids[r], in row order. The bank stores
        copies. Class ids are integers in [0, num_classes) (`check_class_ids`).
        An empty batch, in any form, files nothing.
        """
        class_ids = np.asarray(class_ids)
        features = np.asarray(features, dtype=float)
        offsets = np.asarray(offsets)
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
        check_offsets(offsets, len(class_ids))

        cap = self.capacity
        held = self._ends[-1]
        # the previous batch's evictions take effect now that its samples are augmented
        over = np.flatnonzero(held > cap)
        for c, end in zip(over.tolist(), held[over].tolist()):
            self._storage[c, :cap] = self._storage[c, end - cap:end]
        num_samples = len(offsets) - 1
        held = np.minimum(held, cap)
        # ends[i + 1, c]: rows of class c stored once samples 0..i are filed
        sample_of_row = np.repeat(np.arange(num_samples), offsets[1:] - offsets[:-1])
        filed = np.bincount((sample_of_row + 1) * num_classes + class_ids,
                            minlength=(num_samples + 1) * num_classes)
        self._ends = held + filed.reshape(num_samples + 1, num_classes).cumsum(axis=0)
        if not len(class_ids):
            return

        # a row goes after its buffer's held rows and the batch's earlier rows of that class
        order = np.argsort(class_ids, kind="stable")
        in_order = class_ids[order]
        rank = np.empty(len(class_ids), dtype=int)
        rank[order] = np.arange(len(class_ids)) - np.searchsorted(in_order, in_order)
        slots = held[class_ids] + rank
        shape = (num_classes, max(self._storage.shape[1], int(slots.max()) + 1),
                 features.shape[1])
        if self._storage.shape != shape:
            self._storage = np.pad(self._storage, [(0, new - old) for new, old
                                                   in zip(shape, self._storage.shape)])
        self._storage[class_ids, slots] = features

    def sizes(self) -> np.ndarray:
        """(samples, num_classes) rows each sample of the last push may draw,
        class by class."""
        return np.minimum(self._ends[:-1], self.capacity)

    def rows(self, samples, classes, indices) -> np.ndarray:
        """(n, D) copies: row indices[j] of the `sizes()[samples[j], classes[j]]`
        rows that sample samples[j] of the last push may draw of class
        classes[j], for each j; `IndexError` for an index outside them."""
        samples, classes, indices = (np.asarray(a, dtype=int) for a in (samples, classes, indices))
        ends = self._ends[samples, classes]
        counts = np.minimum(ends, self.capacity)
        outside = (indices < 0) | (indices >= counts)
        if outside.any():
            j = int(np.argmax(outside))
            raise IndexError(f"sample {samples[j]} may draw {counts[j]} rows of class "
                             f"{classes[j]}, not row {indices[j]}")
        return self._storage[classes, ends - counts + indices]


def _partner_cdf(relation: RelationMatrix, base_class: int, is_majority: bool,
                 sizes: np.ndarray) -> tuple[list[int], list[float]] | None:
    """(candidate classes, their normalized CDF) of a base instance's partner
    class, given the rows its sample may draw per class; None without one.

    Majority bases sample over the relation column, their own class left
    out (classes commonly mistaken *for* the base class); minority bases
    sample over their own row unmasked, so self-augmentation is allowed.
    Classes without rows are dropped before renormalizing. If every
    remaining weight is zero, the class is drawn uniformly. A uniform draw r
    picks candidates[bisect_right(cdf, r)], as `rng.choice` with those
    probabilities would.
    """
    sizes = sizes.copy()
    if is_majority:
        vec = relation.matrix[:, base_class]
        sizes[base_class] = 0
    else:
        vec = relation.matrix[base_class, :]
    candidates = np.flatnonzero(sizes)
    if not len(candidates):
        return None
    w = vec[candidates]
    total = float(w.sum())
    if total > 0:
        probs = w / total
    else:
        probs = np.full(len(candidates), 1.0 / len(candidates))
    cdf = np.cumsum(probs)
    return candidates.tolist(), (cdf / cdf[-1]).tolist()


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
    to end, `labels` its block (sample i owns rows offsets[i]:offsets[i + 1])
    and `matches` (`match_labels` of the labels) the labels' feature rows.
    `bank`, built for the relation's classes, must have this batch as its
    last push: sample i draws what `bank.sizes` and `bank.rows` give sample
    i, the bank before its own rows were filed. A rate out of its range,
    another last push or a bank of other classes raises `ValueError`.

    Classes outside `majority` (`RelationMatrix.majority`) are minority.
    Labels are drawn in order: one `rng.random()` per label against p_aug,
    then for each blend one `rng.random()` for the partner class
    (`_partner_cdf`) and one `rng.integers` for the partner row, all gathered
    by one `bank.rows` call. A blend: feature row `matches[i]` and label i's
    class vector become `mix_ratio * base + (1 - mix_ratio) * pair`, with the
    partner class's one-hot vector as the pair's, so the class vector turns
    soft; geometry stays the base's, as resizing the pair to the base is an
    identity in feature space. A row matched by two
    labels is blended twice, in label order. Returns a blended copy of the
    features and the labels (the input labels if nothing was blended); the
    inputs are not modified. Labels keep their boxes and offsets, so
    `matches` holds for them too.
    """
    if not 0.0 <= p_aug <= 1.0:
        raise ValueError("p_aug must lie in [0, 1]")
    if not 0.0 < mix_ratio <= 1.0:
        raise ValueError("mix_ratio must lie in (0, 1]")
    num_classes = relation.num_classes
    sizes = bank.sizes()
    if sizes.shape != (len(labels.offsets) - 1, num_classes):
        raise ValueError("the bank's last push is not this batch, or its classes "
                         "are not the relation's")
    size_rows = sizes.tolist()
    # the relation does not change within the batch: one CDF per base, flag and set of classes
    cdfs: dict[tuple[int, bool, bytes], tuple[list[int], list[float]] | None] = {}
    nonempty = [row.tobytes() for row in sizes > 0]
    base_classes = np.argmax(labels.classes, axis=1).tolist()
    offsets = labels.offsets.tolist()

    draws = []  # (label, sample, partner class, partner row) of each blend
    for k in range(len(offsets) - 1):
        for i in range(offsets[k], offsets[k + 1]):
            if not rng.random() < p_aug:
                continue
            base_class = base_classes[i]
            is_majority = base_class in majority
            key = (base_class, is_majority, nonempty[k])
            if key not in cdfs:
                cdfs[key] = _partner_cdf(relation, base_class, is_majority, sizes[k])
            if cdfs[key] is None:
                continue
            candidates, cdf = cdfs[key]
            pick = candidates[bisect_right(cdf, rng.random())]
            draws.append((i, k, pick, int(rng.integers(size_rows[k][pick]))))
    strong = features.copy()
    if not draws:
        return strong, labels

    blended, pair_samples, pair_classes, pair_rows = np.array(draws).T
    pairs = bank.rows(pair_samples, pair_classes, pair_rows)
    base_rows = matches[blended]
    while len(base_rows):  # each round blends the first of each row's remaining pairs
        j, first = np.unique(base_rows, return_index=True)
        strong[j] = mix_ratio * strong[j] + (1.0 - mix_ratio) * pairs[first]
        base_rows, pairs = np.delete(base_rows, first), np.delete(pairs, first, axis=0)
    classes = labels.classes.copy()
    classes[blended] = mix_ratio * labels.classes[blended] \
        + (1.0 - mix_ratio) * np.eye(num_classes)[pair_classes]
    return strong, Labels(labels.boxes, classes, labels.offsets)
