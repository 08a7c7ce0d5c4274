"""Instance crop banks and relation-guided feature MixUp, one batch at a time.

Crops are feature vectors (this world has no pixels). The bank keeps each
instance's feature row in a fixed-capacity FIFO buffer per (domain subset,
class); the buffer gives the row's class. Augmentation pairs a base instance
with a row drawn by relation-weighted class sampling from the buffers its
sample's subset may use, then blends the two features, and the base's class
vector with the one-hot vector of the row's class, convexly.

A batch is filed with one `Cropbank.push` and augmented with one
`augment_sample` call. Sample k of the batch draws from the bank as it stood
after the rows of samples 0..k-1 were filed, its own and later ones not yet,
so the batch draws what filing and augmenting one sample at a time would.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .detector import Labels
from .partition import DISSIMILAR, SIMILAR, SUBSETS
from .relation import RelationMatrix
from .world import DetectionSample


class Cropbank:
    """Per (subset, class) FIFO buffers of feature rows, filed a batch at a time.

    The buffers are one preallocated (subsets, classes, rows, D) array of
    copies, buffer (s, c) at [s, c], in `SUBSETS` order. A `push` first drops
    the rows that the previous batch evicted, so a buffer holds at most
    `capacity` rows plus one batch's rows; a buffer's rows as sample k of the
    last batch sees them are the last `capacity` of those filed before sample
    k's. `sizes` and `row` read the bank as each sample of the last push sees it.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._storage = np.zeros((len(SUBSETS), 0, capacity, 0))
        # rows stored per buffer, (subsets, classes)
        self._held = np.zeros((len(SUBSETS), 0), dtype=int)
        # the last push: each sample's subset, and (samples + 1, subsets, classes)
        # rows stored before each sample's rows, then after the batch
        self._subsets: list[str] = []
        self._ends = np.zeros((1, len(SUBSETS), 0), dtype=int)

    def push(self, subsets, class_ids, features, offsets) -> None:
        """File a batch: sample i, of subset subsets[i], owns rows
        offsets[i]:offsets[i + 1] of `class_ids` and `features`, and feature
        row r goes to the buffer of (subsets[i], class_ids[r]), in row order.
        The bank stores copies. Class ids are non-negative integers.
        """
        subsets = list(subsets)
        for subset in subsets:
            if subset not in SUBSETS:
                raise ValueError(f"unknown subset {subset!r}")
        class_ids = np.asarray(class_ids)
        features = np.asarray(features, dtype=float)
        offsets = np.asarray(offsets)
        if len(class_ids) != len(features):
            raise ValueError(f"{len(class_ids)} class ids for {len(features)} feature rows")
        if len(features) and (features.ndim != 2
                              or self._storage.shape[3] not in (0, features.shape[1])):
            raise ValueError(f"feature rows must be (rows, D), one D per bank, "
                             f"got {features.shape}")
        if len(class_ids) and (class_ids.dtype.kind not in "iu" or class_ids.min() < 0):
            raise ValueError("class ids must be non-negative integers")
        counts = np.diff(offsets)
        if offsets.shape != (len(subsets) + 1,) or offsets.dtype.kind not in "iu" \
                or offsets[0] != 0 or offsets[-1] != len(class_ids) or np.any(counts < 0):
            raise ValueError(f"offsets must rise from 0 to {len(class_ids)}, one per sample + 1")

        cap = self.capacity
        # the previous batch's evictions take effect now that its samples are augmented
        over_s, over_c = np.nonzero(self._held > cap)
        for s, c, held in zip(over_s.tolist(), over_c.tolist(),
                              self._held[over_s, over_c].tolist()):
            self._storage[s, c, :cap] = self._storage[s, c, held - cap:held]
        np.minimum(self._held, cap, out=self._held)

        num_subsets = len(SUBSETS)
        num_classes = max(self._held.shape[1], int(class_ids.max(initial=-1)) + 1)
        if num_classes > self._held.shape[1]:
            self._held = np.pad(self._held, ((0, 0), (0, num_classes - self._held.shape[1])))
        sample_of_row = np.repeat(np.arange(len(subsets)), counts)
        subset_of_row = np.array([SUBSETS.index(s) for s in subsets], dtype=int)[sample_of_row]
        keys = subset_of_row * num_classes + class_ids
        # filed[i, s, c]: rows of buffer (s, c) stored once samples 0..i are filed
        filed = np.bincount(sample_of_row * (num_subsets * num_classes) + keys,
                            minlength=len(subsets) * num_subsets * num_classes)
        filed = filed.reshape(len(subsets), num_subsets, num_classes).cumsum(axis=0)
        self._ends = self._held + np.concatenate((np.zeros_like(filed[:1]), filed))
        self._subsets = subsets
        if not len(keys):
            return

        # a row goes after its buffer's held rows and the batch's earlier rows of that buffer
        order = np.argsort(keys, kind="stable")
        in_order = keys[order]
        rank = np.empty(len(keys), dtype=int)
        rank[order] = np.arange(len(keys)) - np.searchsorted(in_order, in_order)
        slots = self._held[subset_of_row, class_ids] + rank
        shape = (num_subsets, num_classes, max(self._storage.shape[2], int(slots.max()) + 1),
                 features.shape[1])
        if self._storage.shape != shape:
            grown = np.zeros(shape)
            old = self._storage.shape
            grown[:, :old[1], :old[2], :old[3]] = self._storage
            self._storage = grown
        self._storage[subset_of_row, class_ids, slots] = features
        self._held = self._ends[-1].copy()

    def _window(self, sample: int, subset_index: int, class_id: int) -> tuple[int, int]:
        """(first, count): buffer rows first:first + count as sample `sample` sees them."""
        end = int(self._ends[sample, subset_index, class_id])
        count = min(end, self.capacity)
        return end - count, count

    def sizes(self, num_classes: int) -> np.ndarray:
        """(samples, num_classes) rows each sample of the last push may draw,
        class by class.

        A similar sample draws the similar buffer, then the dissimilar one. A
        dissimilar sample draws the dissimilar buffer, or the similar one while
        the dissimilar buffer is empty.
        """
        seen = np.minimum(self._ends[:-1], self.capacity)
        counts = np.zeros(seen.shape[:2] + (num_classes,), dtype=int)
        known = min(num_classes, seen.shape[2])
        counts[..., :known] = seen[..., :known]
        similar = counts[:, SUBSETS.index(SIMILAR)]
        dissimilar = counts[:, SUBSETS.index(DISSIMILAR)]
        is_similar = np.array([s == SIMILAR for s in self._subsets], dtype=bool)[:, None]
        return np.where(is_similar, similar + dissimilar,
                        np.where(dissimilar > 0, dissimilar, similar))

    def row(self, sample: int, class_id: int, index: int) -> np.ndarray:
        """Row `index` of the `sizes(...)[sample, class_id]` rows that sample
        `sample` of the last push may draw of class `class_id`, as a view of
        the bank's storage that holds until the next push."""
        similar, dissimilar = SUBSETS.index(SIMILAR), SUBSETS.index(DISSIMILAR)
        sources = (similar, dissimilar)
        if self._subsets[sample] == DISSIMILAR:
            sources = (dissimilar,) if self._window(sample, dissimilar, class_id)[1] else (similar,)
        for subset_index in sources:
            first, count = self._window(sample, subset_index, class_id)
            if index < count:
                return self._storage[subset_index, class_id, first + index]
            index -= count
        raise IndexError(f"sample {sample} may draw fewer than {index + 1} more rows "
                         f"of class {class_id}")


@dataclass
class AugmentPolicy:
    p_aug: float = 0.5       # per-instance augmentation probability
    mix_ratio: float = 0.7   # weight kept on the base instance in the blend

    def __post_init__(self):
        if not 0.0 <= self.p_aug <= 1.0:
            raise ValueError("p_aug must lie in [0, 1]")
        if not 0.0 < self.mix_ratio <= 1.0:
            raise ValueError("mix_ratio must lie in (0, 1]")


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
    samples: list[DetectionSample],
    labels: Labels,
    relation: RelationMatrix,
    majority: frozenset[int],
    bank: Cropbank,
    policy: AugmentPolicy,
    subsets: list[str],
    rng: np.random.Generator,
    *,
    matches: np.ndarray,
) -> tuple[list[DetectionSample], Labels]:
    """Independently blend each labeled instance of a batch with probability p_aug.

    `labels` is the batch's block (sample i owns rows offsets[i]:offsets[i + 1]),
    `subsets[i]` sample i's subset and `matches` (`match_labels` of the
    labels) the block rows of the labels' proposals, the samples' proposals
    laid end to end. `bank`'s last push must be this batch's: sample i draws
    what `bank.sizes` and `bank.row` give sample i, the bank before sample
    i's own rows were filed.

    Classes outside `majority` (`RelationMatrix.majority`) are minority;
    minority bases inside source-dissimilar samples are never blended (their
    appearance is the only evidence of the true target distribution). Labels
    are drawn in order: one `rng.random()` per unprotected label against
    p_aug, then for each blend one `rng.random()` for the partner class
    (`_partner_cdf`) and one `rng.integers` for the partner row. A blend
    keeps `mix_ratio` of the base: the feature of proposal `matches[i]` and
    label i's class vector become `keep * base + (1 - keep) * pair`, with the
    partner class's one-hot vector as the pair's, so the class vector turns
    soft; geometry stays the base's, as resizing the pair to the base is an
    identity in feature space. A proposal matched by two labels is blended
    twice, in label order. The inputs are not modified; a sample without a
    blend is returned as it is. Labels keep their boxes and offsets, so
    `matches` holds for the returned labels too.
    """
    if list(subsets) != bank._subsets:
        raise ValueError("the bank's last push is not this batch")
    num_classes = relation.num_classes
    sizes = bank.sizes(num_classes)
    size_rows = sizes.tolist()
    # the relation does not change within the batch: one CDF per base, flag and set of classes
    cdfs: dict[tuple[int, bool, bytes], tuple[list[int], list[float]] | None] = {}
    nonempty = [row.tobytes() for row in sizes > 0]
    base_classes = np.argmax(labels.classes, axis=1).tolist()
    offsets, proposals = labels.offsets.tolist(), matches.tolist()
    p_aug, keep = policy.p_aug, policy.mix_ratio
    features = np.concatenate([s.proposal_features for s in samples])

    blended, pair_classes, touched = [], [], set()
    for k, subset in enumerate(subsets):
        dissimilar = subset == DISSIMILAR
        for i in range(offsets[k], offsets[k + 1]):
            base_class = base_classes[i]
            is_majority = base_class in majority
            if (dissimilar and not is_majority) or not rng.random() < p_aug:
                continue
            key = (base_class, is_majority, nonempty[k])
            if key not in cdfs:
                cdfs[key] = _partner_cdf(relation, base_class, is_majority, sizes[k])
            if cdfs[key] is None:
                continue
            candidates, cdf = cdfs[key]
            pick = candidates[bisect_right(cdf, rng.random())]
            pair = bank.row(k, pick, int(rng.integers(size_rows[k][pick])))
            j = proposals[i]
            features[j] = keep * features[j] + (1.0 - keep) * pair
            blended.append(i)
            pair_classes.append(pick)
            touched.add(k)
    if not blended:
        return list(samples), labels

    classes = labels.classes.copy()
    classes[blended] = keep * labels.classes[blended] \
        + (1.0 - keep) * np.eye(num_classes)[pair_classes]
    ends = np.cumsum([s.num_proposals for s in samples]).tolist()
    strong = [s.with_features(features[end - s.num_proposals:end]) if k in touched else s
              for k, (s, end) in enumerate(zip(samples, ends))]
    return strong, Labels(labels.boxes, classes, labels.offsets)
