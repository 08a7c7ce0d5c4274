"""Instance crop banks and relation-guided feature MixUp.

Crops are feature vectors (this world has no pixels). The bank keeps each
instance's feature row in a fixed-capacity FIFO buffer per (domain subset,
class); the buffer gives the row's class. Augmentation pairs a base instance
with a row drawn by relation-weighted class sampling from the buffers its
sample's subset may use, then blends the two features, and the base's class
vector with the one-hot vector of the row's class, convexly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .detector import Labels
from .partition import DISSIMILAR, SIMILAR, SUBSETS
from .relation import RelationMatrix
from .world import DetectionSample


class Cropbank:
    """Per (subset, class) ring buffers of feature rows.

    One `push` takes one sample's instances; the oldest row of a full buffer
    is evicted first. `sources` gives the buffers a sample may draw, and
    `sizes` their row counts, which the bank keeps up to date on `push`.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buffers: dict[tuple[str, int], deque[np.ndarray]] = {}
        # the row count of each buffer, one row per subset (`SUBSETS` order), one column per class
        self._sizes = np.zeros((len(SUBSETS), 0), dtype=int)

    def push(self, subset: str, class_ids, features) -> None:
        """Append instance i's feature row, features[i], to the `subset`
        buffer of class class_ids[i], in order. The bank stores copies.
        Class ids are non-negative integers.
        """
        if subset not in SUBSETS:
            raise ValueError(f"unknown subset {subset!r}")
        features = np.array(features, dtype=float)
        class_ids = np.asarray(class_ids)
        if len(class_ids) != len(features):
            raise ValueError(f"{len(class_ids)} class ids for {len(features)} feature rows")
        if len(class_ids) and (class_ids.dtype.kind not in "iu" or class_ids.min() < 0):
            raise ValueError("class ids must be non-negative integers")
        class_ids = class_ids.tolist()
        for class_id, feature in zip(class_ids, features):
            key = (subset, class_id)
            if key not in self._buffers:
                self._buffers[key] = deque(maxlen=self.capacity)
            self._buffers[key].append(feature)
        grow = max(class_ids, default=-1) + 1 - self._sizes.shape[1]
        if grow > 0:
            self._sizes = np.pad(self._sizes, ((0, 0), (0, grow)))
        for class_id in set(class_ids):
            self._sizes[SUBSETS.index(subset), class_id] = len(self._buffers[(subset, class_id)])

    def sources(self, sample_subset: str, class_id: int) -> tuple[deque, ...]:
        """The buffers of one class that a sample of `sample_subset` may draw.

        A similar sample gets the similar buffer, then the dissimilar one. A
        dissimilar sample gets the dissimilar buffer, or the similar one while
        the dissimilar buffer is empty. The buffers are the bank's own.
        """
        if sample_subset not in SUBSETS:
            raise ValueError(f"unknown subset {sample_subset!r}")
        similar = self._buffers.get((SIMILAR, class_id), ())
        dissimilar = self._buffers.get((DISSIMILAR, class_id), ())
        if sample_subset == SIMILAR:
            return similar, dissimilar
        return (dissimilar or similar,)

    def sizes(self, sample_subset: str, num_classes: int) -> np.ndarray:
        """(num_classes,) rows that `sources(sample_subset, k)` holds, class by class."""
        if sample_subset not in SUBSETS:
            raise ValueError(f"unknown subset {sample_subset!r}")
        counts = np.zeros((len(SUBSETS), num_classes), dtype=int)
        known = min(num_classes, self._sizes.shape[1])
        counts[:, :known] = self._sizes[:, :known]
        similar, dissimilar = counts[SUBSETS.index(SIMILAR)], counts[SUBSETS.index(DISSIMILAR)]
        if sample_subset == SIMILAR:
            return similar + dissimilar
        return np.where(dissimilar > 0, dissimilar, similar)


@dataclass
class AugmentPolicy:
    p_aug: float = 0.5       # per-instance augmentation probability
    mix_ratio: float = 0.7   # weight kept on the base instance in the blend

    def __post_init__(self):
        if not 0.0 <= self.p_aug <= 1.0:
            raise ValueError("p_aug must lie in [0, 1]")
        if not 0.0 < self.mix_ratio <= 1.0:
            raise ValueError("mix_ratio must lie in (0, 1]")


def sample_pair(
    relation: RelationMatrix,
    base_class: int,
    is_majority: bool,
    bank: Cropbank,
    sample_subset: str,
    rng: np.random.Generator,
) -> tuple[int, np.ndarray] | None:
    """Draw a MixUp partner `(class_id, feature)` for a base instance of a
    `sample_subset` sample from `bank.sources`, or None if no candidate class
    holds a row.

    Majority bases sample over the relation column, their own class left
    out (classes commonly mistaken *for* the base class); minority bases
    sample over their own row unmasked, so self-augmentation is allowed.
    Classes with empty sources are dropped before renormalizing. If every
    remaining weight is zero, the class is drawn uniformly. One draw picks the
    class, as `rng.choice` with those probabilities would, and a second the row.
    """
    sizes = bank.sizes(sample_subset, relation.num_classes)
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
    pick = int(candidates[np.searchsorted(cdf / cdf[-1], rng.random(), side="right")])
    index = int(rng.integers(int(sizes[pick])))
    first, *rest = bank.sources(sample_subset, pick)
    return pick, (first[index] if index < len(first) else rest[0][index - len(first)])


def augment_sample(
    sample: DetectionSample,
    labels: Labels,
    relation: RelationMatrix,
    majority: frozenset[int],
    bank: Cropbank,
    policy: AugmentPolicy,
    subset: str,
    rng: np.random.Generator,
    *,
    matches: np.ndarray,
) -> tuple[DetectionSample, Labels]:
    """Independently blend each labeled instance with probability p_aug.

    Classes outside `majority` (`RelationMatrix.majority`) are minority;
    minority bases inside source-dissimilar samples are never blended (their
    appearance is the only evidence of the true target distribution). Partners
    come from `sample_pair`, from the buffers a `subset` sample may draw. A
    blend keeps `mix_ratio` of the base: the feature of proposal `matches[i]`
    and label i's class vector become `keep * base + (1 - keep) * pair`, with
    the partner class's one-hot vector as the pair's, so the class vector
    turns soft; geometry stays the base's, as resizing the pair to the base is
    an identity in feature space. Instances are drawn in label order, and the
    inputs are not modified. Labels keep their boxes, so `matches`
    (`match_labels` of the labels) holds for the returned labels too.
    """
    features = sample.proposal_features.copy()
    keep = policy.mix_ratio
    one_hot = np.eye(relation.num_classes)

    classes = labels.classes.copy()
    for i, class_vec in enumerate(labels.classes):
        base_class = int(np.argmax(class_vec))
        is_majority = base_class in majority
        protected = subset == DISSIMILAR and not is_majority
        if not protected and rng.random() < policy.p_aug:
            pair = sample_pair(relation, base_class, is_majority, bank, subset, rng)
            if pair is not None:
                j = int(matches[i])
                pair_class, pair_feature = pair
                features[j] = keep * features[j] + (1.0 - keep) * pair_feature
                classes[i] = keep * class_vec + (1.0 - keep) * one_hot[pair_class]
    return sample.with_features(features), Labels(labels.boxes, classes)
