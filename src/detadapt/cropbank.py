"""Instance crop banks and relation-guided feature MixUp.

Crops are feature vectors (this world has no pixels). The bank stores them as
plain (feature, class vector) rows per (domain subset, class), in
fixed-capacity FIFO buffers. Augmentation pairs a base instance with a row
drawn by relation-weighted class sampling from the pools its sample's subset
may use, then blends features and class vectors convexly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .detector import Labels, match_labels
from .relation import ClassSplit, RelationMatrix
from .world import DetectionSample

SIMILAR = "similar"
DISSIMILAR = "dissimilar"
SUBSETS = (SIMILAR, DISSIMILAR)


class Cropbank:
    """Per (subset, class) ring buffers of (feature, class vector) rows.

    One `push` takes one sample's instances; the oldest row of a full buffer
    is evicted first. `pool` gives the rows a sample may draw.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buffers: dict[tuple[str, int], deque[tuple[np.ndarray, np.ndarray]]] = {}

    def push(self, subset: str, class_ids, features, class_vecs) -> None:
        """Append instance i, (features[i], class_vecs[i]) under class
        class_ids[i], to its `subset` buffer, in order. The bank stores copies;
        each class vector must be a simplex point.
        """
        if subset not in SUBSETS:
            raise ValueError(f"unknown subset {subset!r}")
        features = np.array(features, dtype=float)
        class_vecs = np.array(class_vecs, dtype=float)
        if (class_vecs < 0).any() or (abs(class_vecs.sum(axis=-1) - 1.0) > 1e-9).any():
            raise ValueError("class vectors must be simplex points")
        rows = zip(features, class_vecs, strict=True)
        for class_id, row in zip(np.asarray(class_ids).tolist(), rows, strict=True):
            key = (subset, class_id)
            if key not in self._buffers:
                self._buffers[key] = deque(maxlen=self.capacity)
            self._buffers[key].append(row)

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

    def pool(self, sample_subset: str, class_id: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The rows of one class that a sample of `sample_subset` may draw:
        those of its `sources`, in order."""
        return tuple(row for buffer in self.sources(sample_subset, class_id) for row in buffer)


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
) -> tuple[np.ndarray, np.ndarray] | None:
    """Draw a MixUp partner row (feature, class vector) for a base instance of
    a `sample_subset` sample from `bank.pool`, or None if no row exists.

    Majority bases sample over the relation column with the self entry zeroed
    (classes commonly mistaken *for* the base class); minority bases sample
    over their own row unmasked, so self-augmentation is allowed. Classes with
    empty pools are dropped before renormalizing. If every remaining weight is
    zero, the class is drawn uniformly, and then a majority base can draw its
    own class too. One draw picks the class, a second the row.
    """
    if is_majority:
        vec = relation.matrix[:, base_class].copy()
        vec[base_class] = 0.0
    else:
        vec = relation.matrix[base_class, :].copy()
    sources = [bank.sources(sample_subset, k) for k in range(relation.num_classes)]
    sizes = [sum(map(len, buffers)) for buffers in sources]
    candidates = [k for k, size in enumerate(sizes) if size]
    if not candidates:
        return None
    w = vec[candidates]
    total = float(w.sum())
    if total > 0:
        probs = w / total
    else:
        probs = np.full(len(candidates), 1.0 / len(candidates))
    pick = candidates[int(rng.choice(len(candidates), p=probs))]
    index = int(rng.integers(sizes[pick]))
    first, *rest = sources[pick]
    return first[index] if index < len(first) else rest[0][index - len(first)]


def augment_sample(
    sample: DetectionSample,
    labels: Labels,
    relation: RelationMatrix,
    split: ClassSplit,
    bank: Cropbank,
    policy: AugmentPolicy,
    sample_subset: str,
    rng: np.random.Generator,
    *,
    matches: np.ndarray | None = None,
) -> tuple[DetectionSample, Labels]:
    """Independently blend each labeled instance with probability p_aug.

    Minority bases inside source-dissimilar samples are never blended (their
    appearance is the only evidence of the true target distribution). Partners
    come from `sample_pair`, from the pools `sample_subset` may draw. A blend
    keeps `mix_ratio` of the base: the matched proposal's feature and the
    label's class vector become `keep * base + (1 - keep) * pair`, so the
    class vector turns soft; geometry stays the base's, as resizing the pair
    to the base is an identity in feature space. Instances are drawn in label
    order, and the inputs are not modified. Labels keep their boxes, so
    `matches` (`match_labels` of the labels, when the caller has it) holds for
    the returned labels too.
    """
    features = sample.proposal_features.copy()
    if matches is None:
        matches = match_labels(sample.proposal_boxes, labels.boxes)
    keep = policy.mix_ratio

    classes = labels.classes.copy()
    for i, class_vec in enumerate(labels.classes):
        base_class = int(np.argmax(class_vec))
        protected = sample_subset == DISSIMILAR and base_class in split.minority
        if not protected and rng.random() < policy.p_aug:
            pair = sample_pair(relation, base_class, base_class in split.majority,
                               bank, sample_subset, rng)
            if pair is not None:
                j = int(matches[i])
                pair_feature, pair_vec = pair
                features[j] = keep * features[j] + (1.0 - keep) * pair_feature
                classes[i] = keep * class_vec + (1.0 - keep) * pair_vec
    return sample.with_features(features), Labels(labels.boxes, classes)
