"""Instance crop banks and relation-guided feature MixUp.

Crops are feature vectors (this world has no pixels), stored per (domain
subset, class) in fixed-capacity FIFO buffers. Augmentation pairs a base
instance with a crop drawn by relation-weighted class sampling, then blends
features and class vectors convexly.
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
BOTH = "both"


@dataclass(frozen=True)
class CropEntry:
    feature: np.ndarray
    class_vec: np.ndarray  # (C,), simplex point

    def __post_init__(self):
        vec = self.class_vec
        if np.any(vec < 0) or abs(float(vec.sum()) - 1.0) > 1e-9:
            raise ValueError("class_vec must be a simplex point")


class Cropbank:
    """Per (subset, class) ring buffers; oldest entries are evicted first."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buffers: dict[tuple[str, int], deque[CropEntry]] = {}

    def push(self, subset: str, class_id: int, entry: CropEntry) -> None:
        if subset not in SUBSETS:
            raise ValueError(f"unknown subset {subset!r}")
        key = (subset, class_id)
        if key not in self._buffers:
            self._buffers[key] = deque(maxlen=self.capacity)
        self._buffers[key].append(entry)

    def entries(self, subset: str, class_id: int) -> tuple[CropEntry, ...]:
        return tuple(self._buffers.get((subset, class_id), ()))

    def pool(self, preference: str, class_id: int) -> tuple[CropEntry, ...]:
        """Candidate entries for one class under a subset preference.

        "both" unions the two subsets; a specific subset falls back to the
        other one only when its own buffer is empty.
        """
        if preference == BOTH:
            return self.entries(SIMILAR, class_id) + self.entries(DISSIMILAR, class_id)
        if preference not in SUBSETS:
            raise ValueError(f"unknown preference {preference!r}")
        own = self.entries(preference, class_id)
        if own:
            return own
        other = DISSIMILAR if preference == SIMILAR else SIMILAR
        return self.entries(other, class_id)


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
    subset_preference: str,
    rng: np.random.Generator,
) -> CropEntry | None:
    """Draw a MixUp partner for a base instance, or None if no crop exists.

    Majority bases sample over the relation column with the self entry zeroed
    (classes commonly mistaken *for* the base class, self-pairing excluded);
    minority bases sample over their own row unmasked, so self-augmentation is
    allowed. Classes with empty pools are dropped before renormalizing.
    """
    num = relation.num_classes
    if is_majority:
        vec = relation.matrix[:, base_class].copy()
        vec[base_class] = 0.0
    else:
        vec = relation.matrix[base_class, :].copy()
    candidates = []
    pools = []
    for k in range(num):
        pool = bank.pool(subset_preference, k)
        if pool:
            candidates.append(k)
            pools.append(pool)
    if not candidates:
        return None
    w = vec[candidates]
    total = float(w.sum())
    if total > 0:
        probs = w / total
    else:
        probs = np.full(len(candidates), 1.0 / len(candidates))
    pick = int(rng.choice(len(candidates), p=probs))
    pool = pools[pick]
    return pool[int(rng.integers(len(pool)))]


def mixup(base: CropEntry, pair: CropEntry, mix_ratio: float) -> CropEntry:
    """Convex blend of features and class vectors; geometry stays the base's.

    Resizing the pair to the base is an identity in feature space, so no box
    enters the blend.
    """
    keep = mix_ratio
    return CropEntry(
        feature=keep * base.feature + (1.0 - keep) * pair.feature,
        class_vec=keep * base.class_vec + (1.0 - keep) * pair.class_vec,
    )


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
    appearance is the only evidence of the true target distribution). Samples
    from the similar subset draw partners from both banks; dissimilar samples
    prioritize the dissimilar bank. Instances are drawn in label order. The
    matched proposal's feature is replaced in the returned sample and the
    label's class vector turns soft in the returned labels; the inputs are
    not modified. Labels keep their boxes, so `matches` (`match_labels` of
    the labels, when the caller has it) holds for the returned labels too.
    """
    features = sample.proposal_features.copy()
    if matches is None:
        matches = match_labels(sample.proposal_boxes, labels.boxes)
    preference = BOTH if sample_subset == SIMILAR else DISSIMILAR

    classes = labels.classes.copy()
    for i, class_vec in enumerate(labels.classes):
        base_class = int(np.argmax(class_vec))
        protected = sample_subset == DISSIMILAR and base_class in split.minority
        if not protected and rng.random() < policy.p_aug:
            pair = sample_pair(relation, base_class, base_class in split.majority,
                               bank, preference, rng)
            if pair is not None:
                j = int(matches[i])
                blended = mixup(CropEntry(features[j].copy(), class_vec), pair, policy.mix_ratio)
                features[j] = blended.feature
                classes[i] = blended.class_vec
    return sample.with_features(features), Labels(labels.boxes, classes)
