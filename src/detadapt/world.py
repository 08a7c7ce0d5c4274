"""Synthetic detection world: proposal sets with feature vectors instead of pixels.

A "sample" is a fixed, ordered list of proposals (box + feature vector) plus the
ground truth that generated some of them, all as arrays: boxes are (..., 4)
corner rows (x1, y1, x2, y2). Features are class-conditional Gaussian draws, so
class overlap and domain shift are fully controllable. `box_iou` is the one
IoU of the package.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .util import write_atomic


class ConfigError(ValueError):
    """Raised for invalid domain or run configuration."""


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in image units, corners (x1, y1) < (x2, y2)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        coords = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(c) for c in coords):
            raise ValueError(f"non-finite box coordinates {coords}")
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise ValueError(f"degenerate box {coords}")

    @classmethod
    def from_raw(cls, x1: float, y1: float, x2: float, y2: float, min_size: float = 1e-6) -> "BBox":
        """Build a valid box from arbitrary finite coordinates (reorders, pads)."""
        lo_x, hi_x = min(x1, x2), max(x1, x2)
        lo_y, hi_y = min(y1, y2), max(y1, y2)
        if hi_x - lo_x < min_size:
            hi_x = lo_x + min_size
        if hi_y - lo_y < min_size:
            hi_y = lo_y + min_size
        return cls(float(lo_x), float(lo_y), float(hi_x), float(hi_y))

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2])


def box_array(boxes) -> np.ndarray:
    """(N, 4) corner array of an iterable of BBoxes."""
    return np.array([box.as_array() for box in boxes]).reshape(-1, 4)


def boxes_from_raw(raw: np.ndarray, min_size: float = 1e-6) -> np.ndarray:
    """`BBox.from_raw` over the last axis of a (..., 4) array, as one array op.

    Gives the same coordinates as `BBox.from_raw(*row).as_array()` for every
    row, and raises ValueError whenever that would raise for any row. The
    selects copy Python's min/max, so NaN and signed zeros resolve the same way.
    """
    raw = np.asarray(raw, dtype=float)
    first, second = raw[..., :2], raw[..., 2:]
    lo = np.where(second < first, second, first)
    hi = np.where(second > first, second, first)
    with np.errstate(invalid="ignore"):  # inf - inf; the finiteness check rejects it
        hi = np.where(hi - lo < min_size, lo + min_size, hi)
    boxes = np.concatenate([lo, hi], axis=-1)
    if not np.isfinite(boxes).all():
        raise ValueError("non-finite box coordinates")
    if not (lo < hi).all():
        raise ValueError("degenerate box")
    return boxes


def box_iou(a, b) -> np.ndarray:
    """Intersection over union of (..., 4) corner boxes, broadcast pairwise.

    0 where the boxes do not overlap; pass (n, 1, 4) and (1, m, 4) for the
    (n, m) matrix.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = iw * ih
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    out = np.zeros(inter.shape)
    np.divide(inter, area_a + area_b - inter, out=out, where=(iw > 0.0) & (ih > 0.0))
    return out


@dataclass
class DetectionSample:
    """One synthetic image: ordered proposals plus hidden ground truth.

    Proposal order is fixed at generation time and never changes, so proposal
    index j is a stable identity across forward passes. In a generated sample
    the first G proposals belong to the G ground-truth objects, in object
    order, and carry each object's feature; the rest are background.
    """

    id: int
    proposal_boxes: np.ndarray    # (P, 4)
    proposal_features: np.ndarray  # (P, D)
    gt_boxes: np.ndarray          # (G, 4)
    gt_classes: np.ndarray        # (G,) int class ids

    @property
    def num_proposals(self) -> int:
        return self.proposal_boxes.shape[0]

    def with_features(self, features: np.ndarray) -> "DetectionSample":
        """Copy of the sample with proposal features replaced (boxes shared)."""
        if features.shape != self.proposal_features.shape:
            raise ValueError("feature array shape mismatch")
        return DetectionSample(self.id, self.proposal_boxes, np.array(features),
                               self.gt_boxes, self.gt_classes)


def perturb_features(sample: DetectionSample, scale: float, rng: np.random.Generator) -> DetectionSample:
    """Strong-view augmentation: additive Gaussian noise on every proposal feature."""
    if scale <= 0.0:
        return sample
    noise = scale * rng.standard_normal(sample.proposal_features.shape)
    return sample.with_features(sample.proposal_features + noise)


@dataclass
class DomainSpec:
    """Generative description of one domain.

    `class_means` rows are the per-class feature centers; `class_covs` are the
    isotropic std scales. `frequency` drives the class draw for each object.
    Background proposals draw from a dedicated Gaussian and carry no object.
    """

    num_classes: int
    feature_dim: int
    class_means: np.ndarray   # (C, D)
    class_covs: np.ndarray    # (C,)
    frequency: np.ndarray     # (C,), sums to 1
    background_rate: float    # expected background proposals per sample (Poisson)
    box_jitter: float         # proposal jitter as a fraction of box width/height
    size: int                 # number of samples
    image_size: float = 100.0
    min_box: float = 8.0
    max_box: float = 24.0
    min_objects: int = 1
    max_objects: int = 3
    background_mean: np.ndarray | None = None
    background_cov: float = 1.0
    min_proposal_iou: float = 0.5

    def __post_init__(self):
        if self.background_mean is None:
            self.background_mean = np.zeros(self.feature_dim)
        for name in ("class_means", "class_covs", "frequency", "background_mean"):
            try:
                setattr(self, name, np.asarray(getattr(self, name), dtype=float))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{name} must be an array of numbers ({exc})") from None

    def validate(self) -> None:
        if self.num_classes < 1 or self.feature_dim < 1 or self.size < 0:
            raise ConfigError("num_classes, feature_dim must be >= 1 and size >= 0")
        if self.class_means.shape != (self.num_classes, self.feature_dim):
            raise ConfigError(f"class_means must be ({self.num_classes}, {self.feature_dim})")
        if self.class_covs.shape != (self.num_classes,) or np.any(self.class_covs <= 0):
            raise ConfigError("class_covs must be positive, one per class")
        if self.frequency.shape != (self.num_classes,) or np.any(self.frequency < 0):
            raise ConfigError("frequency must be non-negative, one per class")
        if abs(float(self.frequency.sum()) - 1.0) > 1e-9:
            raise ConfigError(f"frequency must sum to 1, got {self.frequency.sum()}")
        if self.background_mean.shape != (self.feature_dim,):
            raise ConfigError("background_mean dimension mismatch")
        if self.background_cov <= 0 or self.background_rate < 0 or self.box_jitter < 0:
            raise ConfigError("background_cov must be > 0; rates must be >= 0")
        if not (0 < self.min_box <= self.max_box < self.image_size):
            raise ConfigError("box size range must fit inside the image")
        if not (1 <= self.min_objects <= self.max_objects):
            raise ConfigError("object count range invalid (at least one object per sample)")
        if not (0.0 < self.min_proposal_iou < 1.0):
            raise ConfigError("min_proposal_iou must lie in (0, 1)")

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "DomainSpec":
        return cls(**data)


def make_domain_spec(
    num_classes: int,
    feature_dim: int,
    size: int,
    frequency,
    separation: float = 4.0,
    layout_seed: int = 0,
    **overrides,
) -> DomainSpec:
    """Convenience constructor: class means on random unit directions scaled by `separation`."""
    rng = np.random.default_rng(layout_seed)
    dirs = rng.standard_normal((num_classes, feature_dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    spec = DomainSpec(
        num_classes=num_classes,
        feature_dim=feature_dim,
        class_means=separation * dirs,
        class_covs=np.ones(num_classes),
        frequency=np.asarray(frequency, dtype=float),
        background_rate=overrides.pop("background_rate", 3.0),
        box_jitter=overrides.pop("box_jitter", 0.12),
        size=size,
        **overrides,
    )
    spec.validate()
    return spec


def shift_domain(base: DomainSpec, mean_shift) -> DomainSpec:
    """New spec with every feature center displaced by `mean_shift`."""
    shift = np.asarray(mean_shift, dtype=float)
    if shift.shape != (base.feature_dim,):
        raise ConfigError(f"mean_shift must have dimension {base.feature_dim}")
    spec = dataclasses.replace(
        base,
        class_means=base.class_means + shift[None, :],
        background_mean=base.background_mean + shift,
        frequency=base.frequency.copy(),
    )
    spec.validate()
    return spec


def _random_box(spec: DomainSpec, rng: np.random.Generator) -> np.ndarray:
    w = rng.uniform(spec.min_box, spec.max_box)
    h = rng.uniform(spec.min_box, spec.max_box)
    x1 = rng.uniform(0.0, spec.image_size - w)
    y1 = rng.uniform(0.0, spec.image_size - h)
    return np.array([x1, y1, x1 + w, y1 + h])


def _jittered_proposal(box: np.ndarray, spec: DomainSpec, rng: np.random.Generator) -> np.ndarray:
    # Retry until the proposal keeps IoU above the detectability floor; the GT
    # box itself is the fallback, so the floor always holds.
    size = box[2:] - box[:2]
    scale = np.concatenate((size, size))
    for _ in range(20):
        cand = box + rng.uniform(-spec.box_jitter, spec.box_jitter, 4) * scale
        if cand[0] >= cand[2] or cand[1] >= cand[3]:
            continue
        if box_iou(cand, box) > spec.min_proposal_iou:
            return cand
    return box


def generate_domain(spec: DomainSpec, seed: int) -> list[DetectionSample]:
    """Draw a full dataset; a pure function of (spec, seed)."""
    spec.validate()
    rng = np.random.default_rng(seed)
    samples = []
    for sample_id in range(spec.size):
        n_obj = int(rng.integers(spec.min_objects, spec.max_objects + 1))
        classes = rng.choice(spec.num_classes, size=n_obj, p=spec.frequency)
        gt_boxes = []
        boxes = []
        feats = []
        for c in classes:
            box = _random_box(spec, rng)
            feats.append(spec.class_means[c]
                         + spec.class_covs[c] * rng.standard_normal(spec.feature_dim))
            gt_boxes.append(box)
            boxes.append(_jittered_proposal(box, spec, rng))
        for _ in range(int(rng.poisson(spec.background_rate))):
            boxes.append(_random_box(spec, rng))
            feats.append(spec.background_mean + spec.background_cov * rng.standard_normal(spec.feature_dim))
        samples.append(DetectionSample(sample_id, np.array(boxes), np.array(feats),
                                       np.array(gt_boxes), classes))
    return samples


def dataset_to_dict(spec: DomainSpec, samples: list[DetectionSample]) -> dict:
    """JSON-ready dataset document with stable field order."""
    docs = []
    for s in samples:
        proposals = [
            [*map(float, s.proposal_boxes[j])] + [*map(float, s.proposal_features[j])]
            for j in range(s.num_proposals)
        ]
        objects = [[*map(float, box), int(c)] for box, c in zip(s.gt_boxes, s.gt_classes)]
        docs.append({"id": s.id, "proposals": proposals, "objects": objects})
    return {"spec": spec.to_dict(), "samples": docs}


def save_dataset(path, spec: DomainSpec, samples: list[DetectionSample]) -> None:
    write_atomic(path, json.dumps(dataset_to_dict(spec, samples)))


def load_dataset(path) -> tuple[DomainSpec, list[DetectionSample]]:
    """Load a saved dataset, checking every sample against the file's own spec.

    Raises `ConfigError` on a proposal row that is not 4 + `spec.feature_dim`
    values wide, on an object class that is not an integer in
    [0, `spec.num_classes`), and on a ground-truth box that is not finite with
    x1 < x2 and y1 < y2. The file stores no object features: in a generated
    sample they are the first G proposal rows (see `DetectionSample`).
    """
    with open(path) as fh:
        doc = json.load(fh)
    spec = DomainSpec.from_dict(doc["spec"])
    width = 4 + spec.feature_dim
    samples = []
    for rec in doc["samples"]:
        if any(len(row) != width for row in rec["proposals"]):
            raise ConfigError(f"proposal row not {width} values wide in sample {rec['id']}")
        rows = np.array(rec["proposals"], dtype=float)
        gt_boxes = np.array([obj[:4] for obj in rec["objects"]], dtype=float).reshape(-1, 4)
        if not (np.isfinite(gt_boxes).all() and (gt_boxes[:, :2] < gt_boxes[:, 2:]).all()):
            raise ConfigError(f"invalid ground-truth box in sample {rec['id']}")
        classes = [obj[4] for obj in rec["objects"]]
        # `type` is exact: a JSON true loads as a bool, which is also an int
        if not all(type(c) is int and 0 <= c < spec.num_classes for c in classes):
            raise ConfigError(f"object class not an integer in [0, {spec.num_classes}) "
                              f"in sample {rec['id']}")
        gt_classes = np.array(classes, dtype=int)
        samples.append(DetectionSample(int(rec["id"]), rows[:, :4], rows[:, 4:],
                                       gt_boxes, gt_classes))
    return spec, samples
