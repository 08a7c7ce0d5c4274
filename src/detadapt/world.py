"""Synthetic detection world: proposal sets with feature vectors instead of pixels.

A "sample" is a fixed, ordered list of proposals (box + feature vector) plus the
ground truth that generated some of them, all as arrays: boxes are (..., 4)
corner rows (x1, y1, x2, y2). Features are class-conditional Gaussian draws, so
class overlap and domain shift are fully controllable. `box_iou` is the IoU
of the package. The jitter check of `generate_domain` computes its IoU on
Python floats, following `box_iou` operation for operation; the oracle test of
`generate_domain` pins that the two agree.

A world is a pure function of (spec, seed) through the Generator calls of
`generate_domain` and their order, which its docstring lists; how it turns
the draws into arrays must change neither. Its uniforms are `random` draws
mapped by `uniform_map`, which gives `Generator.uniform`'s bits. It draws
sample by sample but builds the arrays a block of `_BLOCK` samples at a time,
so a generated sample's arrays are slices of its block's buffers.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .util import ConfigError, from_json, number_array, to_json, write_atomic

MIN_BOX_SIZE = 1e-6  # the side a valid box is padded to when shorter
_BLOCK = 64  # samples whose arrays `generate_domain` builds together


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
    def from_raw(cls, x1: float, y1: float, x2: float, y2: float,
                 min_size: float = MIN_BOX_SIZE) -> "BBox":
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


def boxes_from_raw(raw: np.ndarray) -> np.ndarray:
    """Valid boxes of a (..., 4) array of arbitrary corners, as array ops:
    each row's corners put in order, and a side shorter than `MIN_BOX_SIZE`
    padded to it.

    Raises ValueError if a resulting coordinate is not finite, or if a side
    is still empty after padding (at coordinates so large that adding
    `MIN_BOX_SIZE` leaves them unchanged). The selects resolve NaN and
    signed zeros as Python's min and max do. A transposed copy holds the rows' x1, y1, x2 and y2 as four contiguous
    lines, so each NumPy call runs over all rows, not over a row's 4 entries.
    """
    raw = np.asarray(raw, dtype=float)
    first, second = raw.reshape(-1, 2, 2).transpose(1, 2, 0).copy()
    with np.errstate(invalid="ignore"):  # inf - inf; the finiteness check rejects it
        lo = np.where(second < first, second, first)
        hi = np.where(second > first, second, first)
        hi = np.where(hi - lo < MIN_BOX_SIZE, lo + MIN_BOX_SIZE, hi)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("non-finite box coordinates")
    if not (lo < hi).all():
        raise ValueError("degenerate box")
    boxes = np.empty(raw.shape)
    rows = boxes.reshape(-1, 4)
    rows[:, :2], rows[:, 2:] = lo.T, hi.T
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

    A generated sample's four arrays are contiguous slices of its block's
    buffers (see `generate_domain`), disjoint from every other sample's. They
    are never written in place; nothing in the package writes them.
    """

    id: int
    proposal_boxes: np.ndarray    # (P, 4)
    proposal_features: np.ndarray  # (P, D)
    gt_boxes: np.ndarray          # (G, 4)
    gt_classes: np.ndarray        # (G,) int class ids

    @property
    def num_proposals(self) -> int:
        return self.proposal_boxes.shape[0]


def perturb_features(features: np.ndarray, scale: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Strong-view augmentation: a block's (rows, D) proposal features plus
    Gaussian noise, one `standard_normal(features.shape)` draw, which equals
    one draw per sample in turn; at scale 0 the features themselves."""
    if scale <= 0.0:
        return features
    return features + scale * rng.standard_normal(features.shape)


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
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{name} must be an array of numbers ({exc})") from None

    def validate(self) -> None:
        if self.num_classes < 1 or self.feature_dim < 1 or self.size < 0:
            raise ConfigError("num_classes, feature_dim must be >= 1 and size >= 0")
        # the range checks below let NaN through, and generation would turn a
        # non-finite value into NaN features or garbage classes
        for name in ("class_means", "class_covs", "frequency", "background_mean",
                     "background_rate", "background_cov", "box_jitter", "image_size"):
            try:
                finite = np.isfinite(np.asarray(getattr(self, name), dtype=float)).all()
            except OverflowError:  # an integer beyond the float range
                finite = False
            if not finite:
                raise ConfigError(f"{name} must be finite")
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
        if self.box_jitter > np.finfo(float).max / 2:  # `uniform(-j, j)` spans 2j
            raise ConfigError("box_jitter must be at most half the largest float")
        if not (0 < self.min_box <= self.max_box < self.image_size):
            raise ConfigError("box size range must fit inside the image")
        if not (1 <= self.min_objects <= self.max_objects):
            raise ConfigError("object count range invalid (at least one object per sample)")
        if not (0.0 < self.min_proposal_iou < 1.0):
            raise ConfigError("min_proposal_iou must lie in (0, 1)")


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


def uniform_map(low: float, high: float) -> tuple[float, float]:
    """(low, span) such that `low + span * u`, for a `Generator.random` draw
    u, is bit for bit the draw `Generator.uniform(low, high)` would give.

    NumPy's `uniform` computes `low + (high - low) * next_double`: one
    subtraction up front, then a multiply and an add per draw, the same float
    operations on Python floats and on float64 arrays alike. So `random(n)`,
    mapped, gives the draws of `uniform(low, high, n)`, and costs half of it
    on 4 values. `_random_box`, the jitter tries of `generate_domain` and
    `expert.expert_predict` draw their uniforms this way.
    """
    low = float(low)
    return low, float(high) - low


def _random_box(rng: np.random.Generator, side: tuple[float, float],
                image_size: float) -> list[float]:
    # one `random(4)` gives the draws of four `uniform` calls: w and h from
    # `side`, the `uniform_map` of the box size range, then x1 and y1 from
    # `uniform(0, image_size - w)`, whose `0.0 + s * u` is `s * u`
    u_w, u_h, u_x, u_y = rng.random(4).tolist()
    low, span = side
    w = low + span * u_w
    h = low + span * u_h
    x1 = (image_size - w) * u_x
    y1 = (image_size - h) * u_y
    return [x1, y1, x1 + w, y1 + h]


def _jittered_proposal(box: list[float], rng: np.random.Generator,
                       jitter: tuple[float, float], min_iou: float) -> list[float]:
    # Retry until the proposal keeps IoU above the detectability floor; the GT
    # box itself is the fallback, so the floor always holds. Each try is one
    # `random(4)`, mapped by `jitter`, the `uniform_map` of (-box_jitter,
    # box_jitter). The IoU is `box_iou(cand, box)` on floats, operation for
    # operation.
    x1, y1, x2, y2 = box
    w, h = x2 - x1, y2 - y1
    area = w * h
    low, span = jitter
    for _ in range(20):
        u1, u2, u3, u4 = rng.random(4).tolist()
        c1 = x1 + (low + span * u1) * w
        c2 = y1 + (low + span * u2) * h
        c3 = x2 + (low + span * u3) * w
        c4 = y2 + (low + span * u4) * h
        if c1 >= c3 or c2 >= c4:
            continue
        iw = min(c3, x2) - max(c1, x1)
        ih = min(c4, y2) - max(c2, y1)
        if iw > 0.0 and ih > 0.0:
            inter = iw * ih
            if inter / ((c3 - c1) * (c4 - c2) + area - inter) > min_iou:
                return [c1, c2, c3, c4]
    return box


def generate_domain(spec: DomainSpec, seed: int) -> list[DetectionSample]:
    """Draw a full dataset; a pure function of (spec, seed).

    Every output depends on the order of the draws from the one Generator.
    Per sample, in turn:
    - the object count G, `integers(min_objects, max_objects + 1)`;
    - the G classes, `random(G)` through the frequency CDF, as
      `Generator.choice` with `p` does;
    - per object: its box, `random(4)` (w, h, x1, y1); its feature noise,
      `standard_normal(D)`; then its proposal's jitter tries, one
      `random(4)` each, mapped as `uniform(-box_jitter, box_jitter, 4)`
      (`uniform_map`), up to 20;
    - the background count, `poisson(background_rate)`;
    - per background proposal: its box, `random(4)`; its feature noise,
      `standard_normal(D)`.

    The draws are made sample by sample, but the arrays are built a block of
    `_BLOCK` samples at a time: one array each of the block's proposal boxes,
    ground-truth boxes and noise rows, one CDF search for all its classes and
    one feature computation. Each sample's arrays are contiguous slices of
    its block's buffers (see `DetectionSample`); its classes are a slice of
    the block's object classes alone, so they keep no background entry
    alive. The bytes equal a build sample by sample, and the transient
    memory is one block's, not the domain's.
    """
    spec.validate()
    rng = np.random.default_rng(seed)
    cdf = spec.frequency.cumsum()
    cdf /= cdf[-1]
    # row c of the feature centers and scales is class c's; row C is the background's
    means = np.vstack((spec.class_means, spec.background_mean))
    scales = np.append(spec.class_covs, spec.background_cov)
    side = uniform_map(spec.min_box, spec.max_box)
    jitter = uniform_map(-spec.box_jitter, spec.box_jitter)
    image_size, min_iou = float(spec.image_size), float(spec.min_proposal_iou)
    objects = (spec.min_objects, spec.max_objects + 1)
    dim, rate = spec.feature_dim, spec.background_rate
    samples = []
    for start in range(0, spec.size, _BLOCK):
        # per proposal row: the class draw of an object's row, and for a
        # background row a value above the CDF, which finds row C
        draws, boxes, gt_boxes, noise, counts = [], [], [], [], []
        for _ in range(start, min(start + _BLOCK, spec.size)):
            n_obj = int(rng.integers(*objects))
            draws += rng.random(n_obj).tolist()
            for _ in range(n_obj):
                box = _random_box(rng, side, image_size)
                noise.append(rng.standard_normal(dim))
                gt_boxes.append(box)
                boxes.append(_jittered_proposal(box, rng, jitter, min_iou))
            n_background = int(rng.poisson(rate))
            draws += [math.inf] * n_background
            for _ in range(n_background):
                boxes.append(_random_box(rng, side, image_size))
                noise.append(rng.standard_normal(dim))
            counts.append((n_obj, n_obj + n_background))
        rows = cdf.searchsorted(draws, side="right")
        boxes, gt_boxes = np.array(boxes), np.array(gt_boxes)
        feats = means[rows] + scales[rows][:, None] * np.array(noise)
        # the object rows' classes in a buffer of their own, which holds no background row
        gt_classes = rows[np.isfinite(draws)]
        p = g = 0
        for sample_id, (n_obj, n_rows) in enumerate(counts, start):
            samples.append(DetectionSample(sample_id, boxes[p:p + n_rows], feats[p:p + n_rows],
                                           gt_boxes[g:g + n_obj], gt_classes[g:g + n_obj]))
            p, g = p + n_rows, g + n_obj
    return samples


def dataset_to_dict(spec: DomainSpec, samples: list[DetectionSample]) -> dict:
    """JSON-ready dataset document with stable field order."""
    docs = []
    for s in samples:
        proposals = np.hstack((s.proposal_boxes, s.proposal_features)).tolist()
        objects = [[*box, int(c)] for box, c in zip(s.gt_boxes.tolist(), s.gt_classes.tolist())]
        docs.append({"id": s.id, "proposals": proposals, "objects": objects})
    return {"spec": to_json(spec), "samples": docs}


def save_dataset(path, spec: DomainSpec, samples: list[DetectionSample]) -> None:
    write_atomic(path, json.dumps(dataset_to_dict(spec, samples)))


def load_dataset(path) -> tuple[DomainSpec, list[DetectionSample]]:
    """Load a saved dataset, checking its spec and every sample against it.

    Raises `ConfigError` on a document or sample record that is not a JSON
    object with its keys ("spec", "samples"; "id", "proposals", "objects";
    the last of each a list), a spec that `from_json` or `validate` rejects
    or whose `size` is not the sample count, a sample id that is not a JSON
    integer or that repeats, a sample without proposals, a proposal row not
    a list of 4 + `spec.feature_dim` finite numbers, an object row not a
    list of 5 values (box, class), an object class not an integer in
    [0, `spec.num_classes`), and a ground-truth box not 4 numbers, finite
    with x1 < x2 and y1 < y2. A number is a JSON number, never a bool or a
    string (`util.number_array`). The file stores no object features: in
    a generated sample they are the first G proposal rows (see
    `DetectionSample`).
    """
    with open(path) as fh:
        doc = json.load(fh)
    spec = from_json(DomainSpec, _field(doc, "spec", "the dataset"), "dataset spec")
    spec.validate()
    records = _field(doc, "samples", "the dataset", list)
    if spec.size != len(records):
        raise ConfigError(f"spec size {spec.size} but {len(records)} samples")
    width = 4 + spec.feature_dim
    samples, ids = [], set()
    for index, rec in enumerate(records):
        sample_id = _field(rec, "id", f"sample record {index}")
        # `type` is exact: a JSON true loads as a bool, which is also an int
        if type(sample_id) is not int:
            raise ConfigError(f"sample id {sample_id!r} is not an integer")
        if sample_id in ids:
            raise ConfigError(f"sample id {sample_id} repeats")
        ids.add(sample_id)
        proposals = _field(rec, "proposals", f"sample {sample_id}", list)
        objects = _field(rec, "objects", f"sample {sample_id}", list)
        if not proposals:
            raise ConfigError(f"no proposals in sample {sample_id}")
        if any(not isinstance(row, list) or len(row) != width for row in proposals):
            raise ConfigError(f"proposal row not {width} values wide in sample {sample_id}")
        rows = number_array(proposals, f"proposal rows of sample {sample_id}")
        if not np.isfinite(rows).all():
            raise ConfigError(f"proposal row not finite in sample {sample_id}")
        if any(not isinstance(obj, list) or len(obj) != 5 for obj in objects):
            raise ConfigError(f"object row not 5 values (box, class) in sample {sample_id}")
        gt_boxes = number_array([obj[:4] for obj in objects],
                                f"ground-truth boxes of sample {sample_id}").reshape(-1, 4)
        if not (np.isfinite(gt_boxes).all() and (gt_boxes[:, :2] < gt_boxes[:, 2:]).all()):
            raise ConfigError(f"invalid ground-truth box in sample {sample_id}")
        classes = [obj[4] for obj in objects]
        if not all(type(c) is int and 0 <= c < spec.num_classes for c in classes):
            raise ConfigError(f"object class not an integer in [0, {spec.num_classes}) "
                              f"in sample {sample_id}")
        gt_classes = np.array(classes, dtype=int)
        samples.append(DetectionSample(sample_id, rows[:, :4], rows[:, 4:],
                                       gt_boxes, gt_classes))
    return spec, samples


def _field(record, key: str, where: str, kind=object):
    """record[key], of type `kind`; `ConfigError` unless `where`, the record,
    is a JSON object with that key."""
    if not isinstance(record, dict) or key not in record:
        raise ConfigError(f"{where} has no {key!r} key")
    if not isinstance(record[key], kind):
        raise ConfigError(f"{key!r} of {where} is not a {kind.__name__}")
    return record[key]
