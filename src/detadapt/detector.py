"""Toy detector: per-proposal linear softmax classifier plus box refinement head.

The model is linear in the input features so every gradient below is derived by
hand and checked against finite differences. Class index C (the last logit) is
the background class. `Scored` is the one forward pass, over a block's packed
rows (`pack`); a sample alone is a block of one. A loss term has one type,
`LossLayout`, and one builder, `loss_layout`, which lays out a block's
`Labels` on its packed boxes and offsets: labels that are free boxes (ground
truth, the expert's) are matched to their highest-IoU proposals
(`match_labels`), while a pseudo-label comes with the pass row it was read
from as its match. One kernel, `supervised_losses`, computes every sample's
losses and the block's summed gradients from a pass and a layout. The layout
holds every array the kernel needs that does not read the model (pass rows,
the flat cells that one `np.bincount` per head adds the rows' gradients
into, GIoU target corners and areas, segment ids and offsets), so a training
step does only the work that depends on the model: one forward pass, the
kernel's gathers and arithmetic, and one op on each model's `flat` buffer
per update (`sgd_step`, `teacher.ema_update`). A term whose labels do not
change, pretraining's ground truth or adaptation's expert labels, is matched
and laid out once per run; each epoch takes its samples in shuffle order
(`LossLayout.take`), and each batch cuts its own out of that
(`LossLayout.cut`). The losses equal those of a per-label loop bit for bit,
and so do the gradients of a block of one; a larger block's gradients are
one product over its rows, equal to the in-order sum of its samples'
gradients up to rounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .util import ConfigError, check_offsets, from_json, to_json, write_atomic
from .world import BBox, DetectionSample, box_iou, boxes_from_raw


# row-passes (proposal rows times passes) per packed forward of the partition
# and the evaluation: about 80 default-world samples per 10-pass split block,
# about 800 per evaluation block. A split block's traced peak is about 6 x
# BLOCK_ROWS x D x 8 bytes (3.1 MB on the 500-sample default target set), and
# it sets the CLI adapt run's peak RSS: 42.5 MiB, against 40.6 MiB with blocks
# of 32 samples
BLOCK_ROWS = 4096
INIT_SCALE = 0.01  # standard deviation of `ModelParams.init`'s normal draws


class TrainingError(RuntimeError):
    """Raised when optimization produces non-finite values."""


# the heads' four arrays, laid end to end in this order in a `flat` buffer
_ARRAYS = ("w_cls", "b_cls", "w_reg", "b_reg")


def _spans(shapes) -> tuple:
    """Each array's (slice, shape) in a flat buffer of arrays of `shapes` laid end to end."""
    spans, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        spans.append((slice(start, stop), shape))
        start = stop
    return tuple(spans)


class _FlatArrays:
    """Base of `ModelParams` and `GradientSet`: their four arrays w_cls,
    b_cls, w_reg and b_reg are views of one contiguous float64 vector,
    `flat`, laid end to end in that order, so an op on all four is one op on
    `flat`. Built from four arrays, a set copies them into a new buffer;
    built on a buffer (`_of`), it makes the four views on first use, so a
    step's intermediate gradients, read only as `flat`, make none."""

    def _pack(self) -> None:
        arrays = [np.asarray(getattr(self, name), dtype=float) for name in _ARRAYS]
        self.flat = np.concatenate([a.ravel() for a in arrays])
        self._spans = _spans(a.shape for a in arrays)
        self._view()

    def _view(self) -> None:
        self.w_cls, self.b_cls, self.w_reg, self.b_reg = (
            self.flat[cut].reshape(shape) for cut, shape in self._spans)

    def __getattr__(self, name):
        # called only for an attribute not set: an array of a set built by
        # `_of`, copied or unpickled
        if name not in _ARRAYS or "flat" not in self.__dict__:
            raise AttributeError(name)
        self._view()
        return self.__dict__[name]

    def __getstate__(self):
        # a copy or pickle leaves the views out, so they view its own `flat`
        return {key: value for key, value in self.__dict__.items() if key not in _ARRAYS}

    @classmethod
    def _of(cls, flat: np.ndarray, spans, **scalars):
        """A set on the buffer `flat`, its arrays at `spans` (`_spans`), with
        its scalar fields `scalars`."""
        new = object.__new__(cls)
        new.__dict__.update(scalars, flat=flat, _spans=spans)
        return new


@dataclass
class ModelParams(_FlatArrays):
    """Weights of the classifier and regressor heads.

    w_cls: (C+1, D), b_cls: (C+1,), w_reg: (4, D), b_reg: (4,), each a view
    of `flat`, their (C+1)(D+1) + 4(D+1) values in that order. Fields and
    JSON form are the four arrays and the dropout rate.
    """

    w_cls: np.ndarray
    b_cls: np.ndarray
    w_reg: np.ndarray
    b_reg: np.ndarray
    dropout_rate: float

    def __post_init__(self):
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        self._pack()
        self._check()

    def _check(self) -> None:
        if not np.isfinite(self.flat).all():
            raise ValueError("non-finite parameter values")

    @property
    def num_classes(self) -> int:
        return self.w_cls.shape[0] - 1

    @property
    def feature_dim(self) -> int:
        return self.w_cls.shape[1]

    @classmethod
    def init(cls, num_classes: int, feature_dim: int, rng: np.random.Generator,
             dropout_rate: float) -> "ModelParams":
        """Heads of normal draws, standard deviation `INIT_SCALE`, at `dropout_rate`."""
        return cls(
            w_cls=INIT_SCALE * rng.standard_normal((num_classes + 1, feature_dim)),
            b_cls=INIT_SCALE * rng.standard_normal(num_classes + 1),
            w_reg=INIT_SCALE * rng.standard_normal((4, feature_dim)),
            b_reg=INIT_SCALE * rng.standard_normal(4),
            dropout_rate=dropout_rate,
        )

    def with_flat(self, flat: np.ndarray) -> "ModelParams":
        """A model of these shapes and dropout rate on the buffer `flat`, one
        float64 value per entry of `self.flat`; `ValueError` if one is not finite."""
        if flat.shape != self.flat.shape:
            raise ValueError(f"a buffer of shape {flat.shape}, not {self.flat.shape}")
        params = self._of(flat, self._spans, dropout_rate=self.dropout_rate)
        params._check()
        return params

    def copy(self) -> "ModelParams":
        return self.with_flat(self.flat.copy())


def save_params(path, params: ModelParams) -> None:
    write_atomic(path, json.dumps(to_json(params)))


def load_params(path) -> ModelParams:
    """Saved weights (`util.from_json`); `ConfigError` unless their shapes
    are (C+1, D), (C+1,), (4, D), (4,) with C, D >= 1."""
    with open(path) as fh:
        params = from_json(ModelParams, json.load(fh), "params")
    shape = params.w_cls.shape
    if len(shape) != 2 or shape[0] < 2 or shape[1] < 1:
        raise ConfigError(f"w_cls has shape {shape}, not (C+1, D) with C, D >= 1")
    for name, want in (("b_cls", shape[:1]), ("w_reg", (4, shape[1])), ("b_reg", (4,))):
        got = getattr(params, name).shape
        if got != want:
            raise ConfigError(f"{name} has shape {got}, not {want}")
    return params


@dataclass
class Detection:
    """Per-proposal output: refined box, full score vector, foreground argmax."""

    proposal_index: int
    box: BBox
    scores: np.ndarray  # (C+1,), softmax
    class_id: int       # argmax over foreground classes, ties to the lower id
    score: float        # max foreground score


@dataclass
class GradientSet(_FlatArrays):
    """Gradients matching ModelParams shapes, plus the loss they came from.

    The four arrays are views of `flat`, laid out as `ModelParams.flat`, so
    scaling, adding and checking a set are one op each."""

    w_cls: np.ndarray
    b_cls: np.ndarray
    w_reg: np.ndarray
    b_reg: np.ndarray
    loss: float = 0.0

    def __post_init__(self):
        self._pack()

    def scaled(self, factor: float) -> "GradientSet":
        return self._of(factor * self.flat, self._spans, loss=factor * self.loss)

    def __add__(self, other: "GradientSet") -> "GradientSet":
        return self._of(self.flat + other.flat, self._spans, loss=self.loss + other.loss)

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all() and np.isfinite(self.loss))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis. With 2 to 7 entries the max and the
    exp-sum run a column at a time, each op over all rows: `np.sum` adds
    fewer than 8 terms in column order, so the bits are those of `.max` and
    `.sum` over the axis. That form is kept for 8 on, which it adds pairwise.
    """
    k = logits.shape[-1]
    if not 2 <= k < 8:
        z = logits - logits.max(axis=-1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    top = np.maximum(logits[..., 0], logits[..., 1])
    for j in range(2, k):
        np.maximum(top, logits[..., j], out=top)
    z = logits - top[..., None]
    e = np.exp(z)
    total = e[..., 0] + e[..., 1]
    for j in range(2, k):
        total += e[..., j]
    return z - np.log(total)[..., None]


def _heads(params: ModelParams, h: np.ndarray, proposal_boxes: np.ndarray, single):
    """Both heads over the rows of h, (rows, D) or a stack of passes (M, rows, D).

    Every op acts per pass and per row, so a row's outputs do not depend on the
    block it is packed in, with one exception that `single` handles: BLAS takes
    a one-row product through a matrix-vector kernel whose last bits differ
    from the matrix-matrix one. `single` lists the rows of one-proposal samples
    in a block; their products are redone one row at a time, so a one-proposal
    sample scores the same alone and among others. `log_softmax` and
    `boxes_from_raw` run a column at a time, each NumPy call over all rows.
    """
    logits = h @ params.w_cls.T
    deltas = h @ params.w_reg.T
    if len(single):
        for out, w in ((logits, params.w_cls), (deltas, params.w_reg)):
            out[..., single, :] = (h[..., single, None, :] @ w.T)[..., 0, :]
    log_scores = log_softmax(logits + params.b_cls)
    return h, log_scores, np.exp(log_scores), proposal_boxes + (deltas + params.b_reg)


class Scored:
    """One forward pass of a model on a block of samples, as arrays.

    It takes a block's packed rows (`pack`): proposal `features`, (rows, D),
    or a view of them such as a strong one, proposal `boxes`, (rows, 4), and
    `offsets`, sample i owning rows `offsets[i]:offsets[i + 1]`; a sample
    alone is `pack([sample])`. The heads run once over the rows. Holds the
    outputs (h, log_scores, scores, refined), h being the (possibly dropped)
    features, the row count `num_proposals` and the `offsets`; a sample's
    rows equal bit for bit those of its own block of one.

    With a Generator `rng` the outputs are stacks of `passes` dropout passes,
    (M, rows, ...). The block's masks come from one `rng.random` draw of
    M * rows * D uniforms, laid out sample by sample: sample i's (M, P_i, D)
    draws, in pass, row and feature order, then sample i + 1's. So a block's
    masks are the draws its samples would make one block of one at a time, in
    block order, from the same Generator, and `np.take` gathers them in pass
    order. A model without dropout draws nothing. Inverted dropout scales
    retained activations by 1/(1-p), so inference (no `rng`) needs no
    rescaling; x / (1-p) times the 0/1 mask has the bits of x * mask / (1-p)
    wherever x / (1-p) is finite. The foreground argmax class and
    score and the valid refined boxes of a one-pass block are derived on first
    use, so a caller that needs only the loss pays for none of them.
    """

    def __init__(self, params: ModelParams, features: np.ndarray, boxes: np.ndarray,
                 offsets: np.ndarray, rng: np.random.Generator | None = None, passes: int = 1):
        counts = offsets[1:] - offsets[:-1]
        if features.shape != (offsets[-1], params.feature_dim) or boxes.shape != (offsets[-1], 4):
            raise ValueError(f"feature rows {features.shape} and box rows {boxes.shape} for "
                             f"{offsets[-1]} proposals and model dim {params.feature_dim}")
        h = features
        if rng is not None:
            rate = params.dropout_rate
            h = np.broadcast_to(features, (passes,) + features.shape)
            if rate > 0.0:
                # block row r of sample i (rows a_i:a_i + P_i) reads draw row
                # M * a_i + m * P_i + (r - a_i) in pass m
                start, size = np.repeat(offsets[:-1], counts), np.repeat(counts, counts)
                order = ((passes - 1) * start + np.arange(len(features))
                         + np.arange(passes)[:, None] * size)
                # the gathered uniforms become the dropped features in place
                h = np.take(rng.random((passes * len(features), features.shape[1])), order, axis=0)
                np.multiply(features / (1.0 - rate), h >= rate, out=h)
        single = offsets[:-1][counts == 1]
        self.num_classes = params.num_classes
        self.offsets, self.num_proposals = offsets, int(offsets[-1])
        self.h, self.log_scores, self.scores, self.refined = _heads(params, h, boxes, single)

    @cached_property
    def class_ids(self) -> np.ndarray:
        """(P,) argmax over foreground classes, ties to the lower id."""
        return self.scores[:, :self.num_classes].argmax(axis=1)

    @cached_property
    def fg_scores(self) -> np.ndarray:
        """(P,) max foreground score."""
        return self.scores[np.arange(len(self.scores)), self.class_ids]

    @cached_property
    def boxes(self) -> np.ndarray:
        """(P, 4) refined boxes made valid (`boxes_from_raw`): each box's
        corners put in order, and a side shorter than `MIN_BOX_SIZE` padded to it."""
        return boxes_from_raw(self.refined)


def pack(samples: list[DetectionSample], counts: np.ndarray | None = None):
    """`Scored`'s input for a block of samples: their proposal features and boxes
    laid end to end, and their rows' offsets by `counts`, read from them if not given."""
    counts = np.array([s.num_proposals for s in samples], dtype=int) if counts is None else counts
    return (np.concatenate([s.proposal_features for s in samples] or [np.zeros((0, 0))]),
            np.concatenate([s.proposal_boxes for s in samples] or [np.zeros((0, 4))]),
            np.concatenate(([0], np.cumsum(counts, dtype=int))))


def blocks(offsets: np.ndarray, passes: int = 1) -> list[tuple[int, int]]:
    """(start, stop) sample ranges of the packed scoring calls over samples
    whose rows are `offsets[i]:offsets[i + 1]`: from each start, the longest
    run whose rows times `passes` fit `BLOCK_ROWS`, and at least one sample.
    """
    room = BLOCK_ROWS // passes
    bounds, start, n = [], 0, len(offsets) - 1
    while start < n:
        stop = int(np.searchsorted(offsets, offsets[start] + room, side="right")) - 1
        stop = max(stop, start + 1)
        bounds.append((start, stop))
        start = stop
    return bounds


def forward_arrays(params: ModelParams, sample: DetectionSample):
    """(h, log_scores, scores, refined) of one sample, without dropout: the
    arrays of its block of one, `Scored(params, *pack([sample]))`."""
    scored = Scored(params, *pack([sample]))
    return scored.h, scored.log_scores, scored.scores, scored.refined


def forward(params: ModelParams, sample: DetectionSample) -> list[Detection]:
    """One Detection per proposal, in proposal order.

    The object view of `Scored(params, *pack([sample]))`: its boxes, classes
    and scores, one `Detection` each, for callers that want objects.
    Training, the partition and evaluation work on the arrays and build none.
    """
    scored = Scored(params, *pack([sample]))
    boxes = scored.boxes.tolist()
    class_ids = scored.class_ids.tolist()
    fg_scores = scored.fg_scores.tolist()
    return [Detection(j, BBox(*boxes[j]), scored.scores[j], class_ids[j], fg_scores[j])
            for j in range(len(boxes))]


def _max(a, b):
    """Python's `max(a, b)` elementwise, so NaN and signed zeros resolve alike."""
    return np.where(b > a, b, a)


def giou_target(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`giou_and_grad`'s form of (L, 4) valid target boxes: their (L, 4)
    [x1, y1, -x2, -y2] corners (negation is exact) and (L,) areas."""
    corners = np.negative(boxes)
    corners[:, :2] = boxes[:, :2]
    sides = boxes[:, 2:] - boxes[:, :2]
    return corners, sides[:, 0] * sides[:, 1]


def giou_and_grad(pred: np.ndarray, target: np.ndarray,
                  target_area: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GIoU of (L, 4) predicted boxes, possibly degenerate, against valid
    targets given as `giou_target` gives them: corners and areas.

    Returns the (L,) values, in (-1, 1], and their (L, 4) subgradients in the
    predicted coordinates. Widths are clamped at zero so the value stays
    defined for arbitrary predicted coordinates. Squares go through
    `float_power`, as a float64 scalar's `** 2` does; `x * x` rounds differently.
    The predicted box, intersection and enclosure are one preallocated
    (3, L, 4) stack of [lo, -hi] corners, the last two Python's `max` and
    `min` of the first and the target's by `np.copyto` (NaN and signed zeros
    resolve alike), so each step is one op for all three.
    """
    corners = np.empty((3,) + pred.shape)
    p = corners[0]
    np.negative(pred, out=p)
    p[:, :2] = pred[:, :2]
    corners[1:] = p
    np.copyto(corners[1], target, where=target > p)
    np.copyto(corners[2], target, where=target < p)
    sides = -corners[..., 2:] - corners[..., :2]
    sides[:2] = _max(sides[:2], 0.0)
    # a side moves an area at the corners of a non-empty predicted box or
    # intersection that the target does not bound, and of an enclosure's
    positive = sides[:2] > 0
    moves = np.empty(corners.shape, dtype=bool)
    moves[0, :, :2] = moves[0, :, 2:] = positive[0]
    np.greater_equal(p, target, out=moves[1])
    moves[1] &= positive[1].all(axis=1, keepdims=True)
    np.less_equal(p, target, out=moves[2])
    # a corner's side derivatives: -height, -width at lo, height, width at hi
    d_sides = np.empty(corners.shape)
    np.negative(sides[..., ::-1], out=d_sides[..., :2])
    d_sides[..., 2:] = sides[..., ::-1]
    d_area, d_inter, d_enc = np.where(moves, d_sides, 0.0)
    area_p, inter, enclosure = sides[..., 0] * sides[..., 1]
    union = area_p + target_area - inter
    d_union = d_area - d_inter
    value = inter / union - (enclosure - union) / enclosure
    union, inter, enclosure = union[:, None], inter[:, None], enclosure[:, None]
    grad = np.zeros(pred.shape)
    grad += (d_inter * union - inter * d_union) / np.float_power(union, 2)
    grad += (d_union * enclosure - union * d_enc) / np.float_power(enclosure, 2)
    return value, grad


def smooth_l1(diff: np.ndarray) -> np.ndarray:
    """Huber loss with unit threshold: quadratic below |diff| = 1, linear above."""
    d = np.abs(diff)
    return np.where(d < 1.0, 0.5 * diff * diff, d - 0.5)


def smooth_l1_grad(diff: np.ndarray) -> np.ndarray:
    return np.where(np.abs(diff) < 1.0, diff, np.sign(diff))


def match_labels(proposal_boxes: np.ndarray, label_boxes: np.ndarray,
                 offsets, label_offsets) -> np.ndarray:
    """Each label's highest-IoU proposal of its own sample; ties resolve to the
    lowest index, a NaN IoU counts as no overlap, and a label overlapping
    none gets its sample's first row.

    A block: sample i owns proposal rows offsets[i]:offsets[i + 1] and label
    rows label_offsets[i]:label_offsets[i + 1] (a sample alone has offsets
    [0, P] and [0, n]). Returns block rows. Each label's IoU is taken against
    its own sample's rows alone, so memory grows with the pairs, not with the
    block squared, and a sample matches as it does in its block of one.
    Each offset array must rise from 0 to its box count (`check_offsets`),
    and both must have one entry per sample and one more.
    """
    proposal_boxes = np.reshape(proposal_boxes, (-1, 4))
    label_boxes = np.reshape(label_boxes, (-1, 4))
    offsets = np.array(offsets, dtype=int)
    label_offsets = np.array(label_offsets, dtype=int)
    check_offsets(offsets, len(proposal_boxes))
    check_offsets(label_offsets, len(label_boxes))
    if len(offsets) != len(label_offsets):
        raise ValueError(f"offsets of {len(offsets) - 1} and {len(label_offsets) - 1} samples")
    if len(label_boxes) == 0:
        return np.zeros(0, dtype=int)
    sample_of = np.arange(len(offsets) - 1).repeat(label_offsets[1:] - label_offsets[:-1])
    start, counts = offsets[sample_of], (offsets[1:] - offsets[:-1])[sample_of]
    if counts.min() < 1:
        raise ValueError("a label's sample has no proposals")
    # one (label, proposal) pair per label and proposal of its sample, label by label
    first = np.concatenate(([0], counts.cumsum()[:-1]))
    label = np.arange(len(counts)).repeat(counts)
    local = np.arange(counts.sum()) - first[label]
    iou = box_iou(label_boxes[label], proposal_boxes[start[label] + local])
    iou[np.isnan(iou)] = 0.0  # no overlap: inf - inf in the union of two huge boxes
    best = np.maximum.reduceat(iou, first)
    return start + np.minimum.reduceat(np.where(iou == best[label], local, counts[label]), first)


def segment_rows(offsets: np.ndarray, picks) -> tuple[np.ndarray, np.ndarray]:
    """Rows of segments `picks` of a packed array, segment i being rows
    offsets[i]:offsets[i + 1], in pick order, and the picked segments' offsets."""
    picks = np.asarray(picks, dtype=int)
    starts, lengths = offsets[picks], offsets[picks + 1] - offsets[picks]
    out = np.concatenate(([0], np.cumsum(lengths, dtype=int)))
    return np.arange(out[-1]) + np.repeat(starts - out[:-1], lengths), out


class Labels:
    """A block's label sets as arrays: (n, 4) boxes and (n, C) class vectors.

    Sample i's labels are rows offsets[i]:offsets[i + 1]; without offsets the
    n labels are one sample's. Class vectors are over the C foreground classes
    and may be soft. Labels have their label count as length and iterate as
    (box, class_vec) rows.
    """

    def __init__(self, boxes: np.ndarray, classes: np.ndarray, offsets=None):
        self.boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
        self.classes = np.asarray(classes, dtype=float)
        self.offsets = np.array([0, len(self.boxes)] if offsets is None else offsets, dtype=int)

    @classmethod
    def one_hot(cls, boxes, class_ids, num_classes: int, offsets=None) -> "Labels":
        """Hard labels: each class id becomes a one-hot class vector."""
        return cls(boxes, np.eye(num_classes)[np.asarray(class_ids, dtype=int)], offsets)

    @classmethod
    def pack(cls, label_sets, num_classes: int) -> "Labels":
        """Consecutive samples' label sets, one each, as one block of (n, num_classes) classes."""
        label_sets = list(label_sets)
        return cls(np.concatenate([s.boxes for s in label_sets] + [np.zeros((0, 4))]),
                   np.concatenate([s.classes for s in label_sets] + [np.zeros((0, num_classes))]),
                   np.cumsum([0] + [len(s) for s in label_sets]))

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        return zip(self.boxes, self.classes)


class LossLayout(NamedTuple):
    """One loss term on a block of n samples and P pass rows, built by
    `loss_layout`: every array that `supervised_losses` reads and that does
    not depend on the model. Segment i is sample i, and cell row * width +
    column is that entry of the flattened gradient rows, of width C + 1 for
    the logits and 4 for the boxes. The cross-entropy (CE) rows run sample
    by sample, labels, then background; an expert term has no background
    rows, so its CE rows are its labels, in label order, and its `ce_weight`
    the labels' weights. Offsets count each segment's CE rows and labels,
    and the kernel derives its divisors from them: a segment's mean is the
    `np.bincount` of its rows' terms over the segment ids, over its row
    count (at least 1), and the logit gradients are normalised by their
    segment's CE row count. A gradient row is the `np.bincount` of its
    entries over their cells: the bins add each segment's terms, or each
    row's entries, in order, as a loop's running sum does, but from 0.0, so
    -0.0 terms alone sum to +0.0.

    Every field is a gather of per-label or per-row values or integer
    arithmetic on rows and offsets, so a layout's samples can be taken in
    any order (`take`) or cut as a run (`cut`) with the bits of the layout
    built on those samples alone."""

    offsets: np.ndarray        # (n + 1,) the pass's sample offsets
    ce_cells: np.ndarray       # (r * (C + 1),) each CE row's entries' cells, row by row
    ce_rows: np.ndarray        # (r,) its pass row
    ce_target: np.ndarray      # (r, C + 1) its target: a class vector or the background
    ce_weight: np.ndarray      # (r,) its weight
    ce_segment: np.ndarray     # (r,) its segment
    ce_offsets: np.ndarray     # (n + 1,) the segments' CE rows
    label_cells: np.ndarray    # (l * 4,) the cells of each label's proposal's box entries
    label_rows: np.ndarray     # (l,) its pass row
    label_boxes: np.ndarray    # (l, 4) its box
    label_corners: np.ndarray  # (l, 4) the box's corners, as `giou_target` gives them
    label_area: np.ndarray     # (l,) the box's area
    label_segment: np.ndarray  # (l,) its segment
    label_offsets: np.ndarray  # (n + 1,) the segments' labels
    expert: tuple | None       # the expert term's (cls_weight, reg_weight), or None

    def take(self, picks) -> "LossLayout":
        """Samples `picks`, in that order, as a block: each sample's CE rows
        and labels gathered, their pass rows moved to the sample's new rows,
        and cells, segments and offsets rebuilt. The layout that
        `loss_layout` gives on those samples packed in that order."""
        _, offsets = segment_rows(self.offsets, picks)
        ce, ce_offsets = segment_rows(self.ce_offsets, picks)
        labs, label_offsets = segment_rows(self.label_offsets, picks)
        # each picked sample's shift from its old first pass row to its new one
        shift = offsets[:-1] - self.offsets[np.asarray(picks, dtype=int)]
        ce_segment, label_segment = (np.arange(len(shift)).repeat(o[1:] - o[:-1])
                                     for o in (ce_offsets, label_offsets))
        ce_rows = self.ce_rows[ce] + shift[ce_segment]
        label_rows = self.label_rows[labs] + shift[label_segment]
        return LossLayout(offsets, _cells(ce_rows, self.ce_target.shape[1]), ce_rows,
                          self.ce_target[ce], self.ce_weight[ce], ce_segment, ce_offsets,
                          _cells(label_rows, 4), label_rows, self.label_boxes[labs],
                          self.label_corners[labs], self.label_area[labs], label_segment,
                          label_offsets, self.expert)

    def cut(self, a: int, b: int) -> "LossLayout":
        """Samples a:b, each field a contiguous slice rebased to the cut's
        first row, cell and segment: the layout of those samples alone, field
        by field."""
        p, c, lab = self.offsets[a], self.ce_offsets[a], self.label_offsets[a]
        ce, labs = slice(c, self.ce_offsets[b]), slice(lab, self.label_offsets[b])
        width = self.ce_target.shape[1]
        return LossLayout(
            self.offsets[a:b + 1] - p, self.ce_cells[c * width:ce.stop * width] - p * width,
            self.ce_rows[ce] - p, self.ce_target[ce], self.ce_weight[ce],
            self.ce_segment[ce] - a, self.ce_offsets[a:b + 1] - c,
            self.label_cells[4 * lab:4 * labs.stop] - 4 * p, self.label_rows[labs] - p,
            self.label_boxes[labs], self.label_corners[labs], self.label_area[labs],
            self.label_segment[labs] - a, self.label_offsets[a:b + 1] - lab, self.expert)


def _cells(rows: np.ndarray, width: int) -> np.ndarray:
    """The flat cells of `rows`' entries in gradient rows of `width`, row by row."""
    return (rows[:, None] * width + np.arange(width)).ravel()


def loss_layout(boxes: np.ndarray, offsets: np.ndarray, labels: Labels,
                expert: tuple[float, float] | None, num_classes: int, weights=None,
                background="auto", matches: np.ndarray | None = None) -> LossLayout:
    """The `LossLayout` of one term: a block's labels, one label set per
    sample, on its packed proposal `boxes` and `offsets` (`pack`), sample i
    owning rows offsets[i]:offsets[i + 1]. Every index in is a block row.

    The term:
    - `expert` None gives the detection loss. Each background row adds a CE
      row toward the background class, with weight 1. CE averages over
      labels and background rows; smooth-L1 and (1 - GIoU) average over the
      labels.
    - `expert` = (cls_weight, reg_weight) gives the expert loss, with no
      GIoU: cls_weight times the mean CE plus reg_weight times the mean
      smooth-L1, both over the labels. The expert says nothing about
      background, so background rows raise `ValueError`; pass None.

    Each label supervises its match, its CE row weighted by its entry of
    `weights` (default 1). The matches:
    - None: each label's highest-IoU proposal of its own sample
      (`match_labels`), for labels that are free boxes;
    - rows of the block, one per label, each in its own label's sample, for
      labels read from a pass (a pseudo-label's row).

    `background` selects the unmatched rows that get a background target:
    - "auto": all of them;
    - None: none;
    - rows of the block (such as `background_indices` of the block's pass),
      kept in order and with their repeats within each sample, less the
      matched rows; each must lie in the block.

    A match outside its label's sample would supervise another sample's
    proposal, and a background row outside the block would wrap around it,
    so either raises `ValueError`, as do offsets that do not rise from 0 to
    the box or label count (`check_offsets`).
    """
    check_offsets(offsets, len(boxes))
    counts = offsets[1:] - offsets[:-1]
    if len(labels.offsets) != len(offsets):
        raise ValueError("labels must hold one label set per sample")
    check_offsets(labels.offsets, len(labels))
    if matches is None:
        matches = match_labels(boxes, labels.boxes, offsets, labels.offsets)
    matches = np.asarray(matches, dtype=int)
    weights = np.ones(len(labels)) if weights is None else np.asarray(weights, dtype=float)
    if weights.shape != (len(labels),) or matches.shape != (len(labels),):
        raise ValueError("weights and matches must align with labels")
    if isinstance(background, str):
        background = np.arange(offsets[-1])
    background = np.asarray([] if background is None else background, dtype=int)
    n_lab = labels.offsets[1:] - labels.offsets[:-1]
    segment = np.arange(len(counts))
    lab_of = segment.repeat(n_lab)
    local = matches - offsets[lab_of]
    if len(local) and (local.min() < 0 or (local >= counts[lab_of]).any()):
        raise ValueError("match index outside its label's sample")
    if len(background) and (background.min() < 0 or background.max() >= offsets[-1]):
        raise ValueError(f"background index outside the block [0, {offsets[-1]})")
    unmatched = np.ones(offsets[-1], dtype=bool)
    unmatched[matches] = False
    background = background[unmatched[background]]
    if expert is not None and len(background):
        raise ValueError("an expert term takes no background rows")
    bg_of = offsets.searchsorted(background, side="right") - 1
    # each sample's labels, then its background rows in the order given
    order = np.concatenate((lab_of, bg_of)).argsort(kind="stable")
    ce_rows = np.concatenate((matches, background))[order]
    target = np.zeros((len(order), num_classes + 1))
    target[:len(matches), :num_classes] = labels.classes
    target[len(matches):, num_classes] = 1.0
    n_ce = n_lab + np.bincount(bg_of, minlength=len(counts))
    corners, area = giou_target(labels.boxes)
    return LossLayout(offsets, _cells(ce_rows, num_classes + 1), ce_rows, target[order],
                      np.concatenate((weights, np.ones(len(background))))[order],
                      segment.repeat(n_ce), np.concatenate(([0], n_ce)).cumsum(),
                      _cells(matches, 4), matches, labels.boxes, corners, area, lab_of,
                      np.concatenate(([0], n_lab)).cumsum(), expert)


def _cell_sums(cells: np.ndarray, entries: np.ndarray, rows: int, width: int) -> np.ndarray:
    """(rows, width) sums of `entries` at their flat `cells`, each cell's in order from 0.0."""
    # the bins of no entries are integers, hence `astype`
    return np.bincount(cells, entries.ravel(), rows * width).astype(float, copy=False) \
        .reshape(rows, width)


def supervised_losses(scored: Scored, layout: LossLayout) -> tuple[np.ndarray, GradientSet]:
    """Each sample's supervised loss over a packed block and the block's
    exact gradients, summed over its samples, for the term of the block's
    `LossLayout`: the (n,) losses and one `GradientSet` (its `loss` their
    sum). A cut layout (`LossLayout.cut`) on its rows gives the bits of its
    samples alone. The kernel only gathers the model's outputs at the
    layout's rows and computes.

    Each sample's loss equals that of a loop over its labels bit for bit, in
    that loop's order, and so do per-row gradients (one `np.bincount` over
    the layout's cells per head adds repeated rows in order, from 0.0). The
    weight gradients are one product over the block: for a block of one the
    loop's own; for a larger one BLAS adds the samples in another order than
    a per-sample sum, so an entry may differ from that sum by rounding: under
    1e-15 of its largest entry in random blocks of 11.
    """
    n, size, width = len(layout.offsets) - 1, scored.num_proposals, scored.num_classes + 1
    if len(scored.offsets) != n + 1 or layout.offsets[-1] != size:
        raise ValueError("a layout of another block than the scored one")
    target, w, expert = layout.ce_target, layout.ce_weight, layout.expert
    # each segment's CE row and label counts, at least 1
    ce_divisor, label_divisor = (np.maximum(o[1:] - o[:-1], 1)
                                 for o in (layout.ce_offsets, layout.label_offsets))
    # a stack of (1, K) @ (K, 1) products is one BLAS dot per row, like `target @ row`
    ce = -w * (target[:, None, :] @ scored.log_scores[layout.ce_rows][:, :, None])[:, 0, 0]
    d_logits = _cell_sums(layout.ce_cells, w[:, None] * (scored.scores[layout.ce_rows] - target),
                          size, width)
    refined = scored.refined[layout.label_rows]
    diff = refined - layout.label_boxes
    box, d_box = smooth_l1(diff).sum(axis=1), smooth_l1_grad(diff)
    loss_cls = np.bincount(layout.ce_segment, ce, n) / ce_divisor
    loss_box = np.bincount(layout.label_segment, box, n) / label_divisor
    norm = ce_divisor.repeat(layout.offsets[1:] - layout.offsets[:-1])[:, None]
    # normalise as the loops did: detection divides box gradients by the label
    # count before adding up and CE rows after; the expert scales after adding up
    if expert is None:
        value, grad = giou_and_grad(refined, layout.label_corners, layout.label_area)
        d_box = (d_box - grad) / label_divisor[layout.label_segment, None]
        d_refined = _cell_sums(layout.label_cells, d_box, size, 4)
        d_logits /= norm
        loss_giou = np.bincount(layout.label_segment, 1.0 - value, n) / label_divisor
        losses = loss_box + loss_giou + loss_cls
    else:
        d_refined = _cell_sums(layout.label_cells, d_box, size, 4)
        d_logits *= expert[0] / norm
        d_refined *= expert[1] / norm
        losses = expert[0] * loss_cls + expert[1] * loss_box
    dim = scored.h.shape[-1]
    spans = _spans(((width, dim), (width,), (4, dim), (4,)))
    flat = np.empty((width + 4) * (dim + 1))
    w_cls, b_cls, w_reg, b_reg = (flat[cut].reshape(shape) for cut, shape in spans)
    np.matmul(d_logits.T, scored.h, out=w_cls)
    np.matmul(d_refined.T, scored.h, out=w_reg)
    np.add.reduce(d_logits, axis=0, out=b_cls)
    np.add.reduce(d_refined, axis=0, out=b_reg)
    return losses, GradientSet._of(flat, spans, loss=float(losses.sum()))


def detection_loss(params: ModelParams, sample: DetectionSample, labels: Labels,
                   weights=None, *, background="auto") -> tuple[float, GradientSet]:
    """Supervised detection loss on one sample and its exact gradients.

    Each label supervises its highest-IoU proposal; `background` works as in
    `loss_layout`. The one-sample case of `supervised_losses` on the
    detection term's `loss_layout`; a block of one gives the loop's bits.
    """
    scored = Scored(params, *pack([sample]))
    losses, grads = supervised_losses(scored, loss_layout(
        sample.proposal_boxes, scored.offsets, labels, None, params.num_classes, weights,
        background))
    return float(losses[0]), grads


def sgd_step(params: ModelParams, grads: GradientSet, lr: float) -> ModelParams:
    """One plain gradient-descent step, one op on the `flat` buffers; lr=0 or
    zero grads leave params unchanged."""
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    if not grads.is_finite():
        raise TrainingError("non-finite gradients")
    return params.with_flat(params.flat - lr * grads.flat)
