"""Toy detector: per-proposal linear softmax classifier plus box refinement head.

The model is linear in the input features so every gradient below is derived by
hand and checked against finite differences. Class index C (the last logit) is
the background class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .util import write_atomic
from .world import BBox, DetectionSample, box_array, boxes_from_raw, iou_matrix


# samples per packed forward in the partition and evaluation; a partition block
# holds M passes of them, and larger blocks raise the adapt run's peak memory
BLOCK_SAMPLES = 32


class TrainingError(RuntimeError):
    """Raised when optimization produces non-finite values."""


@dataclass
class ModelParams:
    """Weights of the classifier and regressor heads.

    w_cls: (C+1, D), b_cls: (C+1,), w_reg: (4, D), b_reg: (4,).
    """

    w_cls: np.ndarray
    b_cls: np.ndarray
    w_reg: np.ndarray
    b_reg: np.ndarray
    dropout_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        for arr in (self.w_cls, self.b_cls, self.w_reg, self.b_reg):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite parameter values")

    @property
    def num_classes(self) -> int:
        return self.w_cls.shape[0] - 1

    @property
    def feature_dim(self) -> int:
        return self.w_cls.shape[1]

    @classmethod
    def init(cls, num_classes: int, feature_dim: int, rng: np.random.Generator,
             scale: float = 0.01, dropout_rate: float = 0.0) -> "ModelParams":
        return cls(
            w_cls=scale * rng.standard_normal((num_classes + 1, feature_dim)),
            b_cls=scale * rng.standard_normal(num_classes + 1),
            w_reg=scale * rng.standard_normal((4, feature_dim)),
            b_reg=scale * rng.standard_normal(4),
            dropout_rate=dropout_rate,
        )

    def copy(self) -> "ModelParams":
        return ModelParams(self.w_cls.copy(), self.b_cls.copy(),
                           self.w_reg.copy(), self.b_reg.copy(), self.dropout_rate)

    def to_dict(self) -> dict:
        return {
            "w_cls": self.w_cls.tolist(),
            "b_cls": self.b_cls.tolist(),
            "w_reg": self.w_reg.tolist(),
            "b_reg": self.b_reg.tolist(),
            "dropout_rate": self.dropout_rate,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelParams":
        return cls(
            w_cls=np.array(data["w_cls"], dtype=float),
            b_cls=np.array(data["b_cls"], dtype=float),
            w_reg=np.array(data["w_reg"], dtype=float),
            b_reg=np.array(data["b_reg"], dtype=float),
            dropout_rate=float(data["dropout_rate"]),
        )


def save_params(path, params: ModelParams) -> None:
    write_atomic(path, json.dumps(params.to_dict()))


def load_params(path) -> ModelParams:
    with open(path) as fh:
        return ModelParams.from_dict(json.load(fh))


@dataclass
class Detection:
    """Per-proposal output: refined box, full score vector, foreground argmax."""

    proposal_index: int
    box: BBox
    scores: np.ndarray  # (C+1,), softmax
    class_id: int       # argmax over foreground classes, ties to the lower id
    score: float        # max foreground score


@dataclass
class GradientSet:
    """Gradients matching ModelParams shapes, plus the loss they came from."""

    w_cls: np.ndarray
    b_cls: np.ndarray
    w_reg: np.ndarray
    b_reg: np.ndarray
    loss: float = 0.0

    @classmethod
    def zeros_like(cls, params: ModelParams, loss: float = 0.0) -> "GradientSet":
        return cls(np.zeros_like(params.w_cls), np.zeros_like(params.b_cls),
                   np.zeros_like(params.w_reg), np.zeros_like(params.b_reg), loss)

    def scaled(self, factor: float) -> "GradientSet":
        return GradientSet(factor * self.w_cls, factor * self.b_cls,
                           factor * self.w_reg, factor * self.b_reg, factor * self.loss)

    def __add__(self, other: "GradientSet") -> "GradientSet":
        return GradientSet(self.w_cls + other.w_cls, self.b_cls + other.b_cls,
                           self.w_reg + other.w_reg, self.b_reg + other.b_reg,
                           self.loss + other.loss)

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for a in
                   (self.w_cls, self.b_cls, self.w_reg, self.b_reg)) and np.isfinite(self.loss)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def _check_features(params: ModelParams, sample: DetectionSample) -> np.ndarray:
    x = sample.proposal_features
    if x.shape[1] != params.feature_dim:
        raise ValueError(f"feature dim {x.shape[1]} != model dim {params.feature_dim}")
    return x


def _dropped(params: ModelParams, x: np.ndarray, dropout_seed: int | None) -> np.ndarray:
    if dropout_seed is not None and params.dropout_rate > 0.0:
        rng = np.random.default_rng(dropout_seed)
        mask = rng.random(x.shape) >= params.dropout_rate
        return x * mask / (1.0 - params.dropout_rate)
    return x


def _heads(params: ModelParams, h: np.ndarray, proposal_boxes: np.ndarray, single=()):
    """Both heads over the rows of h, (rows, D) or a stack of passes (M, rows, D).

    Every op acts per pass and per row, so a row's outputs do not depend on the
    rows packed around it, with one exception that `single` handles: BLAS takes
    a one-row product through a matrix-vector kernel whose last bits differ
    from the matrix-matrix one. `single` lists the rows of one-proposal samples
    in a pack; their products are redone one row at a time, as the sample's own
    (1, D) pass would compute them.
    """
    logits = h @ params.w_cls.T
    deltas = h @ params.w_reg.T
    if len(single):
        for out, w in ((logits, params.w_cls), (deltas, params.w_reg)):
            out[..., single, :] = (h[..., single, None, :] @ w.T)[..., 0, :]
    log_scores = log_softmax(logits + params.b_cls)
    return h, log_scores, np.exp(log_scores), proposal_boxes + (deltas + params.b_reg)


def forward_arrays(params: ModelParams, sample: DetectionSample,
                   dropout_seed: int | None = None):
    """Raw forward pass.

    Returns (h, log_scores, scores, refined) where h is the (possibly dropped)
    feature matrix and refined the (P, 4) refined box coordinates. Inverted
    dropout scales retained activations by 1/(1-p), so inference (no seed)
    needs no rescaling.
    """
    x = _check_features(params, sample)
    return _heads(params, _dropped(params, x, dropout_seed), sample.proposal_boxes)


class Scored:
    """One forward pass of a model on a sample, or on a packed block of samples, as arrays.

    Holds the outputs of `forward_arrays` (h, log_scores, scores, refined);
    a pack (`Scored.packed`) also holds the `offsets` of its samples' rows.
    The foreground argmax class and score and the valid refined boxes are
    derived on first use, so a caller that needs only the loss pays for none
    of them, and one that needs them twice computes them once.
    """

    def __init__(self, params: ModelParams, sample: DetectionSample,
                 dropout_seed: int | None = None):
        self.num_classes = params.num_classes
        self.h, self.log_scores, self.scores, self.refined = \
            forward_arrays(params, sample, dropout_seed)

    @classmethod
    def packed(cls, params: ModelParams, samples: list[DetectionSample],
               dropout_seeds=None) -> "Scored":
        """The heads run once over a block of samples, proposals concatenated.

        Sample i owns rows `offsets[i]:offsets[i + 1]`, which equal its own
        `forward_arrays` outputs bit for bit. With an (n, M) array of dropout
        seeds the outputs are stacks of M passes, (M, rows, ...): pass m of
        sample i equals `forward_arrays(params, samples[i], dropout_seeds[i, m])`.
        Its mask is drawn from that seed alone, straight into the pass's rows.
        """
        counts = [_check_features(params, s).shape[0] for s in samples]
        offsets = np.concatenate(([0], np.cumsum(counts, dtype=int)))
        x = np.concatenate([s.proposal_features for s in samples])
        boxes = np.concatenate([s.proposal_boxes for s in samples])
        h = x
        if dropout_seeds is not None:
            seeds = np.asarray(dropout_seeds).reshape(len(samples), -1)
            rate = params.dropout_rate
            h = np.broadcast_to(x, (seeds.shape[1],) + x.shape)
            if rate > 0.0:
                # the uniform draws become the dropped features in place: `_dropped`'s
                # x * mask / (1 - rate), with one (M, rows, D) buffer instead of three
                h = np.empty(h.shape)
                for a, b, row in zip(offsets[:-1], offsets[1:], seeds):
                    for m, seed in enumerate(row):
                        np.random.default_rng(seed).random(out=h[m, a:b])
                np.multiply(x, h >= rate, out=h)
                h /= 1.0 - rate
        single = offsets[:-1][np.asarray(counts) == 1]
        out = cls.__new__(cls)
        out.num_classes = params.num_classes
        out.offsets = offsets
        out.h, out.log_scores, out.scores, out.refined = _heads(params, h, boxes, single)
        return out

    @cached_property
    def class_ids(self) -> np.ndarray:
        """(P,) argmax over foreground classes, ties to the lower id."""
        return np.argmax(self.scores[:, :self.num_classes], axis=1)

    @cached_property
    def fg_scores(self) -> np.ndarray:
        """(P,) max foreground score."""
        return self.scores[np.arange(len(self.scores)), self.class_ids]

    @cached_property
    def boxes(self) -> np.ndarray:
        """(P, 4) refined boxes made valid by the `BBox.from_raw` rule."""
        return boxes_from_raw(self.refined)


def forward(params: ModelParams, sample: DetectionSample,
            dropout_seed: int | None = None) -> list[Detection]:
    """One Detection per proposal, in proposal order.

    The object view of one `Scored`: its boxes, foreground classes and scores,
    one `Detection` each, for callers that want objects. Training, the
    partition and evaluation work on the arrays and build none.
    """
    scored = Scored(params, sample, dropout_seed)
    boxes = scored.boxes.tolist()
    class_ids = scored.class_ids.tolist()
    fg_scores = scored.fg_scores.tolist()
    return [Detection(j, BBox(*boxes[j]), scored.scores[j], class_ids[j], fg_scores[j])
            for j in range(len(boxes))]


def _giou_and_grad(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """GIoU of a (possibly degenerate) predicted box against a valid target.

    Widths are clamped at zero so the value stays defined for arbitrary
    predicted coordinates; the gradient uses the matching subgradients.
    """
    px1, py1, px2, py2 = pred
    tx1, ty1, tx2, ty2 = target
    grad = np.zeros(4)

    wp, hp = px2 - px1, py2 - py1
    awp, ahp = max(wp, 0.0), max(hp, 0.0)
    area_p = awp * ahp
    d_area = np.array([-ahp if wp > 0 else 0.0, -awp if hp > 0 else 0.0,
                       ahp if wp > 0 else 0.0, awp if hp > 0 else 0.0])
    area_t = (tx2 - tx1) * (ty2 - ty1)

    ix1, iy1 = max(px1, tx1), max(py1, ty1)
    ix2, iy2 = min(px2, tx2), min(py2, ty2)
    iw, ih = max(ix2 - ix1, 0.0), max(iy2 - iy1, 0.0)
    inter = iw * ih
    d_inter = np.zeros(4)
    if iw > 0 and ih > 0:
        d_inter[0] = -ih if px1 >= tx1 else 0.0
        d_inter[1] = -iw if py1 >= ty1 else 0.0
        d_inter[2] = ih if px2 <= tx2 else 0.0
        d_inter[3] = iw if py2 <= ty2 else 0.0

    union = area_p + area_t - inter
    d_union = d_area - d_inter

    ew = max(px2, tx2) - min(px1, tx1)
    eh = max(py2, ty2) - min(py1, ty1)
    enclosure = ew * eh
    d_enc = np.array([-eh if px1 <= tx1 else 0.0, -ew if py1 <= ty1 else 0.0,
                      eh if px2 >= tx2 else 0.0, ew if py2 >= ty2 else 0.0])

    value = inter / union - (enclosure - union) / enclosure
    grad += (d_inter * union - inter * d_union) / union**2
    grad += (d_union * enclosure - union * d_enc) / enclosure**2
    return float(value), grad


def giou(a: BBox, b: BBox) -> float:
    """Generalized IoU: IoU minus the enclosing-area deficit, in (-1, 1]."""
    return _giou_and_grad(a.as_array(), b.as_array())[0]


def smooth_l1(diff: np.ndarray) -> np.ndarray:
    """Huber loss with unit threshold: quadratic below |diff| = 1, linear above."""
    d = np.abs(diff)
    return np.where(d < 1.0, 0.5 * diff * diff, d - 0.5)


def smooth_l1_grad(diff: np.ndarray) -> np.ndarray:
    return np.where(np.abs(diff) < 1.0, diff, np.sign(diff))


def match_labels(proposal_boxes: np.ndarray, label_boxes: np.ndarray) -> np.ndarray:
    """Highest-IoU proposal per label; ties resolve to the lowest index."""
    if len(label_boxes) == 0:
        return np.zeros(0, dtype=int)
    return np.argmax(iou_matrix(label_boxes, proposal_boxes), axis=1)


def detection_loss(
    params: ModelParams,
    sample: DetectionSample,
    labels: list[tuple[BBox, np.ndarray]],
    weights=None,
    *,
    background="auto",
    scored: Scored | None = None,
    matches: np.ndarray | None = None,
) -> tuple[float, GradientSet]:
    """Supervised detection loss and its exact gradients.

    labels are (box, class_vector) pairs with class vectors over the C
    foreground classes (possibly soft). Each label supervises its highest-IoU
    proposal: smooth-L1 on the refined coordinates, (1 - GIoU), and weighted
    cross-entropy. `background` selects which unmatched proposals receive a
    background target: "auto" for all of them, None for none, or an explicit
    index list. Box terms average over matched labels; the CE term averages
    over all supervised instances, with background weights fixed at 1.

    `scored` (a `Scored` of params on sample) and `matches` (`match_labels`
    of the labels) let a caller that already has them skip the forward pass
    and the matching; the loss is the same either way.
    """
    num_fg = params.num_classes
    n_labels = len(labels)
    if weights is None:
        weights = np.ones(n_labels)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n_labels,):
        raise ValueError("weights must align with labels")

    if scored is None:
        scored = Scored(params, sample)
    h, log_scores, scores, refined = scored.h, scored.log_scores, scored.scores, scored.refined
    n_prop = sample.num_proposals

    if matches is None:
        matches = match_labels(sample.proposal_boxes, box_array(box for box, _ in labels))

    matched = set(matches.tolist())
    if background == "auto":
        bg_indices = [j for j in range(n_prop) if j not in matched]
    elif background is None:
        bg_indices = []
    else:
        bg_indices = [j for j in background if j not in matched]

    # (proposal, target over C+1 classes, weight) rows for the CE term
    ce_rows = []
    for i, (_, class_vec) in enumerate(labels):
        target = np.zeros(num_fg + 1)
        target[:num_fg] = class_vec
        ce_rows.append((int(matches[i]), target, float(weights[i])))
    bg_target = np.zeros(num_fg + 1)
    bg_target[num_fg] = 1.0
    for j in bg_indices:
        ce_rows.append((j, bg_target, 1.0))

    d_logits = np.zeros_like(scores)
    d_refined = np.zeros_like(refined)

    loss_cls = 0.0
    if ce_rows:
        n_ce = len(ce_rows)
        for j, target, w in ce_rows:
            loss_cls += -w * float(target @ log_scores[j])
            d_logits[j] += w * (scores[j] - target)
        loss_cls /= n_ce
        d_logits /= n_ce

    loss_box = 0.0
    loss_giou = 0.0
    if n_labels:
        for i, (box, _) in enumerate(labels):
            j = int(matches[i])
            diff = refined[j] - box.as_array()
            loss_box += float(smooth_l1(diff).sum())
            g_val, g_grad = _giou_and_grad(refined[j], box.as_array())
            loss_giou += 1.0 - g_val
            d_refined[j] += (smooth_l1_grad(diff) - g_grad) / n_labels
        loss_box /= n_labels
        loss_giou /= n_labels

    loss = loss_box + loss_giou + loss_cls
    grads = GradientSet(
        w_cls=d_logits.T @ h,
        b_cls=d_logits.sum(axis=0),
        w_reg=d_refined.T @ h,
        b_reg=d_refined.sum(axis=0),
        loss=loss,
    )
    return loss, grads


def sgd_step(params: ModelParams, grads: GradientSet, lr: float) -> ModelParams:
    """One plain gradient-descent step; lr=0 or zero grads leave params unchanged."""
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    if not grads.is_finite():
        raise TrainingError("non-finite gradients")
    return ModelParams(
        params.w_cls - lr * grads.w_cls,
        params.b_cls - lr * grads.b_cls,
        params.w_reg - lr * grads.w_reg,
        params.b_reg - lr * grads.b_reg,
        params.dropout_rate,
    )
