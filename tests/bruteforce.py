"""Independent slow-path oracles used by the test suite.

Everything here recomputes from first principles with plain loops: central
finite differences for gradients, the world generator with one NumPy draw
per box coordinate and an array IoU per jitter try, per-prefix rescored
matching for AP, the greedy scan of all detections that checks every object
of a detection's image, a full threshold enumeration for FROC, a one-sample forward
pass whose dropout uniforms come from a seed or a shared stream, the
log-softmax and the box rule as whole-row reductions and selects, the
per-proposal object path (one `BBox.from_raw` and one argmax per proposal,
per pass) for scoring, a one-reduction variance per sample, the per-class
object matching for a whole evaluation, the supervised losses one label at a
time, with a scalar GIoU, for the loss kernel and pretraining, the array
GIoU that the kernel's stacked one replaced, the per-segment mean that the
kernel's per-sample losses take, and the whole adaptation loop
sample by sample, with labels as (`BBox`, class vector) pairs and a crop
bank of one `CropEntry` per instance in per-class buffers, its relation
statistics as (label class, predicted class) pairs, weighted, counted and
folded into the matrix one pair and one row at a time. Apart from that loop,
none of it shares code with the package implementations beyond the matching
rule, the smooth-L1 helpers and the SGD step they both define; the loop
reuses the package's relation matrix container (its start and readiness),
EMA and evaluation, which have tests of their own, and takes its majority
classes from `oracle_majority`. `oracle_batch_pretrain` is pretraining's
earlier loop, which packed, laid out and scored each batch on its own: it
runs the package's pass, layout builder and loss kernel, and stands against
the epoch-wide layout that pretraining now cuts its batches from.
`oracle_check_class_ids` and `oracle_check_offsets` are the two helpers'
earlier `np.any` forms, against which their method forms must accept and
reject the same inputs.
"""

from __future__ import annotations

import dataclasses
from collections import deque

import numpy as np

from detadapt.detector import (Detection, GradientSet, Labels, ModelParams, Scored, loss_layout,
                               pack, sgd_step, smooth_l1, smooth_l1_grad, supervised_losses,
                               targets)
from detadapt.metrics import FPI_POINTS, EvalResult, evaluate
from detadapt.relation import RelationMatrix
from detadapt.teacher import ema_update
from detadapt.trainer import EpochRecord, TrainHistory
from detadapt.util import derive_seed, rng_stream
from detadapt.weighting import DENOM_FLOOR
from detadapt.world import (BBox, DetectionSample, DomainSpec, box_array, box_iou,
                            generate_domain)


def oracle_match_labels(proposal_boxes, label_boxes) -> np.ndarray:
    """One sample's `match_labels`: the argmax of each row of its full (labels,
    proposals) IoU matrix, ties to the lowest index."""
    if len(label_boxes) == 0:
        return np.zeros(0, dtype=int)
    return np.argmax(box_iou(np.reshape(label_boxes, (-1, 1, 4)),
                             np.reshape(proposal_boxes, (1, -1, 4))), axis=1)


def oracle_targets(sample, labels, weights=None, background="auto", matches=None):
    """One sample's `targets` as (matches, classes, boxes, weights, background):
    proposal indices of the sample, the background list in order with its
    repeats, less the matched proposals."""
    if matches is None:
        matches = oracle_match_labels(sample.proposal_boxes, labels.boxes)
    matches = np.asarray(matches, dtype=int)
    weights = np.ones(len(labels)) if weights is None else np.asarray(weights, dtype=float)
    if isinstance(background, str):
        background = np.arange(sample.num_proposals)
    background = np.asarray([] if background is None else background, dtype=int)
    unmatched = np.ones(sample.num_proposals, dtype=bool)
    unmatched[matches] = False
    return matches, labels.classes, labels.boxes, weights, background[unmatched[background]]


def bbox_pairs(labels) -> list[tuple[BBox, np.ndarray]]:
    """A `Labels` as the (`BBox`, class vector) pairs the loop oracles take."""
    return [(BBox(*box), vec) for box, vec in labels]


def oracle_box(row, min_size: float = 1e-6) -> np.ndarray:
    return BBox.from_raw(*row, min_size=min_size).as_array()


def oracle_boxes_from_raw(raw) -> np.ndarray:
    """`boxes_from_raw` as one set of ops over the (..., 4) array: each op
    loops over a row's corner pair, not column by column."""
    raw = np.asarray(raw, dtype=float)
    first, second = raw[..., :2], raw[..., 2:]
    lo = np.where(second < first, second, first)
    hi = np.where(second > first, second, first)
    with np.errstate(invalid="ignore"):
        hi = np.where(hi - lo < 1e-6, lo + 1e-6, hi)
    boxes = np.concatenate([lo, hi], axis=-1)
    if not np.isfinite(boxes).all():
        raise ValueError("non-finite box coordinates")
    if not (lo < hi).all():
        raise ValueError("degenerate box")
    return boxes


def zero_grads(like) -> GradientSet:
    """Zero gradients shaped as the four arrays of `like`, a `ModelParams` or
    a `GradientSet`."""
    return GradientSet(*(np.zeros_like(a) for a in (like.w_cls, like.b_cls, like.w_reg,
                                                    like.b_reg)))


def oracle_log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax by `.max` and `.sum` over the last axis, row by row."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def oracle_forward_arrays(params: ModelParams, sample, dropout_seed=None, uniforms=None):
    """(h, log_scores, scores, refined) of one sample on its own, as `Scored`
    gives them for `[sample]` (one pass if seeded): the (P, D) features, their
    inverted-dropout mask drawn from the seed alone, or read from the (P, D)
    `uniforms` given, then both heads.
    """
    x = sample.proposal_features
    if x.shape[1] != params.feature_dim:
        raise ValueError(f"feature dim {x.shape[1]} != model dim {params.feature_dim}")
    if dropout_seed is not None:
        uniforms = np.random.default_rng(dropout_seed).random(x.shape)
    if uniforms is not None and params.dropout_rate > 0.0:
        mask = uniforms >= params.dropout_rate
        x = x * mask / (1.0 - params.dropout_rate)
    log_scores = oracle_log_softmax(x @ params.w_cls.T + params.b_cls)
    refined = sample.proposal_boxes + (x @ params.w_reg.T + params.b_reg)
    return x, log_scores, np.exp(log_scores), refined


def oracle_detections(params: ModelParams, sample, dropout_seed=None,
                      uniforms=None) -> list[Detection]:
    """One Detection per proposal, each boxed and argmaxed on its own."""
    _, _, scores, refined = oracle_forward_arrays(params, sample, dropout_seed, uniforms)
    out = []
    for j in range(sample.num_proposals):
        fg = scores[j, :params.num_classes]
        cid = int(np.argmax(fg))
        out.append(Detection(j, BBox.from_raw(*refined[j]), scores[j], cid, float(fg[cid])))
    return out


def oracle_uniforms(params: ModelParams, sample, num_passes: int, rng):
    """A sample's (M, P, D) dropout uniforms, drawn from the shared `rng` in
    pass, row and feature order; a model without dropout draws none."""
    if params.dropout_rate == 0.0:
        return [None] * num_passes
    return list(rng.random((num_passes,) + sample.proposal_features.shape))


def oracle_mc_passes(params: ModelParams, sample, num_passes: int, rng):
    """(M, P, 4) boxes and (M, P, C+1) scores from one forward pass per pass,
    each pass's mask read from its slice of the sample's draw from `rng`."""
    passes = [oracle_detections(params, sample, uniforms=u)
              for u in oracle_uniforms(params, sample, num_passes, rng)]
    boxes = np.array([[det.box.as_array() for det in dets] for dets in passes])
    scores = np.array([[det.scores for det in dets] for dets in passes])
    return boxes, scores


def oracle_variance(stack) -> float:
    """Mean squared deviation of an (M, P, K) stack around its per-row mean over
    passes, centred on the first pass and summed in one reduction."""
    centered = stack - stack[:1]
    dev = centered - centered.mean(axis=0, keepdims=True)
    return float((dev**2).sum() / (stack.shape[0] * stack.shape[1]))


def oracle_pseudo_labels(teacher: ModelParams, sample, conf_threshold):
    """(proposal, box, class, score) of every detection at or above the threshold."""
    return [(det.proposal_index, det.box, det.class_id, det.score)
            for det in oracle_detections(teacher, sample) if det.score >= conf_threshold]


def oracle_background_indices(teacher: ModelParams, sample, bar):
    return [det.proposal_index for det in oracle_detections(teacher, sample) if det.score < bar]


def oracle_giou(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
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


def _where_max(a, b):
    return np.where(b > a, b, a)


def _where_min(a, b):
    return np.where(b < a, b, a)


def _oracle_corner_grad(lo: np.ndarray, hi: np.ndarray, sides: np.ndarray) -> np.ndarray:
    other = sides[:, ::-1]
    return np.where(np.concatenate([lo, hi], 1), np.concatenate([-other, other], 1), 0.0)


def oracle_giou_and_grad(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`giou_and_grad` on (L, 4) arrays, one `_max`/`_min` per (L, 2) corner
    pair and one concatenated mask and value per corner gradient: the array
    form whose bits, NaN signs included, the stacked one keeps."""
    p_lo, p_hi, t_lo, t_hi = pred[:, :2], pred[:, 2:], target[:, :2], target[:, 2:]
    size = _where_max(p_hi - p_lo, 0.0)
    d_area = _oracle_corner_grad(p_hi - p_lo > 0, p_hi - p_lo > 0, size)
    overlap = _where_max(_where_min(p_hi, t_hi) - _where_max(p_lo, t_lo), 0.0)
    both = (overlap > 0).all(axis=1, keepdims=True)
    d_inter = _oracle_corner_grad((p_lo >= t_lo) & both, (p_hi <= t_hi) & both, overlap)
    span = _where_max(p_hi, t_hi) - _where_min(p_lo, t_lo)
    d_enc = _oracle_corner_grad(p_lo <= t_lo, p_hi >= t_hi, span)
    area_p, area_t, inter, enclosure = (s[:, 0] * s[:, 1]
                                        for s in (size, t_hi - t_lo, overlap, span))
    union = area_p + area_t - inter
    d_union = d_area - d_inter
    value = inter / union - (enclosure - union) / enclosure
    union, inter, enclosure = union[:, None], inter[:, None], enclosure[:, None]
    grad = np.zeros(pred.shape)
    grad += (d_inter * union - inter * d_union) / np.float_power(union, 2)
    grad += (d_union * enclosure - union * d_enc) / np.float_power(enclosure, 2)
    return value, grad


def oracle_segment_means(terms: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each segment's mean, segment i being terms[offsets[i]:offsets[i + 1]]; 0.0 if empty.

    A loop's running sum over each segment, divided by its count (`np.sum`
    adds in another order): `np.bincount` adds each segment's terms in
    order, from 0.0, so a segment of -0.0 terms alone sums to +0.0. The
    reduction the loss kernel's per-sample means must equal.
    """
    counts = offsets[1:] - offsets[:-1]
    segment = np.repeat(np.arange(len(counts)), counts)
    return np.bincount(segment, terms, len(counts)) / np.maximum(counts, 1)


def oracle_detection_loss(
    params: ModelParams,
    sample: DetectionSample,
    labels: list[tuple[BBox, np.ndarray]],
    weights=None,
    *,
    background="auto",
    matches=None,
) -> tuple[float, GradientSet]:
    """`detection_loss` as a loop over the labels, one proposal row at a time.

    labels are (box, class_vector) pairs with class vectors over the C
    foreground classes (possibly soft). Each label supervises its proposal,
    `matches[i]` if given, else its highest-IoU one: smooth-L1 on the refined
    coordinates, (1 - GIoU), and weighted cross-entropy. `background`
    selects which unmatched proposals receive a background target: "auto"
    for all of them, None for none, or an explicit index list. Box terms
    average over matched labels; the CE term averages over all supervised
    instances, with background weights fixed at 1.
    """
    num_fg = params.num_classes
    n_labels = len(labels)
    if weights is None:
        weights = np.ones(n_labels)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n_labels,):
        raise ValueError("weights must align with labels")

    h, log_scores, scores, refined = oracle_forward_arrays(params, sample)
    n_prop = sample.num_proposals
    if matches is None:
        matches = oracle_match_labels(sample.proposal_boxes,
                                      box_array(box for box, _ in labels))

    matched = {int(j) for j in matches}
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
            g_val, g_grad = oracle_giou(refined[j], box.as_array())
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


def oracle_expert_loss(
    params: ModelParams,
    sample: DetectionSample,
    labels: list[tuple[BBox, np.ndarray]],
    cls_weight: float,
    reg_weight: float,
    weights=None,
) -> tuple[float, GradientSet]:
    """`expert_loss` as a loop over (box, class_vector) labels, one proposal row at a time."""
    if not labels:
        return 0.0, zero_grads(params)
    n = len(labels)
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ValueError("weights must align with expert labels")

    h, log_scores, scores, refined = oracle_forward_arrays(params, sample)
    num_fg = params.num_classes
    matches = oracle_match_labels(sample.proposal_boxes, box_array(box for box, _ in labels))

    d_logits = np.zeros_like(scores)
    d_refined = np.zeros_like(refined)
    loss_cls = 0.0
    loss_reg = 0.0
    for i, (box, class_vec) in enumerate(labels):
        j = int(matches[i])
        target = np.zeros(num_fg + 1)
        target[:num_fg] = class_vec
        loss_cls += -float(weights[i]) * float(target @ log_scores[j])
        d_logits[j] += weights[i] * (scores[j] - target)
        diff = refined[j] - box.as_array()
        loss_reg += float(smooth_l1(diff).sum())
        d_refined[j] += smooth_l1_grad(diff)
    loss_cls /= n
    loss_reg /= n
    d_logits *= cls_weight / n
    d_refined *= reg_weight / n

    loss = cls_weight * loss_cls + reg_weight * loss_reg
    grads = GradientSet(
        w_cls=d_logits.T @ h,
        b_cls=d_logits.sum(axis=0),
        w_reg=d_refined.T @ h,
        b_reg=d_refined.sum(axis=0),
        loss=loss,
    )
    return loss, grads


def oracle_pretrain(config) -> ModelParams:
    """`pretrain_source`'s parameters from one `oracle_detection_loss` per sample."""
    config.validate()
    source_data = generate_domain(config.source, derive_seed(config.seed, "world", "source"))
    params = ModelParams.init(config.num_classes, config.source.feature_dim,
                              rng_stream(config.seed, "init"),
                              dropout_rate=config.dropout_rate)
    shuffle_rng = rng_stream(config.seed, "pretrain-shuffle")
    for epoch in range(config.pretrain_epochs):
        order = shuffle_rng.permutation(len(source_data))
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            total = zero_grads(params)
            for idx in batch:
                sample = source_data[int(idx)]
                labels = [(BBox(*row), np.eye(config.num_classes)[class_id])
                          for row, class_id in zip(sample.gt_boxes, sample.gt_classes)]
                loss, grads = oracle_detection_loss(params, sample, labels)
                total = total + grads
            params = sgd_step(params, total.scaled(1.0 / len(batch)), config.learning_rate)
    return params


def oracle_batch_pretrain(config) -> ModelParams:
    """`pretrain_source`'s parameters from the per-batch loop: each batch's
    samples packed, their ground-truth targets taken (`Targets.take`) and
    laid out (`loss_layout`) on their own, for one pass and one kernel call."""
    config.validate()
    source_data = generate_domain(config.source, derive_seed(config.seed, "world", "source"))
    params = ModelParams.init(config.num_classes, config.source.feature_dim,
                              rng_stream(config.seed, "init"),
                              dropout_rate=config.dropout_rate)
    source_targets = targets(*pack(source_data)[1:], Labels.pack(
        (Labels.one_hot(s.gt_boxes, s.gt_classes, config.num_classes) for s in source_data),
        config.num_classes))
    shuffle_rng = rng_stream(config.seed, "pretrain-shuffle")
    for epoch in range(config.pretrain_epochs):
        order = shuffle_rng.permutation(len(source_data))
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            scored = Scored(params, *pack([source_data[i] for i in batch.tolist()]))
            _, grads = supervised_losses(scored, loss_layout(
                scored.offsets, source_targets.take(batch), None, config.num_classes))
            params = sgd_step(params, grads.scaled(1.0 / len(batch)), config.learning_rate)
    return params


def oracle_expert_predict(spec, sample, rng, num_classes):
    """The expert's corrupted ground truth as (`BBox`, class vector) pairs, one
    `BBox.from_raw` each."""
    labels = []
    for row, class_id in zip(sample.gt_boxes, sample.gt_classes.tolist()):
        box = BBox(*row)
        if rng.random() < spec.miss_rate:
            continue
        if rng.random() < spec.flip_rate:
            others = [k for k in range(num_classes) if k != class_id]
            if others:
                class_id = int(others[rng.integers(len(others))])
        width, height = box.x2 - box.x1, box.y2 - box.y1
        scale = np.array([width, height, width, height])
        offsets = rng.uniform(-spec.box_jitter, spec.box_jitter, 4) * scale
        labels.append((BBox.from_raw(*(box.as_array() + offsets)),
                       np.eye(num_classes)[class_id]))
    return labels


def _oracle_random_box(spec: DomainSpec, rng: np.random.Generator) -> np.ndarray:
    w = rng.uniform(spec.min_box, spec.max_box)
    h = rng.uniform(spec.min_box, spec.max_box)
    x1 = rng.uniform(0.0, spec.image_size - w)
    y1 = rng.uniform(0.0, spec.image_size - h)
    return np.array([x1, y1, x1 + w, y1 + h])


def _oracle_jittered_proposal(box: np.ndarray, spec: DomainSpec,
                              rng: np.random.Generator) -> np.ndarray:
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


def oracle_generate_domain(spec: DomainSpec, seed: int) -> list[DetectionSample]:
    """`generate_domain` with one `Generator.uniform` per box coordinate, a
    (4,)-array `box_iou` per jitter try and `Generator.choice` for the classes."""
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
            box = _oracle_random_box(spec, rng)
            feats.append(spec.class_means[c]
                         + spec.class_covs[c] * rng.standard_normal(spec.feature_dim))
            gt_boxes.append(box)
            boxes.append(_oracle_jittered_proposal(box, spec, rng))
        for _ in range(int(rng.poisson(spec.background_rate))):
            boxes.append(_oracle_random_box(spec, rng))
            feats.append(spec.background_mean
                         + spec.background_cov * rng.standard_normal(spec.feature_dim))
        samples.append(DetectionSample(sample_id, np.array(boxes), np.array(feats),
                                       np.array(gt_boxes), classes))
    return samples


@dataclasses.dataclass(frozen=True)
class CropEntry:
    """One bank instance as an object, its class vector checked on its own."""

    feature: np.ndarray
    class_vec: np.ndarray  # (C,), simplex point

    def __post_init__(self):
        vec = self.class_vec
        if np.any(vec < 0) or abs(float(vec.sum()) - 1.0) > 1e-9:
            raise ValueError("class_vec must be a simplex point")


class OracleCropbank:
    """Per-class FIFO buffers of `CropEntry` objects, one push per instance."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._buffers: dict[int, deque[CropEntry]] = {}

    def push(self, class_id: int, entry: CropEntry) -> None:
        self._buffers.setdefault(class_id, deque(maxlen=self.capacity)).append(entry)

    def entries(self, class_id: int) -> tuple[CropEntry, ...]:
        return tuple(self._buffers.get(class_id, ()))


def oracle_partner_class(relation, base_class, is_majority, bank, rng):
    """A base's partner class over an `OracleCropbank`, one `Generator.choice`
    over the classes with entries; a majority base never draws its own
    class. None, drawing nothing, without a candidate."""
    vec = relation.matrix[:, base_class] if is_majority else relation.matrix[base_class, :]
    candidates = [k for k in range(relation.num_classes)
                  if bank.entries(k) and not (is_majority and k == base_class)]
    if not candidates:
        return None
    w = vec[candidates]
    total = float(w.sum())
    probs = w / total if total > 0 else np.full(len(candidates), 1.0 / len(candidates))
    return candidates[int(rng.choice(len(candidates), p=probs))]


def oracle_mixup(base: CropEntry, pair: CropEntry, mix_ratio: float) -> CropEntry:
    """Convex blend of features and class vectors, as a checked `CropEntry`."""
    keep = mix_ratio
    return CropEntry(keep * base.feature + (1.0 - keep) * pair.feature,
                     keep * base.class_vec + (1.0 - keep) * pair.class_vec)


def oracle_majority(relation) -> set[int]:
    """Majority classes, one diagonal entry at a time: strictly above the mean
    diagonal entry."""
    diag = [float(relation.matrix[c, c]) for c in range(relation.num_classes)]
    mean = float(np.mean(diag))
    return {c for c, value in enumerate(diag) if value > mean}


def oracle_augment_sample(samples, label_sets, relation, majority, bank, p_aug, mix_ratio,
                          rng, match_sets=None):
    """`augment_sample` of a batch over (`BBox`, class vector) pairs, one label
    at a time, drawing from an `OracleCropbank`; `majority` is
    `oracle_majority`'s set. Label i of sample k blends proposal
    `match_sets[k][i]` if given, else its highest-IoU one. The draws take
    three passes over the batch's labels, in order: each label's blend
    uniform, then the partner class of each label whose uniform falls below
    p_aug (`oracle_partner_class`; a label without a candidate is not
    blended), then each blend's partner entry, one `Generator.integers`
    each. Returns the samples, their matched features blended, and their
    labels."""
    labels = [(k, i, vec) for k, pairs in enumerate(label_sets)
              for i, (_, vec) in enumerate(pairs)]
    uniforms = [rng.random() for _ in labels]
    blends = []
    for (k, i, vec), uniform in zip(labels, uniforms):
        if uniform < p_aug:
            base_class = int(np.argmax(vec))
            partner = oracle_partner_class(relation, base_class, base_class in majority, bank,
                                           rng)
            if partner is not None:
                blends.append((k, i, bank.entries(partner)))
    pairs = [pool[int(rng.integers(len(pool)))] for _, _, pool in blends]

    features = [sample.proposal_features.copy() for sample in samples]
    new_labels = [list(pairs_of_sample) for pairs_of_sample in label_sets]
    for (k, i, _), pair in zip(blends, pairs):
        box, class_vec = new_labels[k][i]
        j = int(match_sets[k][i] if match_sets is not None else
                oracle_match_labels(samples[k].proposal_boxes, box_array([box]))[0])
        blended = oracle_mixup(CropEntry(features[k][j].copy(), class_vec), pair, mix_ratio)
        features[k][j] = blended.feature
        new_labels[k][i] = (box, blended.class_vec)
    return ([dataclasses.replace(sample, proposal_features=f)
             for sample, f in zip(samples, features)], new_labels)


def oracle_instance_weight(relation, true_cls: int, pred_cls: int) -> float:
    """sqrt(1 - R[c,c]) when correct, sqrt(R[c,x] / R[c,c]) when confused, one pair."""
    r = relation.matrix
    if true_cls == pred_cls:
        return float(np.sqrt(max(1.0 - r[true_cls, true_cls], 0.0)))
    denom = max(r[true_cls, true_cls], DENOM_FLOOR)
    return float(np.sqrt(r[true_cls, pred_cls] / denom))


def oracle_relation_weights(relation, pairs: list[tuple[int, int]], reg: float) -> np.ndarray:
    """`relation_weights` over (label class, predicted class) pairs, one scalar
    weight per pair, then mean-normalized (uniform when the mean is not
    positive or there are no pairs) and regularized."""
    raw = np.array([oracle_instance_weight(relation, c, x) for c, x in pairs])
    if len(raw) == 0 or float(raw.mean()) <= 0.0:
        normalized = np.ones(len(pairs))
    else:
        normalized = raw / float(raw.mean())
    if reg < 0:
        raise ValueError("regularizer must be non-negative")
    return (normalized + reg) / (1.0 + reg)


def oracle_batch_confusion(pairs: list[tuple[int, int]], num_classes: int) -> np.ndarray:
    """`batch_confusion` of (label class, predicted class) pairs, one pair at a time."""
    counts = np.zeros((num_classes, num_classes))
    for true_cls, pred_cls in pairs:
        if not (0 <= true_cls < num_classes and 0 <= pred_cls < num_classes):
            raise ValueError(f"class pair ({true_cls}, {pred_cls}) out of range")
        counts[true_cls, pred_cls] += 1.0
    return counts


def oracle_check_class_ids(class_ids: np.ndarray, num_classes: int) -> None:
    """`relation.check_class_ids` as a `np.any` over the whole mask."""
    if np.any((class_ids < 0) | (class_ids >= num_classes)):
        raise ValueError(f"class ids outside [0, {num_classes})")


def oracle_check_offsets(offsets: np.ndarray, total: int) -> None:
    """`util.check_offsets` with its monotonicity test as a `np.any`."""
    if offsets.ndim != 1 or not len(offsets) or offsets.dtype.kind not in "iu" \
            or offsets[0] != 0 or offsets[-1] != total or np.any(offsets[1:] < offsets[:-1]):
        raise ValueError(f"offsets {offsets.tolist()} do not rise from 0 to {total}")


def oracle_update(relation, counts: np.ndarray):
    """`RelationMatrix.update`, one row at a time; rows without counts are skipped."""
    counts = np.asarray(counts, dtype=float)
    for c in range(relation.num_classes):
        row_sum = counts[c].sum()
        if row_sum <= 0:
            continue
        batch_row = counts[c] / row_sum
        relation.matrix[c] = relation.ema_rate * relation.matrix[c] \
            + (1.0 - relation.ema_rate) * batch_row
        relation.update_counts[c] += 1
    return relation


def _oracle_pairs(model, strong, labels, relation, config, matches=None):
    """(label class, predicted class) pairs of labels on a view, and their
    relation weights; each label's proposal is `matches[i]` if given, else
    its highest-IoU one."""
    classes = [det.class_id for det in oracle_detections(model, strong)]
    if matches is None:
        matches = oracle_match_labels(strong.proposal_boxes,
                                      box_array(box for box, _ in labels)).tolist()
    pairs = [(int(np.argmax(vec)), classes[j]) for (_, vec), j in zip(labels, matches)]
    weights = oracle_relation_weights(relation, pairs, config.weight_reg) \
        if (config.enable_sal and pairs) else None
    return pairs, weights


def oracle_adapt(source_params: ModelParams, target_data, config):
    """`adapt`'s final teacher and history, sample by sample through objects.

    Each sample gets its own teacher and student forward passes, one
    `Detection` per proposal; pseudo-labels, augmented labels and expert
    labels are (`BBox`, class vector) pairs. A pseudo-label supervises, and
    blends, the proposal its detection was read from (`proposal_index`),
    wherever its refined box lands; the expert's labels, drawn once per
    sample before the first epoch from `rng_stream(seed, "expert", sample
    id)`, are matched anew by IoU each step; the crop bank, an
    `OracleCropbank`, takes one `CropEntry` per pseudo-label once the whole
    batch has drawn from it (`oracle_augment_sample`); each sample's
    losses come from the per-label loop oracles; the relation weights, the
    batch's confusion counts and the matrix update come from the per-pair
    and per-row oracles, the update skipped for a batch without labels.
    """
    config.validate()
    num_classes = config.num_classes
    by_id = {s.id: s for s in target_data}
    student = source_params.copy()
    teacher = source_params.copy()
    relation = RelationMatrix.identity(num_classes, config.relation_ema)
    bank = OracleCropbank(config.bank_capacity)
    eval_spec = dataclasses.replace(config.target, size=config.eval_size)
    eval_data = generate_domain(eval_spec, derive_seed(config.seed, "world", "eval"))
    history = TrainHistory(num_classes)

    ids = sorted(by_id)
    # the frozen expert labels each sample once, from the sample's own stream
    expert = {sample.id: oracle_expert_predict(config.expert, sample,
                                               rng_stream(config.seed, "expert", sample.id),
                                               num_classes)
              for sample in target_data} if config.enable_expert else {}
    for epoch in range(config.epochs):
        shuffle_rng = rng_stream(config.seed, "shuffle", epoch)
        aug_rng = rng_stream(config.seed, "augment", epoch)
        noise_rng = rng_stream(config.seed, "noise", epoch)
        stu_losses, expert_losses = [], []
        order = shuffle_rng.permutation(len(ids))
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            majority = oracle_majority(relation) if relation.ready else None
            samples = [by_id[ids[int(pos)]] for pos in batch]
            dets = [oracle_detections(teacher, sample) for sample in samples]
            pseudo = [[det for det in d if det.score >= config.conf_threshold] for d in dets]
            label_sets = [[(det.box, np.eye(num_classes)[det.class_id]) for det in p]
                          for p in pseudo]
            match_sets = [[det.proposal_index for det in p] for p in pseudo]
            strongs = samples
            if config.enable_sa and majority is not None:
                # the batch draws from the bank as it stood before the batch
                strongs, label_sets = oracle_augment_sample(samples, label_sets, relation,
                                                            majority, bank, config.p_aug,
                                                            config.mix_ratio, aug_rng,
                                                            match_sets)
            views = []
            for sample, strong, labels, matches, d in zip(samples, strongs, label_sets,
                                                          match_sets, dets):
                if config.noise_scale > 0:
                    # one noise draw per sample in turn
                    features = strong.proposal_features
                    strong = dataclasses.replace(strong, proposal_features=features
                                                 + config.noise_scale
                                                 * noise_rng.standard_normal(features.shape))
                bg = [det.proposal_index for det in d if det.score < config.background_bar]
                views.append((strong, labels, matches, bg, expert.get(sample.id)))
            # then the bank takes one entry per pseudo-label, sample by sample
            for sample, p in zip(samples, pseudo):
                for det in p:
                    bank.push(det.class_id,
                              CropEntry(sample.proposal_features[det.proposal_index].copy(),
                                        np.eye(num_classes)[det.class_id]))

            total = zero_grads(student)
            batch_pairs = []
            for strong, labels, matches, bg, elabels in views:
                pairs, weights = _oracle_pairs(student, strong, labels, relation, config,
                                               matches)
                batch_pairs.extend(pairs)
                loss_stu, g_stu = oracle_detection_loss(student, strong, labels, weights,
                                                        background=bg, matches=matches)
                total = total + g_stu.scaled(config.unsup_weight)
                stu_losses.append(loss_stu)
                if config.enable_expert:
                    _, eweights = _oracle_pairs(student, strong, elabels, relation, config)
                    loss_exp, g_exp = oracle_expert_loss(
                        student, strong, elabels, config.expert_cls_weight,
                        config.expert_reg_weight, eweights)
                    total = total + g_exp
                    expert_losses.append(loss_exp)
            student = sgd_step(student, total.scaled(1.0 / len(batch)), config.learning_rate)
            teacher = ema_update(teacher, student, config.teacher_ema)
            if batch_pairs:
                oracle_update(relation, oracle_batch_confusion(batch_pairs, num_classes))

        teacher_eval = evaluate(teacher, eval_data, num_classes=num_classes)
        student_eval = evaluate(student, eval_data, num_classes=num_classes)
        history.records.append(EpochRecord(
            epoch=epoch,
            student_map=student_eval.map50,
            teacher_map=teacher_eval.map50,
            per_class_ap=teacher_eval.per_class_ap,
            loss_stu=float(np.mean(stu_losses)) if stu_losses else 0.0,
            loss_expert=float(np.mean(expert_losses)) if expert_losses else 0.0,
        ))
    return teacher, history


def numeric_gradient(loss_fn, params: ModelParams, h: float = 1e-5) -> GradientSet:
    """Central finite differences of loss_fn(params) over every coordinate."""
    grads = zero_grads(params)
    for name in ("w_cls", "b_cls", "w_reg", "b_reg"):
        base = getattr(params, name)
        out = getattr(grads, name)
        it = np.nditer(base, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = base[idx]
            base[idx] = original + h
            up = loss_fn(params)
            base[idx] = original - h
            down = loss_fn(params)
            base[idx] = original
            out[idx] = (up - down) / (2 * h)
            it.iternext()
    return grads


def max_relative_error(analytic: GradientSet, numeric: GradientSet, floor: float = 1e-4) -> float:
    # the floor keeps finite-difference roundoff on near-zero coordinates from
    # masquerading as relative error; typical gradients here are O(0.1..10)
    worst = 0.0
    for name in ("w_cls", "b_cls", "w_reg", "b_reg"):
        a = getattr(analytic, name)
        b = getattr(numeric, name)
        rel = np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        worst = max(worst, float(rel.max()))
    return worst


def _iou(a: BBox, b: BBox) -> float:
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area_a = (a.x2 - a.x1) * (a.y2 - a.y1)
    area_b = (b.x2 - b.x1) * (b.y2 - b.y1)
    return inter / (area_a + area_b - inter)


def _canonical_order(dets_by_img, class_id=None):
    rows = []
    for img, dets in enumerate(dets_by_img):
        for idx, (box, cls, score) in enumerate(dets):
            if class_id is None or cls == class_id:
                rows.append((score, img, idx, box, cls))
    return sorted(rows, key=lambda r: (-r[0], r[1], r[2]))


def _match_from_scratch(rows, gts_by_img, thr):
    """Greedy matching recomputed independently; returns per-row tp flags."""
    taken = [set() for _ in gts_by_img]
    flags = []
    for _, img, _, box, cls in rows:
        best, best_g = 0.0, -1
        for g, (gt_box, gt_cls) in enumerate(gts_by_img[img]):
            if gt_cls != cls or g in taken[img]:
                continue
            ov = _iou(box, gt_box)
            if ov >= thr and ov > best:
                best, best_g = ov, g
        if best_g >= 0:
            taken[img].add(best_g)
            flags.append(True)
        else:
            flags.append(False)
    return flags


def oracle_match(det_img, det_boxes, det_cls, det_score, gt_boxes, gt_cls, gt_counts,
                 iou_threshold):
    """`metrics._match`'s true-positive flags, in match order, and image
    scores, by the scan that ranked no candidates: each detection, in
    (-score, image, index) order, checks every object of its image and claims
    the free one of its class with the highest IoU at or above the threshold
    (and above 0), ties to the lower index."""
    starts = np.concatenate(([0], np.cumsum(gt_counts, dtype=int)))
    order = sorted(range(len(det_score)), key=lambda i: (-det_score[i], det_img[i], i))
    taken, flags = set(), []
    for i in order:
        best, best_iou = -1, 0.0
        for g in range(starts[det_img[i]], starts[det_img[i] + 1]):
            overlap = float(box_iou(det_boxes[i], gt_boxes[g]))
            if (gt_cls[g] == det_cls[i] and overlap >= iou_threshold and overlap > best_iou
                    and g not in taken):
                best, best_iou = g, overlap
        if best >= 0:
            taken.add(best)
        flags.append(best >= 0)
    image_score = [max((float(det_score[i]) for i in range(len(det_score)) if det_img[i] == img),
                       default=0.0) for img in range(len(gt_counts))]
    return np.array(flags, dtype=bool), np.array(image_score)


def oracle_ap(dets_by_img, gts_by_img, class_id, thr=0.5):
    """AP by rescoring every ranked prefix and applying the textbook
    interpolated-precision definition with nested loops."""
    npos = sum(1 for gts in gts_by_img for _, c in gts if c == class_id)
    if npos == 0:
        return float("nan")
    rows = _canonical_order(dets_by_img, class_id)
    points = []
    for k in range(1, len(rows) + 1):
        flags = _match_from_scratch(rows[:k], gts_by_img, thr)
        tp = sum(flags)
        points.append((tp / npos, tp / k))
    ap = 0.0
    prev_recall = 0.0
    for recall, _ in points:
        if recall > prev_recall:
            p_interp = max(p for r, p in points if r >= recall)
            ap += (recall - prev_recall) * p_interp
            prev_recall = recall
    return ap


def oracle_map(dets_by_img, gts_by_img, thr=0.5):
    classes = sorted({c for gts in gts_by_img for _, c in gts} |
                     {c for dets in dets_by_img for _, c, _ in dets})
    aps = []
    per_class = {}
    for cls in classes:
        ap = oracle_ap(dets_by_img, gts_by_img, cls, thr)
        per_class[cls] = ap
        if not np.isnan(ap):
            aps.append(ap)
    return (sum(aps) / len(aps) if aps else 0.0), per_class


def oracle_froc(dets_by_img, gts_by_img, budgets, thr=0.5):
    """Recall at FPI budgets by enumerating every distinct score threshold."""
    num_images = len(gts_by_img)
    npos = sum(len(g) for g in gts_by_img)
    scores = sorted({score for dets in dets_by_img for _, _, score in dets}, reverse=True)
    operating = [(0.0, 0.0)]
    for t in scores:
        kept = [[d for d in dets if d[2] >= t] for dets in dets_by_img]
        rows = _canonical_order(kept)
        flags = _match_from_scratch(rows, gts_by_img, thr)
        tp = sum(flags)
        fp = len(flags) - tp
        recall = tp / npos if npos else 0.0
        operating.append((fp / num_images, recall))
    out = {}
    for budget in budgets:
        out[budget] = max((r for f, r in operating if f <= budget), default=0.0)
    return out


def _interpolated_ap(tp_cum, fp_cum, npos):
    recall = tp_cum / npos
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)
    mrec = np.concatenate(([0.0], recall))
    mpre = np.concatenate(([0.0], precision))
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    changed = np.where(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[changed + 1] - mrec[changed]) * mpre[changed + 1]))


def oracle_image_scores(dets_by_img) -> np.ndarray:
    """Each image's best detection score by Python's `max`, 0.0 without any."""
    return np.array([max((score for _, _, score in img), default=0.0) for img in dets_by_img])


def oracle_evaluate(params: ModelParams, samples, num_classes: int) -> EvalResult:
    """`evaluate` through objects, at IoU 0.5 and the `FPI_POINTS` budgets:
    one `Detection` per proposal, a separate greedy match per class for AP,
    another over all classes for the FROC and F1 sweep, and a pairwise count
    for the image AUC."""
    dets = [[(d.box, d.class_id, d.score) for d in oracle_detections(params, s)] for s in samples]
    gts = [[(BBox(*row), int(class_id)) for row, class_id in zip(s.gt_boxes, s.gt_classes)]
           for s in samples]
    seen = [c for img in gts for _, c in img] + [c for img in dets for _, c, _ in img]
    per_class = []
    for cls in range(max(seen, default=-1) + 1):
        npos = sum(1 for img in gts for _, c in img if c == cls)
        rows = _canonical_order(dets, cls)
        if npos == 0:
            per_class.append(float("nan"))
        elif not rows:
            per_class.append(0.0)
        else:
            flags = _match_from_scratch(rows, gts, 0.5)
            per_class.append(_interpolated_ap(np.cumsum([1.0 if f else 0.0 for f in flags]),
                                              np.cumsum([0.0 if f else 1.0 for f in flags]), npos))
    valid = [ap for ap in per_class if not np.isnan(ap)]
    map50 = float(np.mean(valid)) if valid else 0.0
    per_class = (per_class + [float("nan")] * num_classes)[:num_classes]

    rows = _canonical_order(dets)
    flags = _match_from_scratch(rows, gts, 0.5)
    points = [(0, 0)]
    for i in range(len(rows)):
        if i + 1 == len(rows) or rows[i + 1][0] != rows[i][0]:
            tp = sum(flags[:i + 1])
            points.append((i + 1 - tp, tp))
    npos = sum(len(img) for img in gts)
    recalls = {}
    for budget in FPI_POINTS:
        ok = [tp / npos for fp, tp in points if samples and npos and fp / len(samples) <= budget]
        recalls[budget] = max(ok, default=0.0)
    f1 = 0.0
    for fp, tp in points:
        if 2 * tp + fp + (npos - tp) > 0:
            f1 = max(f1, 2 * tp / (2 * tp + fp + (npos - tp)))

    image_scores = oracle_image_scores(dets)
    positive = np.array([bool(img) for img in gts], dtype=bool)
    pos, neg = image_scores[positive], image_scores[~positive]
    auc = None
    if len(pos) and len(neg):
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        auc = float(wins / (len(pos) * len(neg)))
    return EvalResult(map50, per_class, recalls, f1, auc)
