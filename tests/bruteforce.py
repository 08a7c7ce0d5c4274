"""Independent slow-path oracles used by the test suite.

Everything here recomputes from first principles with plain loops: central
finite differences for gradients, per-prefix rescored matching for AP, a
full threshold enumeration for FROC, a one-sample forward pass with its own
dropout draw and the per-proposal object path (one `BBox.from_raw` and one
argmax per proposal, per pass) for scoring, the per-class object matching
for a whole evaluation, the supervised losses one label at a time, with a
scalar GIoU, for the loss kernel and pretraining, and the whole adaptation
loop sample by sample, with labels as (`BBox`, class vector) pairs and a
crop bank of one `CropEntry` per instance, read through a subset
preference, its relation statistics as (label class, predicted class)
pairs, weighted, counted and folded into the matrix one pair and one row at a
time. Apart from that loop, none of it shares code with the package
implementations beyond the matching rule, the smooth-L1 helpers and the SGD
step they both define; the loop reuses the package's partition, relation
matrix container (its start and readiness), EMA and evaluation, which have
tests of their own, and takes its class split from `oracle_split`.
"""

from __future__ import annotations

import dataclasses
from collections import deque

import numpy as np

from detadapt.cropbank import AugmentPolicy
from detadapt.detector import (Detection, GradientSet, ModelParams, match_labels, sgd_step,
                               smooth_l1, smooth_l1_grad)
from detadapt.metrics import FPI_POINTS, EvalResult, evaluate
from detadapt.partition import DISSIMILAR, SIMILAR, SUBSETS, partition
from detadapt.relation import RelationMatrix
from detadapt.teacher import ema_update
from detadapt.trainer import EpochRecord, TrainHistory
from detadapt.util import derive_seed, rng_stream
from detadapt.weighting import DENOM_FLOOR
from detadapt.world import (BBox, DetectionSample, box_array, generate_domain,
                            perturb_features)


def bbox_pairs(labels) -> list[tuple[BBox, np.ndarray]]:
    """A `Labels` as the (`BBox`, class vector) pairs the loop oracles take."""
    return [(BBox(*box), vec) for box, vec in labels]


def oracle_box(row, min_size: float = 1e-6) -> np.ndarray:
    return BBox.from_raw(*row, min_size=min_size).as_array()


def oracle_forward_arrays(params: ModelParams, sample, dropout_seed=None):
    """(h, log_scores, scores, refined) of one sample on its own, as `Scored`
    gives them for `[sample]` (one pass if seeded): the (P, D) features, their
    inverted-dropout mask drawn from the seed alone, then both heads.
    """
    x = sample.proposal_features
    if x.shape[1] != params.feature_dim:
        raise ValueError(f"feature dim {x.shape[1]} != model dim {params.feature_dim}")
    if dropout_seed is not None and params.dropout_rate > 0.0:
        mask = np.random.default_rng(dropout_seed).random(x.shape) >= params.dropout_rate
        x = x * mask / (1.0 - params.dropout_rate)
    logits = x @ params.w_cls.T + params.b_cls
    z = logits - logits.max(axis=-1, keepdims=True)
    log_scores = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    refined = sample.proposal_boxes + (x @ params.w_reg.T + params.b_reg)
    return x, log_scores, np.exp(log_scores), refined


def oracle_detections(params: ModelParams, sample, dropout_seed=None) -> list[Detection]:
    """One Detection per proposal, each boxed and argmaxed on its own."""
    _, _, scores, refined = oracle_forward_arrays(params, sample, dropout_seed)
    out = []
    for j in range(sample.num_proposals):
        fg = scores[j, :params.num_classes]
        cid = int(np.argmax(fg))
        out.append(Detection(j, BBox.from_raw(*refined[j]), scores[j], cid, float(fg[cid])))
    return out


def oracle_mc_passes(params: ModelParams, sample, seeds):
    """(M, P, 4) boxes and (M, P, C+1) scores from one forward pass per seed."""
    passes = [oracle_detections(params, sample, seed) for seed in seeds]
    boxes = np.array([[det.box.as_array() for det in dets] for dets in passes])
    scores = np.array([[det.scores for det in dets] for dets in passes])
    return boxes, scores


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


def oracle_detection_loss(
    params: ModelParams,
    sample: DetectionSample,
    labels: list[tuple[BBox, np.ndarray]],
    weights=None,
    *,
    background="auto",
) -> tuple[float, GradientSet]:
    """`detection_loss` as a loop over the labels, one proposal row at a time.

    labels are (box, class_vector) pairs with class vectors over the C
    foreground classes (possibly soft). Each label supervises its highest-IoU
    proposal: smooth-L1 on the refined coordinates, (1 - GIoU), and weighted
    cross-entropy. `background` selects which unmatched proposals receive a
    background target: "auto" for all of them, None for none, or an explicit
    index list. Box terms average over matched labels; the CE term averages
    over all supervised instances, with background weights fixed at 1.
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
        return 0.0, GradientSet.zeros_like(params)
    n = len(labels)
    if weights is None:
        weights = np.ones(n)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ValueError("weights must align with expert labels")

    h, log_scores, scores, refined = oracle_forward_arrays(params, sample)
    num_fg = params.num_classes
    matches = match_labels(sample.proposal_boxes, box_array(box for box, _ in labels))

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
            total = GradientSet.zeros_like(params)
            for idx in batch:
                sample = source_data[int(idx)]
                labels = [(BBox(*row), np.eye(config.num_classes)[class_id])
                          for row, class_id in zip(sample.gt_boxes, sample.gt_classes)]
                loss, grads = oracle_detection_loss(params, sample, labels)
                total = total + grads
            params = sgd_step(params, total.scaled(1.0 / len(batch)), config.learning_rate)
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
            class_id = int(others[rng.integers(len(others))])
        width, height = box.x2 - box.x1, box.y2 - box.y1
        scale = np.array([width, height, width, height])
        offsets = rng.uniform(-spec.box_jitter, spec.box_jitter, 4) * scale
        labels.append((BBox.from_raw(*(box.as_array() + offsets)),
                       np.eye(num_classes)[class_id]))
    return labels


BOTH = "both"


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
    """Per (subset, class) FIFO buffers of `CropEntry` objects, one push per
    instance, read through a subset preference."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._buffers: dict[tuple[str, int], deque[CropEntry]] = {}

    def push(self, subset: str, class_id: int, entry: CropEntry) -> None:
        if subset not in SUBSETS:
            raise ValueError(f"unknown subset {subset!r}")
        self._buffers.setdefault((subset, class_id), deque(maxlen=self.capacity)).append(entry)

    def entries(self, subset: str, class_id: int) -> tuple[CropEntry, ...]:
        return tuple(self._buffers.get((subset, class_id), ()))

    def pool(self, preference: str, class_id: int) -> tuple[CropEntry, ...]:
        """"both" unions the two subsets, similar first; a specific subset
        falls back to the other one only when its own buffer is empty."""
        if preference == BOTH:
            return self.entries(SIMILAR, class_id) + self.entries(DISSIMILAR, class_id)
        own = self.entries(preference, class_id)
        if own:
            return own
        return self.entries(DISSIMILAR if preference == SIMILAR else SIMILAR, class_id)


def oracle_preference(sample_subset: str) -> str:
    """Similar samples draw from both subsets; dissimilar ones prefer their own."""
    return BOTH if sample_subset == SIMILAR else DISSIMILAR


def oracle_sample_pair(relation, base_class, is_majority, bank, preference, rng):
    """`sample_pair` over an `OracleCropbank`: the same weights and draws, one
    `CropEntry` out."""
    if is_majority:
        vec = relation.matrix[:, base_class].copy()
        vec[base_class] = 0.0
    else:
        vec = relation.matrix[base_class, :].copy()
    candidates, pools = [], []
    for k in range(relation.num_classes):
        pool = bank.pool(preference, k)
        if pool:
            candidates.append(k)
            pools.append(pool)
    if not candidates:
        return None
    w = vec[candidates]
    total = float(w.sum())
    probs = w / total if total > 0 else np.full(len(candidates), 1.0 / len(candidates))
    pool = pools[int(rng.choice(len(candidates), p=probs))]
    return pool[int(rng.integers(len(pool)))]


def oracle_mixup(base: CropEntry, pair: CropEntry, mix_ratio: float) -> CropEntry:
    """Convex blend of features and class vectors, as a checked `CropEntry`."""
    keep = mix_ratio
    return CropEntry(keep * base.feature + (1.0 - keep) * pair.feature,
                     keep * base.class_vec + (1.0 - keep) * pair.class_vec)


def oracle_split(relation) -> tuple[set[int], set[int]]:
    """(majority, minority) classes, one diagonal entry at a time: majority when
    strictly above the mean diagonal entry, minority otherwise."""
    diag = [float(relation.matrix[c, c]) for c in range(relation.num_classes)]
    mean = float(np.mean(diag))
    majority = {c for c, value in enumerate(diag) if value > mean}
    return majority, set(range(relation.num_classes)) - majority


def oracle_augment_sample(sample, labels, relation, split, bank, policy, sample_subset, rng):
    """`augment_sample` over (`BBox`, class vector) pairs, one label at a time,
    drawing from an `OracleCropbank`; `split` is `oracle_split`'s pair."""
    if not labels:
        return sample, []
    majority, minority = split
    features = sample.proposal_features.copy()
    matches = match_labels(sample.proposal_boxes, box_array(box for box, _ in labels))
    preference = oracle_preference(sample_subset)
    new_labels = []
    for i, (box, class_vec) in enumerate(labels):
        base_class = int(np.argmax(class_vec))
        protected = sample_subset == DISSIMILAR and base_class in minority
        if not protected and rng.random() < policy.p_aug:
            pair = oracle_sample_pair(relation, base_class, base_class in majority,
                                      bank, preference, rng)
            if pair is not None:
                j = int(matches[i])
                blended = oracle_mixup(CropEntry(features[j].copy(), class_vec), pair,
                                       policy.mix_ratio)
                features[j] = blended.feature
                new_labels.append((box, blended.class_vec))
                continue
        new_labels.append((box, class_vec))
    return sample.with_features(features), new_labels


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


def _oracle_pairs(model, strong, labels, relation, config):
    """(label class, predicted class) pairs of labels on a view, and their relation weights."""
    classes = [det.class_id for det in oracle_detections(model, strong)]
    matches = match_labels(strong.proposal_boxes, box_array(box for box, _ in labels))
    pairs = [(int(np.argmax(vec)), classes[j]) for (_, vec), j in zip(labels, matches.tolist())]
    weights = oracle_relation_weights(relation, pairs, config.weight_reg) \
        if (config.enable_sal and pairs) else None
    return pairs, weights


def oracle_adapt(source_params: ModelParams, target_data, config):
    """`adapt`'s final teacher and history, sample by sample through objects.

    Each sample gets its own teacher and student forward passes, one
    `Detection` per proposal; pseudo-labels, augmented labels and expert
    labels are (`BBox`, class vector) pairs; the crop bank, an
    `OracleCropbank`, takes one `CropEntry` per pseudo-label; each sample's
    losses come from the per-label loop oracles; the relation weights, the
    batch's confusion counts and the matrix update come from the per-pair
    and per-row oracles, the update skipped for a batch without labels.
    """
    config.validate()
    num_classes = config.num_classes
    report = partition(target_data, source_params, config.mc_passes,
                       config.variance_threshold, rng_stream(config.seed, "partition"))
    by_id = {s.id: s for s in target_data}
    student = source_params.copy()
    teacher = source_params.copy()
    relation = RelationMatrix.identity(num_classes, config.relation_ema)
    bank = OracleCropbank(config.bank_capacity)
    policy = AugmentPolicy(config.p_aug, config.mix_ratio)
    eval_spec = dataclasses.replace(config.target, size=config.eval_size)
    eval_data = generate_domain(eval_spec, derive_seed(config.seed, "world", "eval"))
    history = TrainHistory(num_classes)

    ids = sorted(by_id)
    for epoch in range(config.epochs):
        shuffle_rng = rng_stream(config.seed, "shuffle", epoch)
        aug_rng = rng_stream(config.seed, "augment", epoch)
        noise_rng = rng_stream(config.seed, "noise", epoch)
        stu_losses, expert_losses = [], []
        order = shuffle_rng.permutation(len(ids))
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            split = oracle_split(relation) if relation.ready else None
            views = []
            for pos in batch:
                sample = by_id[ids[int(pos)]]
                subset = report.subset_of(sample.id)
                dets = oracle_detections(teacher, sample)
                pseudo = [det for det in dets if det.score >= config.conf_threshold]
                labels = [(det.box, np.eye(num_classes)[det.class_id]) for det in pseudo]
                strong = sample
                if config.enable_sa and split is not None:
                    strong, labels = oracle_augment_sample(sample, labels, relation, split, bank,
                                                           policy, subset, aug_rng)
                if config.noise_scale > 0:
                    strong = perturb_features(strong, config.noise_scale, noise_rng)
                bg = None if config.background_bar is None else \
                    [det.proposal_index for det in dets if det.score < config.background_bar]
                elabels = None
                if config.enable_expert:
                    elabels = oracle_expert_predict(
                        config.expert, sample, rng_stream(config.seed, "expert", epoch, sample.id),
                        num_classes)
                views.append((strong, labels, bg, elabels))
                for det in pseudo:
                    bank.push(subset, det.class_id,
                              CropEntry(sample.proposal_features[det.proposal_index].copy(),
                                        np.eye(num_classes)[det.class_id]))

            total = GradientSet.zeros_like(student)
            batch_pairs = []
            for strong, labels, bg, elabels in views:
                pairs, weights = _oracle_pairs(student, strong, labels, relation, config)
                batch_pairs.extend(pairs)
                loss_stu, g_stu = oracle_detection_loss(student, strong, labels, weights,
                                                        background=bg)
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
    grads = GradientSet.zeros_like(params)
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


def oracle_evaluate(params: ModelParams, samples, iou_threshold=0.5, fpi_points=FPI_POINTS,
                    num_classes=None) -> EvalResult:
    """`evaluate` through objects: one `Detection` per proposal, a separate
    greedy match per class for AP, another over all classes for the FROC and
    F1 sweep, and a pairwise count for the image AUC."""
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
            flags = _match_from_scratch(rows, gts, iou_threshold)
            per_class.append(_interpolated_ap(np.cumsum([1.0 if f else 0.0 for f in flags]),
                                              np.cumsum([0.0 if f else 1.0 for f in flags]), npos))
    valid = [ap for ap in per_class if not np.isnan(ap)]
    map50 = float(np.mean(valid)) if valid else 0.0
    if num_classes is None:
        num_classes = params.num_classes
    per_class = (per_class + [float("nan")] * num_classes)[:num_classes]

    rows = _canonical_order(dets)
    flags = _match_from_scratch(rows, gts, iou_threshold)
    points = [(0, 0)]
    for i in range(len(rows)):
        if i + 1 == len(rows) or rows[i + 1][0] != rows[i][0]:
            tp = sum(flags[:i + 1])
            points.append((i + 1 - tp, tp))
    npos = sum(len(img) for img in gts)
    recalls = {}
    for budget in fpi_points:
        ok = [tp / npos for fp, tp in points if samples and npos and fp / len(samples) <= budget]
        recalls[budget] = max(ok, default=0.0)
    f1 = 0.0
    for fp, tp in points:
        if 2 * tp + fp + (npos - tp) > 0:
            f1 = max(f1, 2 * tp / (2 * tp + fp + (npos - tp)))

    image_scores = np.array([max((score for _, _, score in img), default=0.0) for img in dets])
    positive = np.array([bool(img) for img in gts], dtype=bool)
    pos, neg = image_scores[positive], image_scores[~positive]
    auc = None
    if len(pos) and len(neg):
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        auc = float(wins / (len(pos) * len(neg)))
    return EvalResult(map50, per_class, recalls, f1, auc)
