"""Full adaptation pipeline: source pretraining, then source-free mean-teacher
self-training with relation-guided augmentation, relation-weighted losses and
expert supervision. A subset discriminator loss with gradient reversal is
provided, but not trained here: the detector is linear in the raw features, so
there is no feature trunk for its reversed gradients to align.

The teacher only ever moves by EMA; gradients touch only the student. A run
packs its set's rows and fixed `Targets` (ground truth, or the frozen
expert's) once, each epoch gathers them in shuffle order once, and each batch
is a slice of those. Its losses come from one packed pass of the model being
trained and one pass of the `supervised_losses` kernel for all of them; in
adaptation one packed teacher pass gives the batch's pseudo-labels, each
supervising the pass row it was read from, so only the frozen expert's
labels are matched to proposals by IoU, once per run. Labels reach the
kernel as `Targets` of the whole batch laid out (`loss_layout`), and the
kernel returns each sample's loss and the batch's gradients, summed by one
product over the batch. At batch size 1 a run equals a per-sample loop bit
for bit. At larger batches the product adds the samples in another order
than a per-sample sum (see `supervised_losses`), which moves the parameters'
last bits: within a relative 2e-12 of the loop's after 10 default epochs. All
randomness flows from the single config seed through named sub-streams, so a
run is a pure function of its config.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import os
from dataclasses import dataclass, field

import numpy as np

from .config import AdaptationConfig
from .cropbank import Cropbank, augment_sample
from .detector import (Labels, ModelParams, Scored, TrainingError, loss_layout, pack,
                       save_params, segment_rows, sgd_step, supervised_losses, targets)
from .expert import expert_predict
from .metrics import EvalResult, evaluate
from .relation import RelationMatrix, batch_confusion
from .teacher import background_indices, ema_update, pseudo_label
from .util import derive_seed, rng_stream, sorted_by_id, write_atomic
from .weighting import relation_weights
from .world import DetectionSample, generate_domain, perturb_features


class SourceAccessError(RuntimeError):
    """Raised when sealed source data is touched during adaptation."""


class SealedDataset:
    """List-like dataset handle that can be permanently revoked.

    Source data is wrapped in one of these and sealed once pretraining ends;
    any later access is a contract violation, not a silent read.
    """

    def __init__(self, samples: list[DetectionSample]):
        self._samples = samples
        self._sealed = False

    def seal(self) -> None:
        self._sealed = True

    @property
    def sealed(self) -> bool:
        return self._sealed

    def _check(self) -> None:
        if self._sealed:
            raise SourceAccessError("source dataset was sealed after pretraining")

    def __len__(self) -> int:
        self._check()
        return len(self._samples)

    def __getitem__(self, index):
        self._check()
        return self._samples[index]

    def __iter__(self):
        self._check()
        return iter(list(self._samples))


@dataclass
class DiscriminatorParams:
    """Linear logistic probe over feature vectors."""

    w: np.ndarray
    b: float = 0.0

    @classmethod
    def zeros(cls, feature_dim: int) -> "DiscriminatorParams":
        return cls(np.zeros(feature_dim), 0.0)


def discriminator_loss(disc: DiscriminatorParams, features: np.ndarray, subset_tags):
    """Logistic subset-prediction loss with gradient-reversal outputs.

    Returns (loss, (dw, db), reversed_feature_grads). The feature gradients are
    sign-flipped so an upstream feature producer trained with them becomes
    subset-invariant. They are the gradients of the batch-mean loss, so a
    linear map `features = inputs @ T.T` upstream has gradient
    `reversed.T @ inputs`, with no further averaging. Probe and such a map play
    a bilinear min-max game: plain simultaneous steps of both cycle around the
    saddle instead of converging, while extragradient steps (gradients taken
    at a half step) converge. Batches containing a single subset are skipped
    (zero loss and gradients). Tags may be subset strings or 0/1 labels.
    """
    feats = np.asarray(features, dtype=float).reshape(len(subset_tags), -1)
    y = np.array([1.0 if t in ("similar", 1, 1.0, True) else 0.0 for t in subset_tags])
    zeros = (np.zeros_like(disc.w), 0.0)
    if len(y) == 0 or y.min() == y.max():
        return 0.0, zeros, np.zeros_like(feats)
    z = feats @ disc.w + disc.b
    # softplus(z) - y*z is the stable form of -[y log p + (1-y) log(1-p)]
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    p = 1.0 / (1.0 + np.exp(-z))
    dz = (p - y) / len(y)
    grad_w = feats.T @ dz
    grad_b = float(dz.sum())
    reversed_feats = -np.outer(dz, disc.w)
    return loss, (grad_w, grad_b), reversed_feats


@dataclass
class EpochRecord:
    epoch: int
    student_map: float
    teacher_map: float
    per_class_ap: list[float]  # teacher's, nan where the class has no eval GT
    loss_stu: float
    loss_expert: float


@dataclass
class TrainHistory:
    num_classes: int
    records: list[EpochRecord] = field(default_factory=list)
    # `adapt`'s eval of the teacher it returns (at 0 epochs, the source model's)
    final_teacher_eval: EvalResult | None = None

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        header = ["epoch", "student_map", "teacher_map"]
        header += [f"ap_class_{c}" for c in range(self.num_classes)]
        header += ["loss_stu", "loss_expert"]
        writer.writerow(header)
        for r in self.records:
            row = [r.epoch, repr(r.student_map), repr(r.teacher_map)]
            row += [repr(float(ap)) for ap in r.per_class_ap]
            row += [repr(r.loss_stu), repr(r.loss_expert)]
            writer.writerow(row)
        return buf.getvalue()

    def save_csv(self, path) -> None:
        write_atomic(path, self.to_csv_text())


def pretrain_source(config: AdaptationConfig) -> tuple[ModelParams, SealedDataset]:
    """Supervised training on freshly generated source data, then seal it.

    The source set's rows are packed and its ground-truth targets built,
    once. Each epoch gathers both in shuffle order (`segment_rows`,
    `Targets.take`) and lays them out once (`loss_layout`): every array of
    the loss that does not read the model (pass rows, GIoU target corners
    and areas, segment ids and divisors) is built 25 times in a default run,
    not once per each of its 800 steps. Each batch cuts its rows and layout
    out of the epoch's (`LossLayout.cut`) for one packed pass and one
    `supervised_losses` call, with the bits of the batch packed and laid out
    alone; each step takes the mean of its gradients, one op on the
    gradients' `flat` buffer, and `sgd_step` is one more on the model's. With
    pretrain_epochs=0 the randomly initialized model is returned as-is. The
    sealed handle is returned so callers can prove the source stays closed.
    """
    config.validate()
    source_data = generate_domain(config.source, derive_seed(config.seed, "world", "source"))
    params = ModelParams.init(config.num_classes, config.source.feature_dim,
                              rng_stream(config.seed, "init"),
                              dropout_rate=config.dropout_rate)
    # rows and ground-truth matches never change, so both are packed once, as one block
    features, boxes, offsets = pack(source_data)
    source_targets = targets(boxes, offsets, Labels.pack(
        (Labels.one_hot(s.gt_boxes, s.gt_classes, config.num_classes) for s in source_data),
        config.num_classes))
    shuffle_rng = rng_stream(config.seed, "pretrain-shuffle")
    for epoch in range(config.pretrain_epochs):
        order = shuffle_rng.permutation(len(source_data))
        rows, block = segment_rows(offsets, order)
        x, b = features[rows], boxes[rows]
        layout = loss_layout(block, [(source_targets.take(order), None)], config.num_classes)
        for start in range(0, len(order), config.batch_size):
            stop = min(start + config.batch_size, len(order))
            batch, part = layout.cut(start, stop), slice(block[start], block[stop])
            scored = Scored(params, x[part], b[part], batch.offsets)
            (losses, grads), = supervised_losses(scored, batch)
            if not np.isfinite(losses).all():
                raise TrainingError(f"non-finite pretrain loss at epoch {epoch}")
            params = sgd_step(params, grads.scaled(1.0 / (stop - start)), config.learning_rate)
    sealed = SealedDataset(source_data)
    sealed.seal()
    return params, sealed


def adapt(
    source_params: ModelParams,
    target_data: list[DetectionSample],
    config: AdaptationConfig,
    out_dir: str | None = None,
) -> tuple[ModelParams, TrainHistory]:
    """Source-free adaptation; returns the final teacher and the epoch history,
    whose `final_teacher_eval` is that teacher's evaluation on the eval set:
    the last epoch's, or at 0 epochs one of the source model it returns.

    Per batch: teacher pseudo-labels each clean sample, the student trains on
    the augmented noisy view with relation-derived instance weights plus expert
    supervision, the teacher follows by EMA, and the relation matrix and crop
    banks absorb the batch statistics. Target sample ids must be distinct.
    With `out_dir`, each epoch's teacher and relation rows are saved there.

    Per sample-step each model runs forward once, in one packed pass per
    batch, since neither model moves within a batch, on row-range views of
    the epoch's rows (the target set, packed once and gathered in shuffle
    order by `segment_rows`), which nothing writes into. Labels, targets and
    weights are arrays over the whole batch, with per-sample offsets; Python
    loops over samples only where the order demands it:
    - The teacher's pass gives the batch's confident rows (`pseudo_label`,
      cut into samples by `np.searchsorted` at the pass's offsets) and its
      background rows (`background_indices`), one call each. The confident
      rows become the batch's hard `Labels`, and each label supervises the
      row it was read from: `rows` are the labels' matches, so no IoU search
      runs. Teacher and student score the same proposals, so a label knows
      its proposal; it keeps that row even where its refined box lies nearer
      another proposal. Augmentation keeps the labels' boxes and the
      proposals, so the rows serve the blends, the losses and the relation
      statistics alike.
    - The strong view is one array, from the teacher pass's features `h`.
      With SA on, once the matrix is ready the batch takes
      `relation.majority()` and blends labels and rows in one
      `augment_sample` call, which draws from the crop bank as it stood
      before the batch and, the rows being distinct, blends in one round;
      then the bank files the batch's confident rows under their
      pseudo-label classes in one push, one scatter into its per-class
      rings. No batch draws its own rows, the order of the MoCo queue. With
      SA off nothing reads the bank or the majority set, so neither is
      filled nor computed. The batch's noise is one draw.
    - The student's pass over that array, on the teacher pass's boxes, feeds
      one `supervised_losses` call on the `loss_layout` of two terms, the
      student's `targets` and the expert's. Each label's class and the
      student's class at its proposal travel as two int arrays: with SAL on,
      one `relation_weights` call weighs both terms' labels, each sample's of
      each term alone (the student's label offsets, then the expert's shifted
      past them), and each term takes its slice of the weights; the
      student's give one `batch_confusion` and one relation update per batch
      (a batch without labels counts zero, which leaves the matrix as is).
    - `sgd_step` checks the step's gradients for finiteness, once per batch;
      a non-finite one raises `TrainingError` naming the epoch.

    The expert is frozen: before epoch 0 one `expert_predict` call draws
    each target sample's labels, from `rng_stream(seed, "expert", sample
    id)`. They are free boxes, not proposal rows, so they are matched to the
    proposals by IoU (`match_labels`) once per run, as one `Targets` block
    of the whole target set; augmentation and noise keep the proposal boxes,
    so those matches hold in every epoch. Each epoch takes them in shuffle
    order once (`Targets.take`) and each batch cuts its samples' part from
    that (`Targets.cut`); only their relation weights follow the student.
    """
    config.validate()
    num_classes = config.num_classes
    ordered = sorted_by_id(target_data)

    student = source_params.copy()
    teacher = source_params.copy()
    relation = RelationMatrix.identity(num_classes, config.relation_ema)
    bank = Cropbank(config.bank_capacity, num_classes)

    eval_spec = dataclasses.replace(config.target, size=config.eval_size)
    eval_data = generate_domain(eval_spec, derive_seed(config.seed, "world", "eval"))

    history = TrainHistory(num_classes)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    # the target rows, and the frozen expert's labels and matches, never change
    set_x, set_boxes, set_offsets = pack(ordered)
    expert = None
    if config.enable_expert:
        expert = targets(set_boxes, set_offsets, expert_predict(
            config.expert, ordered, [rng_stream(config.seed, "expert", s.id) for s in ordered],
            num_classes), background=None)
    for epoch in range(config.epochs):
        shuffle_rng = rng_stream(config.seed, "shuffle", epoch)
        aug_rng = rng_stream(config.seed, "augment", epoch)
        noise_rng = rng_stream(config.seed, "noise", epoch)

        stu_losses, expert_losses = [], []
        order = shuffle_rng.permutation(len(ordered))
        picked, block = segment_rows(set_offsets, order)
        epoch_x, epoch_boxes = set_x[picked], set_boxes[picked]
        epoch_expert = None if expert is None else expert.take(order)
        for start in range(0, len(order), config.batch_size):
            stop = min(start + config.batch_size, len(order))
            majority = relation.majority() if config.enable_sa and relation.ready else None
            part = slice(block[start], block[stop])
            boxes, offsets = epoch_boxes[part], block[start:stop + 1] - block[start]
            scored_t = Scored(teacher, epoch_x[part], boxes, offsets)
            # the teacher's confident rows become the batch's hard labels, one block
            rows = pseudo_label(teacher, scored_t, config.conf_threshold)
            label_offsets = rows.searchsorted(offsets)
            labels = Labels.one_hot(scored_t.boxes[rows], scored_t.class_ids[rows], num_classes,
                                    label_offsets)

            strong = scored_t.h
            if config.enable_sa:
                if majority is not None:
                    strong, labels = augment_sample(strong, labels, relation, majority, bank,
                                                    config.p_aug, config.mix_ratio, aug_rng,
                                                    matches=rows)
                # then the bank files the clean features of confident instances,
                # the teacher's unperturbed pass rows, one push per batch
                bank.push(scored_t.class_ids[rows], scored_t.h[rows])
            strong = perturb_features(strong, config.noise_scale, noise_rng)
            bg = None if config.background_bar is None else \
                background_indices(teacher, scored_t, config.background_bar)

            # the student does not move within a batch: one pass scores every view
            scored_s = Scored(student, strong, boxes, offsets)
            parts = [targets(boxes, offsets, labels, None, bg, rows)]
            if epoch_expert is not None:
                parts.append(epoch_expert.cut(start, stop))
            # each part's label classes and the student's classes at their
            # proposals; part t's sample i is segment t * n + i of one weights call
            true_cls = np.concatenate([p.classes for p in parts]).argmax(axis=1)
            pred_cls = scored_s.class_ids[np.concatenate([rows] + [p.label_rows(offsets)
                                                                   for p in parts[1:]])]
            if config.enable_sal:
                n = len(rows)  # the expert's labels follow the student's
                segments = np.concatenate([label_offsets] + [p.offsets[1:] + n for p in parts[1:]])
                weights = relation_weights(relation, true_cls, pred_cls, config.weight_reg,
                                           segments)
                parts = [p._replace(weights=weights[a:b])
                         for p, a, b in zip(parts, (0, n), (n, None))]
            # one kernel pass for both losses, each giving the batch's summed gradients
            experts = [None, (config.expert_cls_weight, config.expert_reg_weight)]
            layout = loss_layout(offsets, list(zip(parts, experts)), num_classes)
            (loss_stu, g_stu), *expert_term = supervised_losses(scored_s, layout)
            total = g_stu.scaled(config.unsup_weight)
            stu_losses.extend(loss_stu)
            for loss_exp, g_exp in expert_term:
                total = total + g_exp
                expert_losses.extend(loss_exp)

            try:  # `sgd_step` checks the gradients' finiteness, once per batch
                student = sgd_step(student, total.scaled(1.0 / (stop - start)),
                                   config.learning_rate)
            except TrainingError as error:
                raise TrainingError(f"non-finite loss at epoch {epoch}") from error
            teacher = ema_update(teacher, student, config.teacher_ema)
            relation.update(batch_confusion(true_cls[:len(rows)], pred_cls[:len(rows)],
                                            num_classes))

        teacher_eval = evaluate(teacher, eval_data, num_classes=num_classes)
        student_eval = evaluate(student, eval_data, num_classes=num_classes)
        record = EpochRecord(
            epoch=epoch,
            student_map=student_eval.map50,
            teacher_map=teacher_eval.map50,
            per_class_ap=teacher_eval.per_class_ap,
            loss_stu=float(np.mean(stu_losses)) if stu_losses else 0.0,
            loss_expert=float(np.mean(expert_losses)) if expert_losses else 0.0,
        )
        history.records.append(record)
        history.final_teacher_eval = teacher_eval
        if out_dir:
            save_params(os.path.join(out_dir, f"epoch_{epoch:03d}_teacher.json"), teacher)
            relation.save_rows(os.path.join(out_dir, f"epoch_{epoch:03d}_relation.json"))
    if not config.epochs:
        history.final_teacher_eval = evaluate(teacher, eval_data, num_classes=num_classes)

    return teacher, history


def ablation_variants(config: AdaptationConfig) -> dict[str, AdaptationConfig]:
    """Base (plain mean teacher), +SA, +SAL and the full pipeline."""
    base = dataclasses.replace(config, enable_sa=False, enable_sal=False,
                               enable_expert=False)
    return {
        "base": base,
        "sa": dataclasses.replace(base, enable_sa=True),
        "sal": dataclasses.replace(base, enable_sal=True),
        "full": dataclasses.replace(base, enable_sa=True, enable_sal=True,
                                    enable_expert=True),
    }
