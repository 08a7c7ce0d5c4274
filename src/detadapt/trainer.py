"""Full adaptation pipeline: source pretraining, then source-free mean-teacher
self-training with relation-guided augmentation, relation-weighted losses and
expert supervision. A subset discriminator loss with gradient reversal is
provided, but not trained here: the detector is linear in the raw features, so
there is no feature trunk for its reversed gradients to align.

The teacher only ever moves by EMA; gradients touch only the student. Each
batch's losses come from one packed pass of the model being trained and one
call of the `supervised_losses` kernel per loss; in adaptation one packed
teacher pass gives the batch's pseudo-labels. Labels reach the kernel as
`Labels` arrays. All randomness flows from the single config seed through
named sub-streams, so a run is a pure function of its config.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import os
from dataclasses import dataclass, field

import numpy as np

from .config import AdaptationConfig
from .cropbank import AugmentPolicy, Cropbank, augment_sample
from .detector import (GradientSet, Labels, ModelParams, Scored, TrainingError,
                       match_labels, save_params, sgd_step, supervised_losses, targets)
from .expert import expert_predict
from .metrics import evaluate
from .partition import SIMILAR, partition
from .relation import RelationMatrix, batch_confusion
from .teacher import background_indices, ema_update, pseudo_label
from .util import derive_seed, rng_stream, write_atomic
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
    y = np.array([1.0 if t in (SIMILAR, 1, 1.0, True) else 0.0 for t in subset_tags])
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

    def final_teacher_map(self) -> float:
        return self.records[-1].teacher_map if self.records else float("nan")


def _batches(order: np.ndarray, batch_size: int):
    for start in range(0, len(order), batch_size):
        yield order[start:start + batch_size]


def pretrain_source(config: AdaptationConfig) -> tuple[ModelParams, SealedDataset]:
    """Supervised training on freshly generated source data, then seal it.

    Ground-truth targets and their matches are built once; each batch is then
    one packed pass and one `supervised_losses` call, its per-sample gradients
    summed in batch order. With pretrain_epochs=0 the randomly initialized
    model is returned as-is. The sealed handle is returned so callers can
    prove the source stays closed.
    """
    config.validate()
    source_data = generate_domain(config.source, derive_seed(config.seed, "world", "source"))
    params = ModelParams.init(config.num_classes, config.source.feature_dim,
                              rng_stream(config.seed, "init"),
                              dropout_rate=config.dropout_rate)
    # ground-truth matches never change, so the targets are built once
    source_targets = [targets(s, Labels.one_hot(s.gt_boxes, s.gt_classes, config.num_classes))
                      for s in source_data]
    shuffle_rng = rng_stream(config.seed, "pretrain-shuffle")
    for epoch in range(config.pretrain_epochs):
        order = shuffle_rng.permutation(len(source_data))
        for batch in _batches(order, config.batch_size):
            batch = batch.tolist()
            scored = Scored(params, [source_data[i] for i in batch])
            total = GradientSet.zeros_like(params)
            for loss, grads in supervised_losses(scored, [source_targets[i] for i in batch]):
                if not np.isfinite(loss):
                    raise TrainingError(f"non-finite pretrain loss at epoch {epoch}")
                total = total + grads
            params = sgd_step(params, total.scaled(1.0 / len(batch)), config.learning_rate)
    sealed = SealedDataset(source_data)
    sealed.seal()
    return params, sealed


def adapt(
    source_params: ModelParams,
    target_data: list[DetectionSample],
    config: AdaptationConfig,
    out_dir: str | None = None,
) -> tuple[ModelParams, TrainHistory]:
    """Source-free adaptation; returns the final teacher and the epoch history.

    Per batch: teacher pseudo-labels each clean sample, the student trains on
    the augmented noisy view with relation-derived instance weights plus expert
    supervision, the teacher follows by EMA, and the relation matrix and crop
    banks absorb the batch statistics.

    Per sample-step each model runs forward once, in one packed pass per
    batch, since neither model moves within a batch. Sample by sample, the
    teacher's rows of its pass give the confident proposals, which become
    hard `Labels`, and the background proposals. With SA on, each batch takes
    `relation.majority()` once the matrix is ready, and the crop bank files
    sample k's confident features under their pseudo-label classes, in one
    push, before sample k + 1 is augmented; `aug_rng` draws in that order.
    With SA off nothing reads the bank or the majority set, so neither is
    filled nor computed.

    The student's pass over the strong views feeds one `supervised_losses`
    call per loss. Each label set is matched to the proposals once;
    augmentation keeps label and proposal boxes, so the matches serve the
    losses and the relation statistics alike. A label's class and the
    student's class at its matched proposal travel as two int arrays: with
    SAL on they give each sample's `relation_weights`, and the student
    labels' arrays of the whole batch give one `batch_confusion` and one
    relation update per batch (a batch without labels counts zero, which
    leaves the matrix as it is).
    """
    config.validate()
    num_classes = config.num_classes
    report = partition(target_data, source_params, config.mc_passes,
                       config.variance_threshold, rng_stream(config.seed, "partition"))
    by_id = {s.id: s for s in target_data}

    student = source_params.copy()
    teacher = source_params.copy()
    relation = RelationMatrix.identity(num_classes, config.relation_ema)
    bank = Cropbank(config.bank_capacity)
    policy = AugmentPolicy(config.p_aug, config.mix_ratio)

    eval_spec = dataclasses.replace(config.target, size=config.eval_size)
    eval_data = generate_domain(eval_spec, derive_seed(config.seed, "world", "eval"))

    history = TrainHistory(num_classes)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        report.save_csv(os.path.join(out_dir, "partition.csv"))

    ids = sorted(by_id)
    for epoch in range(config.epochs):
        shuffle_rng = rng_stream(config.seed, "shuffle", epoch)
        aug_rng = rng_stream(config.seed, "augment", epoch)
        noise_rng = rng_stream(config.seed, "noise", epoch)

        stu_losses, expert_losses = [], []
        order = shuffle_rng.permutation(len(ids))
        for batch in _batches(order, config.batch_size):
            majority = relation.majority() if config.enable_sa and relation.ready else None
            samples = [by_id[ids[int(pos)]] for pos in batch]
            scored_t = Scored(teacher, samples)
            views = []
            for i, sample in enumerate(samples):
                subset = report.subset_of(sample.id)
                rows = scored_t.sample(i)
                pseudo = pseudo_label(teacher, sample, config.conf_threshold, scored=rows)
                clean = Labels.one_hot(rows.boxes[pseudo], rows.class_ids[pseudo], num_classes)
                matches = match_labels(sample.proposal_boxes, clean.boxes)
                strong, labels = sample, clean
                if majority is not None:
                    strong, labels = augment_sample(sample, clean, relation, majority, bank,
                                                    policy, subset, aug_rng, matches=matches)
                strong = perturb_features(strong, config.noise_scale, noise_rng)
                bg = None if config.background_bar is None else \
                    background_indices(teacher, sample, config.background_bar, scored=rows)
                elabels = None
                if config.enable_expert:
                    expert_rng = rng_stream(config.seed, "expert", epoch, sample.id)
                    elabels = expert_predict(config.expert, sample, expert_rng, num_classes)
                views.append((strong, labels, matches, bg, elabels))

                # bank absorbs the clean features of confident instances, for SA alone
                if config.enable_sa:
                    bank.push(subset, rows.class_ids[pseudo], sample.proposal_features[pseudo])

            # the student does not move within a batch: one pass scores every view
            scored_s = Scored(student, [view[0] for view in views])
            predicted = scored_s.class_ids
            stu_targets, exp_targets, true_cls, pred_cls = [], [], [], []
            for start, (strong, labels, matches, bg, elabels) in zip(scored_s.offsets, views):
                true_cls.append(np.argmax(labels.classes, axis=1))
                pred_cls.append(predicted[start + matches])
                weights = relation_weights(relation, true_cls[-1], pred_cls[-1],
                                           config.weight_reg) if config.enable_sal else None
                stu_targets.append(targets(strong, labels, weights, bg, matches))
                if config.enable_expert:
                    ematches = match_labels(strong.proposal_boxes, elabels.boxes)
                    eweights = relation_weights(relation, np.argmax(elabels.classes, axis=1),
                                                predicted[start + ematches], config.weight_reg) \
                        if config.enable_sal else None
                    exp_targets.append(targets(strong, elabels, eweights, None, ematches))

            # one kernel call per loss; gradients add up per sample, student then expert
            expert_terms = supervised_losses(scored_s, exp_targets, (config.expert_cls_weight,
                                                                     config.expert_reg_weight)) \
                if config.enable_expert else []
            total = GradientSet.zeros_like(student)
            for i, (loss_stu, g_stu) in enumerate(supervised_losses(scored_s, stu_targets)):
                total = total + g_stu.scaled(config.unsup_weight)
                stu_losses.append(loss_stu)
                if expert_terms:
                    loss_exp, g_exp = expert_terms[i]
                    total = total + g_exp
                    expert_losses.append(loss_exp)

            if not total.is_finite():
                raise TrainingError(f"non-finite loss at epoch {epoch}")
            student = sgd_step(student, total.scaled(1.0 / len(batch)), config.learning_rate)
            teacher = ema_update(teacher, student, config.teacher_ema)
            relation.update(batch_confusion(np.concatenate(true_cls), np.concatenate(pred_cls),
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
        if out_dir:
            save_params(os.path.join(out_dir, f"epoch_{epoch:03d}_teacher.json"), teacher)
            relation.save_rows(os.path.join(out_dir, f"epoch_{epoch:03d}_relation.json"))

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
