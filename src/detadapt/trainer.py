"""Full adaptation pipeline: source pretraining, then source-free mean-teacher
self-training with relation-guided augmentation, relation-weighted losses and
expert supervision. A subset discriminator loss with gradient reversal is
provided, but not trained here: the detector is linear in the raw features, so
there is no feature trunk for its reversed gradients to align.

The teacher only ever moves by EMA; gradients touch only the student.
`adapt` builds a run's first `AdaptState` and its `AdaptFixed` set, then
runs `adapt_epoch` once per epoch; the state holds all that crosses an epoch
boundary, so a run stopped between epochs continues from its state alone.
Pretraining and adaptation follow one batch plan (`_batches`): a batch's
losses come from one packed pass of the model being trained and one
`supervised_losses` call per loss term, each on that term's `LossLayout`
(`loss_layout`): pretraining's ground truth and the expert's labels, each
laid out once per run, and the student's pseudo-labels, laid out per batch.
The kernel returns each sample's loss and the batch's gradients, summed by
one product over the batch. At batch size 1 a run equals a per-sample loop
bit for bit. At larger batches the product adds the samples in another
order than a per-sample sum (see `supervised_losses`), which moves the
parameters' last bits: within a relative 2e-12 of the loop's after 10
default epochs. All randomness flows from the single config seed through
named sub-streams, so a run is a pure function of its config.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import AdaptationConfig
from .cropbank import Cropbank, augment_sample
from .detector import (Labels, LossLayout, ModelParams, Scored, TrainingError, loss_layout, pack,
                       save_params, segment_rows, sgd_step, supervised_losses)
from .expert import expert_predict
from .metrics import EvalResult, evaluate
from .relation import RelationMatrix, batch_confusion
from .teacher import background_indices, ema_update, pseudo_label
from .util import derive_seed, rng_stream, sorted_by_id, to_json, write_atomic
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


@dataclass
class AdaptState:
    """Everything of an adaptation run that crosses an epoch boundary: `epoch`,
    the number of epochs run and so the index of the next, the student, the
    teacher, the relation matrix, the crop bank and the history. The random
    streams are drawn per epoch (`rng_stream(seed, name, epoch)`), so they
    are no state. A state pickled after any epoch and continued gives the
    uninterrupted run bit for bit.

    `adapt_epoch` advances `relation`, `bank` and `history` in place, so it
    consumes the state passed to it. A caller that wants to branch a run
    copies (`copy.deepcopy`) or pickles the state first.
    """

    epoch: int
    student: ModelParams
    teacher: ModelParams
    relation: RelationMatrix
    bank: Cropbank
    history: TrainHistory

    @classmethod
    def start(cls, source_params: ModelParams, config: AdaptationConfig) -> "AdaptState":
        """Epoch 0: student and teacher are copies of the source model."""
        return cls(0, source_params.copy(), source_params.copy(),
                   RelationMatrix.identity(config.num_classes, config.relation_ema),
                   Cropbank(config.bank_capacity, config.num_classes),
                   TrainHistory(config.num_classes))


class AdaptFixed(NamedTuple):
    """What an adaptation run builds once and never changes: the target set,
    sorted by id and packed (`pack`), the frozen expert's loss term on it
    (None with the expert off), the eval set and the JSON form of the config
    it was built from (`util.to_json`), which `adapt_epoch` checks.

    The expert is frozen: one `expert_predict` call draws each target
    sample's labels, from `rng_stream(seed, "expert", sample id)`. They are
    free boxes, not proposal rows, so they are matched to the proposals by
    IoU (`match_labels`) once per run, and laid out once per run as one
    expert term of the whole target set, with the config's
    `(expert_cls_weight, expert_reg_weight)` (`loss_layout`); augmentation
    and noise keep the proposal boxes, so that layout holds in every epoch.
    The eval set is a fresh world of the target spec, `eval_size` samples
    from `derive_seed(seed, "world", "eval")`.
    """

    packed: tuple[np.ndarray, np.ndarray, np.ndarray]
    expert: LossLayout | None
    eval_data: list[DetectionSample]
    config: dict

    @classmethod
    def build(cls, target_data: list[DetectionSample], config: AdaptationConfig) -> "AdaptFixed":
        """Raises `ValueError` if two target samples share an id."""
        ordered = sorted_by_id(target_data)
        eval_spec = dataclasses.replace(config.target, size=config.eval_size)
        eval_data = generate_domain(eval_spec, derive_seed(config.seed, "world", "eval"))
        x, boxes, offsets = pack(ordered)
        expert = None
        if config.enable_expert:
            labels = expert_predict(config.expert, ordered,
                                    [rng_stream(config.seed, "expert", s.id) for s in ordered],
                                    config.num_classes)
            expert = loss_layout(boxes, offsets, labels,
                                 (config.expert_cls_weight, config.expert_reg_weight),
                                 config.num_classes, background=None)
        return cls((x, boxes, offsets), expert, eval_data, to_json(config))


def _batches(packed, fixed: LossLayout | None, shuffle_rng: np.random.Generator,
             config: AdaptationConfig):
    """One epoch's batches of a packed set, its samples shuffled by one
    `shuffle_rng.permutation`, each with its part of the set's fixed loss
    term.

    A run packs its set's rows (`pack`) and lays out its fixed term
    (pretraining's ground truth, adaptation's frozen expert labels) once, as
    one `LossLayout` of the whole set: every array of the loss that does not
    read the model (pass rows, GIoU target corners and areas, segment ids
    and offsets) is built once per run, not once per epoch or step. Each
    epoch gathers the rows in shuffle order (`segment_rows`) and takes the
    fixed term's samples in that order (`LossLayout.take`). Each batch of
    `config.batch_size` samples, the last perhaps fewer, is a slice of those
    rows, row-range views that nothing writes into, and a cut of that layout
    (`LossLayout.cut`), with the bits of the batch packed and laid out
    alone. Yields each batch's features, boxes, offsets (from 0) and cut;
    without a fixed term the cut is None.
    """
    x, boxes, offsets = packed
    order = shuffle_rng.permutation(len(offsets) - 1)
    rows, block = segment_rows(offsets, order)
    x, boxes = x[rows], boxes[rows]
    layout = None if fixed is None else fixed.take(order)
    for start in range(0, len(order), config.batch_size):
        stop = min(start + config.batch_size, len(order))
        part = slice(block[start], block[stop])
        yield (x[part], boxes[part], block[start:stop + 1] - block[start],
               None if layout is None else layout.cut(start, stop))


def pretrain_source(config: AdaptationConfig) -> tuple[ModelParams, SealedDataset]:
    """Supervised training on freshly generated source data, then seal it.

    The source set's rows are packed and its ground truth laid out as one
    detection term, once per run; each epoch runs the batch plan of
    `_batches` on them. Each batch is one packed pass and one
    `supervised_losses` call on its cut; each step takes the mean of its
    gradients, one op on the gradients' `flat` buffer, and `sgd_step` is one
    more on the model's. With pretrain_epochs=0 the randomly initialized
    model is returned as-is. The sealed handle is returned so callers can
    prove the source stays closed.
    """
    config.validate()
    source_data = generate_domain(config.source, derive_seed(config.seed, "world", "source"))
    params = ModelParams.init(config.num_classes, config.source.feature_dim,
                              rng_stream(config.seed, "init"),
                              dropout_rate=config.dropout_rate)
    # rows and the ground-truth term never change, so both are built once, as one block
    packed = pack(source_data)
    ground_truth = loss_layout(packed[1], packed[2], Labels.pack(
        (Labels.one_hot(s.gt_boxes, s.gt_classes, config.num_classes) for s in source_data),
        config.num_classes), None, config.num_classes)
    shuffle_rng = rng_stream(config.seed, "pretrain-shuffle")
    for epoch in range(config.pretrain_epochs):
        for x, boxes, offsets, batch in _batches(packed, ground_truth, shuffle_rng, config):
            losses, grads = supervised_losses(Scored(params, x, boxes, offsets), batch)
            if not np.isfinite(losses).all():
                raise TrainingError(f"non-finite pretrain loss at epoch {epoch}")
            params = sgd_step(params, grads.scaled(1.0 / (len(offsets) - 1)),
                              config.learning_rate)
    sealed = SealedDataset(source_data)
    sealed.seal()
    return params, sealed


def adapt_epoch(state: AdaptState, fixed: AdaptFixed, config: AdaptationConfig) -> AdaptState:
    """Epoch `state.epoch` of adaptation; returns the state after it, whose
    history holds the epoch's record and teacher evaluation. Consumes
    `state` (see `AdaptState`). Raises `ValueError` if `fixed` was built
    from another config than `config` (their `util.to_json` forms differ),
    since its expert term holds that config's expert switch and weights.

    Per batch: the teacher pseudo-labels each clean sample, the student
    trains on the augmented noisy view with relation-derived instance
    weights plus expert supervision, the teacher follows by EMA, and the
    relation matrix and crop banks absorb the batch statistics. The batches
    follow `_batches`, the expert's layout being the fixed term.

    Per sample-step each model runs forward once, in one packed pass per
    batch, since neither model moves within a batch. Labels, targets and
    weights are arrays over the whole batch, with per-sample offsets;
    Python loops over samples only where the order demands it:
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
      before the batch and, the rows being distinct, blends in one step;
      then the bank files the batch's confident rows under their
      pseudo-label classes in one push, one scatter into its per-class
      rings. No batch draws its own rows, the order of the MoCo queue. With
      SA off nothing reads the bank or the majority set, so neither is
      filled nor computed. The batch's noise is one draw.
    - The student's pass over that array, on the teacher pass's boxes, feeds
      one `supervised_losses` call per term: on the student's term, laid
      out per batch (`loss_layout`, its labels' rows as their matches and
      the teacher's background rows), and with the expert on, on the
      batch's cut of the expert's layout. Each label's class and the
      student's class at its proposal travel as two int arrays. A
      pseudo-label's class is the teacher's at its row, not the argmax of
      its class vector: a blend mixes two classes, and that argmax is the
      lower of the two ids at a `mix_ratio` of .5 and the partner's below. An
      expert layout's CE rows are its one-hot labels, in label order, so
      the expert's classes are its cut's `ce_target` argmax, and the
      student's at them is read at the cut's `label_rows`. With SAL on, one
      `relation_weights` call weighs both terms' labels, each sample's of
      each term alone (the student's label offsets, then the expert's
      shifted past them). The student's slice of the weights goes into its
      layout, and the expert's replaces its cut's `ce_weight`. The
      student's classes give one `batch_confusion` and one relation update
      per batch (a batch without labels counts zero, which leaves the
      matrix as is).
    - `sgd_step` checks the step's gradients for finiteness, once per batch;
      a non-finite one raises `TrainingError` naming the epoch.

    After the last batch the teacher and the student are evaluated on the
    eval set.
    """
    if to_json(config) != fixed.config:
        raise ValueError("a fixed set built from another config")
    num_classes, epoch = config.num_classes, state.epoch
    student, teacher, relation, bank = state.student, state.teacher, state.relation, state.bank
    aug_rng = rng_stream(config.seed, "augment", epoch)
    noise_rng = rng_stream(config.seed, "noise", epoch)
    stu_losses, expert_losses = [], []
    for x, boxes, offsets, expert_batch in _batches(
            fixed.packed, fixed.expert, rng_stream(config.seed, "shuffle", epoch), config):
        majority = relation.majority() if config.enable_sa and relation.ready else None
        scored_t = Scored(teacher, x, boxes, offsets)
        # the teacher's confident rows become the batch's hard labels, one block
        rows = pseudo_label(teacher, scored_t, config.conf_threshold)
        label_offsets, classes = rows.searchsorted(offsets), scored_t.class_ids[rows]
        labels = Labels.one_hot(scored_t.boxes[rows], classes, num_classes, label_offsets)

        strong = scored_t.h
        if config.enable_sa:
            if majority is not None:
                strong, labels = augment_sample(strong, labels, relation, majority, bank,
                                                config.p_aug, config.mix_ratio, aug_rng,
                                                matches=rows)
            # then the bank files the clean features of confident instances,
            # the teacher's unperturbed pass rows, one push per batch
            bank.push(classes, scored_t.h[rows])
        strong = perturb_features(strong, config.noise_scale, noise_rng)
        bg = background_indices(scored_t, config.background_bar)

        # the student does not move within a batch: one pass scores every view
        scored_s = Scored(student, strong, boxes, offsets)
        # each label's class and the student's class at its proposal, the
        # expert's labels following the student's: its sample i is segment
        # len(rows) + i of one weights call
        true_cls, pred_cls = classes, scored_s.class_ids[rows]
        n, segments, weights = len(rows), label_offsets, None
        if expert_batch is not None:
            true_cls = np.concatenate((true_cls, expert_batch.ce_target.argmax(axis=1)))
            pred_cls = np.concatenate((pred_cls, scored_s.class_ids[expert_batch.label_rows]))
            segments = np.concatenate((label_offsets, expert_batch.label_offsets[1:] + n))
        if config.enable_sal:
            weights = relation_weights(relation, true_cls, pred_cls, config.weight_reg,
                                       segments)
            if expert_batch is not None:  # its CE rows are its labels, in order
                expert_batch = expert_batch._replace(ce_weight=weights[n:])
            weights = weights[:n]
        loss_stu, g_stu = supervised_losses(scored_s, loss_layout(
            boxes, offsets, labels, None, num_classes, weights, bg, rows))
        total = g_stu.scaled(config.unsup_weight)
        stu_losses.extend(loss_stu)
        if expert_batch is not None:
            loss_exp, g_exp = supervised_losses(scored_s, expert_batch)
            total = total + g_exp
            expert_losses.extend(loss_exp)

        try:  # `sgd_step` checks the gradients' finiteness, once per batch
            student = sgd_step(student, total.scaled(1.0 / (len(offsets) - 1)),
                               config.learning_rate)
        except TrainingError as error:
            raise TrainingError(f"non-finite loss at epoch {epoch}") from error
        teacher = ema_update(teacher, student, config.teacher_ema)
        relation.update(batch_confusion(true_cls[:n], pred_cls[:n], num_classes))

    teacher_eval = evaluate(teacher, fixed.eval_data, num_classes=num_classes)
    student_eval = evaluate(student, fixed.eval_data, num_classes=num_classes)
    state.history.records.append(EpochRecord(
        epoch=epoch,
        student_map=student_eval.map50,
        teacher_map=teacher_eval.map50,
        per_class_ap=teacher_eval.per_class_ap,
        loss_stu=float(np.mean(stu_losses)) if stu_losses else 0.0,
        loss_expert=float(np.mean(expert_losses)) if expert_losses else 0.0,
    ))
    state.history.final_teacher_eval = teacher_eval
    return dataclasses.replace(state, epoch=epoch + 1, student=student, teacher=teacher)


def adapt(
    source_params: ModelParams,
    target_data: list[DetectionSample],
    config: AdaptationConfig,
    out_dir: str | None = None,
) -> tuple[ModelParams, TrainHistory]:
    """Source-free adaptation; returns the final teacher and the epoch history,
    whose `final_teacher_eval` is that teacher's evaluation on the eval set:
    the last epoch's, or at 0 epochs one of the source model it returns.
    Target sample ids must be distinct.

    A run is its setup (`AdaptState.start`, `AdaptFixed.build`) and one
    `adapt_epoch` per epoch. With `out_dir`, each epoch's teacher and
    relation rows are saved there after the epoch.
    """
    config.validate()
    state, fixed = AdaptState.start(source_params, config), AdaptFixed.build(target_data, config)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    while state.epoch < config.epochs:
        state = adapt_epoch(state, fixed, config)
        if out_dir:
            prefix = os.path.join(out_dir, f"epoch_{state.epoch - 1:03d}")
            save_params(f"{prefix}_teacher.json", state.teacher)
            state.relation.save_rows(f"{prefix}_relation.json")
    if not config.epochs:
        state.history.final_teacher_eval = evaluate(state.teacher, fixed.eval_data,
                                                    num_classes=config.num_classes)
    return state.teacher, state.history


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
