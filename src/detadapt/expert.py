"""Simulated frozen expert: a parametric oracle standing in for a large
pretrained vision model, plus the supervision loss it induces on the student.

The oracle reads ground truth and corrupts it with configurable miss, flip and
jitter rates, so label fidelity is an experimental knob rather than a model.
Its labels are hard `Labels`, like the teacher's pseudo-labels. The expert is
frozen, as the foundation model it stands for: adaptation draws the whole
target set's labels in one `expert_predict` call, before the first epoch,
each sample from its own sub-stream `rng_stream(seed, "expert", sample_id)`,
and reuses them every epoch.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .detector import (GradientSet, Labels, ModelParams, Scored, loss_layout, pack,
                       supervised_losses)
from .world import DetectionSample, boxes_from_raw, uniform_map


@dataclass(frozen=True)
class ExpertSpec:
    miss_rate: float = 0.1
    flip_rate: float = 0.05
    box_jitter: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.miss_rate <= 1.0 or not 0.0 <= self.flip_rate <= 1.0:
            raise ValueError("miss_rate and flip_rate must lie in [0, 1]")
        if not 0 <= self.box_jitter <= sys.float_info.max / 2:  # `uniform(-j, j)` spans 2j
            raise ValueError("box_jitter must lie in [0, half the largest float]")


def expert_predict(spec: ExpertSpec, samples: list[DetectionSample],
                   rngs: list[np.random.Generator], num_classes: int) -> Labels:
    """A block's corrupted ground truth as one `Labels` block (a sample alone
    is the block of one): per object, maybe miss, maybe flip, always jitter.

    Sample i reads its `gt_boxes`/`gt_classes` rows one object at a time, in
    order, drawing from `rngs[i]`: `random` for the miss, `random` for the
    flip, `integers` on a flip, `random(4)` for the jitter. The jitter draws
    of all kept objects are mapped as `uniform(-box_jitter, box_jitter, 4)`
    in one array operation (`world.uniform_map`). A flip draws the new class
    uniformly over the other classes; with no other class, the object keeps
    its own. Each jittered box is made valid (`boxes_from_raw`): its corners
    put in order, and a side shorter than `MIN_BOX_SIZE` padded to it.
    """
    low, span = uniform_map(-spec.box_jitter, spec.box_jitter)
    kept, class_ids, draws, counts = [], [], [], [0]
    for sample, rng in zip(samples, rngs):
        for class_id in sample.gt_classes.tolist():
            kept.append(rng.random() >= spec.miss_rate)
            if not kept[-1]:
                continue
            if rng.random() < spec.flip_rate and num_classes > 1:
                other = int(rng.integers(num_classes - 1))  # the other classes, in order
                class_id = other + (other >= class_id)
            class_ids.append(class_id)
            draws.append(rng.random(4))
        counts.append(len(class_ids))
    box = np.concatenate([np.reshape(s.gt_boxes, (-1, 4)) for s in samples]
                         + [np.zeros((0, 4))])[np.array(kept, dtype=bool)]
    jitter = low + span * np.reshape(draws, (-1, 4))
    raw = box + jitter * np.tile(box[:, 2:] - box[:, :2], 2)
    return Labels.one_hot(boxes_from_raw(raw), class_ids, num_classes, counts)


def expert_loss(params: ModelParams, sample: DetectionSample, labels: Labels,
                cls_weight: float, reg_weight: float, weights=None) -> tuple[float, GradientSet]:
    """cls_weight * weighted CE + reg_weight * smooth-L1, matched by max IoU.

    Only proposals matched to an expert label are supervised; the expert says
    nothing about the rest of the image, so there is no background term here.
    The one-sample case of `supervised_losses` on the expert term's
    `loss_layout`; no labels give zero.
    """
    scored = Scored(params, *pack([sample]))
    losses, grads = supervised_losses(scored, loss_layout(
        sample.proposal_boxes, scored.offsets, labels, (cls_weight, reg_weight),
        params.num_classes, weights, background=None))
    return float(losses[0]), grads
