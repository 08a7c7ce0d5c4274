"""Simulated frozen expert: a parametric oracle standing in for a large
pretrained vision model, plus the supervision loss it induces on the student.

The oracle reads ground truth and corrupts it with configurable miss, flip and
jitter rates, so label fidelity is an experimental knob rather than a model.
Its labels are hard `Labels`, like the teacher's pseudo-labels. The expert is
frozen, as the foundation model it stands for: adaptation draws its labels
once per sample, before the first epoch, from the sample's own sub-stream
`rng_stream(seed, "expert", sample_id)`, and reuses them every epoch.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .detector import (GradientSet, Labels, ModelParams, Scored, loss_layout, pack,
                       supervised_losses, targets)
from .world import DetectionSample, boxes_from_raw


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


def expert_predict(spec: ExpertSpec, sample: DetectionSample, rng: np.random.Generator,
                   num_classes: int) -> Labels:
    """Corrupted ground truth: per object, maybe miss, maybe flip, always jitter.

    Reads the sample's `gt_boxes`/`gt_classes` rows one object at a time, in
    order, so each object's draws follow the previous object's. A flip draws
    the new class uniformly over the other classes; with no other class, the
    object keeps its own.
    `boxes_from_raw` makes each jittered box valid, by the `BBox.from_raw` rule.
    """
    raw, class_ids = [], []
    for box, class_id in zip(sample.gt_boxes, sample.gt_classes.tolist()):
        if rng.random() < spec.miss_rate:
            continue
        if rng.random() < spec.flip_rate and num_classes > 1:
            others = [k for k in range(num_classes) if k != class_id]
            class_id = int(others[rng.integers(len(others))])
        size = box[2:] - box[:2]
        scale = np.concatenate((size, size))
        raw.append(box + rng.uniform(-spec.box_jitter, spec.box_jitter, 4) * scale)
        class_ids.append(class_id)
    return Labels.one_hot(boxes_from_raw(np.reshape(raw, (-1, 4))), class_ids, num_classes)


def expert_loss(params: ModelParams, sample: DetectionSample, labels: Labels,
                cls_weight: float, reg_weight: float, weights=None) -> tuple[float, GradientSet]:
    """cls_weight * weighted CE + reg_weight * smooth-L1, matched by max IoU.

    Only proposals matched to an expert label are supervised; the expert says
    nothing about the rest of the image, so there is no background term here.
    The one-sample case of `supervised_losses`; no labels give zero.
    """
    scored = Scored(params, *pack([sample]))
    terms = [(targets([sample], labels, weights, background=None), (cls_weight, reg_weight))]
    layout = loss_layout(scored.offsets, terms, params.num_classes)
    (losses, grads), = supervised_losses(scored, layout)
    return float(losses[0]), grads
