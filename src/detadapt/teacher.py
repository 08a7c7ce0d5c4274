"""Mean-teacher self-training: confidence-filtered pseudo-labels, EMA teacher.

The teacher's verdicts are row indices into its `Scored`: `pseudo_label` reads
one sample's rows of a block, or its own block of one; `background_indices`
reads a whole block.
"""

from __future__ import annotations

import numpy as np

from .detector import ModelParams, Scored
from .world import DetectionSample


def pseudo_label(teacher: ModelParams, sample: DetectionSample, conf_threshold: float,
                 *, scored: Scored | None = None) -> np.ndarray:
    """Indices of the proposals whose max foreground score reaches the threshold.

    `scored` (a `Scored` of the teacher on the sample, such as one sample's
    rows of a block) skips the forward pass; without it the teacher scores
    `[sample]`. Its boxes and foreground classes at these indices are the
    pseudo-labels.
    """
    if not 0.0 < conf_threshold <= 1.0:
        raise ValueError("conf_threshold must lie in (0, 1]")
    if scored is None:
        scored = Scored(teacher, [sample])
    return np.flatnonzero(scored.fg_scores >= conf_threshold)


def ema_update(teacher: ModelParams, student: ModelParams, ema_rate: float) -> ModelParams:
    """Elementwise convex blend: rate 1 keeps the teacher, rate 0 copies the student."""
    if not 0.0 <= ema_rate <= 1.0:
        raise ValueError("ema_rate must lie in [0, 1]")
    if teacher.w_cls.shape != student.w_cls.shape or teacher.w_reg.shape != student.w_reg.shape:
        raise ValueError("teacher/student shape mismatch")
    # where the two agree the blend could round away from both; keep it exact
    blend = lambda t, s: np.where(s == t, t, ema_rate * t + (1.0 - ema_rate) * s)
    return ModelParams(
        blend(teacher.w_cls, student.w_cls),
        blend(teacher.b_cls, student.b_cls),
        blend(teacher.w_reg, student.w_reg),
        blend(teacher.b_reg, student.b_reg),
        teacher.dropout_rate,
    )


def background_indices(teacher: ModelParams, samples: list[DetectionSample], bar: float,
                       *, scored: Scored | None = None) -> np.ndarray:
    """Rows of a block the teacher is confident are background (max fg score
    below bar).

    Proposals between the bar and the pseudo-label threshold stay unsupervised.
    `scored` (the teacher's `Scored` of the block) skips the forward pass;
    without it the teacher scores `samples`. A sample alone is the block
    `[sample]`, whose rows are its proposal indices.
    """
    if scored is None:
        scored = Scored(teacher, samples)
    return np.flatnonzero(scored.fg_scores < bar)
