"""Mean-teacher self-training: confidence-filtered pseudo-labels, EMA teacher.

The teacher's verdicts are row indices into its `Scored` of a block, sample i
owning rows offsets[i]:offsets[i + 1]: `pseudo_label` and `background_indices`
each read a whole block in one call.
"""

from __future__ import annotations

import numpy as np

from .detector import ModelParams, Scored


# `teacher` is unused; the benchmark's tracer reads the block as positional argument 1
def pseudo_label(teacher: ModelParams, block: Scored, conf_threshold: float) -> np.ndarray:
    """Rows of the teacher's `Scored` of a block whose max foreground score
    reaches the threshold, in order.

    The block's boxes and foreground classes at these rows are the
    pseudo-labels. Sample i's are the rows in offsets[i]:offsets[i + 1], so
    `np.searchsorted(rows, offsets)` gives the labels' per-sample offsets.
    """
    if not 0.0 < conf_threshold <= 1.0:
        raise ValueError("conf_threshold must lie in (0, 1]")
    return (block.fg_scores >= conf_threshold).nonzero()[0]


def ema_update(teacher: ModelParams, student: ModelParams, ema_rate: float) -> ModelParams:
    """Elementwise convex blend, one op on the `flat` buffers: rate 1 keeps
    the teacher, rate 0 copies the student."""
    if not 0.0 <= ema_rate <= 1.0:
        raise ValueError("ema_rate must lie in [0, 1]")
    if teacher.w_cls.shape != student.w_cls.shape or teacher.w_reg.shape != student.w_reg.shape:
        raise ValueError("teacher/student shape mismatch")
    # where the two agree the blend could round away from both; keep it exact
    t, s = teacher.flat, student.flat
    return teacher.with_flat(np.where(s == t, t, ema_rate * t + (1.0 - ema_rate) * s))


def background_indices(block: Scored, bar: float) -> np.ndarray:
    """Rows of the teacher's `Scored` of a block that it is confident are
    background (max fg score below bar).

    Proposals between the bar and the pseudo-label threshold stay unsupervised.
    """
    return (block.fg_scores < bar).nonzero()[0]
