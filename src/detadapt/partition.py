"""Target-set partitioning by Monte-Carlo-dropout detection variance.

The source-pretrained model runs M stochastic forward passes per sample, as
one stacked (M, P, D) computation; box-coordinate and class-score variances
of the stacked outputs multiply into a single detection variance. Samples are
ranked ascending by variance and the top fraction (variance level >= sigma)
is tagged source-similar: the pretrained model is most uncertain exactly
where the data resembles its training domain.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .cropbank import DISSIMILAR, SIMILAR
from .detector import ModelParams, forward_stacked
from .world import DetectionSample, boxes_from_raw


@dataclass(frozen=True)
class VarianceRow:
    sample_id: int
    box_var: float
    cls_var: float
    variance: float
    rank: int    # 1 = smallest variance
    level: float  # rank / N
    subset: str


@dataclass
class VarianceReport:
    rows: list[VarianceRow]
    similar: frozenset[int]
    dissimilar: frozenset[int]

    def subset_of(self, sample_id: int) -> str:
        return SIMILAR if sample_id in self.similar else DISSIMILAR

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["sample_id", "v_b", "v_c", "v", "rank", "level", "subset"])
        for r in self.rows:
            writer.writerow([r.sample_id, repr(r.box_var), repr(r.cls_var),
                             repr(r.variance), r.rank, repr(r.level), r.subset])
        return buf.getvalue()

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_text())


def mc_passes(params: ModelParams, sample: DetectionSample, num_passes: int,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Independent-dropout forward passes of one sample, stacked.

    Returns (boxes, scores): the (M, P, 4) valid refined boxes and the
    (M, P, C+1) softmax scores, one slice per pass in proposal order. The M
    dropout seeds are drawn from `rng` in pass order.
    """
    if num_passes < 2:
        raise ValueError("need at least 2 passes for a variance estimate")
    seeds = [int(rng.integers(0, 2**63 - 1)) for _ in range(num_passes)]
    _, _, scores, refined = forward_stacked(params, sample, seeds)
    return boxes_from_raw(refined), scores


def _mean_sq_deviation(stack: np.ndarray) -> float:
    # centering on the first pass keeps identical passes at exactly zero
    centered = stack - stack[:1]
    dev = centered - centered.mean(axis=0, keepdims=True)
    m, p = stack.shape[0], stack.shape[1]
    return float((dev**2).sum() / (m * p))


def box_variance(boxes: np.ndarray) -> float:
    """Mean squared deviation of (M, P, 4) box coordinates around their per-proposal mean."""
    return _mean_sq_deviation(np.asarray(boxes, dtype=float))


def cls_variance(scores: np.ndarray) -> float:
    """Same statistic over (M, P, C+1) softmax score vectors."""
    return _mean_sq_deviation(np.asarray(scores, dtype=float))


def split_by_variance(variances: list[tuple[int, float]], sigma: float) -> list[tuple[int, int, float, str]]:
    """Rank (sample_id, variance) pairs and tag subsets.

    Pure ranking step: ascending by variance with ties broken by sample id, so
    the partition depends only on the variance ordering, never its scale.
    Returns (sample_id, rank, level, subset) tuples in rank order.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    n = len(variances)
    ordered = sorted(variances, key=lambda item: (item[1], item[0]))
    out = []
    for rank0, (sample_id, _) in enumerate(ordered):
        rank = rank0 + 1
        level = rank / n
        subset = SIMILAR if level >= sigma else DISSIMILAR
        out.append((sample_id, rank, level, subset))
    return out


def partition(
    samples: list[DetectionSample],
    params: ModelParams,
    num_passes: int,
    sigma: float,
    rng: np.random.Generator,
) -> VarianceReport:
    """One-time split of the target set into source-similar and dissimilar subsets.

    Each sample gets one `mc_passes` call, a single stacked pass over its M
    dropout masks; samples are visited in id order, so the seeds drawn from
    `rng` do not depend on the input order.
    """
    if len(samples) < 2:
        raise ValueError("need at least 2 samples to partition")
    per_sample = {}
    for sample in sorted(samples, key=lambda s: s.id):
        boxes, scores = mc_passes(params, sample, num_passes, rng)
        v_b = box_variance(boxes)
        v_c = cls_variance(scores)
        per_sample[sample.id] = (v_b, v_c, v_b * v_c)

    ranked = split_by_variance([(sid, v[2]) for sid, v in per_sample.items()], sigma)
    rows = []
    similar = set()
    for sample_id, rank, level, subset in ranked:
        v_b, v_c, v = per_sample[sample_id]
        rows.append(VarianceRow(sample_id, v_b, v_c, v, rank, level, subset))
        if subset == SIMILAR:
            similar.add(sample_id)
    dissimilar = frozenset(per_sample) - similar
    return VarianceReport(rows, frozenset(similar), dissimilar)
