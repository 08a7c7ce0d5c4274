"""Target-set partitioning by Monte-Carlo-dropout detection variance.

The source-pretrained model runs M stochastic forward passes per sample;
box-coordinate and class-score variances of the stacked outputs multiply into
a single detection variance. The passes run in blocks of `BLOCK_SAMPLES`
samples, one packed (M, rows, D) computation per block. Samples are
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
from .detector import BLOCK_SAMPLES, ModelParams, Scored
from .util import write_atomic
from .world import DetectionSample


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
        write_atomic(path, self.to_csv_text())


def _draw_seeds(rng: np.random.Generator, num_samples: int, num_passes: int) -> np.ndarray:
    # one draw of the (n, M) shape gives the n*M scalar draws in the same order
    return rng.integers(0, 2**63 - 1, size=(num_samples, num_passes))


def mc_passes(params: ModelParams, sample: DetectionSample, num_passes: int,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Independent-dropout forward passes of one sample, stacked.

    Returns (boxes, scores): the (M, P, 4) valid refined boxes and the
    (M, P, C+1) softmax scores, one slice per pass in proposal order. The M
    dropout seeds are drawn from `rng` in pass order. This is `partition`'s
    pass over a block of one sample.
    """
    if num_passes < 2:
        raise ValueError("need at least 2 passes for a variance estimate")
    scored = Scored(params, [sample], _draw_seeds(rng, 1, num_passes))
    return scored.boxes, scored.scores


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

    Samples are visited in id order, in blocks of `BLOCK_SAMPLES`. A block
    draws the M dropout seeds of each of its samples from `rng`, in id order
    and pass order, so the seeds are those that one `mc_passes` call per
    sample would draw and do not depend on the input order. Then the heads run
    once over the block's packed proposals and M masks, and each sample's
    variances are taken over its own rows, equal bit for bit to its
    `mc_passes` outputs.
    """
    if len(samples) < 2:
        raise ValueError("need at least 2 samples to partition")
    if num_passes < 2:
        raise ValueError("need at least 2 passes for a variance estimate")
    ordered = sorted(samples, key=lambda s: s.id)
    per_sample = {}
    for start in range(0, len(ordered), BLOCK_SAMPLES):
        block = ordered[start:start + BLOCK_SAMPLES]
        scored = Scored(params, block, _draw_seeds(rng, len(block), num_passes))
        boxes, scores, offsets = scored.boxes, scored.scores, scored.offsets
        for i, sample in enumerate(block):
            rows = slice(offsets[i], offsets[i + 1])
            v_b = box_variance(boxes[:, rows])
            v_c = cls_variance(scores[:, rows])
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
