"""Target-set partitioning by Monte-Carlo-dropout detection variance, a diagnostic.

The source-pretrained model runs M stochastic forward passes per sample;
box-coordinate and class-score variances of the stacked outputs multiply into
a single detection variance. The passes run in blocks of samples, one packed
(M, rows, D) computation per block of at most `BLOCK_ROWS` row-passes: its
dropout masks are one draw from the partition's Generator, and its samples'
variances one segmented reduction over its rows. Samples are ranked
ascending by variance and the top fraction (variance level >= sigma) is
tagged source-similar.

That is A2SFOD's rule (Chu et al., AAAI 2023). It is kept as a diagnostic:
the CLI's adapt mode writes the source model's split to
`checkpoints/partition.csv`, and `adapt` does not read it.
In this world the rule does not find the source-like samples. On a target
set of half near-source samples, 32-39% of the high-variance half were
near-source, against 50% by chance, and no split direction moved the
adapted teacher's mAP beyond the noise between seeds.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .detector import ModelParams, Scored, blocks, pack
from .util import sorted_by_id, write_atomic
from .world import DetectionSample

SIMILAR = "similar"
DISSIMILAR = "dissimilar"


@dataclass
class VarianceReport:
    """Sample ids and variances in rank order, ascending by `box_var * cls_var`
    with ties by id; rank k of N has level k / N, source-similar from sigma on."""

    sample_ids: np.ndarray
    box_var: np.ndarray
    cls_var: np.ndarray
    sigma: float

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["sample_id", "v_b", "v_c", "v", "rank", "level", "subset"])
        rows = zip(self.sample_ids.tolist(), self.box_var.tolist(), self.cls_var.tolist())
        for rank, (sample_id, v_b, v_c) in enumerate(rows, start=1):
            level = rank / len(self.sample_ids)
            writer.writerow([sample_id, repr(v_b), repr(v_c), repr(v_b * v_c), rank, repr(level),
                             SIMILAR if level >= self.sigma else DISSIMILAR])
        return buf.getvalue()

    def save_csv(self, path) -> None:
        write_atomic(path, self.to_csv_text())


def mc_passes(params: ModelParams, sample: DetectionSample, num_passes: int,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Independent-dropout forward passes of one sample, stacked.

    Returns (boxes, scores): the (M, P, 4) valid refined boxes and the
    (M, P, C+1) softmax scores, one slice per pass in proposal order. The
    masks are one draw of M * P * D uniforms from `rng`, pass by pass. This is
    `partition`'s pass over a block of one sample: called on the samples in id
    order with one Generator, it gives the partition's passes.
    """
    if num_passes < 2:
        raise ValueError("need at least 2 passes for a variance estimate")
    scored = Scored(params, *pack([sample]), rng, num_passes)
    return scored.boxes, scored.scores


def _sq_deviation(stack: np.ndarray, offsets) -> np.ndarray:
    """Mean squared deviation of each sample's (M, P_i, K) slice of a block's
    (M, rows, K) stack around its per-row mean over passes; sample i owns rows
    offsets[i]:offsets[i + 1]. Each row's sum is taken over its own values
    alone, so a sample's value does not depend on the block it is packed in.
    """
    # centering on the first pass keeps identical passes at exactly zero
    centered = stack - stack[:1]
    dev = centered - centered.mean(axis=0, keepdims=True)
    m, rows = stack.shape[0], stack.shape[1]
    per_row = np.square(dev).transpose(1, 0, 2).reshape(rows, -1).sum(axis=1)
    offsets = np.asarray(offsets)
    return np.add.reduceat(per_row, offsets[:-1]) / (m * (offsets[1:] - offsets[:-1]))


def partition(
    samples: list[DetectionSample],
    params: ModelParams,
    num_passes: int,
    sigma: float,
    rng: np.random.Generator,
) -> VarianceReport:
    """One-time split of the target set into source-similar and dissimilar subsets.

    Sample ids must be distinct, every sample must have a proposal, and sigma
    must lie in (0, 1). Samples are visited in id order, in the blocks of
    `detector.blocks`: the longest runs whose rows times M fit `BLOCK_ROWS`,
    cut from one array of proposal counts. Each block draws its dropout masks
    from `rng` in one call, sample by sample in id order, so the passes equal
    those of `mc_passes` called on each sample in id order with `rng`,
    whatever the budget and the input order. The heads run once over the
    block's packed proposals and M masks, and every sample's box and class
    variances come from one segmented reduction over the block's rows
    (`_sq_deviation`). One `np.lexsort` ranks the samples.
    """
    if len(samples) < 2:
        raise ValueError("need at least 2 samples to partition")
    if num_passes < 2:
        raise ValueError("need at least 2 passes for a variance estimate")
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    ordered = sorted_by_id(samples)
    counts = np.fromiter((s.num_proposals for s in ordered), int, len(ordered))
    if not counts.all():
        raise ValueError(f"sample {ordered[int(np.argmin(counts))].id} has no proposals")
    offsets = np.concatenate(([0], np.cumsum(counts)))
    v_b, v_c = [], []
    for start, stop in blocks(offsets, num_passes):
        scored = Scored(params, *pack(ordered[start:stop], counts[start:stop]), rng, num_passes)
        v_b.append(_sq_deviation(scored.boxes, scored.offsets))
        v_c.append(_sq_deviation(scored.scores, scored.offsets))
    ids = np.array([s.id for s in ordered])
    v_b, v_c = np.concatenate(v_b), np.concatenate(v_c)
    rank = np.lexsort((ids, v_b * v_c))
    return VarianceReport(ids[rank], v_b[rank], v_c[rank], sigma)
