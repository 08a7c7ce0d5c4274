"""Detection metrics: mAP at fixed IoU, FROC recall at FPI budgets, F1 and
image-level AUC. `evaluate` reports them all at IoU 0.5.

The list API takes per-image lists: detections as (box, class_id, score) and
ground truth as (box, class_id). Matching is greedy in score order (ties
broken by image index, then detection index), a detection may claim only an
unmatched ground-truth object of its own class with IoU at or above the
threshold, and among those it takes the highest-IoU one (ties to the lower
ground-truth index).

Match once. Every metric reads one array table (`_Matched`): each detection's
IoU with the ground truth of its own image, and one greedy pass over all
detections in the global (-score, image, index) order. That single pass gives
the same true-positive flag as a pass over one class's detections alone,
which is how per-class AP is defined. Restricting the global order to one
class keeps that class's rows in their order, and a detection only claims
ground truth of its own class. So the objects a class's detection finds
already taken were taken by earlier detections of the same class, exactly as
in the per-class pass. Per-class AP, FROC and F1 all read the same flags.

`evaluate` builds the table straight from the model's packed forward passes,
in blocks of at most `BLOCK_ROWS` proposal rows (`detector.blocks`), and the
samples' `gt_boxes`/`gt_classes` arrays, without a box or detection object.
Every IoU is `world.box_iou`. The greedy pass ranks each detection's eligible
objects by IoU once and claims the first free one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .detector import ModelParams, Scored, blocks, pack
from .world import DetectionSample, box_array, box_iou

FPI_POINTS = (0.05, 0.3, 0.5, 1.0)
EVAL_IOU = 0.5  # the IoU of `evaluate`'s matching: its mAP is mAP50
_CHUNK_ROWS = 4096


@dataclass
class EvalResult:
    map50: float
    per_class_ap: list[float]        # nan for classes with no ground truth, null in JSON
    recall_at_fpi: dict[float, float]
    f1: float
    # None when one image class is absent: every generated sample holds an
    # object (`DomainSpec.validate` requires min_objects >= 1), so on any
    # generated world it is None, null in `summary.json` and `eval.json`; it
    # takes a value only on a loaded dataset with images without objects
    auc: float | None

    def to_dict(self) -> dict:
        return {
            "map50": self.map50,
            "per_class_ap": [None if np.isnan(ap) else ap for ap in self.per_class_ap],
            "recall_at_fpi": {repr(k): v for k, v in self.recall_at_fpi.items()},
            "f1": self.f1,
            "auc": self.auc,
        }


@dataclass
class _Matched:
    """Every detection in match order, with its greedy-match flag."""

    cls: np.ndarray             # (n,) class per detection
    score: np.ndarray           # (n,) score, non-increasing
    tp: np.ndarray              # (n,) True where the detection claimed an object
    gt_cls: np.ndarray          # (g,) class per ground-truth object
    image_score: np.ndarray     # (num_images,) best detection score, 0 without any
    image_positive: np.ndarray  # (num_images,) True where the image has an object

    @property
    def num_classes(self) -> int:
        """One past the largest class id among detections and ground truth."""
        return int(max(self.cls.max(initial=-1), self.gt_cls.max(initial=-1))) + 1

    @cached_property
    def sweep(self) -> tuple[np.ndarray, np.ndarray]:
        """(fp, tp) at the start and after each score-threshold block of the ranked list."""
        last_of_block = np.ones(len(self.score), dtype=bool)
        last_of_block[:-1] = self.score[1:] != self.score[:-1]
        fp = np.concatenate(([0], np.cumsum(~self.tp)[last_of_block]))
        tp = np.concatenate(([0], np.cumsum(self.tp)[last_of_block]))
        return fp, tp


def _candidates(boxes, cls, img, gt_boxes, gt_cls, gt_offsets, gt_counts,
                iou_threshold) -> tuple[np.ndarray, np.ndarray]:
    """(n, G) indices and IoUs of the objects each detection may claim.

    Eligible: an object of the detection's own image and class with IoU at or
    above the threshold (and above 0). Other slots hold index -1.
    """
    slots = np.arange(gt_counts.max(initial=0))
    valid = slots < gt_counts[img][:, None]
    gidx = np.where(valid, gt_offsets[img][:, None] + slots, 0)

    ious = box_iou(boxes[:, None, :], gt_boxes[gidx])

    eligible = valid & (gt_cls[gidx] == cls[:, None]) & (ious >= iou_threshold) & (ious > 0.0)
    return np.where(eligible, gidx, -1), ious


def _match(det_img, det_boxes, det_cls, det_score, gt_boxes, gt_cls, gt_counts,
           iou_threshold) -> _Matched:
    """Greedy matching of all detections at once.

    Detections come grouped by image in index order (`det_img` non-decreasing),
    ground truth grouped by image with `gt_counts` objects each. An image's
    score, `np.maximum.reduceat` of its detections', is Python's `max(scores,
    default=0.0)` for scores that are not NaN, up to a zero's sign.
    """
    num_images = len(gt_counts)
    gt_counts = np.asarray(gt_counts, dtype=int)
    gt_offsets = np.concatenate(([0], np.cumsum(gt_counts)))

    # match order (-score, img, idx): rows already run in (img, idx) order
    order = np.argsort(-det_score, kind="stable")
    tp = np.zeros(len(order), dtype=bool)
    taken = set()
    # in chunks of the match order, which bound the (rows, G) temporaries
    for start in range(0, len(order), _CHUNK_ROWS):
        rows = order[start:start + _CHUNK_ROWS]
        cand, ious = _candidates(det_boxes[rows], det_cls[rows], det_img[rows], gt_boxes,
                                 gt_cls, gt_offsets, gt_counts, iou_threshold)
        hits = np.flatnonzero(cand.max(axis=1, initial=-1) >= 0)
        cand = cand[hits]
        # each hit's eligible objects by IoU, descending, ties to the lower
        # index (slots run in index order), the ineligible ones (-1) last
        rank = np.argsort(np.where(cand >= 0, -ious[hits], np.inf), axis=1, kind="stable")
        for hit, objs in zip(hits.tolist(), np.take_along_axis(cand, rank, axis=1).tolist()):
            # the first free one is the free eligible object of highest IoU
            for obj in objs:
                if obj < 0:
                    break
                if obj not in taken:
                    taken.add(obj)
                    tp[start + hit] = True
                    break

    # each image's best score, 0.0 without detections
    counts = np.bincount(det_img, minlength=num_images)
    held = np.flatnonzero(counts)
    image_score = np.zeros(num_images)
    image_score[held] = np.maximum.reduceat(det_score, (np.cumsum(counts) - counts)[held])
    return _Matched(det_cls[order], det_score[order], tp, gt_cls, image_score, gt_counts > 0)


def _match_lists(dets_by_img, gts_by_img, iou_threshold) -> _Matched:
    """`_match` of the list API's per-image lists."""
    det_img = np.array([img for img, dets in enumerate(dets_by_img) for _ in dets], dtype=int)
    dets = [det for img_dets in dets_by_img for det in img_dets]
    gts = [gt for img_gts in gts_by_img for gt in img_gts]
    return _match(
        det_img,
        box_array(box for box, _, _ in dets),
        np.array([cls for _, cls, _ in dets], dtype=int),
        np.array([score for _, _, score in dets], dtype=float),
        box_array(box for box, _ in gts),
        np.array([cls for _, cls in gts], dtype=int),
        [len(img_gts) for img_gts in gts_by_img],
        iou_threshold,
    )


def _ap_from_counts(tp_cum, fp_cum, npos):
    """Exact area under the interpolated precision-recall curve."""
    recall = tp_cum / npos
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1e-12)
    mrec = np.concatenate(([0.0], recall))
    # running max from the right: each precision becomes the best at any higher recall
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precision))[::-1])[::-1]
    changed = np.where(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[changed + 1] - mrec[changed]) * mpre[changed + 1]))


def _map(matched: _Matched) -> tuple[float, list[float]]:
    per_class = []
    for cls in range(matched.num_classes):
        npos = int(np.count_nonzero(matched.gt_cls == cls))
        if npos == 0:
            per_class.append(float("nan"))
            continue
        flags = matched.tp[matched.cls == cls]
        if not len(flags):
            per_class.append(0.0)
            continue
        tp_cum = np.cumsum(np.where(flags, 1.0, 0.0))
        fp_cum = np.cumsum(np.where(flags, 0.0, 1.0))
        per_class.append(_ap_from_counts(tp_cum, fp_cum, npos))
    valid = [ap for ap in per_class if not np.isnan(ap)]
    return (float(np.mean(valid)) if valid else 0.0), per_class


def _froc(matched: _Matched, fpi_points) -> dict[float, float]:
    num_images = len(matched.image_score)
    npos = len(matched.gt_cls)
    fp, tp = matched.sweep
    out = {}
    for budget in fpi_points:
        best = 0.0
        if num_images and npos:
            best = float((tp[fp / num_images <= budget] / npos).max(initial=best))
        out[budget] = best
    return out


def _f1(matched: _Matched) -> float:
    npos = len(matched.gt_cls)
    fp, tp = matched.sweep
    denom = 2 * tp + fp + (npos - tp)
    return float((2 * tp[denom > 0] / denom[denom > 0]).max(initial=0.0))


def _auc(matched: _Matched) -> float | None:
    """Image-level ROC AUC with average ranks for ties; None without both polarities."""
    labels = matched.image_positive.astype(float)
    scores = matched.image_score
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    # a tied group's average rank is its last rank minus half its spread, exact in halves
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[group]
    auc = (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    return float(auc)


def map_at_iou(dets_by_img, gts_by_img, iou_threshold: float = 0.5) -> tuple[float, list[float]]:
    """Mean AP over classes that have at least one ground-truth instance."""
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError("iou_threshold must lie in (0, 1)")
    return _map(_match_lists(dets_by_img, gts_by_img, iou_threshold))


def froc(dets_by_img, gts_by_img, fpi_points=FPI_POINTS, iou_threshold: float = 0.5) -> dict[float, float]:
    """Best recall achievable at each false-positives-per-image budget.

    The score threshold sweeps over the distinct detection scores; recall at a
    budget is the maximum over thresholds whose FPI stays within it (step-wise,
    no interpolation between thresholds).
    """
    return _froc(_match_lists(dets_by_img, gts_by_img, iou_threshold), fpi_points)


def f1_auc(dets_by_img, gts_by_img, iou_threshold: float = 0.5) -> tuple[float, float | None]:
    """F1 at the best score threshold, and image-level ROC AUC.

    An image is positive when it contains any ground-truth object; its score is
    the maximum detection score (0 with no detections). AUC is undefined when
    every image has the same polarity and comes back as None, as on any
    generated world, whose every sample holds an object (`EvalResult.auc`).
    """
    matched = _match_lists(dets_by_img, gts_by_img, iou_threshold)
    return _f1(matched), _auc(matched)


def _match_samples(params: ModelParams, samples: list[DetectionSample]) -> _Matched:
    """`_match` of one detection per proposal (foreground argmax, no threshold)."""
    counts = np.fromiter((s.num_proposals for s in samples), int, len(samples))
    offsets = np.concatenate(([0], np.cumsum(counts)))
    boxes = np.empty((offsets[-1], 4))
    cls = np.empty(offsets[-1], dtype=int)
    score = np.empty(offsets[-1])
    for start, stop in blocks(offsets):
        scored = Scored(params, *pack(samples[start:stop], counts[start:stop]))
        rows = slice(offsets[start], offsets[stop])
        boxes[rows], cls[rows], score[rows] = scored.boxes, scored.class_ids, scored.fg_scores
    return _match(np.repeat(np.arange(len(samples)), counts), boxes, cls, score,
                  np.concatenate([np.empty((0, 4)), *(s.gt_boxes for s in samples)]),
                  np.concatenate([np.empty(0, dtype=int), *(s.gt_classes for s in samples)]),
                  [len(s.gt_classes) for s in samples], EVAL_IOU)


def evaluate(params: ModelParams, samples: list[DetectionSample],
             num_classes: int) -> EvalResult:
    """Full metric sweep of a model over a labeled dataset, at IoU 0.5 and
    the `FPI_POINTS` budgets. A ground-truth class outside [0, num_classes),
    which the per-class list would drop, raises ValueError. Its `auc` is None
    on generated samples, which all hold an object (`EvalResult.auc`)."""
    matched = _match_samples(params, samples)
    if np.any((matched.gt_cls < 0) | (matched.gt_cls >= num_classes)):
        raise ValueError(f"ground-truth class outside [0, {num_classes})")
    map50, per_class = _map(matched)
    while len(per_class) < num_classes:
        per_class.append(float("nan"))
    return EvalResult(map50, per_class[:num_classes], _froc(matched, FPI_POINTS),
                      _f1(matched), _auc(matched))
