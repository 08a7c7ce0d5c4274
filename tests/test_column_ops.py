"""The scoring path's per-row math, done one column at a time, against the
whole-row forms it replaced (`tests/bruteforce.py`), bit for bit: the
log-softmax on both sides of its 8-column switch, the `BBox.from_raw` rule,
the dropout mask scaled before it is applied, and `_match`'s image scores."""

import re

import numpy as np
import pytest

from bruteforce import (oracle_boxes_from_raw, oracle_forward_arrays, oracle_image_scores,
                        oracle_log_softmax, oracle_uniforms)
from detadapt.detector import Scored, log_softmax, pack
from detadapt.metrics import _match_lists
from detadapt.world import BBox, boxes_from_raw
from test_detector import random_params, random_sample


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(bits(got), bits(want))


def hard_logits(rng, shape) -> np.ndarray:
    """Logits up to +-700 with +0.0 and -0.0 entries, ties within rows, and
    rows whose entries all tie."""
    x = rng.standard_normal(shape) * rng.choice([1.0, 30.0, 700.0], size=shape[:-1] + (1,))
    x = np.clip(x, -700.0, 700.0)
    for value, share in ((0.0, 0.2), (-0.0, 0.2), (700.0, 0.1), (-700.0, 0.1)):
        x[rng.random(shape) < share] = value
    tied = rng.random(shape[:-1]) < 0.3
    x[tied] = np.round(x[tied] / 50.0)
    for value in (3.0, -0.0):
        x[rng.random(shape[:-1]) < 0.1] = value
    return x


@pytest.mark.parametrize("k", range(2, 13))
def test_log_softmax_has_the_bits_of_the_row_reductions(k):
    rng = np.random.default_rng(100 + k)
    for shape in [(1, k), (37, k), (160, k), (3, 29, k), (10, 1, k), (0, k)]:
        logits = hard_logits(rng, shape)
        assert_same_bits(log_softmax(logits), oracle_log_softmax(logits))


def test_log_softmax_of_signed_zero_ties_and_extremes():
    rows = [[0.0, -0.0], [-0.0, 0.0], [0.0, -0.0, -700.0], [-700.0, 0.0, -0.0],
            [700.0, -700.0, 700.0], [-700.0, -700.0, -700.0, -700.0],
            [-0.0, -0.0, -0.0, -0.0, -0.0, -0.0], [700.0, 0.0, -0.0, 1e-300, -1e-300, 5.0]]
    for row in rows:
        for logits in (np.array([row]), np.array([[row] * 3] * 2)):
            assert_same_bits(log_softmax(logits), oracle_log_softmax(logits))


def test_boxes_from_raw_has_the_bits_of_the_row_selects():
    rng = np.random.default_rng(7)
    random_rows = rng.uniform(-50, 50, (300, 4))
    corner = rng.uniform(-5, 5, (200, 2))
    gap = rng.choice([0.0, -0.0, 1e-9, -1e-9, 5e-7, -5e-7, 1e-6, 2e-6], (200, 2))
    sub_min = np.column_stack([corner, corner + gap])  # equal corners and min-size padding
    zeros = rng.choice([0.0, -0.0], (64, 4))
    for rows in (random_rows, sub_min, zeros, np.zeros((0, 4))):
        assert_same_bits(boxes_from_raw(rows), oracle_boxes_from_raw(rows))
        stack = np.concatenate([rows, rows[::-1]]).reshape(2, -1, 4)
        assert_same_bits(boxes_from_raw(stack), oracle_boxes_from_raw(stack))
    assert_same_bits(boxes_from_raw([1.0, -0.0, 1.0, 0.0]),
                     oracle_boxes_from_raw([1.0, -0.0, 1.0, 0.0]))


@pytest.mark.parametrize("bad", [[np.nan, 0.0, 1.0, 1.0], [0.0, np.inf, 1.0, 1.0],
                                 [0.0, 0.0, -np.inf, 1.0], [np.nan] * 4, [-np.inf, 0, np.inf, 1],
                                 [1e20, 0.0, 1e20, 1.0], [0.0, -1e20, 1.0, -1e20]],
                         ids=["nan", "inf", "-inf", "all-nan", "inf-minus-inf",
                              "degenerate-x", "degenerate-y"])
def test_boxes_from_raw_raises_as_the_row_selects_do(bad):
    good = [0.0, 0.0, 1.0, 1.0]
    for rows in ([bad], [good, bad], [[good, bad], [good, good]]):
        with pytest.raises(ValueError) as want:
            oracle_boxes_from_raw(rows)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            boxes_from_raw(rows)


@pytest.mark.parametrize("rate", [0.1, 0.3, 0.5, 0.7])
def test_dropout_mask_scaled_before_it_applies_has_the_bits_of_scaling_after(rate):
    rng = np.random.default_rng(int(rate * 10))
    params = random_params(rng, dropout=rate)
    samples = [random_sample(rng, num_proposals=p) for p in (1, 4, 7)]
    # negative features, +0.0 and -0.0: a dropped one keeps its sign either way
    for sample in samples:
        x = sample.proposal_features
        x[rng.random(x.shape) < 0.3] *= -1.0
        x[rng.random(x.shape) < 0.2] = 0.0
        x[rng.random(x.shape) < 0.2] = -0.0
    draw, replay = np.random.default_rng(5), np.random.default_rng(5)
    scored = Scored(params, *pack(samples), draw, passes=3)
    for i, sample in enumerate(samples):
        rows = slice(scored.offsets[i], scored.offsets[i + 1])
        for m, uniforms in enumerate(oracle_uniforms(params, sample, 3, replay)):
            want = oracle_forward_arrays(params, sample, uniforms=uniforms)
            for got, wanted in zip((scored.h, scored.log_scores, scored.scores, scored.refined),
                                   want):
                assert_same_bits(got[m, rows], wanted)


def test_match_image_score_is_python_max_with_a_zero_default():
    rng = np.random.default_rng(9)
    box = BBox(0.0, 0.0, 1.0, 1.0)
    for trial in range(20):
        counts = rng.integers(0, 4, size=int(rng.integers(1, 9)))
        if trial % 5 == 0:
            counts[:] = 0
        # few distinct scores, so an image's best often ties
        dets = [[(box, int(rng.integers(2)), float(rng.choice([0.0, 0.25, 0.5, 0.9])))
                 for _ in range(count)] for count in counts]
        gts = [[(box, 0)] if rng.random() < 0.5 else [] for _ in counts]
        got = _match_lists(dets, gts, 0.5).image_score
        assert_same_bits(got, oracle_image_scores(dets))
