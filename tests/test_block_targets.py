"""A batch's labels as one block: `match_labels`, `targets`, `relation_weights`
and `perturb_features` over packed arrays with per-sample offsets, against each
sample alone and against the per-sample oracles of the code they replaced,
`np.array_equal` throughout."""

import numpy as np
import pytest

from bruteforce import oracle_match_labels, oracle_relation_weights, oracle_targets
from detadapt.detector import Labels, match_labels, pack, targets
from detadapt.weighting import relation_weights
from detadapt.world import box_iou, perturb_features
from test_detector import mixed_samples, random_labels
from test_weighting import matrix, random_relation

TARGET_FIELDS = ("matches", "classes", "boxes", "weights", "background")


def hard_block(rng, sizes):
    """Samples with the given proposal counts, each in its own region of the
    plane, and one label set each, cycling through 0, 1, 3 and 2 labels.

    A sample's first label sits on its proposal 2 (or its last), which every
    other sample of three or more proposals duplicates from proposal 0, so
    the IoUs tie. A sample's second label sits in a neighbour's region: zero
    IoU with every proposal of its own sample, but not with the neighbour's.
    """
    samples = mixed_samples(rng, sizes)
    for i, sample in enumerate(samples):
        sample.proposal_boxes = sample.proposal_boxes + 20.0 * i
        if sample.num_proposals >= 3 and i % 2 == 0:
            sample.proposal_boxes[2] = sample.proposal_boxes[0]
    label_sets = []
    for i, sample in enumerate(samples):
        count = [0, 1, 3, 2][i % 4]
        labels = random_labels(rng, count=count, soft=True)
        boxes = labels.boxes + 20.0 * i
        if count:
            boxes[0] = sample.proposal_boxes[min(2, sample.num_proposals - 1)]
        if count >= 2:
            boxes[1] = samples[i + 1 if i + 1 < len(samples) else i - 1].proposal_boxes[0]
        label_sets.append(Labels(boxes, labels.classes))
    return samples, label_sets


def random_sizes(rng):
    """One-proposal samples at both block edges, random counts between."""
    return [1] + rng.integers(1, 8, size=int(rng.integers(1, 7))).tolist() + [1]


def packed_rows(samples):
    return np.cumsum([0] + [s.num_proposals for s in samples])


def packed_boxes(samples):
    """A block's packed proposal boxes and offsets, `targets`' first arguments."""
    return pack(samples)[1:]


def test_ties_and_zero_iou_labels_resolve_within_their_own_sample():
    a = mixed_samples(np.random.default_rng(0), [3])[0]
    b = mixed_samples(np.random.default_rng(1), [2])[0]
    a.proposal_boxes = np.array([[0, 0, 2, 2], [5, 5, 7, 7], [5, 5, 7, 7]], dtype=float)
    b.proposal_boxes = np.array([[30, 30, 32, 32], [0, 0, 2, 2]], dtype=float)
    # a: a tie on proposals 1 and 2, then b's first box, which no proposal of a
    # overlaps; b: a's tied box, which no proposal of b overlaps
    a_boxes, b_boxes = [[5, 5, 7, 7], [30, 30, 32, 32]], [[5, 5, 7, 7]]
    for block, label_boxes, want in (([a, b], [a_boxes, b_boxes], [1, 0, 3]),
                                     ([b, a], [b_boxes, a_boxes], [0, 3, 2])):
        labels = Labels.pack((Labels(boxes, np.eye(3)[:len(boxes)]) for boxes in label_boxes),
                             3)
        got = match_labels(np.concatenate([s.proposal_boxes for s in block]), labels.boxes,
                           packed_rows(block), labels.offsets)
        assert got.tolist() == want


@pytest.mark.parametrize("reverse", [False, True])
def test_block_matches_equal_per_sample_matches(reverse):
    rng = np.random.default_rng(40)
    for _ in range(60):
        samples, label_sets = hard_block(rng, random_sizes(rng))
        if reverse:
            samples, label_sets = samples[::-1], label_sets[::-1]
        labels, offsets = Labels.pack(label_sets, 3), packed_rows(samples)
        rows = match_labels(np.concatenate([s.proposal_boxes for s in samples]), labels.boxes,
                            offsets, labels.offsets)
        for i, (sample, own) in enumerate(zip(samples, label_sets)):
            local = rows[labels.offsets[i]:labels.offsets[i + 1]] - offsets[i]
            assert np.array_equal(local, match_labels(sample.proposal_boxes, own.boxes,
                                                      [0, sample.num_proposals], [0, len(own)]))
            assert np.array_equal(local, oracle_match_labels(sample.proposal_boxes, own.boxes))


def test_match_labels_reads_a_nan_iou_as_no_overlap():
    # two huge boxes have IoU NaN (inf - inf in their union); the label keeps
    # to its own sample's first row, where it had gone to the next sample's
    huge = [0, 0, 1e200, 1e200]
    boxes = [[0, 0, 1, 1], [5, 5, 6, 6], huge, [7, 7, 8, 8]]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(box_iou(np.array(huge), np.array(huge)))
        assert match_labels([huge, [0, 0, 1, 1], [5, 5, 6, 6]], [huge], [0, 2, 3],
                            [0, 1, 1]).tolist() == [0]
        assert match_labels(boxes, [huge], [0, 1, 3, 4], [0, 0, 1, 1]).tolist() == [1]
        assert match_labels(boxes, [[7, 7, 8, 9], huge], [0, 1, 3, 4],
                            [0, 0, 2, 2]).tolist() == [1, 1]


def test_match_labels_rejects_a_label_on_a_sample_without_proposals():
    with pytest.raises(ValueError):
        match_labels(np.zeros((2, 4)) + [0, 0, 1, 1], [[0, 0, 1, 1]], [0, 2, 2], [0, 0, 1])


@pytest.mark.parametrize("offsets,label_offsets,message",
                         [([0, 2], [0, 1], "do not rise from 0 to 2"),
                          ([0, 1], [0, 2], "do not rise from 0 to 2"),
                          ([0, 2, 1, 2], [0, 1, 1, 2], "do not rise from 0 to 2"),
                          ([0, 1, 2], [0, 2], "offsets of 2 and 1 samples")],
                         ids=["labels-short", "proposals-short", "falling", "sample-counts"])
def test_match_labels_rejects_offsets_that_do_not_cut_the_boxes_alike(offsets, label_offsets,
                                                                      message):
    # two proposals and two labels: a short end drops a label or a proposal row
    boxes = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 2.0, 2.0]])
    with pytest.raises(ValueError, match=message):
        match_labels(boxes, boxes, offsets, label_offsets)


@pytest.mark.parametrize("offsets", [[0, 2, 4], [0, 3, 2], [1, 2, 3], [1, 2, 4]],
                         ids=["past-the-end", "falling", "not-from-zero", "shifted"])
def test_targets_reject_label_offsets_that_do_not_rise_from_zero_to_the_count(offsets):
    # the steps of [1, 2, 4] add up to the label count, yet sample 0 would
    # read label 1 and sample 1 label 2 alone, leaving label 0 out
    samples = mixed_samples(np.random.default_rng(3), [3, 4])
    labels = random_labels(np.random.default_rng(4), count=3)
    labels.offsets = np.array(offsets)
    with pytest.raises(ValueError, match=r"offsets \[.*\] do not rise from 0 to 3"):
        targets(*packed_boxes(samples), labels)


def background_choices(rng, samples):
    """Per sample: all unmatched proposals, none, or a list with repeats that
    may name matched proposals; and each choice as a list of its proposals."""
    choices, lists = [], []
    for sample in samples:
        listed = rng.integers(0, sample.num_proposals, size=4).tolist()
        kind = int(rng.integers(3))
        choices.append(["auto", None, listed][kind])
        lists.append([list(range(sample.num_proposals)), [], listed][kind])
    return choices, lists


def block_rows(samples, lists):
    """Per-sample proposal lists as rows of the block of `samples`."""
    return np.array([start + j for start, listed in zip(packed_rows(samples), lists)
                     for j in listed], dtype=int)


def sample_parts(block_targets, i):
    """Sample i's (matches, classes, boxes, weights, background) of a block's targets."""
    labels = slice(*block_targets.offsets[i:i + 2])
    background = slice(*block_targets.background_offsets[i:i + 2])
    return tuple(getattr(block_targets, name)[background if name == "background" else labels]
                 for name in TARGET_FIELDS)


def assert_parts_equal(got, want):
    for name, g, w in zip(TARGET_FIELDS, got, want):
        assert np.array_equal(g, w), name


@pytest.mark.parametrize("reverse", [False, True])
def test_block_targets_equal_per_sample_targets(reverse):
    rng = np.random.default_rng(41)
    for trial in range(60):
        samples, label_sets = hard_block(rng, random_sizes(rng))
        if reverse:
            samples, label_sets = samples[::-1], label_sets[::-1]
        weights = [rng.uniform(0.2, 2.0, len(labels)) for labels in label_sets]
        choices, lists = background_choices(rng, samples)
        kind = trial % 3
        background = ["auto", None, block_rows(samples, lists)][kind]
        per_sample = [["auto", None, choice][kind] for choice in choices]
        got = targets(*packed_boxes(samples), Labels.pack(label_sets, 3), np.concatenate(weights),
                      background)
        for i, (sample, labels) in enumerate(zip(samples, label_sets)):
            alone = targets(*packed_boxes([sample]), labels, weights[i], per_sample[i])
            assert_parts_equal(sample_parts(got, i), sample_parts(alone, 0))
            assert_parts_equal(sample_parts(got, i),
                               oracle_targets(sample, labels, weights[i], per_sample[i]))

        # a sub-block taken in another order equals the targets built on it
        order = rng.permutation(len(samples))
        taken = got.take(order)
        block = [samples[k] for k in order]
        if kind == 2:
            background = block_rows(block, [lists[k] for k in order])
        rebuilt = targets(*packed_boxes(block), Labels.pack((label_sets[k] for k in order), 3),
                          np.concatenate([weights[k] for k in order]), background)
        for name in TARGET_FIELDS + ("offsets", "background_offsets"):
            assert np.array_equal(getattr(taken, name), getattr(rebuilt, name)), name


def test_block_relation_weights_equal_per_sample_weights():
    rng = np.random.default_rng(42)
    for trial in range(120):
        relation = matrix(np.eye(4)) if trial % 10 == 0 else random_relation(rng, 4)
        # empty samples, and samples of eight labels and more, which np.sum adds pairwise
        counts = rng.integers(0, 14, size=int(rng.integers(1, 8)))
        offsets = np.cumsum(np.concatenate(([0], counts)))
        true_cls = rng.integers(4, size=offsets[-1])
        pred_cls = np.where(rng.random(offsets[-1]) < 0.5, true_cls,
                            rng.integers(4, size=offsets[-1]))
        if trial % 2:
            true_cls, pred_cls, counts = true_cls[::-1], pred_cls[::-1], counts[::-1]
            offsets = np.cumsum(np.concatenate(([0], counts)))
        for reg in (0.0, 0.5):
            got = relation_weights(relation, true_cls, pred_cls, reg, offsets)
            for a, b in zip(offsets, offsets[1:]):
                assert np.array_equal(got[a:b], relation_weights(relation, true_cls[a:b],
                                                                 pred_cls[a:b], reg, [0, b - a]))
                assert np.array_equal(got[a:b], oracle_relation_weights(
                    relation, list(zip(true_cls[a:b].tolist(), pred_cls[a:b].tolist())), reg))


def test_block_noise_equals_one_draw_per_sample_in_turn():
    samples = mixed_samples(np.random.default_rng(43), [1, 4, 2, 7, 1])
    features = np.concatenate([s.proposal_features for s in samples])
    got = perturb_features(features, 0.4, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    want = [s.proposal_features + 0.4 * rng.standard_normal(s.proposal_features.shape)
            for s in samples]
    assert np.array_equal(got, np.concatenate(want))
    assert np.array_equal(features, np.concatenate([s.proposal_features for s in samples]))
    # no noise returns the array itself and draws nothing
    state = rng.bit_generator.state
    assert perturb_features(features, 0.0, rng) is features
    assert rng.bit_generator.state == state
