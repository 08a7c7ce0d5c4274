import numpy as np
import pytest

from bruteforce import oracle_relation_weights
from detadapt.relation import RelationMatrix, batch_confusion
from detadapt.weighting import relation_weights


def matrix(rows):
    return RelationMatrix(np.array(rows, dtype=float), 0.9,
                          update_counts=np.ones(len(rows), dtype=int))


def one_sample(rel, true_cls, pred_cls, reg):
    """`relation_weights` of one sample's labels."""
    return relation_weights(rel, true_cls, pred_cls, reg, [0, len(true_cls)])


def normalized(rel, true_cls, pred_cls):
    """The mean-normalized weights alone: `reg` 0 leaves them as they are."""
    return one_sample(rel, true_cls, pred_cls, 0.0)


def test_instance_weight_examples():
    # at reg 0 the weights are the raw weights over their mean
    rel = matrix([[0.75, 0.25], [0.2, 0.8]])
    raw = np.array([0.5, np.sqrt(0.2)])                          # sqrt(1 - 0.75), sqrt(1 - 0.8)
    assert np.allclose(normalized(rel, [0, 1], [0, 1]), raw / raw.mean())
    rel = matrix([[1.0, 0.0], [0.3, 0.7]])
    assert normalized(rel, [0, 1], [0, 1])[0] == 0.0              # perfect class
    rel = matrix([[0.8, 0.2], [0.3, 0.7]])
    raw = np.array([0.5, np.sqrt(0.3)])                          # sqrt(0.2 / 0.8), sqrt(1 - 0.7)
    assert np.allclose(normalized(rel, [0, 1], [1, 1]), raw / raw.mean())


def test_instance_weight_clamps_zero_diagonal():
    rel = matrix([[0.0, 1.0], [0.5, 0.5]])
    w = normalized(rel, [0, 1], [1, 1])
    assert w[0] / w[1] == pytest.approx(np.sqrt(1.0 / 1e-6) / np.sqrt(0.5))


def test_misclassification_weight_monotone_in_confusion():
    # the correct label of class 1 is a fixed reference weight
    previous = -1.0
    for off in (0.1, 0.2, 0.4, 0.6):
        rel = matrix([[0.4, off], [0.3, 0.7]])
        w = normalized(rel, [0, 1], [1, 1])
        assert w[0] / w[1] > previous
        previous = w[0] / w[1]


def test_normalize_foreground():
    # raw weights [1, 3]: sqrt(1 - 0) and sqrt(0.9 / 0.1)
    rel = matrix([[0.0, 1.0], [0.9, 0.1]])
    assert np.allclose(normalized(rel, [0, 1], [0, 0]), [0.5, 1.5])
    assert np.allclose(normalized(rel, [1, 1], [0, 0]), [1.0, 1.0])
    # a zero mean and no labels at all take the uniform fallback
    identity = matrix(np.eye(2))
    assert np.array_equal(normalized(identity, [0], [0]), [1.0])
    assert normalized(identity, [], []).shape == (0,)


def test_regularize():
    # normalized weights [0, 2]: a perfect class and sqrt(1 - 0.7)
    rel = matrix([[1.0, 0.0], [0.3, 0.7]])
    assert one_sample(rel, [0, 1], [0, 1], 0.5)[0] == pytest.approx(1 / 3)
    assert np.allclose(normalized(rel, [0, 1], [0, 1]), [0.0, 2.0])
    for reg in (0.2, 0.5, 2.0):
        assert one_sample(rel, [0, 1], [0, 1], reg).mean() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        one_sample(rel, [0, 1], [0, 1], -0.1)


def test_pipeline_mean_one_and_positive():
    rel = matrix([[0.7, 0.2, 0.1], [0.3, 0.6, 0.1], [0.4, 0.4, 0.2]])
    weights = one_sample(rel, [0, 0, 1, 2, 2], [0, 1, 1, 0, 2], 0.5)
    assert np.all(weights > 0)
    assert weights.mean() == pytest.approx(1.0)
    # adding unit background weights keeps the combined mean at one
    combined = np.concatenate([weights, np.ones(4)])
    assert combined.mean() == pytest.approx(1.0)


def test_pipeline_degenerate_falls_back_to_uniform():
    rel = matrix([[1.0, 0.0], [0.0, 1.0]])  # identity: every raw weight is zero
    weights = one_sample(rel, [0, 1], [0, 1], 0.5)
    assert np.allclose(weights, 1.0)


def random_relation(rng, num_classes):
    """A row-stochastic matrix; some rows get a zero diagonal, the floored case."""
    rows = rng.dirichlet(np.ones(num_classes), size=num_classes)
    zero = rng.random(num_classes) < 0.3
    rows[zero, np.flatnonzero(zero)] = 0.0
    rows[zero] /= rows[zero].sum(axis=1, keepdims=True)
    return matrix(rows)


@pytest.mark.parametrize("seed", range(4))
def test_weights_equal_per_pair_oracle(seed):
    rng = np.random.default_rng(seed)
    num_classes = 4
    relations = [random_relation(rng, num_classes) for _ in range(20)]
    relations.append(matrix(np.eye(num_classes)))  # all-correct labels: the uniform fallback
    for rel in relations:
        # 8 labels and more: `np.sum` adds them pairwise, in blocks of 128 past 128
        for size in (0, 1, 2, 7, 8, 130):
            true_cls = rng.integers(num_classes, size=size)
            pred_cls = np.where(rng.random(size) < 0.5, true_cls,
                                rng.integers(num_classes, size=size))
            for reg in (0.0, 0.5, 2.0):
                got = one_sample(rel, true_cls, pred_cls, reg)
                want = oracle_relation_weights(
                    rel, list(zip(true_cls.tolist(), pred_cls.tolist())), reg)
                assert np.array_equal(got, want), (size, reg)


@pytest.mark.parametrize("offsets", [[1, 3], [0, 2], [0, 4], [1, 4], [0, 2, 1, 3], [],
                                     [[0, 3]]],
                         ids=["starts_past_0", "ends_short", "ends_past", "shifted_by_one",
                              "falls", "empty", "two_dimensional"])
def test_offsets_must_rise_from_zero_to_the_label_count(offsets):
    rel = matrix([[0.7, 0.2, 0.1], [0.3, 0.6, 0.1], [0.4, 0.4, 0.2]])
    with pytest.raises(ValueError, match="do not rise from 0 to 3"):
        relation_weights(rel, [0, 1, 2], [0, 2, 2], 0.5, offsets)
    # the same labels with well-formed offsets, empty samples included
    for good in ([0, 3], [0, 0, 1, 3, 3]):
        assert relation_weights(rel, [0, 1, 2], [0, 2, 2], 0.5, good).shape == (3,)


@pytest.mark.parametrize("true_cls,pred_cls", [([-1, 0], [0, 0]), ([0, 3], [0, 0]),
                                               ([0, 0], [-1, 0]), ([0, 0], [0, 3])],
                         ids=["label_-1", "label_C", "predicted_-1", "predicted_C"])
def test_class_ids_outside_the_relation_are_rejected_as_batch_confusion_does(true_cls, pred_cls):
    # -1 would read class C - 1 by NumPy's negative index, and C past the matrix
    rel = matrix([[0.7, 0.2, 0.1], [0.3, 0.6, 0.1], [0.4, 0.4, 0.2]])
    with pytest.raises(ValueError, match=r"class ids outside \[0, 3\)"):
        relation_weights(rel, true_cls, pred_cls, 0.5, [0, 2])
    with pytest.raises(ValueError, match=r"class ids outside \[0, 3\)"):
        batch_confusion(true_cls, pred_cls, 3)
    assert one_sample(rel, [0, 2], [0, 2], 0.5).shape == (2,)
