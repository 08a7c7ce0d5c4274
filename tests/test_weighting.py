import numpy as np
import pytest

from detadapt.relation import RelationMatrix
from detadapt.weighting import (DegenerateBatchError, instance_weight,
                                normalize_foreground, regularize,
                                relation_weights)


def matrix(rows):
    return RelationMatrix(np.array(rows, dtype=float), 0.9,
                          update_counts=np.ones(len(rows), dtype=int))


def test_instance_weight_examples():
    rel = matrix([[0.75, 0.25], [0.2, 0.8]])
    assert instance_weight(rel, 0, 0) == pytest.approx(0.5)      # sqrt(1 - 0.75)
    rel = matrix([[1.0, 0.0], [0.0, 1.0]])
    assert instance_weight(rel, 0, 0) == 0.0                      # perfect class
    rel = matrix([[0.8, 0.2], [0.3, 0.7]])
    assert instance_weight(rel, 0, 1) == pytest.approx(0.5)      # sqrt(0.2 / 0.8)


def test_instance_weight_clamps_zero_diagonal():
    rel = matrix([[0.0, 1.0], [0.5, 0.5]])
    value = instance_weight(rel, 0, 1)
    assert value == pytest.approx(np.sqrt(1.0 / 1e-6))


def test_misclassification_weight_monotone_in_confusion():
    previous = -1.0
    for off in (0.1, 0.2, 0.4, 0.6):
        rel = matrix([[0.4, off], [0.3, 0.7]])
        value = instance_weight(rel, 0, 1)
        assert value > previous
        previous = value


def test_normalize_foreground():
    assert np.allclose(normalize_foreground([1.0, 3.0]), [0.5, 1.5])
    assert np.allclose(normalize_foreground([0.2, 0.2]), [1.0, 1.0])
    with pytest.raises(DegenerateBatchError):
        normalize_foreground([0.0])
    with pytest.raises(DegenerateBatchError):
        normalize_foreground([])


def test_regularize():
    assert regularize([0.0], 0.5)[0] == pytest.approx(1 / 3)
    values = np.array([0.3, 1.7, 0.9])
    assert np.allclose(regularize(values, 0.0), values)
    for reg in (0.2, 0.5, 2.0):
        out = regularize([0.5, 1.5], reg)  # mean-1 input
        assert out.mean() == pytest.approx(1.0)


def test_pipeline_mean_one_and_positive():
    rel = matrix([[0.7, 0.2, 0.1], [0.3, 0.6, 0.1], [0.4, 0.4, 0.2]])
    pairs = [(0, 0), (0, 1), (1, 1), (2, 0), (2, 2)]
    weights = relation_weights(rel, pairs, reg=0.5)
    assert np.all(weights > 0)
    assert weights.mean() == pytest.approx(1.0)
    # adding unit background weights keeps the combined mean at one
    combined = np.concatenate([weights, np.ones(4)])
    assert combined.mean() == pytest.approx(1.0)


def test_pipeline_degenerate_falls_back_to_uniform():
    rel = matrix([[1.0, 0.0], [0.0, 1.0]])  # identity: every raw weight is zero
    weights = relation_weights(rel, [(0, 0), (1, 1)], reg=0.5)
    assert np.allclose(weights, 1.0)
