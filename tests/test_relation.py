import json

import numpy as np
import pytest

from bruteforce import oracle_batch_confusion, oracle_update
from detadapt.relation import (NotReadyError, RelationMatrix, batch_confusion)


def test_batch_confusion_hand_count():
    counts = batch_confusion([0, 0, 1], [0, 1, 1], 2)
    assert np.array_equal(counts, [[1, 1], [0, 1]])


def test_batch_confusion_diagonal_and_empty():
    classes = np.repeat(np.arange(3), 2)
    counts = batch_confusion(classes, classes, 3)
    assert np.array_equal(counts, 2 * np.eye(3))
    assert np.array_equal(batch_confusion([], [], 3), np.zeros((3, 3)))


def test_batch_confusion_rejects_out_of_range():
    with pytest.raises(ValueError):
        batch_confusion([0], [3], 3)
    with pytest.raises(ValueError):
        batch_confusion([-1], [0], 3)


@pytest.mark.parametrize("true_cls, pred_cls", [([0, 1], [0]), ([[0, 1]], [[0, 1]])])
def test_batch_confusion_rejects_misshapen_class_arrays(true_cls, pred_cls):
    with pytest.raises(ValueError):
        batch_confusion(true_cls, pred_cls, 3)


@pytest.mark.parametrize("seed", range(3))
def test_counts_and_update_equal_per_pair_and_per_row_oracles(seed):
    # batches of 0 to 12 labels over 4 classes leave some rows without counts
    rng = np.random.default_rng(seed)
    rel = RelationMatrix.identity(4, ema_rate=0.9)
    want = RelationMatrix.identity(4, ema_rate=0.9)
    for _ in range(60):
        size = int(rng.integers(0, 13))
        true_cls = rng.integers(4, size=size)
        pred_cls = rng.integers(4, size=size)
        counts = batch_confusion(true_cls, pred_cls, 4)
        want_counts = oracle_batch_confusion(list(zip(true_cls.tolist(), pred_cls.tolist())), 4)
        assert np.array_equal(counts, want_counts)
        rel.update(counts)
        oracle_update(want, want_counts)
        assert np.array_equal(rel.matrix, want.matrix)
        assert np.array_equal(rel.update_counts, want.update_counts)


def test_update_of_all_zero_counts_is_an_exact_no_op():
    rel = RelationMatrix(np.array([[0.3, 0.7], [0.6, 0.4]]), ema_rate=0.9)
    before = rel.matrix.copy()
    rel.update(np.zeros((2, 2)))
    assert np.array_equal(rel.matrix, before)
    assert list(rel.update_counts) == [0, 0]


def test_update_endpoints():
    counts = batch_confusion([0, 1], [1, 1], 2)
    frozen = RelationMatrix.identity(2, ema_rate=1.0).update(counts)
    assert np.array_equal(frozen.matrix, np.eye(2))
    replaced = RelationMatrix.identity(2, ema_rate=0.0).update(counts)
    assert np.allclose(replaced.matrix, [[0, 1], [0, 1]])


def test_update_blend_arithmetic():
    # row [0.5, 0.5] blended with normalized batch row [1, 0] at rate 0.9
    rel = RelationMatrix(np.array([[0.5, 0.5], [0.0, 1.0]]), ema_rate=0.9)
    rel.update(np.array([[4.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(rel.matrix[0], [0.55, 0.45], atol=1e-12)
    assert np.allclose(rel.matrix[1], [0.0, 1.0])  # untouched row


def test_zero_count_rows_entirely_skipped():
    rel = RelationMatrix.identity(3, ema_rate=0.5)
    rel.update(batch_confusion([1], [2], 3))
    assert np.array_equal(rel.matrix[0], [1, 0, 0])
    assert np.array_equal(rel.matrix[2], [0, 0, 1])
    assert np.allclose(rel.matrix[1], [0, 0.5, 0.5])
    assert list(rel.update_counts) == [0, 1, 0]


def test_rows_stay_stochastic_under_random_updates():
    rng = np.random.default_rng(0)
    rel = RelationMatrix.identity(4, ema_rate=0.97)
    for _ in range(500):
        counts = rng.integers(0, 5, size=(4, 4)).astype(float)
        rel.update(counts)
    sums = rel.matrix.sum(axis=1)
    assert np.all(np.abs(sums - 1.0) < 1e-9)
    assert np.all(rel.matrix >= 0.0) and np.all(rel.matrix <= 1.0)


def test_fixed_point_geometric_convergence():
    rel = RelationMatrix.identity(2, ema_rate=0.9)
    target = np.array([0.25, 0.75])
    counts = np.zeros((2, 2))
    counts[0] = target * 8
    initial_gap = np.abs(rel.matrix[0] - target).max()
    for k in range(1, 30):
        rel.update(counts)
        gap = np.abs(rel.matrix[0] - target).max()
        assert gap == pytest.approx(0.9**k * initial_gap, abs=1e-12)


def test_stationary_distribution_convergence():
    # i.i.d. batches from a fixed confusion distribution drive the row to the
    # expected normalized batch row; the EMA keeps O(sqrt(1-beta)) jitter per
    # seed, so the bound applies to the 5-seed average
    expected = np.array([0.6, 0.3, 0.1])
    finals = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        rel = RelationMatrix.identity(3, ema_rate=0.99)
        for _ in range(1000):
            draws = rng.multinomial(12, expected)
            counts = np.zeros((3, 3))
            counts[0] = draws
            rel.update(counts)
        finals.append(rel.matrix[0].copy())
    averaged = np.mean(finals, axis=0)
    assert np.abs(averaged - expected).max() < 1e-2


def test_split_examples():
    # diagonal mean 0.7: class 0 lies above it, class 1 below
    rel = RelationMatrix(np.array([[0.9, 0.1], [0.5, 0.5]]), 0.9,
                         update_counts=np.ones(2, dtype=int))
    assert rel.majority() == {0}

    # every diagonal entry ties with the mean: all minority
    rel = RelationMatrix(np.full((3, 3), 1 / 3), 0.9, update_counts=np.ones(3, dtype=int))
    assert rel.majority() == frozenset()

    diag = np.diag([0.8, 0.6, 0.1]) + 0.0
    diag[0, 1] = 0.2
    diag[1, 0] = 0.4
    diag[2, 0] = 0.9
    # diagonal mean 0.5
    rel = RelationMatrix(diag, 0.9, update_counts=np.ones(3, dtype=int))
    majority = rel.majority()
    assert majority == {0, 1} and isinstance(majority, frozenset)
    assert all(type(c) is int for c in majority)


def test_split_requires_every_row_updated():
    rel = RelationMatrix.identity(3)
    with pytest.raises(NotReadyError):
        rel.majority()
    rel.update(batch_confusion([0, 1], [0, 1], 3))
    with pytest.raises(NotReadyError):
        rel.majority()
    rel.update(batch_confusion([2], [0], 3))
    rel.majority()


def test_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    rel = RelationMatrix.identity(3, ema_rate=0.95)
    for _ in range(5):
        rel.update(rng.integers(0, 4, size=(3, 3)).astype(float))
    clone = RelationMatrix.from_dict(rel.to_dict())
    assert np.array_equal(clone.matrix, rel.matrix)
    assert np.array_equal(clone.update_counts, rel.update_counts)
    path = tmp_path / "relation.json"
    rel.save_rows(path)
    rows = json.loads(path.read_text())
    assert np.array_equal(np.array(rows), rel.matrix)
