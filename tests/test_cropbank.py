import numpy as np
import pytest

from detadapt.cropbank import (BOTH, DISSIMILAR, SIMILAR, AugmentPolicy,
                               CropEntry, Cropbank, augment_sample, mixup,
                               sample_pair)
from detadapt.detector import Labels
from detadapt.relation import ClassSplit, RelationMatrix
from detadapt.world import DetectionSample


def entry(value, class_id, num_classes=2, dim=3):
    return CropEntry(np.full(dim, float(value)), np.eye(num_classes)[class_id])


def relation_from(rows):
    rows = np.array(rows, dtype=float)
    return RelationMatrix(rows, 0.9, update_counts=np.ones(len(rows), dtype=int))


def test_entry_requires_simplex_class_vector():
    with pytest.raises(ValueError):
        CropEntry(np.zeros(3), np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        CropEntry(np.zeros(3), np.array([-0.1, 1.1]))


def test_fifo_eviction_order():
    bank = Cropbank(capacity=2)
    a, b, c = entry(1, 0), entry(2, 0), entry(3, 0)
    for e in (a, b, c):
        bank.push(SIMILAR, 0, e)
    held = bank.entries(SIMILAR, 0)
    assert len(held) == 2
    assert held[0] is b and held[1] is c


def test_capacity_exactly_filled_no_eviction():
    bank = Cropbank(capacity=4)
    pushed = [entry(i, 1) for i in range(4)]
    for e in pushed:
        bank.push(DISSIMILAR, 1, e)
    assert bank.entries(DISSIMILAR, 1) == tuple(pushed)


def test_single_entry_sample_returns_it():
    bank = Cropbank(capacity=4)
    only = entry(7, 1)
    bank.push(SIMILAR, 1, only)
    rel = relation_from([[0.5, 0.5], [0.5, 0.5]])
    rng = np.random.default_rng(0)
    picked = sample_pair(rel, 0, False, bank, BOTH, rng)
    assert picked is only


def test_majority_masking_excludes_self():
    # column weights [0.3 self, 1.0 other]; masking the self entry leaves only
    # the other class even though its buffer is available
    rel = relation_from([[0.3, 0.9], [1.0, 0.1]])
    bank = Cropbank(capacity=4)
    bank.push(SIMILAR, 0, entry(1, 0))
    bank.push(SIMILAR, 1, entry(2, 1))
    rng = np.random.default_rng(1)
    for _ in range(50):
        picked = sample_pair(rel, 0, True, bank, BOTH, rng)
        assert np.argmax(picked.class_vec) == 1


def test_minority_row_allows_self_augmentation():
    rel = relation_from([[1.0, 0.0], [0.0, 1.0]])
    bank = Cropbank(capacity=4)
    bank.push(SIMILAR, 0, entry(1, 0))
    bank.push(SIMILAR, 1, entry(2, 1))
    rng = np.random.default_rng(2)
    for _ in range(50):
        picked = sample_pair(rel, 0, False, bank, BOTH, rng)
        assert np.argmax(picked.class_vec) == 0


def test_sampling_frequencies_match_relation_weights():
    rel = relation_from([[0.75, 0.25], [0.5, 0.5]])
    bank = Cropbank(capacity=2)
    bank.push(SIMILAR, 0, entry(1, 0))
    bank.push(SIMILAR, 1, entry(2, 1))
    rng = np.random.default_rng(3)
    draws = 10000
    hits = 0
    for _ in range(draws):
        picked = sample_pair(rel, 0, False, bank, BOTH, rng)
        hits += int(np.argmax(picked.class_vec) == 0)
    assert abs(hits / draws - 0.75) < 0.02


def test_empty_buffers_signal_no_pair():
    rel = relation_from([[0.5, 0.5], [0.5, 0.5]])
    assert sample_pair(rel, 0, False, Cropbank(4), BOTH, np.random.default_rng(0)) is None


def test_dissimilar_preference_with_fallback():
    rel = relation_from([[1.0, 0.0], [0.0, 1.0]])
    bank = Cropbank(capacity=4)
    sim_entry, dis_entry = entry(1, 0), entry(2, 0)
    bank.push(SIMILAR, 0, sim_entry)
    bank.push(DISSIMILAR, 0, dis_entry)
    rng = np.random.default_rng(4)
    for _ in range(20):
        assert sample_pair(rel, 0, False, bank, DISSIMILAR, rng) is dis_entry
    # fallback once the dissimilar buffer is empty
    empty_dis = Cropbank(capacity=4)
    empty_dis.push(SIMILAR, 0, sim_entry)
    assert sample_pair(rel, 0, False, empty_dis, DISSIMILAR, rng) is sim_entry


def test_mixup_blend_rules():
    base = CropEntry(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    pair = CropEntry(np.array([3.0, -1.0]), np.array([0.0, 1.0]))
    assert np.array_equal(mixup(base, pair, 1.0).feature, base.feature)
    half = mixup(base, pair, 0.5)
    assert np.allclose(half.feature, [2.0, 0.0])
    assert half.class_vec.sum() == pytest.approx(1.0)
    for ratio in (0.3, 0.7, 0.9):
        blended = mixup(base, pair, ratio)
        assert blended.class_vec.sum() == pytest.approx(1.0)
        assert np.all(blended.class_vec >= 0)


def make_sample_with_labels(num_classes=2, dim=3):
    boxes = np.array([[0.0, 0.0, 4.0, 4.0], [10.0, 10.0, 14.0, 14.0]])
    feats = np.array([[1.0] * dim, [5.0] * dim])
    sample = DetectionSample(0, boxes, feats, np.zeros((0, 4)), np.zeros(0, dtype=int))
    return sample, Labels.one_hot(boxes, [0, 1], num_classes)


def full_bank(num_classes=2, dim=3):
    bank = Cropbank(capacity=4)
    for subset in (SIMILAR, DISSIMILAR):
        for c in range(num_classes):
            bank.push(subset, c, entry(9, c, num_classes, dim))
    return bank


def test_augment_p_zero_is_identity():
    sample, labels = make_sample_with_labels()
    rel = relation_from([[0.6, 0.4], [0.4, 0.6]])
    split = ClassSplit(frozenset({0}), frozenset({1}), 0.6)
    out_sample, out_labels = augment_sample(
        sample, labels, rel, split, full_bank(), AugmentPolicy(p_aug=0.0),
        SIMILAR, np.random.default_rng(0))
    assert np.array_equal(out_sample.proposal_features, sample.proposal_features)
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(labels, out_labels))


def test_minority_base_protected_in_dissimilar_samples():
    sample, labels = make_sample_with_labels()
    rel = relation_from([[0.6, 0.4], [0.4, 0.6]])
    split = ClassSplit(frozenset({0}), frozenset({1}), 0.6)
    rng = np.random.default_rng(1)
    for _ in range(20):
        out_sample, out_labels = augment_sample(
            sample, labels, rel, split, full_bank(), AugmentPolicy(p_aug=1.0),
            DISSIMILAR, rng)
        # label 1 is a minority base in a dissimilar sample: never blended
        assert np.array_equal(out_labels.classes[1], labels.classes[1])
        assert np.array_equal(out_sample.proposal_features[1], sample.proposal_features[1])
        # label 0 is majority: always blended at p_aug=1
        assert out_labels.classes[0].max() == pytest.approx(0.7)


def test_always_augment_majority_in_similar_sample():
    sample, labels = make_sample_with_labels()
    rel = relation_from([[0.6, 0.4], [0.4, 0.6]])
    split = ClassSplit(frozenset({0}), frozenset({1}), 0.6)
    policy = AugmentPolicy(p_aug=1.0, mix_ratio=0.7)
    out_sample, out_labels = augment_sample(
        sample, labels, rel, split, full_bank(), policy, SIMILAR,
        np.random.default_rng(2))
    # every instance blended; majority soft label peaks at the mix ratio
    assert out_labels.classes[0].max() == pytest.approx(0.7)
    assert np.all(np.abs(out_labels.classes[1].sum() - 1.0) < 1e-9)
    assert not np.array_equal(out_sample.proposal_features[0], sample.proposal_features[0])
    # the inputs keep their hard labels and features
    assert np.array_equal(labels.classes, np.eye(2))
    assert np.array_equal(sample.proposal_features[0], [1.0, 1.0, 1.0])


def test_class_vectors_stay_simplex_under_repeated_augmentation():
    sample, labels = make_sample_with_labels()
    rel = relation_from([[0.6, 0.4], [0.4, 0.6]])
    split = ClassSplit(frozenset({0}), frozenset({1}), 0.6)
    bank = full_bank()
    rng = np.random.default_rng(3)
    current_sample, current_labels = sample, labels
    for _ in range(10):
        current_sample, current_labels = augment_sample(
            current_sample, current_labels, rel, split, bank,
            AugmentPolicy(p_aug=1.0), SIMILAR, rng)
        for _, vec in current_labels:
            assert vec.sum() == pytest.approx(1.0)
            assert np.all(vec >= -1e-12)
