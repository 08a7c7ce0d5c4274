import numpy as np
import pytest

from bruteforce import CropEntry, OracleCropbank, oracle_preference, oracle_sample_pair
from detadapt.cropbank import AugmentPolicy, Cropbank, augment_sample, sample_pair
from detadapt.detector import Labels, match_labels
from detadapt.partition import DISSIMILAR, SIMILAR, SUBSETS
from detadapt.relation import RelationMatrix
from detadapt.world import DetectionSample


def row(value, class_id, dim=3):
    """The (class, feature) pair `sample_pair` returns for `push(..., class_id, value)`."""
    return class_id, np.full(dim, float(value))


def push(bank, subset, class_id, value, dim=3):
    """Push one instance, of feature `np.full(dim, value)`, as a sample of its own."""
    bank.push(subset, [class_id], [np.full(dim, float(value))])


def same_row(got, want):
    return got[0] == want[0] and np.array_equal(got[1], want[1])


def held(bank, sample_subset, class_id):
    """The feature rows of one class that a `sample_subset` sample may draw, in order."""
    return [feature for buffer in bank.sources(sample_subset, class_id) for feature in buffer]


def relation_from(rows):
    rows = np.array(rows, dtype=float)
    return RelationMatrix(rows, 0.9, update_counts=np.ones(len(rows), dtype=int))


def augment(sample, labels, rel, majority, bank, policy, subset, rng):
    """`augment_sample` given the labels' own matches, as `adapt` gives them."""
    return augment_sample(sample, labels, rel, majority, bank, policy, subset, rng,
                          matches=match_labels(sample.proposal_boxes, labels.boxes))


def test_rows_changed_by_the_caller_after_push_stay_unchanged():
    bank = Cropbank(capacity=4)
    class_ids, features = np.array([1, 0]), np.ones((2, 3))
    bank.push(SIMILAR, class_ids, features)
    class_ids[:], features[:] = 0, 5.0
    assert np.array_equal(held(bank, SIMILAR, 1), [np.ones(3)])
    assert np.array_equal(held(bank, SIMILAR, 0), [np.ones(3)])


def test_fifo_eviction_order():
    bank = Cropbank(capacity=2)
    for value in (1, 2, 3):
        push(bank, SIMILAR, 0, value)
    assert np.array_equal(held(bank, SIMILAR, 0), [np.full(3, 2.0), np.full(3, 3.0)])


def test_capacity_exactly_filled_no_eviction():
    bank = Cropbank(capacity=4)
    for i in range(4):
        push(bank, DISSIMILAR, 1, i)
    assert np.array_equal(held(bank, DISSIMILAR, 1), [np.full(3, float(i)) for i in range(4)])


def test_single_entry_sample_returns_it():
    bank = Cropbank(capacity=4)
    push(bank, SIMILAR, 1, 7)
    rel = relation_from([[0.5, 0.5], [0.5, 0.5]])
    rng = np.random.default_rng(0)
    picked = sample_pair(rel, 0, False, bank, SIMILAR, rng)
    assert same_row(picked, row(7, 1))


def test_majority_masking_excludes_self():
    # column weights [0.3 self, 1.0 other]; masking the self entry leaves only
    # the other class even though its buffer is available
    rel = relation_from([[0.3, 0.9], [1.0, 0.1]])
    bank = Cropbank(capacity=4)
    push(bank, SIMILAR, 0, 1)
    push(bank, SIMILAR, 1, 2)
    rng = np.random.default_rng(1)
    for _ in range(50):
        picked = sample_pair(rel, 0, True, bank, SIMILAR, rng)
        assert picked[0] == 1


def test_minority_row_allows_self_augmentation():
    rel = relation_from([[1.0, 0.0], [0.0, 1.0]])
    bank = Cropbank(capacity=4)
    push(bank, SIMILAR, 0, 1)
    push(bank, SIMILAR, 1, 2)
    rng = np.random.default_rng(2)
    for _ in range(50):
        picked = sample_pair(rel, 0, False, bank, SIMILAR, rng)
        assert picked[0] == 0


def test_sampling_frequencies_match_relation_weights():
    rel = relation_from([[0.75, 0.25], [0.5, 0.5]])
    bank = Cropbank(capacity=2)
    push(bank, SIMILAR, 0, 1)
    push(bank, SIMILAR, 1, 2)
    rng = np.random.default_rng(3)
    draws = 10000
    hits = 0
    for _ in range(draws):
        picked = sample_pair(rel, 0, False, bank, SIMILAR, rng)
        hits += int(picked[0] == 0)
    assert abs(hits / draws - 0.75) < 0.02


def test_empty_buffers_signal_no_pair():
    rel = relation_from([[0.5, 0.5], [0.5, 0.5]])
    assert sample_pair(rel, 0, False, Cropbank(4), SIMILAR, np.random.default_rng(0)) is None


def test_dissimilar_preference_with_fallback():
    rel = relation_from([[1.0, 0.0], [0.0, 1.0]])
    bank = Cropbank(capacity=4)
    push(bank, SIMILAR, 0, 1)
    push(bank, DISSIMILAR, 0, 2)
    rng = np.random.default_rng(4)
    for _ in range(20):
        assert same_row(sample_pair(rel, 0, False, bank, DISSIMILAR, rng), row(2, 0))
    # fallback once the dissimilar buffer is empty
    empty_dis = Cropbank(capacity=4)
    push(empty_dis, SIMILAR, 0, 1)
    assert same_row(sample_pair(rel, 0, False, empty_dis, DISSIMILAR, rng), row(1, 0))


def test_pools_and_draws_match_per_entry_oracle_bank():
    rng = np.random.default_rng(40)
    num_classes, dim = 4, 3
    bank, oracle = Cropbank(capacity=3), OracleCropbank(capacity=3)
    # under the identity a majority base has only zero weights: the uniform fallback
    relations = (relation_from(rng.dirichlet(np.ones(num_classes), num_classes)),
                 relation_from(np.eye(num_classes)))
    bank_rng, oracle_rng = np.random.default_rng(41), np.random.default_rng(41)
    drawn, fallbacks = 0, 0
    for _ in range(600):
        subset = SUBSETS[int(rng.integers(2))]
        if rng.random() < 0.4:
            n = int(rng.integers(0, 5))
            class_ids = rng.integers(num_classes, size=n)
            features = rng.standard_normal((n, dim))
            bank.push(subset, class_ids, features)
            for class_id, feature in zip(class_ids.tolist(), features):
                oracle.push(subset, class_id,
                            CropEntry(feature.copy(), np.eye(num_classes)[class_id]))
        else:
            base, is_majority = int(rng.integers(num_classes)), bool(rng.integers(2))
            which = int(rng.integers(2))
            got = sample_pair(relations[which], base, is_majority, bank, subset, bank_rng)
            want = oracle_sample_pair(relations[which], base, is_majority, oracle,
                                      oracle_preference(subset), oracle_rng)
            if want is None:
                assert got is None
            else:
                assert same_row(got, (int(np.argmax(want.class_vec)), want.feature))
                drawn += 1
                fallbacks += which == 1 and is_majority
        for sample_subset in SUBSETS:
            for k in range(num_classes):
                want_pool = oracle.pool(oracle_preference(sample_subset), k)
                got_pool = held(bank, sample_subset, k)
                assert len(got_pool) == len(want_pool)
                assert all(np.array_equal(g, w.feature) for g, w in zip(got_pool, want_pool))
    assert drawn > 100 and fallbacks > 10


def blend(ratio):
    """One majority label on one proposal, blended at p_aug 1 with the bank's only row."""
    boxes = np.array([[0.0, 0.0, 4.0, 4.0]])
    sample = DetectionSample(0, boxes, np.array([[1.0, 1.0]]), np.zeros((0, 4)),
                             np.zeros(0, dtype=int))
    bank = Cropbank(capacity=1)
    bank.push(SIMILAR, [1], [np.array([3.0, -1.0])])
    rel = relation_from([[0.5, 0.5], [0.5, 0.5]])
    out_sample, out_labels = augment(
        sample, Labels.one_hot(boxes, [0], 2), rel, frozenset({0}), bank,
        AugmentPolicy(p_aug=1.0, mix_ratio=ratio), SIMILAR, np.random.default_rng(0))
    return out_sample.proposal_features[0], out_labels.classes[0]


def test_mixup_blend_rules():
    feature, _ = blend(1.0)
    assert np.array_equal(feature, [1.0, 1.0])
    feature, class_vec = blend(0.5)
    assert np.allclose(feature, [2.0, 0.0])
    # the partner's class vector is the one-hot vector of its buffer's class
    assert np.array_equal(class_vec, [0.5, 0.5])
    for ratio in (0.3, 0.7, 0.9):
        _, class_vec = blend(ratio)
        assert class_vec.sum() == pytest.approx(1.0)
        assert np.all(class_vec >= 0)


def make_sample_with_labels(num_classes=2, dim=3):
    boxes = np.array([[0.0, 0.0, 4.0, 4.0], [10.0, 10.0, 14.0, 14.0]])
    feats = np.array([[1.0] * dim, [5.0] * dim])
    sample = DetectionSample(0, boxes, feats, np.zeros((0, 4)), np.zeros(0, dtype=int))
    return sample, Labels.one_hot(boxes, [0, 1], num_classes)


def full_bank(num_classes=2, dim=3):
    bank = Cropbank(capacity=4)
    for subset in (SIMILAR, DISSIMILAR):
        for c in range(num_classes):
            push(bank, subset, c, 9, dim)
    return bank


def test_augment_p_zero_is_identity():
    sample, labels = make_sample_with_labels()
    rel = relation_from([[0.6, 0.4], [0.4, 0.6]])
    out_sample, out_labels = augment(
        sample, labels, rel, frozenset({0}), full_bank(), AugmentPolicy(p_aug=0.0),
        SIMILAR, np.random.default_rng(0))
    assert np.array_equal(out_sample.proposal_features, sample.proposal_features)
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(labels, out_labels))


def test_minority_base_protected_in_dissimilar_samples():
    sample, labels = make_sample_with_labels()
    rel = relation_from([[0.6, 0.4], [0.4, 0.6]])
    rng = np.random.default_rng(1)
    for _ in range(20):
        out_sample, out_labels = augment(
            sample, labels, rel, frozenset({0}), full_bank(), AugmentPolicy(p_aug=1.0),
            DISSIMILAR, rng)
        # label 1 is a minority base in a dissimilar sample: never blended
        assert np.array_equal(out_labels.classes[1], labels.classes[1])
        assert np.array_equal(out_sample.proposal_features[1], sample.proposal_features[1])
        # label 0 is majority: always blended at p_aug=1
        assert out_labels.classes[0].max() == pytest.approx(0.7)


def test_always_augment_majority_in_similar_sample():
    sample, labels = make_sample_with_labels()
    rel = relation_from([[0.6, 0.4], [0.4, 0.6]])
    policy = AugmentPolicy(p_aug=1.0, mix_ratio=0.7)
    out_sample, out_labels = augment(
        sample, labels, rel, frozenset({0}), full_bank(), policy, SIMILAR,
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
    bank = full_bank()
    rng = np.random.default_rng(3)
    current_sample, current_labels = sample, labels
    for _ in range(10):
        current_sample, current_labels = augment(
            current_sample, current_labels, rel, frozenset({0}), bank,
            AugmentPolicy(p_aug=1.0), SIMILAR, rng)
        for _, vec in current_labels:
            assert vec.sum() == pytest.approx(1.0)
            assert np.all(vec >= -1e-12)
