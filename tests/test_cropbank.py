from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruteforce import (CropEntry, OracleCropbank, bbox_pairs, oracle_augment_sample,
                        oracle_majority, oracle_partner_class)
from detadapt.cropbank import Cropbank, augment_sample
from detadapt.detector import Labels, match_labels
from detadapt.relation import RelationMatrix
from detadapt.world import DetectionSample


def row(value, class_id, dim=3):
    """The (class, feature) pair `draw` returns for `push(..., class_id, value)`."""
    return class_id, np.full(dim, float(value))


def push(bank, class_id, value, dim=3):
    """Push one instance, of feature `np.full(dim, value)`, as a batch."""
    bank.push([class_id], [np.full(dim, float(value))])


def same_row(got, want):
    return got[0] == want[0] and np.array_equal(got[1], want[1])


def held(bank, class_id):
    """The feature rows the bank holds of one class, oldest first."""
    count = bank.sizes()[class_id]
    return list(bank.rows([class_id] * count, range(count)))


def oracle_pair(relation, base_class, is_majority, bank, rng):
    """One label's partner entry on the oracle bank, after its blend uniform:
    its class, then its entry; None without one."""
    partner = oracle_partner_class(relation, base_class, is_majority, bank, rng)
    if partner is None:
        return None
    pool = bank.entries(partner)
    return pool[int(rng.integers(len(pool)))]


def relation_from(rows):
    rows = np.array(rows, dtype=float)
    return RelationMatrix(rows, 0.9, update_counts=np.ones(len(rows), dtype=int))


def partners(rel, base_class, is_majority, bank, rng, count=1, dim=3):
    """The partners `augment_sample` blends into `count` labels of class
    `base_class` in a batch of one sample at p_aug 1, label by label:
    (class, feature), or None without one.

    Each label has a feature row of its own, of zeros, and keeps half of
    it, so a blend is half the partner's feature and half the two one-hot
    class vectors, exactly.
    """
    boxes = np.zeros((count, 4)) + [0.0, 0.0, 4.0, 4.0]
    labels = Labels.one_hot(boxes, [base_class] * count, rel.num_classes)
    majority = frozenset({base_class} if is_majority else ())
    strong, out = augment_sample(np.zeros((count, dim)), labels, rel, majority, bank, 1.0, 0.5,
                                 rng, matches=np.arange(count))
    if out is labels:
        return [None] * count
    pair_classes = np.argmax(out.classes - 0.5 * labels.classes, axis=1)
    return [(int(c), f / 0.5) for c, f in zip(pair_classes, strong)]


def draw(rel, base_class, is_majority, bank, rng, dim=3):
    """One label's partner, as `partners` gives it."""
    return partners(rel, base_class, is_majority, bank, rng, dim=dim)[0]


def augment(sample, labels, rel, majority, bank, p_aug, mix_ratio, rng, features=None):
    """`augment_sample` of a batch of one sample, on `features` (by default
    the sample's own), given the labels' own matches, as `adapt` gives them:
    the blended features and the labels."""
    features = sample.proposal_features if features is None else features
    matches = match_labels(sample.proposal_boxes, labels.boxes, [0, sample.num_proposals],
                           [0, len(labels)])
    return augment_sample(features, labels, rel, majority, bank, p_aug, mix_ratio, rng,
                          matches=matches)


def test_rows_changed_by_the_caller_after_push_stay_unchanged():
    bank = Cropbank(capacity=4, num_classes=2)
    class_ids, features = np.array([1, 0]), np.ones((2, 3))
    bank.push(class_ids, features)
    class_ids[:], features[:] = 0, 5.0
    assert np.array_equal(held(bank, 1), [np.ones(3)])
    assert np.array_equal(held(bank, 0), [np.ones(3)])


def test_fifo_eviction_order():
    bank = Cropbank(capacity=2, num_classes=1)
    for value in (1, 2, 3):
        push(bank, 0, value)
    assert np.array_equal(held(bank, 0), [np.full(3, 2.0), np.full(3, 3.0)])
    # one gather of several classes' rows, in the order asked
    bank = Cropbank(capacity=2, num_classes=2)
    bank.push([0, 1, 0], np.arange(3.0)[:, None] + np.zeros(3))
    assert bank.rows([1, 0, 0], [0, 1, 0]).tolist() == [[1.0] * 3, [2.0] * 3, [0.0] * 3]


def test_one_push_over_capacity_keeps_its_last_rows_oldest_first():
    # a batch's rows go in row order, so its last `capacity` of a class stay
    bank = Cropbank(capacity=2, num_classes=2)
    push(bank, 0, 9)
    bank.push([0, 1, 0, 0, 1], np.arange(5.0)[:, None] + np.zeros(3))
    assert bank.sizes().tolist() == [2, 2]
    assert np.array_equal(held(bank, 0), [np.full(3, 2.0), np.full(3, 3.0)])
    assert np.array_equal(held(bank, 1), [np.full(3, 1.0), np.full(3, 4.0)])


@settings(max_examples=300, deadline=None, database=None)
@given(capacity=st.integers(1, 4),
       batches=st.lists(st.lists(st.integers(0, 2), max_size=9), max_size=8))
@example(capacity=2, batches=[[1], [1, 1, 1, 1, 1], [0, 1, 1]])  # one class overfills a push
def test_push_and_rows_match_a_deque_per_class(capacity, batches):
    # each class's rows, oldest first, are its deque(maxlen=capacity) of every
    # row filed under it, after each push
    bank = Cropbank(capacity, num_classes=3)
    oracle = [deque(maxlen=capacity) for _ in range(3)]
    filed = 0
    for class_ids in batches:
        features = np.arange(filed, filed + len(class_ids), dtype=float)[:, None] * [1.0, -1.0]
        filed += len(class_ids)
        bank.push(np.array(class_ids, dtype=int), features)
        for class_id, feature in zip(class_ids, features):
            oracle[class_id].append(feature)
        assert bank.sizes().tolist() == [len(rows) for rows in oracle]
        for class_id, rows in enumerate(oracle):
            got = bank.rows([class_id] * len(rows), range(len(rows)))
            assert np.array_equal(got.reshape(-1, 2), np.reshape(list(rows), (-1, 2)))
        if any(oracle):
            # the rows of several classes, in any order, in one call
            picks = [(c, i) for c, rows in enumerate(oracle) for i in range(len(rows))][::-1]
            got = bank.rows([c for c, _ in picks], [i for _, i in picks])
            assert np.array_equal(got, [oracle[c][i] for c, i in picks])


@pytest.mark.parametrize("class_id,index", [(2, 0), (1, 1), (0, -1), (0, 2)],
                         ids=["none_seen", "past_the_end", "negative", "past_capacity"])
def test_rows_rejects_a_row_the_sample_may_not_draw(class_id, index):
    # a sample draws only the rows the bank holds: the last two of class 0's
    # three, class 1's one and none of class 2
    bank = Cropbank(capacity=2, num_classes=3)
    bank.push([0, 0, 0, 1], np.arange(4.0)[:, None] + np.zeros(3))
    with pytest.raises(IndexError, match=f"class {class_id} holds"):
        bank.rows([0, class_id], [0, index])
    assert bank.rows([], []).shape == (0, 3)


def test_capacity_exactly_filled_no_eviction():
    bank = Cropbank(capacity=4, num_classes=2)
    for i in range(4):
        push(bank, 1, i)
    assert np.array_equal(held(bank, 1), [np.full(3, float(i)) for i in range(4)])


def test_single_entry_sample_returns_it():
    bank = Cropbank(capacity=4, num_classes=2)
    push(bank, 1, 7)
    rel = relation_from([[0.5, 0.5], [0.5, 0.5]])
    rng = np.random.default_rng(0)
    picked = draw(rel, 0, False, bank, rng)
    assert same_row(picked, row(7, 1))


def test_majority_masking_excludes_self():
    # column weights [0.3 self, 1.0 other]; masking the self entry leaves only
    # the other class even though its buffer is available
    rel = relation_from([[0.3, 0.9], [1.0, 0.1]])
    bank = Cropbank(capacity=4, num_classes=2)
    push(bank, 0, 1)
    push(bank, 1, 2)
    rng = np.random.default_rng(1)
    picks = partners(rel, 0, True, bank, rng, count=50)
    assert all(picked[0] == 1 for picked in picks)


def test_majority_base_never_draws_its_own_class_in_the_uniform_fallback():
    # under the identity the base's column, its own entry left out, is all
    # zero, so the partner class is drawn uniformly over the other classes
    # with rows, and there is no partner when the base's class alone has rows
    rel = relation_from(np.eye(3))
    bank = Cropbank(capacity=4, num_classes=3)
    push(bank, 0, 1)
    rng = np.random.default_rng(3)
    assert draw(rel, 0, True, bank, rng) is None
    push(bank, 1, 2)
    push(bank, 2, 3)
    picks = [picked[0] for picked in partners(rel, 0, True, bank, rng, count=200)]
    assert set(picks) == {1, 2}


def test_minority_row_allows_self_augmentation():
    rel = relation_from([[1.0, 0.0], [0.0, 1.0]])
    bank = Cropbank(capacity=4, num_classes=2)
    push(bank, 0, 1)
    push(bank, 1, 2)
    rng = np.random.default_rng(2)
    picks = partners(rel, 0, False, bank, rng, count=50)
    assert all(picked[0] == 0 for picked in picks)


def test_sampling_frequencies_match_relation_weights():
    rel = relation_from([[0.75, 0.25], [0.5, 0.5]])
    bank = Cropbank(capacity=2, num_classes=2)
    push(bank, 0, 1)
    push(bank, 1, 2)
    rng = np.random.default_rng(3)
    draws = 10000
    hits = sum(picked[0] == 0
               for picked in partners(rel, 0, False, bank, rng, count=draws))
    assert abs(hits / draws - 0.75) < 0.02


def test_class_draw_matches_generator_choice_with_zero_weights():
    # a minority base draws over its relation row; the pick and the stream
    # after it are those of `Generator.choice` with the renormalized weights,
    # after the label's p_aug draw
    rng = np.random.default_rng(44)
    num_classes = 5
    bank = Cropbank(capacity=1, num_classes=num_classes)
    for k in range(num_classes):
        push(bank, k, k)
    got_rng, want_rng = np.random.default_rng(45), np.random.default_rng(45)
    zeros = 0
    for _ in range(300):
        weights = rng.random(num_classes) * (rng.random(num_classes) < 0.6)
        zeros += int((weights == 0).sum())
        if weights.sum() == 0:
            weights[int(rng.integers(num_classes))] = 1.0
        rel = relation_from(np.tile(weights, (num_classes, 1)))
        got = draw(rel, 0, False, bank, got_rng)
        assert want_rng.random() < 1.0
        want = int(want_rng.choice(num_classes, p=weights / weights.sum()))
        assert int(want_rng.integers(1)) == 0
        assert same_row(got, row(want, want))
    assert zeros > 300
    assert got_rng.random() == want_rng.random()


def test_empty_buffers_signal_no_pair():
    rel = relation_from([[0.5, 0.5], [0.5, 0.5]])
    rng, want_rng = np.random.default_rng(0), np.random.default_rng(0)
    assert draw(rel, 0, False, Cropbank(4, 2), rng) is None
    # the label's p_aug draw, and nothing after it
    want_rng.random()
    assert rng.random() == want_rng.random()


def test_pools_and_draws_match_per_entry_oracle_bank():
    rng = np.random.default_rng(40)
    num_classes, dim = 4, 3
    bank, oracle = Cropbank(capacity=3, num_classes=num_classes), OracleCropbank(capacity=3)
    # under the identity a majority base has only zero weights: the uniform fallback
    relations = (relation_from(rng.dirichlet(np.ones(num_classes), num_classes)),
                 relation_from(np.eye(num_classes)))
    bank_rng, oracle_rng = np.random.default_rng(41), np.random.default_rng(41)
    drawn, fallbacks = 0, 0
    for _ in range(600):
        if rng.random() < 0.4:
            n = int(rng.integers(0, 5))
            class_ids = rng.integers(num_classes, size=n)
            features = rng.standard_normal((n, dim))
            bank.push(class_ids, features)
            for class_id, feature in zip(class_ids.tolist(), features):
                oracle.push(class_id, CropEntry(feature.copy(), np.eye(num_classes)[class_id]))
        else:
            base, which = int(rng.integers(num_classes)), int(rng.integers(2))
            is_majority = bool(rng.integers(2))
            oracle_rng.random()
            got = draw(relations[which], base, is_majority, bank, bank_rng, dim=dim)
            want = oracle_pair(relations[which], base, is_majority, oracle, oracle_rng)
            if want is None:
                assert got is None
            else:
                assert same_row(got, (int(np.argmax(want.class_vec)), want.feature))
                drawn += 1
                fallbacks += which == 1 and is_majority
        for k in range(num_classes):
            want_pool = oracle.entries(k)
            got_pool = held(bank, k)
            assert len(got_pool) == len(want_pool)
            assert all(np.array_equal(g, w.feature) for g, w in zip(got_pool, want_pool))
    assert drawn > 100 and fallbacks > 10


def test_kept_sizes_follow_pushes_and_draws_match_oracle():
    # the bank keeps each buffer's row count between pushes; pushes that evict
    # within one call or that skip classes interleave with draws, which must
    # stay the oracle's, in the same order from the same stream
    rng = np.random.default_rng(42)
    num_classes, dim = 3, 2
    bank, oracle = Cropbank(capacity=2, num_classes=num_classes), OracleCropbank(capacity=2)
    relation = relation_from(rng.dirichlet(np.ones(num_classes), num_classes))
    bank_rng, oracle_rng = np.random.default_rng(43), np.random.default_rng(43)
    drawn = 0
    for step in range(400):
        if step % 3 == 0:
            class_ids = rng.integers(num_classes, size=int(rng.integers(0, 6)))
            features = rng.standard_normal((len(class_ids), dim))
            bank.push(class_ids, features)
            for class_id, feature in zip(class_ids.tolist(), features):
                oracle.push(class_id, CropEntry(feature.copy(), np.eye(num_classes)[class_id]))
        assert bank.sizes().tolist() == [len(oracle.entries(k)) for k in range(num_classes)]
        base = int(rng.integers(num_classes))
        is_majority = bool(rng.integers(2))
        oracle_rng.random()
        got = draw(relation, base, is_majority, bank, bank_rng, dim=dim)
        want = oracle_pair(relation, base, is_majority, oracle, oracle_rng)
        if want is None:
            assert got is None
        else:
            assert same_row(got, (int(np.argmax(want.class_vec)), want.feature))
            drawn += 1
    assert drawn > 200


@pytest.mark.parametrize("class_ids,rows,message",
                         [([-1], 1, r"outside \[0, 2\)"), ([0.0], 1, "integers"),
                          ([2], 1, r"outside \[0, 2\)"), ([2, 0], 2, r"outside \[0, 2\)"),
                          ([0, 1], 1, "2 class ids for 1 feature rows")],
                         ids=["negative", "float", "num_classes", "num_classes_then_0",
                              "count"])
def test_push_rejects_bad_class_ids_and_leaves_the_bank_empty(class_ids, rows, message):
    # a bank of two classes does not grow to file a third
    bank = Cropbank(capacity=2, num_classes=2)
    with pytest.raises(ValueError, match=message):
        bank.push(class_ids, np.zeros((rows, 3)))
    assert held(bank, 0) == [] and bank.sizes().tolist() == [0, 0]


def test_sizes_has_a_column_per_class_before_any_row_is_filed():
    bank = Cropbank(capacity=2, num_classes=3)
    assert bank.sizes().tolist() == [0, 0, 0]
    bank.push(np.zeros(0, dtype=int), np.zeros((0, 4)))
    assert bank.sizes().tolist() == [0, 0, 0]
    bank.push([2], np.ones((1, 4)))
    assert bank.sizes().tolist() == [0, 0, 1]


@pytest.mark.parametrize("class_ids,features", [([], np.zeros((0, 3))), ([], []),
                                                 (np.zeros(0), np.zeros((0, 3)))],
                         ids=["list", "lists", "float-array"])
def test_push_files_an_empty_batch_in_any_form(class_ids, features):
    # the batch files nothing and leaves the bank's rows as they were
    bank = Cropbank(capacity=2, num_classes=2)
    push(bank, 1, 5)
    bank.push(class_ids, features)
    assert bank.sizes().tolist() == [0, 1]
    assert np.array_equal(bank.rows([1], [0]), [np.full(3, 5.0)])


def test_push_rejects_feature_rows_of_another_dimension():
    bank = Cropbank(capacity=2, num_classes=1)
    push(bank, 0, 1, dim=3)
    with pytest.raises(ValueError):
        push(bank, 0, 2, dim=2)
    assert np.array_equal(held(bank, 0), [np.ones(3)])


def test_augment_rejects_a_bank_of_other_classes():
    sample, labels = make_sample_with_labels()
    # a bank of three classes for a relation of two
    bank = Cropbank(capacity=2, num_classes=3)
    push(bank, 0, 1)
    with pytest.raises(ValueError, match="classes"):
        augment_sample(sample.proposal_features, labels, relation_from(np.eye(2)),
                       frozenset({0}), bank, 0.5, 0.7, np.random.default_rng(0),
                       matches=np.arange(2))


@pytest.mark.parametrize("majority", [frozenset({2}), frozenset({-1}), frozenset({0, 5})],
                         ids=["num_classes", "negative", "beyond"])
def test_augment_rejects_a_majority_class_outside_the_relations(majority):
    # a mask over the classes would wrap -1 to the last class, and a class
    # of C or more would not mark any
    sample, labels = make_sample_with_labels()
    with pytest.raises(ValueError, match=r"outside \[0, 2\)"):
        augment(sample, labels, relation_from(np.eye(2)), majority, full_bank(), 0.5, 0.7,
                np.random.default_rng(0))


@pytest.mark.parametrize("p_aug,mix_ratio,message",
                         [(-0.1, 0.7, "p_aug"), (1.1, 0.7, "p_aug"), (np.nan, 0.7, "p_aug"),
                          (0.5, 0.0, "mix_ratio"), (0.5, 1.5, "mix_ratio"),
                          (0.5, np.nan, "mix_ratio")])
def test_augment_rejects_rates_out_of_range_before_drawing(p_aug, mix_ratio, message):
    sample, labels = make_sample_with_labels()
    rng, fresh = np.random.default_rng(0), np.random.default_rng(0)
    with pytest.raises(ValueError, match=message):
        augment(sample, labels, relation_from(np.eye(2)), frozenset({0}), full_bank(), p_aug,
                mix_ratio, rng)
    assert rng.random() == fresh.random()


@pytest.mark.parametrize("p_aug,mix_ratio", [(0.0, 1.0), (1.0, 1.0), (1.0, 1e-9)])
def test_augment_accepts_rates_at_the_ends_of_their_ranges(p_aug, mix_ratio):
    sample, labels = make_sample_with_labels()
    features, out = augment(sample, labels, relation_from([[0.6, 0.4], [0.4, 0.6]]),
                            frozenset({0}), full_bank(), p_aug, mix_ratio,
                            np.random.default_rng(0))
    assert features.shape == sample.proposal_features.shape and len(out) == len(labels)


def blend(ratio):
    """One majority label on one proposal, blended at p_aug 1 with the bank's only row."""
    boxes = np.array([[0.0, 0.0, 4.0, 4.0]])
    sample = DetectionSample(0, boxes, np.array([[1.0, 1.0]]), np.zeros((0, 4)),
                             np.zeros(0, dtype=int))
    bank = Cropbank(capacity=1, num_classes=2)
    bank.push([1], [np.array([3.0, -1.0])])
    rel = relation_from([[0.5, 0.5], [0.5, 0.5]])
    features, out_labels = augment(sample, Labels.one_hot(boxes, [0], 2), rel, frozenset({0}),
                                   bank, 1.0, ratio, np.random.default_rng(0))
    return features[0], out_labels.classes[0]


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
    bank = Cropbank(capacity=4, num_classes=num_classes)
    for c in range(num_classes):
        push(bank, c, 9, dim)
    return bank


@pytest.mark.parametrize("matches", [[0, 0], [1, 0], [0], [0, 1, 2]],
                         ids=["repeat", "decrease", "short", "long"])
def test_augment_rejects_matches_that_are_not_increasing_rows_one_per_label(matches):
    # distinct rows in order are what lets a batch blend in one step
    features = np.array([[8.0, 8.0], [1.0, 1.0], [3.0, 3.0]])
    labels = Labels.one_hot(np.zeros((2, 4)) + [0.0, 0.0, 4.0, 4.0], [0, 0], 2)
    rng, fresh = np.random.default_rng(5), np.random.default_rng(5)
    with pytest.raises(ValueError, match="strictly increasing rows, one per label"):
        augment_sample(features, labels, relation_from([[0.5, 0.5], [0.5, 0.5]]),
                       frozenset({0}), full_bank(dim=2), 1.0, 0.5, rng,
                       matches=np.array(matches, dtype=int))
    assert rng.random() == fresh.random()


def test_augment_p_zero_is_identity():
    sample, labels = make_sample_with_labels()
    rel = relation_from([[0.6, 0.4], [0.4, 0.6]])
    features, out_labels = augment(sample, labels, rel, frozenset({0}), full_bank(), 0.0, 0.7,
                                   np.random.default_rng(0))
    assert np.array_equal(features, sample.proposal_features)
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(labels, out_labels))


def test_always_augment_majority_in_similar_sample():
    sample, labels = make_sample_with_labels()
    rel = relation_from([[0.6, 0.4], [0.4, 0.6]])
    features, out_labels = augment(sample, labels, rel, frozenset({0}), full_bank(), 1.0, 0.7,
                                   np.random.default_rng(2))
    # every instance blended; majority soft label peaks at the mix ratio
    assert out_labels.classes[0].max() == pytest.approx(0.7)
    assert np.all(np.abs(out_labels.classes[1].sum() - 1.0) < 1e-9)
    # the minority base too: 0.7 of its 5 and 0.3 of the bank's 9, whichever class is drawn
    assert np.allclose(features[1], 6.2)
    assert not np.array_equal(features[0], sample.proposal_features[0])
    # the inputs keep their hard labels and features
    assert np.array_equal(labels.classes, np.eye(2))
    assert np.array_equal(sample.proposal_features[0], [1.0, 1.0, 1.0])


def test_class_vectors_stay_simplex_under_repeated_augmentation():
    sample, labels = make_sample_with_labels()
    rel = relation_from([[0.6, 0.4], [0.4, 0.6]])
    bank = full_bank()
    rng = np.random.default_rng(3)
    features, current_labels = sample.proposal_features, labels
    for _ in range(10):
        features, current_labels = augment(sample, current_labels, rel, frozenset({0}), bank,
                                           1.0, 0.7, rng, features)
        for _, vec in current_labels:
            assert vec.sum() == pytest.approx(1.0)
            assert np.all(vec >= -1e-12)


def test_a_batch_never_draws_its_own_rows():
    # the batch reads the bank as it stood before it: an empty bank blends
    # nothing, and once the batch's rows are filed, the next batch draws them
    sample, labels = make_sample_with_labels()
    rel = relation_from([[0.6, 0.4], [0.4, 0.6]])
    bank = Cropbank(capacity=4, num_classes=2)
    rng = np.random.default_rng(5)
    features, out = augment(sample, labels, rel, frozenset({0}), bank, 1.0, 0.5, rng)
    assert out is labels and np.array_equal(features, sample.proposal_features)
    bank.push([0, 1], [np.full(3, 7.0), np.full(3, 7.0)])
    features, out = augment(sample, labels, rel, frozenset({0}), bank, 1.0, 0.5, rng)
    # every label blended, with half of a pushed row
    assert np.array_equal(features, 0.5 * sample.proposal_features + 3.5)
    assert np.all(out.classes.max(axis=1) < 1.0)


def random_batch(rng, num_samples, num_classes, dim, first_id):
    """Samples with distinct proposal boxes; hard labels on some of their
    proposals, each on its own proposal, in row order, as `pseudo_label`'s
    rows are; and the batch's push, rows of its proposals under random
    classes."""
    samples, label_sets = [], []
    for n in range(num_samples):
        count = int(rng.integers(1, 6))
        corners = rng.uniform(0, 80, (count, 2)) + 90.0 * np.arange(count)[:, None]
        boxes = np.hstack((corners, corners + rng.uniform(4, 12, (count, 2))))
        samples.append(DetectionSample(first_id + n, boxes, rng.standard_normal((count, dim)),
                                       np.zeros((0, 4)), np.zeros(0, dtype=int)))
        rows = np.sort(rng.choice(count, int(rng.integers(0, count + 1)), replace=False))
        label_sets.append(Labels.one_hot(boxes[rows], rng.integers(num_classes, size=len(rows)),
                                         num_classes))
    features = np.concatenate([s.proposal_features for s in samples])
    rows = rng.integers(len(features), size=int(rng.integers(0, 4 * num_samples)))
    pushed = rng.integers(num_classes, size=len(rows)), features[rows]
    return samples, Labels.pack(label_sets, num_classes), pushed


@pytest.mark.parametrize("capacity", [1, 2, 64])
def test_batch_augmentation_matches_per_sample_oracle_in_order(capacity):
    # one augment_sample call, then one push, per batch equal the scalar
    # oracle's three passes over the batch's labels, then its pushes one
    # entry at a time, on the per-entry oracle bank: the same bytes and the
    # same stream
    rng = np.random.default_rng(capacity)
    num_classes, dim = 3, 4
    bank, oracle = Cropbank(capacity, num_classes), OracleCropbank(capacity)
    bank_rng, oracle_rng = np.random.default_rng(7), np.random.default_rng(7)
    blends, evicted = 0, 0
    for batch in range(80):
        samples, labels, (class_ids, features) = random_batch(
            rng, int(rng.integers(1, 8)), num_classes, dim, 100 * batch)
        relation = relation_from(np.eye(num_classes) if batch % 5 == 0 else
                                 rng.dirichlet(np.ones(num_classes), num_classes))
        proposal_offsets = np.cumsum([0] + [s.num_proposals for s in samples])
        matches = match_labels(np.concatenate([s.proposal_boxes for s in samples]),
                               labels.boxes, proposal_offsets, labels.offsets)
        clean = np.concatenate([s.proposal_features for s in samples])
        strong, mixed = augment_sample(clean.copy(), labels, relation, relation.majority(), bank,
                                       0.7, 0.7, bank_rng, matches=matches)
        bank.push(class_ids, features)
        blends += (mixed.classes.max(axis=1) < 1.0).sum()

        majority = oracle_majority(relation)
        assert majority == relation.majority()
        label_sets = [bbox_pairs(Labels(labels.boxes[a:b], labels.classes[a:b]))
                      for a, b in zip(labels.offsets[:-1], labels.offsets[1:])]
        want_samples, want_labels = oracle_augment_sample(samples, label_sets, relation,
                                                          majority, oracle, 0.7, 0.7, oracle_rng)
        want_classes = [vec for pairs in want_labels for _, vec in pairs]
        assert strong.tobytes() == np.concatenate(
            [s.proposal_features for s in want_samples]).tobytes()
        assert mixed.classes.tobytes() == \
            np.array(want_classes).reshape(-1, num_classes).tobytes()
        for class_id, feature in zip(class_ids.tolist(), features):
            evicted += len(oracle.entries(class_id)) == capacity
            oracle.push(class_id, CropEntry(feature.copy(), np.eye(num_classes)[class_id]))
        assert bank.sizes().tolist() == [len(oracle.entries(k)) for k in range(num_classes)]
        assert mixed.offsets.tolist() == labels.offsets.tolist()
        assert bank_rng.bit_generator.state == oracle_rng.bit_generator.state
    assert blends > 100 and evicted > 0
