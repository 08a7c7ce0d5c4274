import copy
import dataclasses
import json
import pickle

import numpy as np
import pytest

from bruteforce import (max_relative_error, numeric_gradient, oracle_detections,
                        oracle_forward_arrays, oracle_uniforms, zero_grads)
from detadapt.detector import (GradientSet, Labels, ModelParams, Scored, TrainingError,
                               detection_loss, forward, forward_arrays, giou_and_grad,
                               giou_target, load_params, pack, save_params, sgd_step)
from detadapt.teacher import ema_update
from detadapt.util import to_json
from detadapt.world import BBox, DetectionSample


ARRAYS = ("w_cls", "b_cls", "w_reg", "b_reg")


def random_sample(rng, num_proposals=5, feature_dim=6, span=8.0):
    boxes = []
    for _ in range(num_proposals):
        x, y = rng.uniform(0, span, 2)
        w, h = rng.uniform(1, 3, 2)
        boxes.append([x, y, x + w, y + h])
    return DetectionSample(0, np.array(boxes), rng.standard_normal((num_proposals, feature_dim)),
                           np.zeros((0, 4)), np.zeros(0, dtype=int))


def random_params(rng, num_classes=3, feature_dim=6, scale=0.5, dropout=0.0):
    return ModelParams(
        scale * rng.standard_normal((num_classes + 1, feature_dim)),
        scale * rng.standard_normal(num_classes + 1),
        0.4 * scale * rng.standard_normal((4, feature_dim)),
        0.4 * scale * rng.standard_normal(4),
        dropout,
    )


def random_labels(rng, num_classes=3, count=2, span=8.0, soft=False):
    boxes, classes = [], []
    for _ in range(count):
        x, y = rng.uniform(0, span, 2)
        w, h = rng.uniform(1, 3, 2)
        if soft:
            vec = rng.dirichlet(np.ones(num_classes))
        else:
            vec = np.eye(num_classes)[int(rng.integers(num_classes))]
        boxes.append([x, y, x + w, y + h])
        classes.append(vec)
    return Labels(boxes, np.reshape(classes, (count, num_classes)))


def no_labels(num_classes=3):
    return Labels.one_hot(np.zeros((0, 4)), [], num_classes)


def test_zero_weights_give_uniform_scores():
    params = ModelParams(np.zeros((4, 6)), np.zeros(4), np.zeros((4, 6)), np.zeros(4), 0.0)
    sample = random_sample(np.random.default_rng(0))
    for det in forward(params, sample):
        assert np.allclose(det.scores, 0.25)
        assert abs(det.scores.sum() - 1.0) < 1e-9


def test_forward_deterministic_without_dropout():
    rng = np.random.default_rng(1)
    params = random_params(rng)
    sample = random_sample(rng)
    a = forward(params, sample)
    b = forward(params, sample)
    for da, db in zip(a, b):
        assert np.array_equal(da.scores, db.scores)
        assert da.box == db.box


def one_pass(params, sample, seed):
    """`forward_arrays`, or with a seed the one dropout pass of the sample's
    block of one, drawn from a Generator of that seed."""
    if seed is None:
        return forward_arrays(params, sample)
    scored = Scored(params, *pack([sample]), np.random.default_rng(seed))
    return tuple(a[0] for a in (scored.h, scored.log_scores, scored.scores, scored.refined))


def test_forward_matches_per_proposal_oracle():
    rng = np.random.default_rng(12)
    for trial in range(30):
        params = random_params(rng, dropout=0.3 if trial % 2 else 0.0)
        sample = random_sample(rng, num_proposals=int(rng.integers(1, 8)))
        seed = None if trial % 3 == 0 else int(rng.integers(1000))
        for got, want in zip(one_pass(params, sample, seed),
                             oracle_forward_arrays(params, sample, dropout_seed=seed)):
            assert np.array_equal(got, want)
        got = forward(params, sample)
        want = oracle_detections(params, sample)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.proposal_index == w.proposal_index
            assert g.box == w.box
            assert np.array_equal(g.scores, w.scores)
            assert (g.class_id, g.score) == (w.class_id, w.score)
            assert type(g.class_id) is int and type(g.score) is float


def test_sample_rows_of_a_packed_pass_are_its_own_scored():
    rng = np.random.default_rng(21)
    params = random_params(rng)
    samples = mixed_samples(rng, [1, 2, 7, 13, 1, 5])
    packed = Scored(params, *pack(samples))
    assert packed.num_proposals == sum(s.num_proposals for s in samples)
    for i, sample in enumerate(samples):
        rows, one = slice(packed.offsets[i], packed.offsets[i + 1]), Scored(params, *pack([sample]))
        assert one.offsets.tolist() == [0, sample.num_proposals] == [0, one.num_proposals]
        for name in ("h", "log_scores", "scores", "refined", "class_ids", "fg_scores", "boxes"):
            assert np.array_equal(getattr(packed, name)[rows], getattr(one, name)), name


def test_feature_rows_stand_in_for_the_samples_features():
    # a strong view scored on the same proposals: as samples that carry those
    # rows would score, and `h` is the given array itself; so is a row range
    # of a larger array, as pretraining cuts its batches from an epoch's rows
    rng = np.random.default_rng(22)
    params = random_params(rng)
    samples = mixed_samples(rng, [1, 2, 7, 1])
    _, boxes, ends = pack(samples)
    features = rng.standard_normal((ends[-1], params.feature_dim))
    want = Scored(params, *pack([DetectionSample(s.id, s.proposal_boxes, features[a:b],
                                                 s.gt_boxes, s.gt_classes)
                                 for s, a, b in zip(samples, ends, ends[1:])]))
    larger = np.concatenate((rng.standard_normal((3, params.feature_dim)), features,
                             rng.standard_normal((2, params.feature_dim))))
    for rows in (features, larger[3:3 + ends[-1]]):
        got = Scored(params, rows, boxes, ends)
        for name in ("log_scores", "scores", "refined", "boxes"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.h is rows


def test_labels_iterate_as_box_and_class_rows():
    labels = Labels.one_hot([[0.0, 0.0, 1.0, 2.0], [3.0, 3.0, 5.0, 4.0]], [2, 0], 3)
    assert len(labels) == 2 and len(no_labels()) == 0
    assert labels.classes.tolist() == [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    rows = list(labels)
    assert [box.tolist() for box, _ in rows] == labels.boxes.tolist()
    assert [vec.tolist() for _, vec in rows] == labels.classes.tolist()
    assert list(no_labels()) == [] and no_labels().classes.shape == (0, 3)


def mixed_samples(rng, sizes, feature_dim=6):
    """Random samples with the given proposal counts, ids in list order."""
    samples = [random_sample(rng, num_proposals=int(p), feature_dim=feature_dim) for p in sizes]
    for i, sample in enumerate(samples):
        sample.id = i
    return samples


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_packed_pass_matches_per_sample_forward(dropout):
    rng = np.random.default_rng(20)
    params = random_params(rng, dropout=dropout)
    sizes = [1, 2, 7, 13, 1, 1, 13, 2, 7, 1]
    samples = mixed_samples(rng, sizes)
    packed = Scored(params, *pack(samples))
    stacked = Scored(params, *pack(samples), np.random.default_rng(5), 4)
    # each sample's masks are the next draws of the block's one Generator
    draws = np.random.default_rng(5)
    assert packed.offsets.tolist() == [0, *np.cumsum(sizes).tolist()]
    assert stacked.scores.shape == (4, sum(sizes), params.num_classes + 1)
    for i, sample in enumerate(samples):
        rows = slice(packed.offsets[i], packed.offsets[i + 1])
        for got, want in zip((packed.h, packed.log_scores, packed.scores, packed.refined),
                             oracle_forward_arrays(params, sample)):
            assert np.array_equal(got[rows], want)
        dets = oracle_detections(params, sample)
        assert packed.class_ids[rows].tolist() == [d.class_id for d in dets]
        assert packed.fg_scores[rows].tolist() == [d.score for d in dets]
        assert np.array_equal(packed.boxes[rows], [d.box.as_array() for d in dets])
        for m, uniforms in enumerate(oracle_uniforms(params, sample, 4, draws)):
            want = oracle_forward_arrays(params, sample, uniforms=uniforms)
            for got, w in zip((stacked.h, stacked.log_scores, stacked.scores, stacked.refined),
                              want):
                assert np.array_equal(got[m, rows], w)


def test_zero_dropout_rate_ignores_seed():
    rng = np.random.default_rng(2)
    params = random_params(rng, dropout=0.0)
    sample = random_sample(rng)
    rng = np.random.default_rng(123)
    stacked = Scored(params, *pack([sample]), rng, 2)
    want = oracle_forward_arrays(params, sample)
    for got, w in zip(one_pass(params, sample, 123), want):
        assert np.array_equal(got, w)
    for got, w in zip((stacked.h, stacked.log_scores, stacked.scores, stacked.refined), want):
        assert np.array_equal(got[0], w) and np.array_equal(got[1], w)
    # without dropout no mask is drawn
    assert rng.random() == np.random.default_rng(123).random()


def test_dropout_seed_reproducible_and_varied():
    rng = np.random.default_rng(3)
    params = random_params(rng, dropout=0.4)
    sample = random_sample(rng)
    a1 = one_pass(params, sample, 7)[0]
    a2 = one_pass(params, sample, 7)[0]
    b = one_pass(params, sample, 8)[0]
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_giou_hand_values():
    pred = np.array([[0, 0, 1, 1], [0, 0, 1, 1], [0, 0, 2, 2]], dtype=float)
    target = np.array([[0, 0, 1, 1], [2, 2, 3, 3], [1, 1, 3, 3]], dtype=float)
    value, _ = giou_and_grad(pred, *giou_target(target))
    assert value == pytest.approx([1.0, -7 / 9, 1 / 7 - 2 / 9], abs=1e-9)


def random_box(rng, span=10.0):
    x, y = rng.uniform(0, span, 2)
    w, h = rng.uniform(0.5, 3, 2)
    return BBox(x, y, x + w, y + h)


def test_giou_range_on_random_boxes():
    rng = np.random.default_rng(4)
    pairs = np.array([[random_box(rng).as_array(), random_box(rng).as_array()]
                      for _ in range(200)])
    value, _ = giou_and_grad(pairs[:, 0], *giou_target(pairs[:, 1]))
    assert np.all((-1.0 < value) & (value <= 1.0 + 1e-12))


def test_perfect_background_drives_ce_to_zero():
    # huge background logit for every proposal, no labels
    params = ModelParams(np.zeros((4, 6)), np.array([0.0, 0.0, 0.0, 50.0]),
                         np.zeros((4, 6)), np.zeros(4), 0.0)
    sample = random_sample(np.random.default_rng(5))
    loss, grads = detection_loss(params, sample, no_labels())
    assert loss < 1e-9
    assert grads.is_finite()


def test_zero_residual_box_terms():
    # regressor predicts no refinement and the label sits exactly on a proposal,
    # so the remaining loss is exactly the cross-entropy part
    rng = np.random.default_rng(6)
    params = random_params(rng)
    params.w_reg[:] = 0.0
    params.b_reg[:] = 0.0
    sample = random_sample(rng)
    labels = Labels.one_hot(sample.proposal_boxes[2:3], [1], 3)
    loss, _ = detection_loss(params, sample, labels, background=None)
    _, log_scores, _, _ = forward_arrays(params, sample)
    expected_ce = -log_scores[2, 1]
    assert loss == pytest.approx(expected_ce, abs=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(10):
        params = random_params(rng)
        sample = random_sample(rng)
        labels = random_labels(rng, soft=True)
        weights = rng.uniform(0.2, 2.0, len(labels))
        loss, grads = detection_loss(params, sample, labels, weights)
        numeric = numeric_gradient(lambda p: detection_loss(p, sample, labels, weights)[0], params)
        assert max_relative_error(grads, numeric) < 1e-4


def test_loss_terms_nonnegative_contract():
    rng = np.random.default_rng(8)
    for _ in range(50):
        params = random_params(rng)
        sample = random_sample(rng)
        labels = random_labels(rng)
        loss, _ = detection_loss(params, sample, labels)
        assert loss >= 0.0  # CE and box terms are nonnegative; 1-GIoU lies in [0, 2)


def test_sgd_step_examples():
    params = ModelParams(np.array([[1.0]]), np.zeros(1), np.zeros((4, 1)), np.zeros(4), 0.0)
    grads = GradientSet(np.array([[2.0]]), np.zeros(1), np.zeros((4, 1)), np.zeros(4))
    assert sgd_step(params, grads, 0.1).w_cls[0, 0] == pytest.approx(0.8)
    assert sgd_step(params, grads, 0.0).w_cls[0, 0] == pytest.approx(1.0)
    zero = zero_grads(params)
    assert sgd_step(params, zero, 0.5).w_cls[0, 0] == pytest.approx(1.0)


def test_sgd_rejects_nonfinite_grads():
    # an inf written through any of the four fields lands in the flat buffer
    params = ModelParams(np.zeros((2, 2)), np.zeros(2), np.zeros((4, 2)), np.zeros(4), 0.0)
    for name in ARRAYS:
        grads = zero_grads(params)
        field = getattr(grads, name)
        field[(0,) * field.ndim] = np.inf
        with pytest.raises(TrainingError):
            sgd_step(params, grads, 0.1)


def assert_one_buffer(arrays):
    """The four arrays of a `ModelParams` or `GradientSet` are views of its
    flat float64 buffer, laid end to end in field order."""
    flat = arrays.flat
    assert flat.dtype == np.float64 and flat.ndim == 1 and flat.flags.c_contiguous
    assert all(np.shares_memory(getattr(arrays, name), flat) for name in ARRAYS)
    assert np.array_equal(np.concatenate([getattr(arrays, name).ravel() for name in ARRAYS]),
                          flat)


def test_params_and_gradients_are_views_of_one_flat_buffer():
    rng = np.random.default_rng(12)
    params, other = random_params(rng), random_params(rng)
    sample = random_sample(rng)
    _, grads = detection_loss(params, sample, random_labels(rng))
    built = GradientSet(*(getattr(grads, name).copy() for name in ARRAYS), grads.loss)
    for arrays in (grads, built, grads.scaled(0.5), grads + built, zero_grads(params)):
        assert_one_buffer(arrays)
    replaced = dataclasses.replace(params, w_cls=np.ones_like(params.w_cls))
    assert not np.shares_memory(replaced.flat, params.flat)
    assert np.array_equal(replaced.w_cls, np.ones_like(params.w_cls))
    assert np.array_equal(replaced.b_reg, params.b_reg)
    # each update returns a model on a buffer of its own
    for new in (params.copy(), sgd_step(params, grads, 0.1), ema_update(params, other, 0.9),
                replaced):
        assert_one_buffer(new)
        assert not np.shares_memory(new.flat, params.flat)
        assert not np.shares_memory(new.flat, other.flat)
        assert not np.shares_memory(new.flat, grads.flat)
    assert_one_buffer(params)
    # copies and pickles view their own buffer
    for arrays in (params, grads, grads.scaled(0.5)):
        for twin in (copy.deepcopy(arrays), pickle.loads(pickle.dumps(arrays))):
            assert_one_buffer(twin)
            assert not np.shares_memory(twin.flat, arrays.flat)
            assert np.array_equal(twin.flat, arrays.flat)


def test_small_step_rarely_increases_loss():
    rng = np.random.default_rng(9)
    violations = 0
    for _ in range(100):
        params = random_params(rng)
        sample = random_sample(rng)
        labels = random_labels(rng)
        before, grads = detection_loss(params, sample, labels)
        after, _ = detection_loss(sgd_step(params, grads, 1e-4), sample, labels)
        violations += after > before
    assert violations <= 1


def test_params_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(10)
    params = random_params(rng, dropout=0.25)
    path = tmp_path / "params.json"
    save_params(path, params)
    loaded = load_params(path)
    assert np.array_equal(params.w_cls, loaded.w_cls)
    assert np.array_equal(params.b_cls, loaded.b_cls)
    assert np.array_equal(params.w_reg, loaded.w_reg)
    assert np.array_equal(params.b_reg, loaded.b_reg)
    assert params.dropout_rate == loaded.dropout_rate
    # a second serialization is byte-identical, and loading rebuilds the buffer
    assert json.dumps(to_json(params)) == json.dumps(to_json(loaded))
    assert_one_buffer(loaded)
    save_params(tmp_path / "again.json", loaded)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("name,value", [
    ("b_cls", [0.0]), ("b_reg", [0.0]), ("w_reg", np.zeros((4, 5))), ("w_cls", np.zeros(6)),
    ("w_cls", np.zeros((1, 6)))])
def test_load_params_rejects_shapes_that_do_not_fit(name, value, tmp_path):
    # (C+1, D), (C+1,), (4, D), (4,): a bias of the wrong length must not broadcast
    doc = to_json(random_params(np.random.default_rng(10)))
    doc[name] = np.asarray(value).tolist()
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=name):
        load_params(path)


def test_feature_dim_mismatch_raises():
    rng = np.random.default_rng(11)
    params = random_params(rng, feature_dim=5)
    sample = random_sample(rng, feature_dim=6)
    with pytest.raises(ValueError):
        forward(params, sample)
    with pytest.raises(ValueError):
        forward_arrays(params, sample)
    with pytest.raises(ValueError):
        Scored(params, *pack([sample]), np.random.default_rng(1), 2)
    # feature rows must be the model's width, and feature and box rows one per proposal
    _, boxes, offsets = pack([sample])
    for shape in ((5, 6), (4, 5), (6, 5)):
        with pytest.raises(ValueError, match="feature rows"):
            Scored(params, np.zeros(shape), boxes, offsets)
    for shape in ((4, 4), (6, 4), (5, 3)):
        with pytest.raises(ValueError, match="box rows"):
            Scored(params, np.zeros((5, 5)), np.zeros(shape), offsets)
