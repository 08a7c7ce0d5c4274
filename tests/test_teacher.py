import dataclasses

import numpy as np
import pytest

from bruteforce import oracle_background_indices, oracle_pseudo_labels
from detadapt.config import default_config
from detadapt.detector import Labels, ModelParams, Scored, detection_loss, pack, sgd_step
from detadapt.metrics import evaluate
from detadapt.teacher import background_indices, ema_update, pseudo_label
from detadapt.util import rng_stream
from detadapt.world import BBox, box_iou, generate_domain, make_domain_spec
from test_detector import mixed_samples, random_params, random_sample


def params_norm_diff(a, b):
    return np.sqrt(sum(np.sum((x - y) ** 2) for x, y in (
        (a.w_cls, b.w_cls), (a.b_cls, b.b_cls), (a.w_reg, b.w_reg), (a.b_reg, b.b_reg))))


def train_supervised(spec, seed, epochs, lr=0.05):
    data = generate_domain(spec, seed)
    params = ModelParams.init(spec.num_classes, spec.feature_dim, rng_stream(seed, "init"), 0.0)
    shuffle = rng_stream(seed, "shuffle")
    for _ in range(epochs):
        for idx in shuffle.permutation(len(data)):
            sample = data[int(idx)]
            labels = Labels.one_hot(sample.gt_boxes, sample.gt_classes, spec.num_classes)
            _, grads = detection_loss(params, sample, labels)
            params = sgd_step(params, grads, lr)
    return params, data


def block_oracle(teacher, samples, offsets, conf):
    """Each sample's `oracle_pseudo_labels`, its proposal indices shifted by
    the sample's first block row, laid end to end."""
    return [(a + j, box, class_id, score) for a, sample in zip(offsets.tolist(), samples)
            for j, box, class_id, score in oracle_pseudo_labels(teacher, sample, conf)]


def labeled(scored, rows):
    """(row, box, class, score) of each row of a `Scored`."""
    return [(j, BBox(*scored.boxes[j]), int(scored.class_ids[j]), float(scored.fg_scores[j]))
            for j in rows.tolist()]


def test_shared_teacher_scoring_matches_object_oracle():
    # a sample's block of one, and a packed block
    rng = np.random.default_rng(9)
    for _ in range(30):
        teacher = random_params(rng)
        samples = mixed_samples(rng, rng.integers(1, 8, size=3))
        conf, bar = float(rng.uniform(0.3, 0.9)), float(rng.uniform(0.2, 0.6))
        packed = Scored(teacher, *pack(samples))
        for sample in samples:
            one = Scored(teacher, *pack([sample]))
            assert labeled(one, pseudo_label(teacher, one, conf)) == \
                oracle_pseudo_labels(teacher, sample, conf)
            assert background_indices(one, bar).tolist() == \
                oracle_background_indices(teacher, sample, bar)
        # the block's rows: each sample's indices shifted by the rows before it
        assert labeled(packed, pseudo_label(teacher, packed, conf)) == \
            block_oracle(teacher, samples, packed.offsets, conf)
        assert background_indices(packed, bar).tolist() == [
            a + j for a, sample in zip(packed.offsets, samples)
            for j in oracle_background_indices(teacher, sample, bar)]


@pytest.mark.parametrize("scale,threshold", [(0.5, None), (400.0, 1.0)],
                         ids=["between_samples", "threshold_1"])
def test_block_pseudo_labels_are_each_samples_own_shifted_and_concatenated(scale, threshold):
    # one-proposal samples among others; with `None` the threshold is the
    # second-lowest of the samples' best scores, so the sample of the lowest
    # has no confident row. Saturated heads reach a score of exactly 1.0.
    rng = np.random.default_rng(12)
    empty_samples = labels = 0
    for _ in range(20):
        teacher = random_params(rng, scale=scale)
        samples = mixed_samples(rng, [3, 1, 6, 1, 4, 2])
        packed = Scored(teacher, *pack(samples))
        conf = threshold or sorted(float(Scored(teacher, *pack([s])).fg_scores.max())
                                   for s in samples)[1]
        rows = pseudo_label(teacher, packed, conf)
        assert labeled(packed, rows) == block_oracle(teacher, samples, packed.offsets, conf)
        counts = [len(oracle_pseudo_labels(teacher, s, conf)) for s in samples]
        assert np.searchsorted(rows, packed.offsets).tolist() == np.cumsum([0] + counts).tolist()
        assert packed.num_proposals == 17 == packed.offsets[-1]
        empty_samples += counts.count(0)
        labels += len(rows)
    assert empty_samples > 0 and labels > 20


def test_threshold_above_all_scores_gives_empty():
    rng = np.random.default_rng(0)
    params, sample = random_params(rng), random_sample(rng)
    scored = Scored(params, *pack([sample]))
    pseudo = pseudo_label(params, scored, 1.0)
    assert len(pseudo) == 0 or all(scored.fg_scores[pseudo] >= 1.0)


def test_tiny_threshold_labels_every_proposal():
    rng = np.random.default_rng(1)
    params, sample = random_params(rng), random_sample(rng)
    scored = Scored(params, *pack([sample]))
    pseudo = pseudo_label(params, scored, 1e-9)
    assert len(pseudo) == 5
    for class_vec in Labels.one_hot(scored.boxes[pseudo], scored.class_ids[pseudo], 3).classes:
        assert class_vec.sum() == pytest.approx(1.0)
        assert class_vec.max() == 1.0  # hard one-hot


def test_pseudo_label_set_monotone_in_threshold():
    rng = np.random.default_rng(2)
    params = random_params(rng)
    sample = random_sample(rng)
    scored, prev = Scored(params, *pack([sample])), None
    for tau in (0.1, 0.3, 0.5, 0.7, 0.9):
        current = set(pseudo_label(params, scored, tau).tolist())
        if prev is not None:
            assert current <= prev
        prev = current


def test_converged_teacher_pseudo_labels_match_ground_truth():
    spec = make_domain_spec(num_classes=3, feature_dim=8, size=150,
                            frequency=(0.5, 0.3, 0.2), layout_seed=5)
    params, data = train_supervised(spec, seed=3, epochs=20)
    correct = total = 0
    for sample in data[:80]:
        scored = Scored(params, *pack([sample]))
        for j in pseudo_label(params, scored, 0.7).tolist():
            ious = box_iou(scored.boxes[j], sample.gt_boxes)
            best = int(np.argmax(ious))
            if ious[best] >= 0.5:
                total += 1
                correct += int(scored.class_ids[j] == sample.gt_classes[best])
    assert total > 50
    assert correct / total >= 0.95


def test_ema_endpoint_and_scalar_cases():
    rng = np.random.default_rng(4)
    teacher, student = random_params(rng), random_params(rng)
    copied = ema_update(teacher, student, 0.0)
    assert np.array_equal(copied.w_cls, student.w_cls)
    frozen = ema_update(teacher, student, 1.0)
    assert np.array_equal(frozen.w_cls, teacher.w_cls)
    t = ModelParams(np.array([[1.0]]), np.zeros(1), np.zeros((4, 1)), np.zeros(4), 0.0)
    s = ModelParams(np.array([[0.0]]), np.zeros(1), np.zeros((4, 1)), np.zeros(4), 0.0)
    assert ema_update(t, s, 0.9).w_cls[0, 0] == pytest.approx(0.9)


def test_ema_is_exact_contraction():
    rng = np.random.default_rng(5)
    teacher, student = random_params(rng), random_params(rng)
    gap = params_norm_diff(teacher, student)
    for alpha in (0.3, 0.9, 0.99):
        updated = ema_update(teacher, student, alpha)
        assert params_norm_diff(updated, student) == pytest.approx(alpha * gap, rel=1e-12)


def test_repeated_ema_follows_geometric_closed_form():
    rng = np.random.default_rng(6)
    teacher, student = random_params(rng), random_params(rng)
    alpha = 0.9
    current = teacher
    for k in range(1, 12):
        current = ema_update(current, student, alpha)
        expected = alpha**k * teacher.w_cls + (1 - alpha**k) * student.w_cls
        assert np.allclose(current.w_cls, expected, atol=1e-12)


def test_student_converges_to_frozen_perfect_teacher():
    # a converged target model acts as a frozen teacher; the student starts
    # from scratch and should close to within 2 mAP points on held-out data
    spec = make_domain_spec(num_classes=3, feature_dim=8, size=150,
                            frequency=(0.5, 0.3, 0.2), layout_seed=5)
    teacher, data = train_supervised(spec, seed=8, epochs=20)
    holdout = generate_domain(dataclasses.replace(spec, size=120), 999)
    student = ModelParams.init(3, 8, rng_stream(80, "init"), 0.0)
    for _ in range(25):
        for sample in data:
            # one SGD step of the student on the clean sample: pseudo-labels
            # plus the proposals the teacher calls background
            scored = Scored(teacher, *pack([sample]))
            pseudo = pseudo_label(teacher, scored, 0.7)
            labels = Labels.one_hot(scored.boxes[pseudo], scored.class_ids[pseudo], 3)
            bg = background_indices(scored, 0.1)
            _, grads = detection_loss(student, sample, labels, np.ones(len(labels)),
                                      background=bg)
            student = sgd_step(student, grads, 0.05)
    teacher_map = evaluate(teacher, holdout, num_classes=3).map50
    student_map = evaluate(student, holdout, num_classes=3).map50
    assert student_map >= teacher_map - 0.02
