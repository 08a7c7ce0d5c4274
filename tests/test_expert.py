import numpy as np
import pytest

from bruteforce import max_relative_error, numeric_gradient, oracle_expert_predict
from detadapt.detector import Labels
from detadapt.expert import ExpertSpec, expert_loss, expert_predict
from detadapt.world import DetectionSample
from test_detector import no_labels, random_params, random_sample


def sample_with_objects(rng, num_objects=3, num_classes=3, dim=6):
    boxes, classes = [], []
    for i in range(num_objects):
        x, y = rng.uniform(0, 20, 2)
        w, h = rng.uniform(2, 5, 2)
        boxes.append([x, y, x + w, y + h])
        rng.standard_normal(dim)  # an object feature no test reads; drawn to keep the stream
        classes.append(int(rng.integers(num_classes)))
    boxes = np.array(boxes)
    return DetectionSample(0, boxes, rng.standard_normal((num_objects, dim)), boxes,
                           np.array(classes))


def test_perfect_expert_reproduces_ground_truth():
    rng = np.random.default_rng(0)
    sample = sample_with_objects(rng)
    spec = ExpertSpec(miss_rate=0.0, flip_rate=0.0, box_jitter=0.0)
    labels = expert_predict(spec, [sample], [np.random.default_rng(1)], 3)
    assert len(labels) == len(sample.gt_classes)
    for (box, class_vec), gt_box, gt_class in zip(labels, sample.gt_boxes, sample.gt_classes):
        assert np.array_equal(box, gt_box)
        assert np.argmax(class_vec) == gt_class


def test_full_miss_rate_gives_empty_labels():
    rng = np.random.default_rng(2)
    sample = sample_with_objects(rng)
    labels = expert_predict(ExpertSpec(miss_rate=1.0), [sample], [np.random.default_rng(3)], 3)
    assert len(labels) == 0 and labels.classes.shape == (0, 3)


def test_flip_fraction_concentrates():
    rng = np.random.default_rng(4)
    spec = ExpertSpec(miss_rate=0.0, flip_rate=0.5, box_jitter=0.0)
    flipped = total = 0
    expert_rng = np.random.default_rng(5)
    for i in range(2500):
        sample = sample_with_objects(np.random.default_rng(1000 + i), num_objects=4)
        labels = expert_predict(spec, [sample], [expert_rng], 3)
        for (_, class_vec), gt_class in zip(labels, sample.gt_classes):
            total += 1
            flipped += int(np.argmax(class_vec) != gt_class)
    assert total == 10000
    assert abs(flipped / total - 0.5) < 0.02


def test_expert_is_deterministic_for_fixed_stream():
    rng = np.random.default_rng(6)
    sample = sample_with_objects(rng)
    spec = ExpertSpec(miss_rate=0.2, flip_rate=0.3, box_jitter=0.1)
    a = expert_predict(spec, [sample], [np.random.default_rng(42)], 3)
    b = expert_predict(spec, [sample], [np.random.default_rng(42)], 3)
    assert len(a) == len(b)
    assert np.array_equal(a.boxes, b.boxes)
    assert np.array_equal(a.classes, b.classes)


def test_loss_zero_cases():
    rng = np.random.default_rng(9)
    params = random_params(rng)
    sample = random_sample(rng)
    loss, grads = expert_loss(params, sample, no_labels(), 1.0, 1.0)
    assert loss == 0.0
    assert np.all(grads.w_cls == 0.0)
    labels = Labels.one_hot([[0, 0, 2, 2]], [0], 3)
    loss, grads = expert_loss(params, sample, labels, 0.0, 0.0)
    assert loss == 0.0
    assert np.all(grads.w_cls == 0.0) and np.all(grads.w_reg == 0.0)


def test_loss_linear_in_term_weights():
    rng = np.random.default_rng(10)
    params = random_params(rng)
    sample = random_sample(rng)
    labels = Labels.one_hot([[1, 1, 3, 3], [4, 4, 6, 6]], [1, 2], 3)
    cls_only, _ = expert_loss(params, sample, labels, 1.0, 0.0)
    reg_only, _ = expert_loss(params, sample, labels, 0.0, 1.0)
    combined, _ = expert_loss(params, sample, labels, 2.0, 3.0)
    assert combined == pytest.approx(2 * cls_only + 3 * reg_only, rel=1e-12)


def test_perfect_student_prediction_zeroes_regression():
    rng = np.random.default_rng(11)
    params = random_params(rng)
    params.w_reg[:] = 0.0
    params.b_reg[:] = 0.0
    sample = random_sample(rng)
    labels = Labels.one_hot(sample.proposal_boxes[:1], [0], 3)
    reg_only, _ = expert_loss(params, sample, labels, 0.0, 1.0)
    assert reg_only == pytest.approx(0.0, abs=1e-12)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(8):
        params = random_params(rng)
        sample = random_sample(rng)
        boxes, class_ids = [], []
        for _ in range(int(rng.integers(1, 4))):
            x, y = rng.uniform(0, 8, 2)
            w, h = rng.uniform(1, 3, 2)
            boxes.append([x, y, x + w, y + h])
            class_ids.append(int(rng.integers(3)))
        labels = Labels.one_hot(boxes, class_ids, 3)
        weights = rng.uniform(0.2, 2.0, len(labels))
        loss, grads = expert_loss(params, sample, labels, 1.3, 0.7, weights)
        numeric = numeric_gradient(
            lambda p: expert_loss(p, sample, labels, 1.3, 0.7, weights)[0], params)
        assert max_relative_error(grads, numeric) < 1e-4


def test_a_flip_in_a_one_class_world_keeps_the_class_and_its_draw():
    # with no other class a flip has nothing to flip to: the object keeps
    # its class, and the flip's uniform is still drawn, so the jitter that
    # follows takes the stream's next values
    sample = sample_with_objects(np.random.default_rng(13), num_classes=1)
    spec = ExpertSpec(miss_rate=0.0, flip_rate=1.0, box_jitter=0.1)
    labels = expert_predict(spec, [sample], [np.random.default_rng(14)], 1)
    assert np.array_equal(labels.classes, np.ones((3, 1)))
    want_rng = np.random.default_rng(14)
    for box in sample.gt_boxes:
        want_rng.random(2)
        size = box[2:] - box[:2]
        jittered = box + want_rng.uniform(-0.1, 0.1, 4) * np.concatenate((size, size))
    assert np.array_equal(labels.boxes[-1], jittered)


@pytest.mark.parametrize("spec,num_classes", [
    (ExpertSpec(miss_rate=0.3, flip_rate=0.5, box_jitter=0.1), 3),
    (ExpertSpec(miss_rate=1.0), 3),
    (ExpertSpec(miss_rate=0.2, flip_rate=1.0, box_jitter=0.1), 1)],
    ids=["noisy", "all-missed", "one-class-flips"])
def test_a_block_is_its_samples_blocks_of_one_end_to_end(spec, num_classes):
    # each sample draws from its own stream, so the block's labels are its
    # samples' labels laid end to end, samples without objects included
    rng = np.random.default_rng(15)
    for trial in range(20):
        samples = [sample_with_objects(rng, int(rng.integers(0, 5)), num_classes)
                   for _ in range(int(rng.integers(0, 6)))]
        seeds = rng.integers(2 ** 32, size=len(samples))
        block = expert_predict(spec, samples, [np.random.default_rng(s) for s in seeds],
                               num_classes)
        alone = [expert_predict(spec, [sample], [np.random.default_rng(s)], num_classes)
                 for sample, s in zip(samples, seeds)]
        assert block.classes.shape == (len(block), num_classes)
        assert np.array_equal(block.offsets, np.cumsum([0] + [len(a) for a in alone]))
        for i, labels in enumerate(alone):
            a, b = block.offsets[i:i + 2]
            assert np.array_equal(block.boxes[a:b], labels.boxes)
            assert np.array_equal(block.classes[a:b], labels.classes)
            want = oracle_expert_predict(spec, samples[i], np.random.default_rng(seeds[i]),
                                         num_classes)
            assert [(box.as_array().tolist(), vec.tolist()) for box, vec in want] == \
                [(box.tolist(), vec.tolist()) for box, vec in labels]
