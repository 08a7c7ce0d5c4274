import json
from collections import Counter

import numpy as np
import pytest

from bruteforce import oracle_evaluate, oracle_froc, oracle_map
from detadapt import detector, world
from detadapt.detector import BLOCK_SAMPLES, ModelParams, forward
from detadapt.expert import ExpertSpec, expert_predict
from detadapt.metrics import EvalResult, evaluate, f1_auc, froc, map_at_iou
from detadapt.partition import partition
from detadapt.trainer import pretrain_source
from detadapt.world import (BBox, DetectionSample, generate_domain, load_dataset,
                            make_domain_spec, save_dataset)
from test_trainer import tiny_config


def random_instance(rng, num_images=4, num_classes=2, max_dets=4, max_gts=3, span=12.0):
    """A micro detection problem with overlapping random boxes and scores."""
    def box(center_span=span):
        x, y = rng.uniform(0, center_span, 2)
        w, h = rng.uniform(1.0, 4.0, 2)
        return BBox(x, y, x + w, y + h)

    gts, dets = [], []
    for _ in range(num_images):
        img_gts = [(box(), int(rng.integers(num_classes)))
                   for _ in range(int(rng.integers(0, max_gts + 1)))]
        img_dets = []
        for _ in range(int(rng.integers(0, max_dets + 1))):
            if img_gts and rng.random() < 0.6:
                gt_box, gt_cls = img_gts[int(rng.integers(len(img_gts)))]
                jitter = rng.uniform(-0.6, 0.6, 4)
                cand = BBox.from_raw(*(gt_box.as_array() + jitter))
                cls = gt_cls if rng.random() < 0.8 else int(rng.integers(num_classes))
                img_dets.append((cand, cls, float(rng.choice([0.9, 0.7, 0.5, 0.3]))))
            else:
                img_dets.append((box(), int(rng.integers(num_classes)),
                                 float(rng.choice([0.9, 0.7, 0.5, 0.3]))))
        gts.append(img_gts)
        dets.append(img_dets)
    return dets, gts


def perfect_detections(gts):
    return [[(box, cls, 1.0) for box, cls in img] for img in gts]


def test_perfect_detector_scores_one():
    rng = np.random.default_rng(0)
    _, gts = random_instance(rng)
    if not any(gts):
        gts[0] = [(BBox(0, 0, 2, 2), 0)]
    dets = perfect_detections(gts)
    map50, _ = map_at_iou(dets, gts)
    assert map50 == pytest.approx(1.0)
    recalls = froc(dets, gts)
    assert all(v == pytest.approx(1.0) for v in recalls.values())
    f1, auc = f1_auc(dets, gts)
    assert f1 == pytest.approx(1.0)
    if auc is not None:
        assert auc == pytest.approx(1.0)


def test_empty_detections_score_zero():
    gts = [[(BBox(0, 0, 2, 2), 0)], [(BBox(1, 1, 3, 3), 1)]]
    dets = [[], []]
    map50, per_class = map_at_iou(dets, gts)
    assert map50 == 0.0
    assert per_class == [0.0, 0.0]
    assert all(v == 0.0 for v in froc(dets, gts).values())


def test_map_matches_bruteforce_oracle_on_micro_instances():
    rng = np.random.default_rng(1)
    for _ in range(60):
        dets, gts = random_instance(rng)
        ours, per_class = map_at_iou(dets, gts)
        oracle, oracle_per_class = oracle_map(dets, gts)
        assert ours == pytest.approx(oracle, abs=1e-9)
        for cls, ap in oracle_per_class.items():
            if not np.isnan(ap):
                assert per_class[cls] == pytest.approx(ap, abs=1e-9)


def test_froc_matches_bruteforce_threshold_enumeration():
    rng = np.random.default_rng(2)
    budgets = (0.05, 0.3, 0.5, 1.0)
    for _ in range(40):
        dets, gts = random_instance(rng, num_images=10)
        if not any(gts):
            continue
        ours = froc(dets, gts, budgets)
        oracle = oracle_froc(dets, gts, budgets)
        for b in budgets:
            assert ours[b] == pytest.approx(oracle[b], abs=1e-9)


def test_froc_monotone_in_budget():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dets, gts = random_instance(rng, num_images=6)
        if not any(gts):
            continue
        values = froc(dets, gts, (0.05, 0.3, 0.5, 1.0, 2.0))
        ordered = [values[b] for b in (0.05, 0.3, 0.5, 1.0, 2.0)]
        assert all(a <= b + 1e-12 for a, b in zip(ordered, ordered[1:]))


def test_zero_score_unmatched_detection_never_changes_map():
    rng = np.random.default_rng(4)
    for _ in range(25):
        dets, gts = random_instance(rng)
        if not any(gts):
            continue
        base, _ = map_at_iou(dets, gts)
        padded = [list(img) for img in dets]
        # a far-away box that cannot match anything, at score zero
        padded[0] = padded[0] + [(BBox(900.0, 900.0, 901.0, 901.0), 0, 0.0)]
        after, _ = map_at_iou(padded, gts)
        assert after == pytest.approx(base, abs=1e-12)


def test_random_scores_give_chance_auc():
    rng = np.random.default_rng(5)
    gts, dets = [], []
    for i in range(1000):
        positive = i % 2 == 0
        gts.append([(BBox(0, 0, 2, 2), 0)] if positive else [])
        dets.append([(BBox(50, 50, 52, 52), 0, float(rng.random()))])
    _, auc = f1_auc(dets, gts)
    assert abs(auc - 0.5) < 0.05


def test_no_positive_images_gives_auc_sentinel():
    gts = [[], []]
    dets = [[(BBox(0, 0, 1, 1), 0, 0.5)], []]
    f1, auc = f1_auc(dets, gts)
    assert auc is None


def test_eval_result_serialization_roundtrip():
    result = EvalResult(0.5, [0.5, float("nan")], {0.05: 0.1, 1.0: 0.9}, 0.4, None)
    doc = result.to_dict()
    assert doc["auc"] is None
    assert doc["recall_at_fpi"]["1.0"] == 0.9


def test_map_counts_classes_without_detections():
    gts = [[(BBox(0, 0, 2, 2), 0), (BBox(5, 5, 7, 7), 1)]]
    dets = [[(BBox(0, 0, 2, 2), 0, 0.9)]]  # class 1 never predicted
    map50, per_class = map_at_iou(dets, gts)
    assert per_class[0] == pytest.approx(1.0)
    assert per_class[1] == 0.0
    assert map50 == pytest.approx(0.5)


def eval_world(world_seed, frequency=(0.5, 0.3, 0.2), size=2 * BLOCK_SAMPLES + 9):
    """A generated set plus one hand-built image without objects, and a model
    whose classifier points at the class means."""
    spec = make_domain_spec(len(frequency), 6, size, frequency, layout_seed=world_seed)
    samples = generate_domain(spec, world_seed)
    rng = np.random.default_rng(world_seed)
    corners = np.tile(rng.uniform(0, 50, (3, 2)), 2) + [0.0, 0.0, 10.0, 10.0]
    samples.append(DetectionSample(size, corners, rng.standard_normal((3, 6)),
                                   np.zeros((0, 4)), np.zeros(0, dtype=int)))
    params = ModelParams(np.vstack([0.5 * spec.class_means, np.zeros(6)]),
                         np.zeros(len(frequency) + 1),
                         0.2 * rng.standard_normal((4, 6)), np.zeros(4))
    return samples, params


def assert_evaluate_matches_oracle(params, samples, **kwargs):
    got = json.dumps(evaluate(params, samples, **kwargs).to_dict())
    assert got == json.dumps(oracle_evaluate(params, samples, **kwargs).to_dict())
    return json.loads(got)


@pytest.mark.parametrize("world_seed", [0, 1, 2])
def test_evaluate_matches_object_oracle(world_seed):
    samples, params = eval_world(world_seed)
    doc = assert_evaluate_matches_oracle(params, samples)
    assert doc["auc"] is not None and 0.0 < doc["map50"] < 1.0
    assert_evaluate_matches_oracle(params, samples, iou_threshold=0.7, num_classes=5)


def test_evaluate_matches_object_oracle_on_tied_scores():
    # proposals share three feature vectors, so scores tie within and across images
    samples, params = eval_world(3)
    rng = np.random.default_rng(3)
    for sample in samples:
        sample.proposal_features = 2.0 * params.w_cls[rng.integers(0, 3, sample.num_proposals)]
    doc = assert_evaluate_matches_oracle(params, samples)
    assert 0.0 < doc["map50"] < 1.0
    # every proposal of every image gets the same scores: the order is (image, index)
    flat = ModelParams(np.zeros_like(params.w_cls), np.array([0.3, 0.1, 0.2, 0.0]),
                       params.w_reg, params.b_reg)
    doc = assert_evaluate_matches_oracle(flat, samples)
    assert doc["per_class_ap"][0] > 0.0


def test_evaluate_matches_object_oracle_on_missing_classes():
    # class 3 has no ground truth (nan AP); class 2 has some but is never predicted (AP 0)
    samples, params = eval_world(4, frequency=(0.4, 0.3, 0.3, 0.0))
    params.b_cls[2] = -50.0
    params.w_cls[3] = params.w_cls[0]
    doc = assert_evaluate_matches_oracle(params, samples)
    ap = doc["per_class_ap"]
    assert ap[2] == 0.0 and np.isnan(ap[3]) and ap[0] > 0.0


def test_evaluate_rejects_a_ground_truth_class_it_does_not_report():
    # the per-class list has num_classes entries, so a class outside it must not
    # enter the mAP either
    samples, params = eval_world(0)
    for bad in (3, -1):
        samples[0].gt_classes = np.array([bad, *samples[0].gt_classes[1:]])
        with pytest.raises(ValueError, match="ground-truth class"):
            evaluate(params, samples)
    samples[0].gt_classes[0] = 3
    doc = evaluate(params, samples, num_classes=5).to_dict()
    assert np.isnan(doc["per_class_ap"][4]) and not np.isnan(doc["per_class_ap"][3])


def test_evaluate_of_no_samples_matches_object_oracle():
    _, params = eval_world(0)
    doc = assert_evaluate_matches_oracle(params, [])
    assert doc["map50"] == 0.0 and doc["auc"] is None


def test_partition_and_evaluate_build_no_objects_and_run_heads_per_block(monkeypatch, tmp_path):
    samples, params = eval_world(5)
    spec = make_domain_spec(3, 6, 40, (0.5, 0.3, 0.2), layout_seed=5)
    dataset_path = tmp_path / "data.json"
    save_dataset(dataset_path, spec, samples)
    params.dropout_rate = 0.3
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(world.BBox, "__post_init__", counted("BBox", world.BBox.__post_init__))
    monkeypatch.setattr(detector.Detection, "__init__",
                        counted("Detection", detector.Detection.__init__))
    monkeypatch.setattr(detector, "_heads", counted("heads", detector._heads))
    forward(params, samples[0])  # the counters see the object path
    assert counts["BBox"] == counts["Detection"] == samples[0].num_proposals
    assert counts["heads"] == 1

    blocks = -(-len(samples) // BLOCK_SAMPLES)
    assert blocks < len(samples)
    for run in (lambda: partition(samples, params, 3, 0.5, np.random.default_rng(0)),
                lambda: evaluate(params, samples)):
        counts.clear()
        run()
        assert counts == Counter(heads=blocks)

    # nor does the ground-truth path: generation, pretraining, expert, loading
    expert_rng = np.random.default_rng(0)
    for run in (lambda: generate_domain(spec, 5),
                lambda: pretrain_source(tiny_config(pretrain_epochs=1)),
                lambda: [expert_predict(ExpertSpec(), s, expert_rng, 3) for s in samples],
                lambda: load_dataset(dataset_path)):
        counts.clear()
        run()
        assert counts["BBox"] == counts["Detection"] == 0
