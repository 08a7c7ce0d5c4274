import dataclasses
import json

import numpy as np
import pytest

from bruteforce import oracle_box
from detadapt.world import (BBox, ConfigError, boxes_from_raw, dataset_to_dict,
                            generate_domain, iou, load_dataset, make_domain_spec,
                            save_dataset, shift_domain)


def small_spec(**overrides):
    defaults = dict(num_classes=3, feature_dim=4, size=20,
                    frequency=(0.5, 0.3, 0.2), layout_seed=3)
    defaults.update(overrides)
    return make_domain_spec(**defaults)


def test_bbox_rejects_degenerate_and_nonfinite():
    with pytest.raises(ValueError):
        BBox(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        BBox(0.0, 0.0, float("nan"), 1.0)
    box = BBox.from_raw(2.0, 3.0, 1.0, 1.0)
    assert box.x1 < box.x2 and box.y1 < box.y2


def test_boxes_from_raw_matches_from_raw_oracle():
    rng = np.random.default_rng(12)
    random_rows = rng.uniform(-50, 50, (200, 4))
    inverted = np.column_stack([random_rows[:, 2:], random_rows[:, :2]])
    corner = rng.uniform(-5, 5, (100, 2))
    gap = rng.choice([0.0, 1e-9, -1e-9, 5e-7, -5e-7, 1e-6, 2e-6], (100, 2))
    sub_min = np.column_stack([corner, corner + gap])
    signed_zeros = np.array([[0.0, -0.0, -0.0, 0.0], [-0.0, 0.0, 0.0, -0.0]])
    for rows in (random_rows, inverted, sub_min, signed_zeros):
        got = boxes_from_raw(rows)
        want = np.array([oracle_box(row) for row in rows])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        # any leading shape: a stack of passes boxes row by row
        assert np.array_equal(boxes_from_raw(rows.reshape(2, -1, 4)), want.reshape(2, -1, 4))


def test_boxes_from_raw_raises_exactly_where_from_raw_raises():
    nan, inf = float("nan"), float("inf")
    rows = [[0.0, 0.0, 1.0, 1.0], [1e20, 0.0, 1e20, 1.0], [0.0, -1e20, 1.0, -1e20]]
    for bad in (nan, inf, -inf):
        for k in range(4):
            row = [0.0, 0.0, 1.0, 1.0]
            row[k] = bad
            rows.append(row)
        rows.append([bad] * 4)
        rows.append([3.0, 0.0, bad, 1.0])
        rows.append([3.0, 3.0, 3.0, bad])
    for row in rows:
        try:
            want = oracle_box(row)
        except ValueError:
            with pytest.raises(ValueError):
                boxes_from_raw(np.array([row]))
            with pytest.raises(ValueError):
                boxes_from_raw(np.array([[0.0, 0.0, 1.0, 1.0], row]))
        else:
            assert np.array_equal(boxes_from_raw(np.array([row]))[0], want)


def test_iou_basic_cases():
    a = BBox(0, 0, 2, 2)
    assert iou(a, a) == pytest.approx(1.0)
    assert iou(a, BBox(4, 4, 5, 5)) == 0.0
    assert iou(a, BBox(1, 1, 3, 3)) == pytest.approx(1 / 7)


def test_generation_deterministic_byte_identical():
    spec = small_spec()
    first = json.dumps(dataset_to_dict(spec, generate_domain(spec, 42)))
    second = json.dumps(dataset_to_dict(spec, generate_domain(spec, 42)))
    assert first == second
    third = json.dumps(dataset_to_dict(spec, generate_domain(spec, 43)))
    assert first != third


def test_degenerate_frequency_all_one_class():
    spec = small_spec(frequency=(1.0, 0.0, 0.0), size=100)
    for sample in generate_domain(spec, 0):
        assert all(obj.class_id == 0 for obj in sample.objects)


def test_empirical_frequency_concentration():
    spec = make_domain_spec(num_classes=2, feature_dim=4, size=10000,
                            frequency=(0.9, 0.1), layout_seed=1,
                            min_objects=1, max_objects=1, background_rate=0.0)
    counts = np.zeros(2)
    for sample in generate_domain(spec, 7):
        for obj in sample.objects:
            counts[obj.class_id] += 1
    assert abs(counts[0] / counts.sum() - 0.9) < 0.02


def test_every_object_has_detectable_proposal():
    spec = small_spec(size=200, box_jitter=0.3)
    for sample in generate_domain(spec, 5):
        for obj in sample.objects:
            best = max(iou(obj.box, BBox(*row)) for row in sample.proposal_boxes)
            assert best > spec.min_proposal_iou


def test_shift_identity_and_additivity():
    spec = small_spec()
    zero = shift_domain(spec, np.zeros(4))
    assert np.allclose(zero.class_means, spec.class_means)
    assert np.allclose(zero.frequency, spec.frequency)
    v = np.array([1.0, -2.0, 0.5, 0.0])
    twice = shift_domain(shift_domain(spec, v), v)
    assert np.allclose(twice.class_means, spec.class_means + 2 * v)


def test_shift_dimension_mismatch():
    with pytest.raises(ConfigError):
        shift_domain(small_spec(), np.zeros(3))


def test_shifted_features_move_by_shift_vector():
    spec = small_spec(size=800, frequency=(1.0, 0.0, 0.0), min_objects=1,
                      max_objects=1, background_rate=0.0)
    v = np.array([2.0, 0.0, -1.0, 0.5])
    shifted = shift_domain(spec, v)
    base_feats = np.array([s.objects[0].feature for s in generate_domain(spec, 1)])
    new_feats = np.array([s.objects[0].feature for s in generate_domain(shifted, 2)])
    diff = new_feats.mean(axis=0) - base_feats.mean(axis=0)
    tol = 3.0 / np.sqrt(len(base_feats))  # 3 sigma of the mean difference
    assert np.all(np.abs(diff - v) < 2 * tol)


def test_invalid_specs_raise():
    with pytest.raises(ConfigError):
        small_spec(frequency=(0.5, 0.5, 0.5))
    with pytest.raises(ConfigError):
        small_spec(frequency=(-0.1, 0.6, 0.5))
    spec = small_spec()
    spec.class_covs = np.zeros(3)
    with pytest.raises(ConfigError):
        spec.validate()


def test_save_load_roundtrip(tmp_path):
    spec = small_spec(size=10)
    samples = generate_domain(spec, 9)
    path = tmp_path / "data.json"
    save_dataset(path, spec, samples)
    loaded_spec, loaded = load_dataset(path)
    assert loaded_spec.to_dict() == spec.to_dict()
    assert len(loaded) == len(samples)
    for a, b in zip(samples, loaded):
        assert np.allclose(a.proposal_boxes, b.proposal_boxes)
        assert np.allclose(a.proposal_features, b.proposal_features)
        for oa, ob in zip(a.objects, b.objects):
            assert oa.class_id == ob.class_id
            assert np.allclose(oa.box.as_array(), ob.box.as_array())
            assert np.allclose(oa.feature, ob.feature)
