import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from bruteforce import _iou, oracle_box, oracle_generate_domain
from detadapt import world
from detadapt.config import AdaptationConfig, default_config
from detadapt.util import to_json
from detadapt.world import (BBox, ConfigError, box_iou, boxes_from_raw, dataset_to_dict,
                            generate_domain, load_dataset, make_domain_spec,
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
        # bits, so -0.0 and +0.0 differ
        want = np.array([oracle_box(row) for row in rows]).view(np.uint64)
        assert np.array_equal(boxes_from_raw(rows).view(np.uint64), want)
        # any leading shape: a stack of passes boxes row by row
        assert np.array_equal(boxes_from_raw(rows.reshape(2, -1, 4)).view(np.uint64),
                              want.reshape(2, -1, 4))


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


@pytest.mark.parametrize("low, high", [(-0.12, 0.12), (8.0, 24.0), (-0.0, 0.0), (0.0, 0.0),
                                       (-3.0, -1.0), (-1e300, 1e300), (0.0, 1e-300)])
def test_uniform_map_gives_the_bits_of_generator_uniform(low, high):
    lo, span = world.uniform_map(low, high)
    mapped = lo + span * np.random.default_rng(5).random(1000)
    want = np.random.default_rng(5).uniform(low, high, 1000)
    assert mapped.tobytes() == want.tobytes()
    # and on Python floats, value by value
    floats = [lo + span * u for u in np.random.default_rng(5).random(1000).tolist()]
    assert np.array(floats).tobytes() == want.tobytes()


def test_iou_basic_cases():
    a = [0, 0, 2, 2]
    assert box_iou(a, a) == pytest.approx(1.0)
    assert box_iou(a, [4, 4, 5, 5]) == 0.0
    assert box_iou(a, [1, 1, 3, 3]) == pytest.approx(1 / 7)


def test_box_iou_equals_scalar_oracle_alone_and_broadcast():
    rng = np.random.default_rng(13)
    corners = rng.uniform(0, 20, (60, 2))
    boxes = np.column_stack([corners, corners + rng.uniform(0.5, 8, (60, 2))])
    base = np.array([2.0, 2.0, 6.0, 5.0])
    special = np.array([
        base,                        # identical
        [3.0, 3.0, 4.0, 4.0],        # nested inside
        [0.0, 0.0, 10.0, 10.0],      # containing
        [6.0, 2.0, 9.0, 5.0],        # touching on an edge
        [6.0, 5.0, 8.0, 7.0],        # touching at a corner
        [7.0, 7.0, 9.0, 9.0],        # disjoint
        [4.0, 1.0, 8.0, 3.0],        # partial overlap
    ])
    rows = np.vstack([boxes, special, np.tile(base, (len(special), 1))])
    others = np.vstack([boxes[::-1], np.tile(base, (len(special), 1)), special])
    for a, b in zip(rows, others):
        want = _iou(BBox(*a), BBox(*b))
        got = box_iou(a, b)
        assert got.shape == () and got == want
    want = np.array([[_iou(BBox(*a), BBox(*b)) for b in others] for a in rows])
    assert np.array_equal(box_iou(rows[:, None, :], others[None, :, :]), want)
    assert (want == 0.0).any() and (want == 1.0).any()


def test_generation_deterministic_byte_identical():
    spec = small_spec()
    first = json.dumps(dataset_to_dict(spec, generate_domain(spec, 42)))
    second = json.dumps(dataset_to_dict(spec, generate_domain(spec, 42)))
    assert first == second
    third = json.dumps(dataset_to_dict(spec, generate_domain(spec, 43)))
    assert first != third


def assert_same_world(spec, seed):
    """`generate_domain` equals the oracle in every array's dtype, shape and bytes;
    returns the samples."""
    got, want = generate_domain(spec, seed), oracle_generate_domain(spec, seed)
    assert len(got) == len(want) == spec.size
    for a, b in zip(got, want):
        assert a.id == b.id
        for name in ("proposal_boxes", "proposal_features", "gt_boxes", "gt_classes"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x.dtype, x.shape) == (y.dtype, y.shape), name
            assert x.tobytes() == y.tobytes(), name
    return got


@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_generation_equals_oracle_on_the_default_domains(seed):
    config = default_config(seed=0)
    for spec in (config.source, config.target):
        assert_same_world(spec, seed)


def test_generation_equals_oracle_when_the_gt_box_fallback_fires():
    spec = small_spec(size=200, box_jitter=0.6, min_proposal_iou=0.9)
    samples = assert_same_world(spec, 4)
    # a jittered proposal equal to its ground-truth box is the fallback
    fallbacks = sum(int((s.proposal_boxes[:len(s.gt_boxes)] == s.gt_boxes).all(axis=1).sum())
                    for s in samples)
    assert fallbacks > 0


BLOCK_EDGE_SPECS = {
    "fallback": dict(box_jitter=0.6, min_proposal_iou=0.9),
    "four-to-six-objects": dict(min_objects=4, max_objects=6),
}
ARRAYS = ("proposal_boxes", "proposal_features", "gt_boxes", "gt_classes")


@pytest.mark.parametrize("extra", [-1, 0, 1, world._BLOCK + 1],
                         ids=["block-less-one", "block", "block-plus-one", "two-blocks-plus-one"])
@pytest.mark.parametrize("name", sorted(BLOCK_EDGE_SPECS))
def test_generation_equals_oracle_across_block_edges(name, extra):
    spec = small_spec(size=world._BLOCK + extra, **BLOCK_EDGE_SPECS[name])
    samples = assert_same_world(spec, 6)
    for sample in samples:
        assert all(getattr(sample, attr).flags.c_contiguous for attr in ARRAYS)
    # a sample's arrays are its own rows of the block buffers, so no write to
    # one sample's array could reach another's
    for a, b in itertools.combinations(samples, 2):
        for x, y in itertools.product(ARRAYS, repeat=2):
            assert not np.shares_memory(getattr(a, x), getattr(b, y)), (a.id, b.id, x, y)


@pytest.mark.parametrize("seed", [3, 7])
def test_ground_truth_classes_keep_no_background_entry_alive(seed):
    # each sample's classes view its block's buffer of object classes, which
    # holds the block's ground-truth entries and nothing else
    samples = generate_domain(default_config(seed=0).target, seed)
    buffers = {}
    for sample in samples:
        buffers.setdefault(id(sample.gt_classes.base), []).append(sample)
    assert len(buffers) == -(-len(samples) // world._BLOCK)
    for members in buffers.values():
        base = members[0].gt_classes.base
        assert base.size == sum(len(s.gt_classes) for s in members)
        assert base.tobytes() == np.concatenate([s.gt_classes for s in members]).tobytes()


def generation_transient(size: int) -> int:
    """Traced peak minus retained bytes of generating `size` default target samples."""
    spec = dataclasses.replace(default_config(seed=0).target, size=size)
    tracemalloc.start()
    try:
        samples = generate_domain(spec, 0)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(samples) == size
    return peak - retained


# bytes; 64-sample blocks take 0.14 MB, the 2,000 samples in one block 4.1 MB
TRANSIENT_BOUND = 1_000_000


def test_generation_transient_memory_stays_under_the_bound():
    assert generation_transient(2000) < TRANSIENT_BOUND


def test_a_domain_built_in_one_block_breaks_the_transient_bound(monkeypatch):
    monkeypatch.setattr(world, "_BLOCK", 2000)
    assert generation_transient(2000) > TRANSIENT_BOUND


@pytest.mark.parametrize("overrides", [
    dict(box_jitter=0.0),
    dict(background_rate=0.0),
    dict(frequency=(0.6, 0.0, 0.4)),
    dict(frequency=(0.5, 0.5, 0.0)),
    dict(min_objects=2, max_objects=2),
    dict(size=0),
], ids=["no-jitter", "no-background", "zero-frequency-class", "zero-frequency-last-class",
        "fixed-object-count", "empty"])
def test_generation_equals_oracle_on_edge_specs(overrides):
    for seed in (3, 11):
        assert_same_world(small_spec(**{"size": 60, **overrides}), seed)


def test_degenerate_frequency_all_one_class():
    spec = small_spec(frequency=(1.0, 0.0, 0.0), size=100)
    for sample in generate_domain(spec, 0):
        assert np.all(sample.gt_classes == 0)


def test_empirical_frequency_concentration():
    spec = make_domain_spec(num_classes=2, feature_dim=4, size=10000,
                            frequency=(0.9, 0.1), layout_seed=1,
                            min_objects=1, max_objects=1, background_rate=0.0)
    counts = np.zeros(2)
    for sample in generate_domain(spec, 7):
        for class_id in sample.gt_classes:
            counts[class_id] += 1
    assert abs(counts[0] / counts.sum() - 0.9) < 0.02


def test_every_object_has_detectable_proposal():
    spec = small_spec(size=200, box_jitter=0.3)
    for sample in generate_domain(spec, 5):
        for gt_box in sample.gt_boxes:
            best = max(box_iou(gt_box, row) for row in sample.proposal_boxes)
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
    # the object's feature is its proposal row, the first of each sample
    base_feats = np.array([s.proposal_features[0] for s in generate_domain(spec, 1)])
    new_feats = np.array([s.proposal_features[0] for s in generate_domain(shifted, 2)])
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


NON_FINITE_FIELDS = ["class_means", "class_covs", "frequency", "background_mean",
                     "background_rate", "background_cov", "box_jitter", "image_size"]


def with_last(value, bad):
    """`value` with its last number, at any nesting depth, replaced by `bad`."""
    return value[:-1] + [with_last(value[-1], bad)] if isinstance(value, list) else bad


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 10 ** 400],
                         ids=["nan", "inf", "-inf", "int-beyond-float"])
@pytest.mark.parametrize("name", NON_FINITE_FIELDS)
def test_non_finite_spec_values_are_config_errors(name, bad):
    value = with_last(to_json(default_config(seed=0).target)[name], bad)
    with pytest.raises(ConfigError, match=name):
        AdaptationConfig.from_dict({"target": {name: value}})


def old_dataset_to_dict(spec, samples):
    """`dataset_to_dict` with one `float` per proposal value."""
    docs = []
    for s in samples:
        proposals = [
            [*map(float, s.proposal_boxes[j])] + [*map(float, s.proposal_features[j])]
            for j in range(s.num_proposals)
        ]
        objects = [[*map(float, box), int(c)] for box, c in zip(s.gt_boxes, s.gt_classes)]
        docs.append({"id": s.id, "proposals": proposals, "objects": objects})
    return {"spec": to_json(spec), "samples": docs}


def test_dataset_json_text_is_the_per_value_form(tmp_path):
    spec = small_spec(size=30)
    samples = generate_domain(spec, 8)
    assert json.dumps(dataset_to_dict(spec, samples)) == \
        json.dumps(old_dataset_to_dict(spec, samples))
    # and on a reloaded set, whose arrays come from the JSON reader
    path = tmp_path / "data.json"
    save_dataset(path, spec, samples)
    loaded_spec, loaded = load_dataset(path)
    assert path.read_text() == json.dumps(old_dataset_to_dict(loaded_spec, loaded))


def test_save_load_roundtrip(tmp_path):
    spec = small_spec(size=10)
    samples = generate_domain(spec, 9)
    path = tmp_path / "data.json"
    save_dataset(path, spec, samples)
    loaded_spec, loaded = load_dataset(path)
    assert to_json(loaded_spec) == to_json(spec)
    assert len(loaded) == len(samples)
    for a, b in zip(samples, loaded):
        assert np.allclose(a.proposal_boxes, b.proposal_boxes)
        assert np.allclose(a.proposal_features, b.proposal_features)
        # JSON float reprs round-trip exactly
        assert np.array_equal(a.gt_boxes, b.gt_boxes)
        assert np.array_equal(a.gt_classes, b.gt_classes)


def corrupt_first_object(path, row):
    """Rewrite a saved dataset with `row` as the box of sample 0's first object."""
    doc = json.loads(path.read_text())
    doc["samples"][0]["objects"][0][:4] = row
    path.write_text(json.dumps(doc))


BAD_GT_ROWS = {
    "nan": [1.0, float("nan"), 5.0, 5.0],
    "inf": [1.0, 1.0, float("inf"), 5.0],
    "inverted": [5.0, 1.0, 1.0, 5.0],
    "zero_width": [3.0, 1.0, 3.0, 5.0],
    "zero_height": [1.0, 2.0, 5.0, 2.0],
}


@pytest.mark.parametrize("kind", sorted(BAD_GT_ROWS))
def test_load_rejects_invalid_ground_truth_box(kind, tmp_path):
    spec = small_spec(size=3)
    path = tmp_path / "data.json"
    save_dataset(path, spec, generate_domain(spec, 9))
    load_dataset(path)
    corrupt_first_object(path, BAD_GT_ROWS[kind])
    with pytest.raises(ValueError):
        load_dataset(path)
