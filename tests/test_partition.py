import numpy as np
import pytest

from bruteforce import oracle_mc_passes
from detadapt.detector import BLOCK_SAMPLES
from detadapt.partition import (DISSIMILAR, SIMILAR, VarianceReport, box_variance,
                                cls_variance, mc_passes, partition, split_by_variance)
from test_detector import mixed_samples, random_params, random_sample


def make_passes(rng, dropout, num_passes=6, seed=0):
    params = random_params(rng, dropout=dropout)
    sample = random_sample(rng)
    return mc_passes(params, sample, num_passes, np.random.default_rng(seed))


@pytest.mark.parametrize("num_proposals", [1, 2, 7])
@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_stacked_passes_match_per_pass_oracle(num_proposals, dropout):
    rng = np.random.default_rng(10 + num_proposals)
    params = random_params(rng, dropout=dropout)
    sample = random_sample(rng, num_proposals=num_proposals)
    boxes, scores = mc_passes(params, sample, 6, np.random.default_rng(3))
    seed_rng = np.random.default_rng(3)
    seeds = [int(seed_rng.integers(0, 2**63 - 1)) for _ in range(6)]
    want_boxes, want_scores = oracle_mc_passes(params, sample, seeds)
    assert boxes.shape == (6, num_proposals, 4)
    assert scores.shape == (6, num_proposals, params.num_classes + 1)
    assert np.array_equal(boxes, want_boxes)
    assert np.array_equal(scores, want_scores)


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_partition_rows_match_per_sample_oracle(dropout):
    rng = np.random.default_rng(30)
    params = random_params(rng, dropout=dropout)
    # not a multiple of the block size; one-proposal samples either side of a block edge
    sizes = rng.choice([1, 2, 7, 13], size=2 * BLOCK_SAMPLES + 5)
    sizes[BLOCK_SAMPLES - 1] = sizes[BLOCK_SAMPLES] = 1
    samples = mixed_samples(rng, sizes)
    report = partition(samples[::-1], params, 4, 0.5, np.random.default_rng(7))

    seed_rng = np.random.default_rng(7)
    want = {}
    for sample in samples:  # seeds are drawn in id order
        seeds = [int(seed_rng.integers(0, 2**63 - 1)) for _ in range(4)]
        boxes, scores = oracle_mc_passes(params, sample, seeds)
        v_b, v_c = box_variance(boxes), cls_variance(scores)
        want[sample.id] = (v_b, v_c, v_b * v_c)
    assert {r.sample_id: (r.box_var, r.cls_var, r.variance) for r in report.rows} == want
    ranked = split_by_variance([(sid, v[2]) for sid, v in want.items()], 0.5)
    assert [(r.sample_id, r.rank, r.level, r.subset) for r in report.rows] == ranked


def test_mc_passes_require_at_least_two():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        mc_passes(random_params(rng), random_sample(rng), 1, rng)


def test_no_dropout_passes_identical():
    rng = np.random.default_rng(1)
    boxes, scores = make_passes(rng, dropout=0.0)
    assert box_variance(boxes) == 0.0
    assert cls_variance(scores) == 0.0


def test_same_rng_seed_reproduces_pass_set():
    rng = np.random.default_rng(2)
    params = random_params(rng, dropout=0.3)
    sample = random_sample(rng)
    a = mc_passes(params, sample, 5, np.random.default_rng(9))
    b = mc_passes(params, sample, 5, np.random.default_rng(9))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_dropout_passes_differ():
    rng = np.random.default_rng(3)
    boxes, scores = make_passes(rng, dropout=0.3, num_passes=10)
    assert box_variance(boxes) > 0.0
    assert cls_variance(scores) > 0.0


def test_box_variance_two_pass_hand_value():
    d = np.array([0.4, -0.2, 0.6, 0.8])
    base = np.array([0.0, 0.0, 4.0, 4.0])
    boxes = np.array([[base], [base + d]])  # (M=2, P=1, 4)
    assert box_variance(boxes) == pytest.approx(float(d @ d) / 4, abs=1e-12)


def test_box_variance_scales_quadratically():
    def boxes(scale):
        return np.array([[[0, 0, 2 * scale, 2 * scale]],
                         [[scale, scale, 3 * scale, 3 * scale]]], dtype=float)
    v1 = box_variance(boxes(1.0))
    v3 = box_variance(boxes(3.0))
    assert v3 == pytest.approx(9 * v1)


def test_cls_variance_two_pass_hand_value_and_symmetry():
    p = np.array([0.7, 0.2, 0.1])
    q = np.array([0.1, 0.6, 0.3])
    scores = np.array([[p], [q]])  # (M=2, P=1, C+1)
    expected = float(np.sum((p - q) ** 2)) / 4
    assert cls_variance(scores) == pytest.approx(expected, abs=1e-12)
    assert cls_variance(scores[::-1]) == pytest.approx(expected, abs=1e-12)


def test_split_by_variance_examples():
    rows = split_by_variance([(0, 0.1), (1, 0.2), (2, 0.3), (3, 0.4)], 0.5)
    subsets = {sid: subset for sid, _, _, subset in rows}
    assert sum(1 for s in subsets.values() if s == SIMILAR) == 3
    assert subsets[0] == DISSIMILAR

    rows = split_by_variance([(0, 0.1), (1, 0.2), (2, 0.3), (3, 0.4)], 0.99)
    similar = [sid for sid, _, _, s in rows if s == SIMILAR]
    assert similar == [3]  # only the max-variance sample


def test_tied_variances_rank_by_id():
    rows = split_by_variance([(5, 1.0), (2, 1.0), (9, 1.0), (0, 1.0)], 0.5)
    assert [sid for sid, _, _, _ in rows] == [0, 2, 5, 9]
    assert sum(1 for _, _, _, s in rows if s == SIMILAR) == 3


def test_partition_counts_and_scale_invariance():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        sigma = float(rng.uniform(0.05, 0.95))
        variances = [(i, float(v)) for i, v in enumerate(rng.random(n))]
        rows = split_by_variance(variances, sigma)
        similar = {sid for sid, _, _, s in rows if s == SIMILAR}
        expected = {sid for sid, rank, level, _ in rows if level >= sigma}
        assert similar == expected
        assert len(similar) == sum(1 for r in range(1, n + 1) if r / n >= sigma)
        scaled = [(i, 17.3 * v) for i, v in variances]
        assert split_by_variance(scaled, sigma) == rows


def test_partition_end_to_end_is_deterministic():
    rng = np.random.default_rng(5)
    params = random_params(rng, dropout=0.3)
    samples = [random_sample(np.random.default_rng(100 + i)) for i in range(8)]
    for i, s in enumerate(samples):
        s.id = i
    a = partition(samples, params, 4, 0.5, np.random.default_rng(0))
    b = partition(samples, params, 4, 0.5, np.random.default_rng(0))
    assert a.similar == b.similar
    assert a.to_csv_text() == b.to_csv_text()
    assert a.similar == {r.sample_id for r in a.rows if r.subset == SIMILAR}
    assert sorted(r.sample_id for r in a.rows) == list(range(8))
    with pytest.raises(ValueError):
        partition(samples, params, 4, 1.5, np.random.default_rng(0))


def test_higher_dropout_gives_larger_variance():
    rng = np.random.default_rng(6)
    low, high = [], []
    for i in range(100):
        sample = random_sample(np.random.default_rng(500 + i))
        p_low = random_params(np.random.default_rng(i), dropout=0.1)
        p_high = random_params(np.random.default_rng(i), dropout=0.5)
        boxes_low, scores_low = mc_passes(p_low, sample, 6, np.random.default_rng(i))
        boxes_high, scores_high = mc_passes(p_high, sample, 6, np.random.default_rng(i))
        low.append(box_variance(boxes_low) * cls_variance(scores_low))
        high.append(box_variance(boxes_high) * cls_variance(scores_high))
    assert np.median(high) > np.median(low)


def test_report_csv_layout():
    rows = [(0, 0.5), (1, 0.2)]
    ranked = split_by_variance(rows, 0.5)
    report_rows = []
    from detadapt.partition import VarianceRow
    for sid, rank, level, subset in ranked:
        report_rows.append(VarianceRow(sid, 1.0, 2.0, dict(rows)[sid], rank, level, subset))
    report = VarianceReport(report_rows, frozenset({0}))
    text = report.to_csv_text()
    header = text.splitlines()[0]
    assert header == "sample_id,v_b,v_c,v,rank,level,subset"
    assert len(text.splitlines()) == 3
