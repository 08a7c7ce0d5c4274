import importlib

import numpy as np
import pytest

from bruteforce import oracle_mc_passes, oracle_variance
from detadapt import detector
from detadapt.detector import BLOCK_ROWS, blocks
from detadapt.partition import (DISSIMILAR, SIMILAR, VarianceReport, _sq_deviation, mc_passes,
                                partition)
from test_detector import mixed_samples, random_params, random_sample

partition_module = importlib.import_module("detadapt.partition")
SIZES = [1, 2, 7, 13]


def variance(stack):
    """`_sq_deviation` of one sample's (M, P, K) stack."""
    return float(_sq_deviation(stack, [0, stack.shape[1]])[0])


def ranked(monkeypatch, variances, sigma):
    """`partition`'s (sample id, rank, level, subset) CSV rows, in rank order,
    for samples whose detection variances are `variances` ((sample id,
    variance) pairs): their box variances, with class variances of 1."""
    rng = np.random.default_rng(14)
    samples = mixed_samples(rng, [2] * len(variances))
    for sample, (sample_id, _) in zip(samples, variances):
        sample.id = sample_id
    by_id = dict(variances)
    # one block (2 rows times 2 passes each fill the budget), whose box
    # variances come first, then its class variances
    stacks = iter([np.array([by_id[i] for i in sorted(by_id)]), np.ones(len(by_id))])
    monkeypatch.setattr(detector, "BLOCK_ROWS", 4 * len(variances))
    monkeypatch.setattr(partition_module, "_sq_deviation", lambda stack, offsets: next(stacks))
    report = partition(samples, random_params(rng, dropout=0.3), 2, sigma, rng)
    rows = [line.split(",") for line in report.to_csv_text().splitlines()[1:]]
    return [(int(r[0]), int(r[4]), float(r[5]), r[6]) for r in rows]


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
    got_rng, want_rng = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(2):  # the second call reads the shared Generator on
        boxes, scores = mc_passes(params, sample, 6, got_rng)
        want_boxes, want_scores = oracle_mc_passes(params, sample, 6, want_rng)
        assert boxes.shape == (6, num_proposals, 4)
        assert scores.shape == (6, num_proposals, params.num_classes + 1)
        assert np.array_equal(boxes, want_boxes)
        assert np.array_equal(scores, want_scores)
    assert got_rng.random() == want_rng.random()


def offsets_of(samples):
    return np.concatenate(([0], np.cumsum([s.num_proposals for s in samples])))


def mixed_block_samples(rng, passes):
    """Samples of mixed sizes over more than two blocks of `passes`-pass rows
    at the default budget, with one-proposal samples either side of the first
    block's edge: that block's rows fill the budget exactly."""
    room = BLOCK_ROWS // passes
    sizes = []
    while sum(sizes) + max(SIZES) < room:
        sizes.append(int(rng.choice(SIZES)))
    sizes += [1] * (room - sum(sizes) + 1)
    edge = len(sizes) - 1
    while sum(sizes) < 2 * room + 50:
        sizes.append(int(rng.choice(SIZES)))
    samples = mixed_samples(rng, sizes)
    cuts = blocks(offsets_of(samples), passes)
    assert cuts[0] == (0, edge) and len(cuts) > 2 and sizes[edge - 1] == sizes[edge] == 1
    return samples


def budgets(samples, passes):
    """Row budgets of one row, of less than the largest sample's rows times
    passes, the default, and more than the whole set's."""
    largest = max(s.num_proposals for s in samples)
    return 1, largest * passes - 1, BLOCK_ROWS, offsets_of(samples)[-1] * passes + 1


@pytest.mark.parametrize("passes", [1, 3, 10])
def test_blocks_are_the_longest_runs_that_fit_the_budget(monkeypatch, passes):
    rng = np.random.default_rng(passes)
    counts = rng.choice([0, 1, 2, 7, 13], size=300)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    for budget in (1, 13 * passes - 1, 13 * passes, 40 * passes + 5, BLOCK_ROWS,
                   offsets[-1] * passes):
        monkeypatch.setattr(detector, "BLOCK_ROWS", budget)
        want, start = [], 0
        while start < len(counts):
            stop = start + 1
            while stop < len(counts) and counts[start:stop + 1].sum() * passes <= budget:
                stop += 1
            want.append((start, stop))
            start = stop
        assert blocks(offsets, passes) == want
    assert blocks(np.zeros(1, dtype=int), passes) == []


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_partition_rows_match_per_sample_oracle(dropout):
    rng = np.random.default_rng(30)
    params = random_params(rng, dropout=dropout)
    samples = mixed_block_samples(rng, 4)
    report = partition(samples[::-1], params, 4, 0.5, np.random.default_rng(7))
    got = dict(zip(report.sample_ids.tolist(),
                   zip(report.box_var.tolist(), report.cls_var.tolist())))

    # the passes are mc_passes' on the samples in id order, from one Generator;
    # the variances are `_sq_deviation`'s of each alone bit for bit, and those
    # of a per-sample loop that sums in another order up to rounding
    passes_rng, oracle_rng = np.random.default_rng(7), np.random.default_rng(7)
    want = {}
    for sample in samples:
        boxes, scores = mc_passes(params, sample, 4, passes_rng)
        want_boxes, want_scores = oracle_mc_passes(params, sample, 4, oracle_rng)
        assert np.array_equal(boxes, want_boxes) and np.array_equal(scores, want_scores)
        want[sample.id] = (variance(boxes), variance(scores))
        loop = (oracle_variance(want_boxes), oracle_variance(want_scores))
        np.testing.assert_allclose(got[sample.id], loop, rtol=1e-12, atol=1e-300)
    assert got == want
    # ascending by v_b * v_c, ties by id
    order = sorted(want, key=lambda sid: (want[sid][0] * want[sid][1], sid))
    assert report.sample_ids.tolist() == order and report.sigma == 0.5


def test_partition_csv_does_not_depend_on_the_block_size(monkeypatch):
    rng = np.random.default_rng(31)
    params = random_params(rng, dropout=0.3)
    samples = mixed_block_samples(rng, 10)
    texts, num_blocks = set(), []
    for budget in budgets(samples, 10):
        monkeypatch.setattr(detector, "BLOCK_ROWS", budget)
        num_blocks.append(len(blocks(offsets_of(samples), 10)))
        texts.add(partition(samples, params, 10, 0.5, np.random.default_rng(8)).to_csv_text())
    assert len(texts) == 1
    assert num_blocks[0] == len(samples) and num_blocks[1] > num_blocks[2] > 2
    assert num_blocks[3] == 1


@pytest.mark.parametrize("where", ["mid-block", "first block's end", "last block's end"])
def test_partition_rejects_a_sample_without_proposals(where):
    rng = np.random.default_rng(33)
    params = random_params(rng, dropout=0.3)
    samples = mixed_block_samples(rng, 10)
    # sample `edge` opens the second block; without rows it ends the first
    edge = blocks(offsets_of(samples), 10)[0][1]
    index = {"mid-block": 3, "first block's end": edge, "last block's end": len(samples) - 1}
    empty = samples[index[where]]
    empty.proposal_boxes = empty.proposal_boxes[:0]
    empty.proposal_features = empty.proposal_features[:0]
    stops = [stop for _, stop in blocks(offsets_of(samples), 10)]
    assert (index[where] + 1 in stops) == (where != "mid-block")
    with pytest.raises(ValueError, match=f"sample {empty.id} has no proposals"):
        partition(samples[::-1], params, 10, 0.5, np.random.default_rng(0))


def test_partition_builds_no_generator(monkeypatch):
    rng = np.random.default_rng(32)
    params = random_params(rng, dropout=0.3)
    samples = mixed_block_samples(rng, 10)
    shared = np.random.default_rng(9)
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return default_rng(*args, **kwargs)

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", counted)
    monkeypatch.setattr(np.random, "Generator", counted)
    report = partition(samples, params, 10, 0.5, shared)
    assert built == [] and len(report.sample_ids) == len(samples)


def test_mc_passes_require_at_least_two():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        mc_passes(random_params(rng), random_sample(rng), 1, rng)


def test_no_dropout_passes_identical():
    rng = np.random.default_rng(1)
    boxes, scores = make_passes(rng, dropout=0.0)
    assert variance(boxes) == 0.0
    assert variance(scores) == 0.0


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
    assert variance(boxes) > 0.0
    assert variance(scores) > 0.0


def test_box_variance_two_pass_hand_value():
    d = np.array([0.4, -0.2, 0.6, 0.8])
    base = np.array([0.0, 0.0, 4.0, 4.0])
    boxes = np.array([[base], [base + d]])  # (M=2, P=1, 4)
    assert variance(boxes) == pytest.approx(float(d @ d) / 4, abs=1e-12)


def test_box_variance_scales_quadratically():
    def boxes(scale):
        return np.array([[[0, 0, 2 * scale, 2 * scale]],
                         [[scale, scale, 3 * scale, 3 * scale]]], dtype=float)
    v1 = variance(boxes(1.0))
    v3 = variance(boxes(3.0))
    assert v3 == pytest.approx(9 * v1)


def test_cls_variance_two_pass_hand_value_and_symmetry():
    p = np.array([0.7, 0.2, 0.1])
    q = np.array([0.1, 0.6, 0.3])
    scores = np.array([[p], [q]])  # (M=2, P=1, C+1)
    expected = float(np.sum((p - q) ** 2)) / 4
    assert variance(scores) == pytest.approx(expected, abs=1e-12)
    assert variance(scores[::-1]) == pytest.approx(expected, abs=1e-12)


def test_split_by_variance_examples(monkeypatch):
    rows = ranked(monkeypatch, [(0, 0.1), (1, 0.2), (2, 0.3), (3, 0.4)], 0.5)
    subsets = {sid: subset for sid, _, _, subset in rows}
    assert sum(1 for s in subsets.values() if s == SIMILAR) == 3
    assert subsets[0] == DISSIMILAR

    rows = ranked(monkeypatch, [(0, 0.1), (1, 0.2), (2, 0.3), (3, 0.4)], 0.99)
    similar = [sid for sid, _, _, s in rows if s == SIMILAR]
    assert similar == [3]  # only the max-variance sample


def test_tied_variances_rank_by_id(monkeypatch):
    rows = ranked(monkeypatch, [(5, 1.0), (2, 1.0), (9, 1.0), (0, 1.0)], 0.5)
    assert [sid for sid, _, _, _ in rows] == [0, 2, 5, 9]
    assert sum(1 for _, _, _, s in rows if s == SIMILAR) == 3


def test_partition_counts_and_scale_invariance(monkeypatch):
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        sigma = float(rng.uniform(0.05, 0.95))
        variances = [(i, float(v)) for i, v in enumerate(rng.random(n))]
        rows = ranked(monkeypatch, variances, sigma)
        assert [r[1] for r in rows] == list(range(1, n + 1))
        assert [r[0] for r in rows] == sorted(range(n), key=lambda i: variances[i][1])
        similar = {sid for sid, _, _, s in rows if s == SIMILAR}
        expected = {sid for sid, rank, level, _ in rows if level >= sigma}
        assert similar == expected
        assert len(similar) == sum(1 for r in range(1, n + 1) if r / n >= sigma)
        scaled = [(i, 17.3 * v) for i, v in variances]
        assert ranked(monkeypatch, scaled, sigma) == rows


def test_partition_end_to_end_is_deterministic():
    rng = np.random.default_rng(5)
    params = random_params(rng, dropout=0.3)
    samples = [random_sample(np.random.default_rng(100 + i)) for i in range(8)]
    for i, s in enumerate(samples):
        s.id = i
    a = partition(samples, params, 4, 0.5, np.random.default_rng(0))
    b = partition(samples, params, 4, 0.5, np.random.default_rng(0))
    assert a.to_csv_text() == b.to_csv_text()
    assert sorted(a.sample_ids.tolist()) == list(range(8))
    with pytest.raises(ValueError):
        partition(samples, params, 4, 1.5, np.random.default_rng(0))


def test_partition_rejects_repeated_sample_ids():
    # 50 samples reusing 10 ids would give 10 rows, not 50
    rng = np.random.default_rng(12)
    samples = mixed_samples(rng, [3] * 50)
    for i, sample in enumerate(samples):
        sample.id = i % 10
    # the rule `adapt` applies too (`util.sorted_by_id`)
    with pytest.raises(ValueError, match="^40 samples repeat an id$"):
        partition(samples, random_params(rng, dropout=0.3), 4, 0.5, np.random.default_rng(0))


def test_higher_dropout_gives_larger_variance():
    rng = np.random.default_rng(6)
    low, high = [], []
    for i in range(100):
        sample = random_sample(np.random.default_rng(500 + i))
        p_low = random_params(np.random.default_rng(i), dropout=0.1)
        p_high = random_params(np.random.default_rng(i), dropout=0.5)
        boxes_low, scores_low = mc_passes(p_low, sample, 6, np.random.default_rng(i))
        boxes_high, scores_high = mc_passes(p_high, sample, 6, np.random.default_rng(i))
        low.append(variance(boxes_low) * variance(scores_low))
        high.append(variance(boxes_high) * variance(scores_high))
    assert np.median(high) > np.median(low)


def test_report_csv_layout():
    report = VarianceReport(np.array([1, 0]), np.array([1.0, 0.5]), np.array([2.0, 0.25]), 0.5)
    assert report.to_csv_text().splitlines() == [
        "sample_id,v_b,v_c,v,rank,level,subset",
        "1,1.0,2.0,2.0,1,0.5,similar",
        "0,0.5,0.25,0.125,2,1.0,similar"]
    report.sigma = 0.75
    assert [line.rsplit(",", 1)[1] for line in report.to_csv_text().splitlines()[1:]] == \
        [DISSIMILAR, SIMILAR]
