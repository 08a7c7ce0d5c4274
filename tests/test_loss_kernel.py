"""The packed supervised-loss kernel against the per-label loop oracles, bit for bit."""

import dataclasses

import numpy as np
import pytest

from bruteforce import (bbox_pairs, oracle_batch_pretrain, oracle_detection_loss,
                        oracle_expert_loss, oracle_giou, oracle_giou_and_grad, oracle_pretrain,
                        oracle_segment_means, zero_grads)
from detadapt.detector import (Labels, LossLayout, Scored, detection_loss, giou_and_grad,
                               giou_target, loss_layout, pack, supervised_losses, targets)
from detadapt.expert import expert_loss
from detadapt import trainer
from detadapt.trainer import ablation_variants, adapt, pretrain_source
from test_detector import (mixed_samples, no_labels, random_labels, random_params,
                           random_sample)
from detadapt.util import derive_seed
from detadapt.world import generate_domain
from test_trainer import tiny_config

GRADIENTS = ("w_cls", "b_cls", "w_reg", "b_reg")


def kernel(scored, term, expert=None):
    """`supervised_losses` on the `loss_layout` of one term on a scored block."""
    return supervised_losses(scored, loss_layout(scored.offsets, term, expert,
                                                 scored.num_classes))


def assert_same(got, want):
    (loss, grads), (want_loss, want_grads) = got, want
    assert loss == want_loss and grads.loss == want_grads.loss
    for name in GRADIENTS:
        assert np.array_equal(getattr(grads, name), getattr(want_grads, name)), name


def check_sample(params, sample, labels, weights=None, background="auto"):
    pairs = bbox_pairs(labels)
    assert_same(detection_loss(params, sample, labels, weights, background=background),
                oracle_detection_loss(params, sample, pairs, weights, background=background))
    assert_same(expert_loss(params, sample, labels, 1.3, 0.7, weights),
                oracle_expert_loss(params, sample, pairs, 1.3, 0.7, weights))


@pytest.mark.parametrize("soft", [False, True])
def test_losses_match_loop_oracles(soft):
    rng = np.random.default_rng(30)
    for trial in range(300):
        params = random_params(rng)
        sample = random_sample(rng, num_proposals=int(rng.integers(2, 9)))
        labels = random_labels(rng, count=int(rng.integers(1, 5)), soft=soft)
        weights = rng.uniform(0.2, 2.0, len(labels)) if trial % 2 else None
        check_sample(params, sample, labels, weights, background=[None, "auto"][trial % 2])


def test_two_mixed_labels_on_one_proposal():
    # mixup leaves two nonzero classes in a label; both labels sit on proposal 2
    rng = np.random.default_rng(31)
    for _ in range(300):
        params = random_params(rng)
        sample = random_sample(rng)
        box = sample.proposal_boxes[2]
        mix = rng.uniform(0.5, 0.95)
        pair = rng.choice(3, 2, replace=False)
        vec = mix * np.eye(3)[int(pair[0])] + (1 - mix) * np.eye(3)[int(pair[1])]
        labels = Labels([box, box], [vec, np.eye(3)[int(rng.integers(3))]])
        check_sample(params, sample, labels, rng.uniform(0.2, 2.0, 2))


def test_background_list_with_matched_and_repeated_indices():
    rng = np.random.default_rng(32)
    for _ in range(100):
        params = random_params(rng)
        sample = random_sample(rng, num_proposals=6)
        labels = Labels(sample.proposal_boxes[1:2], [rng.dirichlet(np.ones(3))])
        background = [4, 1, 4, 0, 1, 5, 4]
        kept = targets(*pack([sample])[1:], labels, background=background).background
        assert kept.tolist() == [4, 4, 0, 5, 4]
        check_sample(params, sample, labels, background=background)


@pytest.mark.parametrize("matches,background,lead,trail", [
    (None, [6], 1, 0), (None, [-1], 0, 1), ([6], None, 1, 1), ([-1], "auto", 1, 1)],
    ids=["background_P", "background_negative", "match_P", "match_negative"])
def test_targets_reject_indices_outside_the_sample(matches, background, lead, trail):
    # alone, and in a block with `lead` samples before it and `trail` after,
    # where its indices are block rows, shifted by the rows before it: a match
    # reaching a neighbour's rows would supervise that sample's proposal, and
    # a background row, owned by the sample whose rows it indexes, would leave
    # the block (or wrap around it, if negative)
    rng = np.random.default_rng(36)
    sample = random_sample(rng, num_proposals=6)
    for before, after in ((0, 0), (lead, trail)):
        others = [random_sample(rng, num_proposals=3) for _ in range(before + after)]
        block = others[:before] + [sample] + others[before:]
        labels = Labels(sample.proposal_boxes[1:2], [np.eye(3)[0]],
                        [0] * (before + 1) + [1] * (after + 1))
        shift = lambda index: index if index in (None, "auto") else [3 * before + index[0]]
        with pytest.raises(ValueError):
            targets(*pack(block)[1:], labels, background=shift(background),
                    matches=shift(matches))


@pytest.mark.parametrize("background", [None, "auto"])
def test_no_labels(background):
    rng = np.random.default_rng(33)
    for _ in range(20):
        params = random_params(rng)
        sample = random_sample(rng)
        check_sample(params, sample, no_labels(), background=background)


def test_one_proposal_samples():
    rng = np.random.default_rng(34)
    for trial in range(100):
        params = random_params(rng)
        sample = random_sample(rng, num_proposals=1)
        labels = random_labels(rng, count=int(rng.integers(0, 3)), soft=bool(trial % 2))
        check_sample(params, sample, labels, rng.uniform(0.2, 2.0, len(labels)),
                     background=["auto", None, [0, 0]][trial % 3])


def assert_block_sum(grads, per_sample):
    """The block's gradients against the in-order sum of per-sample ones: one
    BLAS product over the block adds the samples in another order, so entries
    differ by rounding, within 1e-14 of the array's largest entry (under 1e-15
    measured); an entry whose terms cancel may differ more relative to itself."""
    total = zero_grads(grads)
    for _, sample_grads in per_sample:
        total = total + sample_grads
    for name in GRADIENTS:
        want = getattr(total, name)
        np.testing.assert_allclose(getattr(grads, name), want, rtol=0,
                                   atol=1e-14 * np.abs(want).max(), err_msg=name)
    assert grads.loss == pytest.approx(total.loss, rel=1e-12)


def test_packed_block_matches_per_sample_oracles():
    rng = np.random.default_rng(35)
    params = random_params(rng)
    sizes = [1, 2, 7, 13, 1, 1, 13, 2, 7, 1, 5]
    for _ in range(10):
        samples = mixed_samples(rng, sizes)
        labels = [random_labels(rng, count=int(rng.integers(0, 4)), soft=True) for _ in sizes]
        weights = [rng.uniform(0.2, 2.0, len(lab)) for lab in labels]
        background = [["auto", None, "repeat"][i % 3] for i in range(len(sizes))]
        scored = Scored(params, *pack(samples))
        # each sample's background choice as rows of the block
        rows = np.concatenate([{"auto": np.arange(a, b), None: [], "repeat": [a, a]}[bg]
                               for a, b, bg in zip(scored.offsets, scored.offsets[1:],
                                                   background)]).astype(int)
        block = pack(samples)[1:]
        packed, packed_weights = Labels.pack(labels, 3), np.concatenate(weights)
        got = kernel(scored, targets(*block, packed, packed_weights, rows))
        got_expert = kernel(scored, targets(*block, packed, packed_weights, None), (1.3, 0.7))
        want = [oracle_detection_loss(params, sample, bbox_pairs(labels[i]), weights[i],
                                      background={"repeat": [0, 0]}.get(background[i],
                                                                        background[i]))
                for i, sample in enumerate(samples)]
        want_expert = [oracle_expert_loss(params, sample, bbox_pairs(labels[i]), 1.3, 0.7,
                                          weights[i])
                       for i, sample in enumerate(samples)]
        for (losses, grads), oracles in ((got, want), (got_expert, want_expert)):
            # each sample's loss bit for bit; the gradients summed over the block
            assert losses.tolist() == [loss for loss, _ in oracles]
            assert_block_sum(grads, oracles)


def test_segment_means_are_each_segments_running_sum():
    # a loop adds a sample's terms in order, as its own `np.cumsum` does; the
    # kernel's per-sample means must give those bits (`oracle_segment_means`)
    # for every sample, those without labels 0.0, at 8 terms and more too,
    # where `np.sum` would add pairwise. Expert weights (1, -0.0) make each
    # sample's loss its CE mean bit for bit, the sign of a zero included
    rng = np.random.default_rng(37)
    params = random_params(rng)
    for _ in range(300):
        counts = rng.integers(0, 31, int(rng.integers(1, 7)))
        counts[rng.random(len(counts)) < 0.3] = 0
        samples = mixed_samples(rng, rng.integers(1, 6, len(counts)))
        _, boxes, offsets = pack(samples)
        labels = Labels.pack((random_labels(rng, count=int(k), soft=True) for k in counts), 3)
        matches = np.concatenate([a + rng.integers(0, b - a, k) for a, b, k
                                  in zip(offsets, offsets[1:], counts)]).astype(int)
        weights = rng.uniform(0.2, 2.0, len(labels)) * 10.0 ** rng.integers(-3, 4, len(labels))
        scored = Scored(params, *pack(samples))
        losses, _ = kernel(scored, targets(boxes, offsets, labels, weights, None, matches),
                           (1.0, -0.0))
        # each label's CE term, as the loop oracles take it
        terms = np.array([-w * (np.append(vec, 0.0) @ scored.log_scores[m])
                          for w, vec, m in zip(weights, labels.classes, matches)])
        want = [float(np.cumsum(terms[a:b])[-1]) / (b - a) if b > a else 0.0
                for a, b in zip(labels.offsets, labels.offsets[1:])]
        assert oracle_segment_means(terms, labels.offsets).tolist() == want
        assert losses.tolist() == want
    # the one departure: a running sum of -0.0 terms alone is -0.0, the
    # kernel's mean +0.0, as the oracle's; weights -0.0 make each CE term -0.0
    assert np.signbit(oracle_segment_means(np.array([-0.0, -0.0]), np.array([0, 2]))).tolist() \
        == [False]
    sample = random_sample(rng)
    losses, _ = kernel(Scored(params, *pack([sample])), targets(
        *pack([sample])[1:], random_labels(rng), [-0.0, -0.0], None), (1.0, -0.0))
    assert losses.tolist() == [0.0] and np.signbit(losses).tolist() == [False]


def test_giou_matches_scalar_oracle_on_inverted_and_degenerate_boxes():
    rng = np.random.default_rng(36)
    n = 20000
    target = rng.uniform(0, 10, (n, 4))
    target[:, 2:] = target[:, :2] + rng.uniform(0.5, 3, (n, 2))
    pred = target + rng.normal(0, 1.5, (n, 4))
    pred[::7, [0, 2]] = pred[::7, [2, 0]]             # inverted in x
    pred[1::7, 3] = pred[1::7, 1]                     # zero height
    pred[2::7] = pred[2::7, [0, 1, 0, 1]]             # a point
    pred[3::7] = target[3::7]                         # exact hit
    pred[4::7, :2] = target[4::7, :2]                 # shared corner
    value, grad = giou_and_grad(pred, *giou_target(target))
    for i in range(n):
        want_value, want_grad = oracle_giou(pred[i], target[i])
        assert value[i] == want_value
        assert np.array_equal(grad[i], want_grad)


def test_pretrain_matches_per_sample_loop_oracle():
    # one sample per batch is one product, the oracle's own, so the parameters
    # are its bits; a batch of 16, the default, sums its gradients in one BLAS
    # product, whose order moves the last bits only (a relative 1.1e-14 at
    # most measured)
    for batch_size in (1, 16):
        params, _ = pretrain_source(tiny_config(batch_size=batch_size))
        want = oracle_pretrain(tiny_config(batch_size=batch_size))
        for name in GRADIENTS:
            if batch_size == 1:
                assert np.array_equal(getattr(params, name), getattr(want, name)), name
            else:
                np.testing.assert_allclose(getattr(params, name), getattr(want, name),
                                           rtol=1e-9, atol=1e-12, err_msg=name)


def one_proposal_world(config):
    """`config` with one object, and so one proposal, per source sample."""
    config.source = dataclasses.replace(config.source, max_objects=1, background_rate=0.0)
    return config


@pytest.mark.parametrize("config", [
    tiny_config(batch_size=1), tiny_config(batch_size=7), tiny_config(batch_size=16),
    tiny_config(batch_size=60), tiny_config(batch_size=61), tiny_config(pretrain_epochs=0),
    one_proposal_world(tiny_config(batch_size=7)),
    dataclasses.replace(tiny_config(), source=dataclasses.replace(tiny_config().source, size=0))],
    ids=["batch1", "batch7", "batch16", "batch_set", "batch_beyond_set", "epochs0",
         "one_proposal", "empty_set"])
def test_pretrain_equals_the_per_batch_loop_bit_for_bit(config):
    # each batch cut from its epoch's layout and rows gives the bits of the
    # batch packed, laid out and scored on its own: 7 leaves a short last
    # batch, a batch of the set or more is the whole epoch, one-proposal
    # samples take `_heads`' one-row products, and an empty set trains nothing
    params, _ = pretrain_source(config)
    want = oracle_batch_pretrain(config)
    for name in GRADIENTS:
        assert np.array_equal(getattr(params, name), getattr(want, name)), name
    if config.source.size == 0 or config.pretrain_epochs == 0:
        init = oracle_batch_pretrain(dataclasses.replace(config, pretrain_epochs=0))
        assert all(np.array_equal(getattr(params, name), getattr(init, name))
                   for name in GRADIENTS)


def test_a_block_of_no_label_sets_keeps_its_class_width_and_gives_zero_losses():
    # an empty pack: a block of no samples, whose (0, C) classes lay out and
    # score like any block's, to no losses and zero gradients for either term
    params = random_params(np.random.default_rng(46))
    labels = Labels.pack([], params.num_classes)
    assert labels.classes.shape == (0, params.num_classes) and labels.offsets.tolist() == [0]
    boxes, offsets = np.zeros((0, 4)), np.zeros(1, dtype=int)
    scored = Scored(params, np.zeros((0, params.feature_dim)), boxes, offsets)
    terms = [(targets(boxes, offsets, labels), None),
             (targets(boxes, offsets, labels, background=None), (1.3, 0.7))]
    for term, expert in terms:
        losses, grads = kernel(scored, term, expert)
        assert losses.shape == (0,) and grads.loss == 0.0
        for name in GRADIENTS:
            assert getattr(grads, name).shape == getattr(params, name).shape
            assert not getattr(grads, name).any(), name


@pytest.mark.parametrize("expert", [None, (1.3, 0.7)], ids=["detection", "expert"])
def test_a_cut_layout_is_the_layout_of_its_samples_alone(expert):
    # field by field, each array field by name a C-contiguous slice, and the
    # kernel's losses and gradients on the cut and its rows are those on the
    # samples alone
    rng = np.random.default_rng(40)
    params = random_params(rng)
    arrays = [name for name in LossLayout._fields if name != "expert"]
    for trial in range(40):
        samples = mixed_samples(rng, rng.choice([1, 1, 2, 5, 9], int(rng.integers(1, 12))))
        features, boxes, offsets = pack(samples)
        stu, exp = random_block_terms(rng, params, samples)
        part = exp if expert else stu
        a, b = sorted(rng.choice(len(samples) + 1, 2, replace=False).tolist())
        cut = loss_layout(offsets, part, expert, params.num_classes).cut(a, b)
        alone = loss_layout(offsets[a:b + 1] - offsets[a], part.take(range(a, b)), expert,
                            params.num_classes)
        for name in arrays:
            got = getattr(cut, name)
            assert got.flags.c_contiguous and np.array_equal(got, getattr(alone, name)), name
        assert cut.expert == alone.expert == expert
        rows = slice(offsets[a], offsets[b])
        got = supervised_losses(Scored(params, features[rows], boxes[rows], cut.offsets), cut)
        want = supervised_losses(Scored(params, *pack(samples[a:b])), alone)
        assert np.array_equal(got[0], want[0])
        assert_same((got[1].loss, got[1]), (want[1].loss, want[1]))


def test_an_expert_layouts_ce_rows_are_its_labels_so_their_weights_can_be_replaced():
    # adaptation weighs a batch's expert labels (SAL) and writes the weights
    # over the `ce_weight` of its cut of the epoch's expert layout: exact,
    # since an expert term's CE rows are its labels, in label order
    rng = np.random.default_rng(43)
    params = random_params(rng)
    for trial in range(40):
        samples = mixed_samples(rng, rng.choice([1, 1, 2, 5, 9], int(rng.integers(1, 12))))
        features, boxes, offsets = pack(samples)
        _, exp = random_block_terms(rng, params, samples)
        layout = loss_layout(offsets, exp, (1.3, 0.7), params.num_classes)
        for ce, label in (("ce_rows", "label_rows"), ("ce_segment", "label_segment"),
                          ("ce_offsets", "label_offsets")):
            assert np.array_equal(getattr(layout, ce), getattr(layout, label)), ce
        assert np.array_equal(layout.ce_weight, exp.weights)
        assert np.array_equal(layout.ce_target[:, :params.num_classes], exp.classes)
        a, b = sorted(rng.choice(len(samples) + 1, 2, replace=False).tolist())
        part = exp.take(range(a, b))
        weights = rng.uniform(0.2, 2.0, len(part.weights))
        cut = layout.cut(a, b)._replace(ce_weight=weights)
        alone = loss_layout(offsets[a:b + 1] - offsets[a], part._replace(weights=weights),
                            (1.3, 0.7), params.num_classes)
        rows = slice(offsets[a], offsets[b])
        got = supervised_losses(Scored(params, features[rows], boxes[rows], cut.offsets), cut)
        want = supervised_losses(Scored(params, *pack(samples[a:b])), alone)
        assert np.array_equal(got[0], want[0])
        assert_same((got[1].loss, got[1]), (want[1].loss, want[1]))


def test_an_expert_term_with_background_rows_is_rejected():
    # the expert says nothing about background; such a term's gradient would
    # not be its loss's
    rng = np.random.default_rng(41)
    sample = random_sample(rng)
    scored = Scored(random_params(rng), *pack([sample]))
    labels = random_labels(rng)
    for background in ("auto", [3]):
        term = targets(sample.proposal_boxes, scored.offsets, labels, background=background,
                       matches=[0, 1])
        with pytest.raises(ValueError, match="expert term takes no background"):
            loss_layout(scored.offsets, term, (1.0, 1.0), scored.num_classes)
        loss_layout(scored.offsets, term, None, scored.num_classes)
    alone = targets(sample.proposal_boxes, scored.offsets, labels, background=None)
    loss_layout(scored.offsets, alone, (1.0, 1.0), scored.num_classes)


def test_layouts_of_another_block_are_rejected():
    rng = np.random.default_rng(42)
    params = random_params(rng)
    samples = mixed_samples(rng, [3, 2, 4])
    offsets = pack(samples)[2]
    stu, exp = random_block_terms(rng, params, samples)
    pair = pack(samples[:2])
    # targets of three samples on a block of two
    with pytest.raises(ValueError, match="targets of another sample count than the block's 2"):
        loss_layout(pair[2], stu, None, params.num_classes)
    # a layout of three samples on a pass of two, and one of another row count
    wider = mixed_samples(rng, [3, 2, 5])
    for term, expert in ((stu, None), (exp, (1.3, 0.7))):
        layout = loss_layout(offsets, term, expert, params.num_classes)
        for scored in (Scored(params, *pair), Scored(params, *pack(wider))):
            with pytest.raises(ValueError, match="a layout of another block"):
                supervised_losses(scored, layout)
        kernel(Scored(params, *pack(samples)), term, expert)


def giou_edge_cases(rng, n):
    """Boxes with NaN of either sign, signed zeros, zero widths, inverted
    sides, shared and touching corners, exact hits and tied coordinates."""
    target = rng.uniform(0, 10, (n, 4))
    target[:, 2:] = target[:, :2] + rng.uniform(0.5, 3, (n, 2))
    pred = target + rng.normal(0, 1.5, (n, 4))
    kind = rng.integers(0, 11, n)
    for k, cols in ((0, [2, 1, 0, 3]), (1, [0, 1, 2, 1]), (2, [0, 1, 0, 1])):
        pred[kind == k] = pred[kind == k][:, cols]          # inverted, zero height, a point
    pred[kind == 3] = target[kind == 3]                       # exact hit
    pred[kind == 4, :2] = target[kind == 4, :2]               # shared lo corner
    pred[kind == 5, 2:] = target[kind == 5, 2:]               # shared hi corner
    pred[kind == 6, :2] = target[kind == 6, 2:]               # touching corners
    for k, nan in ((7, np.nan), (8, -np.nan)):
        rows = np.flatnonzero(kind == k)
        pred[rows, rng.integers(0, 4, len(rows))] = nan
    zeros = kind == 9
    pred[zeros] = rng.choice([0.0, -0.0], (zeros.sum(), 4))
    target[zeros] = rng.choice([0.0, -0.0, 1.0], (zeros.sum(), 4))
    ties = kind == 10
    pred[ties], target[ties] = np.round(pred[ties]), np.round(target[ties])
    return pred, target


def test_giou_keeps_the_array_oracles_bits_on_edge_cases():
    rng = np.random.default_rng(38)
    with np.errstate(all="ignore"):
        for _ in range(300):
            pred, target = giou_edge_cases(rng, int(rng.integers(1, 40)))
            for got, want in zip(giou_and_grad(pred, *giou_target(target)),
                                 oracle_giou_and_grad(pred, target)):
                # sign bits of zeros and NaNs included
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def random_block_terms(rng, params, samples):
    """A block's student and expert `Targets`: some samples without labels,
    without expert labels or without background, repeated matches and the
    samples' own proposal counts, one-proposal samples included."""
    _, boxes, offsets = pack(samples)
    counts = [int(rng.integers(0, 4)) for _ in samples]
    expert_counts = [int(rng.integers(0, 3)) for _ in samples]
    parts = []
    for label_counts, background in ((counts, "mixed"), (expert_counts, None)):
        labels = Labels.pack((random_labels(rng, count=k, soft=True) for k in label_counts), 3)
        # repeated matches: each label on a random proposal of its sample
        matches = np.concatenate([a + rng.integers(0, b - a, k) for a, b, k
                                  in zip(offsets, offsets[1:], label_counts)]).astype(int)
        if background == "mixed":
            background = np.concatenate([[np.arange(a, b), [], [a, a]][i % 3] for i, (a, b)
                                         in enumerate(zip(offsets, offsets[1:]))]).astype(int)
        parts.append(targets(boxes, offsets, labels, rng.uniform(0.2, 2.0, len(labels)),
                             background, matches))
    return parts


@pytest.mark.parametrize("variant", ["full", "sal", "base"])
def test_adapt_runs_one_kernel_call_per_term_and_lays_the_expert_out_once_per_epoch(
        variant, monkeypatch):
    # per batch one kernel call per term, the student's and, with the expert
    # on, the expert's, and under SAL one weights call for both terms' labels;
    # the student's layout is laid out per batch, the expert's once per epoch
    config = ablation_variants(tiny_config(epochs=2))[variant]
    params, _ = pretrain_source(config)
    target = generate_domain(config.target, derive_seed(config.seed, "world", "target"))
    calls = dict.fromkeys(("supervised_losses", "relation_weights", "loss_layout"), 0)
    for name in calls:
        def counted(*args, real=getattr(trainer, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(trainer, name, counted)
    adapt(params, target, config)
    batches = config.epochs * -(-len(target) // config.batch_size)
    expert = int(config.enable_expert)
    assert calls == {"supervised_losses": batches * (1 + expert),
                     "relation_weights": batches * config.enable_sal,
                     "loss_layout": batches + config.epochs * expert}
