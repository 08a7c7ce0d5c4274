import csv
import dataclasses
import importlib
import io
import json
import os
import pickle
import pkgutil

import numpy as np
import pytest

import detadapt
from bruteforce import oracle_adapt
from detadapt import cli, detector, trainer
from detadapt.config import AdaptationConfig, default_config
from detadapt.detector import ModelParams, save_params
from detadapt.metrics import evaluate
from detadapt.partition import DISSIMILAR, SIMILAR
from detadapt.trainer import (AdaptFixed, AdaptState, DiscriminatorParams, SealedDataset,
                              SourceAccessError, ablation_variants, adapt, adapt_epoch,
                              discriminator_loss, pretrain_source)
from detadapt.util import derive_seed, rng_stream, to_json
from detadapt.world import DetectionSample, generate_domain, make_domain_spec


def tiny_config(seed=0, **overrides):
    config = default_config(seed=seed)
    config.source = dataclasses.replace(config.source, size=60)
    config.target = dataclasses.replace(config.target, size=50)
    config.pretrain_epochs = overrides.pop("pretrain_epochs", 6)
    config.epochs = overrides.pop("epochs", 3)
    config.eval_size = overrides.pop("eval_size", 60)
    config.mc_passes = overrides.pop("mc_passes", 3)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def busy_config(**overrides):
    """A `tiny_config` in which every class gets pseudo-labels within three
    epochs, so the relation matrix becomes ready and augmentation mixes labels.
    In `tiny_config` itself only class 0 ever reaches the threshold, so
    augmentation never runs."""
    config = tiny_config(pretrain_epochs=25, conf_threshold=0.5, **overrides)
    config.source = dataclasses.replace(config.source, size=200)
    config.target = dataclasses.replace(config.target, size=100)
    return config


def test_discriminator_chance_loss_at_zero_params():
    rng = np.random.default_rng(0)
    disc = DiscriminatorParams.zeros(4)
    feats = rng.standard_normal((20, 4))
    tags = [SIMILAR] * 10 + [DISSIMILAR] * 10
    loss, _, _ = discriminator_loss(disc, feats, tags)
    assert loss == pytest.approx(np.log(2))


def test_discriminator_skips_single_subset_batches():
    disc = DiscriminatorParams(np.ones(3), 0.5)
    feats = np.ones((5, 3))
    loss, (gw, gb), rev = discriminator_loss(disc, feats, [SIMILAR] * 5)
    assert loss == 0.0
    assert np.all(gw == 0.0) and gb == 0.0 and np.all(rev == 0.0)


def test_discriminator_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    disc = DiscriminatorParams(rng.standard_normal(4), 0.3)
    feats = rng.standard_normal((12, 4))
    tags = [SIMILAR if i % 2 else DISSIMILAR for i in range(12)]
    loss, (gw, gb), rev = discriminator_loss(disc, feats, tags)
    h = 1e-6
    for i in range(4):
        disc.w[i] += h
        up, _, _ = discriminator_loss(disc, feats, tags)
        disc.w[i] -= 2 * h
        down, _, _ = discriminator_loss(disc, feats, tags)
        disc.w[i] += h
        assert gw[i] == pytest.approx((up - down) / (2 * h), abs=1e-6)
    # reversed feature gradients are the negated input-side derivatives
    for (r, c) in [(0, 0), (3, 2), (11, 3)]:
        feats[r, c] += h
        up, _, _ = discriminator_loss(disc, feats, tags)
        feats[r, c] -= 2 * h
        down, _, _ = discriminator_loss(disc, feats, tags)
        feats[r, c] += h
        assert rev[r, c] == pytest.approx(-(up - down) / (2 * h), abs=1e-6)


def test_adversarial_reversal_collapses_probe_accuracy():
    # a toy trainable feature map T over separable inputs: the probe trains to
    # separate, T trains on reversed gradients; a freshly fitted probe on the
    # final features should be near chance. The reversed gradients are those
    # of the batch-mean loss, so T's gradient is reversed.T @ x with no further
    # averaging. Probe and map play a bilinear min-max game, on which plain
    # simultaneous steps cycle around the saddle; extragradient (Korpelevich
    # 1976) converges: each iteration steps both players from the gradients
    # taken at a half step.
    rng = np.random.default_rng(2)
    n = 120
    x = np.concatenate([rng.normal(-2.0, 0.5, (n // 2, 2)),
                        rng.normal(2.0, 0.5, (n // 2, 2))])
    tags = [DISSIMILAR] * (n // 2) + [SIMILAR] * (n // 2)

    def probe_accuracy(feats):
        probe = DiscriminatorParams.zeros(2)
        for _ in range(300):
            _, (gw, gb), _ = discriminator_loss(probe, feats, tags)
            probe = DiscriminatorParams(probe.w - 0.5 * gw, probe.b - 0.5 * gb)
        pred = feats @ probe.w + probe.b > 0
        truth = np.array([t == SIMILAR for t in tags])
        return float(np.mean(pred == truth))

    transform = np.eye(2)
    assert probe_accuracy(x @ transform.T) >= 0.95
    disc = DiscriminatorParams.zeros(2)
    for _ in range(400):
        _, (gw, gb), reversed_grads = discriminator_loss(disc, x @ transform.T, tags)
        half_disc = DiscriminatorParams(disc.w - 0.5 * gw, disc.b - 0.5 * gb)
        half_transform = transform - 0.5 * reversed_grads.T @ x
        _, (gw, gb), reversed_grads = discriminator_loss(
            half_disc, x @ half_transform.T, tags)
        disc = DiscriminatorParams(disc.w - 0.5 * gw, disc.b - 0.5 * gb)
        transform = transform - 0.5 * reversed_grads.T @ x
    # NaN features and an all-zero map would also leave the probe at chance
    assert np.all(np.isfinite(transform))
    # the map keeps the direction that does not separate the subsets
    assert np.linalg.svd(transform, compute_uv=False)[0] >= 0.5
    assert probe_accuracy(x @ transform.T) <= 0.75


def test_sealed_dataset_blocks_every_access():
    samples = generate_domain(make_domain_spec(
        num_classes=2, feature_dim=4, size=5, frequency=(0.5, 0.5)), 0)
    handle = SealedDataset(samples)
    assert len(handle) == 5
    handle.seal()
    with pytest.raises(SourceAccessError):
        len(handle)
    with pytest.raises(SourceAccessError):
        handle[0]
    with pytest.raises(SourceAccessError):
        list(handle)


def test_pretrain_returns_sealed_source():
    config = tiny_config(pretrain_epochs=1)
    _, sealed = pretrain_source(config)
    assert sealed.sealed
    with pytest.raises(SourceAccessError):
        sealed[0]


def test_zero_pretrain_epochs_returns_initial_params():
    config = tiny_config(pretrain_epochs=0)
    params, _ = pretrain_source(config)
    expected = ModelParams.init(config.num_classes, config.source.feature_dim,
                                rng_stream(config.seed, "init"),
                                dropout_rate=config.dropout_rate)
    assert np.array_equal(params.w_cls, expected.w_cls)


def test_pretraining_beats_random_init_on_source():
    config = tiny_config(pretrain_epochs=8)
    trained, _ = pretrain_source(config)
    random_params, _ = pretrain_source(dataclasses.replace(config, pretrain_epochs=0))
    eval_spec = dataclasses.replace(config.source, size=80)
    eval_data = generate_domain(eval_spec, 123)
    trained_map = evaluate(trained, eval_data, num_classes=config.num_classes).map50
    random_map = evaluate(random_params, eval_data, num_classes=config.num_classes).map50
    assert trained_map > random_map


def test_adapt_zero_epochs_returns_source_copy():
    config = tiny_config(epochs=0)
    params, _ = pretrain_source(config)
    target = generate_domain(config.target, derive_seed(config.seed, "world", "target"))
    teacher, history = adapt(params, target, config)
    assert np.array_equal(teacher.w_cls, params.w_cls)
    assert history.records == []


def test_all_loss_switches_off_leave_params_unchanged():
    config = tiny_config(epochs=2, unsup_weight=0.0, enable_sa=False,
                         enable_sal=False, enable_expert=False)
    params, _ = pretrain_source(config)
    target = generate_domain(config.target, derive_seed(config.seed, "world", "target"))
    teacher, history = adapt(params, target, config)
    assert np.array_equal(teacher.w_cls, params.w_cls)
    assert np.array_equal(teacher.w_reg, params.w_reg)
    assert len(history.records) == 2


def test_identical_config_reproduces_history_bitwise(busy_run):
    # the tiny config never augments (see `busy_config`); the busy full variant
    # does, so its augmentation draws are checked too
    config = tiny_config(epochs=2)
    params, _ = pretrain_source(config)
    target = generate_domain(config.target, derive_seed(config.seed, "world", "target"))
    busy, busy_params, busy_target = busy_run
    for config, params, target in ((config, params, target),
                                   (ablation_variants(busy)["full"], busy_params, busy_target)):
        _, first = adapt(params, target, config)
        _, second = adapt(params, target, config)
        assert first.to_csv_text() == second.to_csv_text()
        _, other = adapt(params, target, dataclasses.replace(config, seed=config.seed + 1))
        assert other.to_csv_text() != first.to_csv_text()


def test_frozen_teacher_under_unit_ema():
    config = tiny_config(epochs=2, teacher_ema=1.0)
    params, _ = pretrain_source(config)
    target = generate_domain(config.target, derive_seed(config.seed, "world", "target"))
    teacher, _ = adapt(params, target, config)
    assert np.array_equal(teacher.w_cls, params.w_cls)


def pass_samples(samples):
    """The ids of the samples of a pass's rows, cut by its offsets, each
    sample known by its proposal boxes."""
    by_boxes = {s.proposal_boxes.tobytes(): s.id for s in samples}
    return lambda boxes, offsets: [by_boxes[boxes[a:b].tobytes()]
                                   for a, b in zip(offsets[:-1], offsets[1:])]


@pytest.mark.parametrize("variant", ["full", "base"])
def test_adapt_runs_each_model_forward_once_per_sample_step(variant, monkeypatch):
    # each model scores a batch in one `Scored` block: the teacher the clean
    # samples, the student their views, so each sample twice per epoch and no
    # other pass, one-sample blocks included
    config = ablation_variants(tiny_config(epochs=2))[variant]
    params, _ = pretrain_source(config)
    target = generate_domain(config.target, derive_seed(config.seed, "world", "target"))
    real_init, samples_of = detector.Scored.__init__, pass_samples(target)
    scored_calls = []
    outside_loop = []

    # a pass is known by its rows' proposal boxes, which both passes of a batch share
    def counted_init(self, params, features, boxes, offsets, *args, **kwargs):
        if not outside_loop:
            scored_calls.append(samples_of(boxes, offsets))
        real_init(self, params, features, boxes, offsets, *args, **kwargs)

    def not_counted(fn):
        def wrapper(*args, **kwargs):
            outside_loop.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                outside_loop.pop()
        return wrapper

    monkeypatch.setattr(detector.Scored, "__init__", counted_init)
    monkeypatch.setattr(trainer, "evaluate", not_counted(trainer.evaluate))
    adapt(params, target, config)
    # per batch the teacher's pass, then the student's over the same samples
    teacher_calls, student_calls = scored_calls[0::2], scored_calls[1::2]
    assert teacher_calls == student_calls
    assert sorted(sum(teacher_calls, [])) == sorted([s.id for s in target] * config.epochs)


@pytest.mark.parametrize("variant", ["full", "base"])
def test_adapt_builds_no_sample_after_its_eval_set(variant, busy_run, monkeypatch):
    # a batch's features travel as one array from the teacher's pass through
    # augmentation and noise to the student's: no view is a new sample
    config, params, target = busy_run
    config = ablation_variants(config)[variant]
    built = []
    real_init, real_generate = DetectionSample.__init__, trainer.generate_domain

    def counted_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    def generate_then_count(*args, **kwargs):
        samples = real_generate(*args, **kwargs)
        monkeypatch.setattr(DetectionSample, "__init__", counted_init)
        return samples

    monkeypatch.setattr(trainer, "generate_domain", generate_then_count)
    _, history = adapt(params, target, config)
    assert DetectionSample.__init__ is counted_init and len(history.records) == config.epochs
    assert built == []


@pytest.fixture(scope="module")
def busy_run():
    config = busy_config()
    params, _ = pretrain_source(config)
    target = generate_domain(config.target, derive_seed(config.seed, "world", "target"))
    return config, params, target


def history_columns(history, names):
    """The named columns of a history's CSV text, row by row."""
    rows = list(csv.DictReader(io.StringIO(history.to_csv_text())))
    return [[row[name] for name in names] for row in rows]


@pytest.mark.parametrize("variant,background_bar,bank_capacity,noise_scale,mix_ratio", [
    ("base", 0.1, 64, 0.4, 0.7), ("sa", 0.1, 64, 0.4, 0.7), ("sal", 0.1, 64, 0.4, 0.7),
    ("full", 0.1, 64, 0.4, 0.7), ("full", 0.0, 64, 0.4, 0.7), ("sa", 0.1, 2, 0.4, 0.7),
    ("full", 0.1, 64, 0.0, 0.7), ("full", 0.1, 64, 0.4, 0.5)],
    ids=["base-0.1", "sa-0.1", "sal-0.1", "full-0.1", "full-0.0", "sa-0.1-capacity2",
         "full-0.1-noise0", "full-0.1-mix0.5"])
def test_adapt_matches_per_sample_object_loop_oracle(variant, background_bar, bank_capacity,
                                                     noise_scale, mix_ratio, busy_run):
    # one sample per batch is one gradient product, the oracle's own, so the
    # run is the oracle's bit for bit; a batch of 16, the default, sums its
    # gradients in one BLAS product, whose order moves the parameters' last
    # bits only (a relative 2.6e-13 at most measured) and the losses with
    # them, while every mAP and AP of the history stays exact. A two-row
    # bank evicts on almost every push. Without noise the student scores the
    # blended copy, or the teacher pass's own feature rows where nothing was
    # blended. At a mix ratio of .5 a blend's class vector ties its two
    # classes, yet its relation pair keeps the teacher's class
    config, params, target = busy_run
    config = dataclasses.replace(ablation_variants(config)[variant],
                                 background_bar=background_bar, bank_capacity=bank_capacity,
                                 noise_scale=noise_scale, mix_ratio=mix_ratio)
    for batch_size in (1, 16):
        run = dataclasses.replace(config, batch_size=batch_size)
        teacher, history = adapt(params, target, run)
        want_teacher, want_history = oracle_adapt(params, target, run)
        for name in ("w_cls", "b_cls", "w_reg", "b_reg"):
            got, want = getattr(teacher, name), getattr(want_teacher, name)
            if batch_size == 1:
                assert np.array_equal(got, want), name
            else:
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12, err_msg=name)
        if batch_size == 1:
            assert history.to_csv_text() == want_history.to_csv_text()
            continue
        scores = ["epoch", "student_map", "teacher_map"] + \
            [f"ap_class_{c}" for c in range(config.num_classes)]
        assert history_columns(history, scores) == history_columns(want_history, scores)
        losses = ["loss_stu", "loss_expert"]
        np.testing.assert_allclose(np.array(history_columns(history, losses), dtype=float),
                                   np.array(history_columns(want_history, losses), dtype=float),
                                   rtol=1e-9)


def shifted_label_world(config):
    """A one-sample target world and a model under which a pseudo-label's
    refined box lands on a neighbouring proposal.

    Row r's feature is 3 e_r; the model reads class r off it with a large
    margin, so rows 0-4 are confident pseudo-labels of classes 0-4, one
    each, and row 5 is confident background. `b_reg` moves every refined box
    6 right: row 0's lands exactly on row 1, and every other confident row's
    stays nearest its own proposal (IoU 1/4)."""
    num_classes, dim = config.num_classes, config.target.feature_dim
    boxes = np.array([[0, 0, 10, 10], [6, 0, 16, 10], [40, 40, 50, 50], [80, 0, 90, 10],
                      [0, 80, 10, 90], [50, 80, 60, 90]], dtype=float)
    features = np.zeros((len(boxes), dim))
    features[np.arange(len(boxes)), np.arange(len(boxes))] = 3.0
    w_cls = np.zeros((num_classes + 1, dim))
    w_cls[np.arange(num_classes + 1), np.arange(num_classes + 1)] = 3.0
    params = ModelParams(w_cls=w_cls, b_cls=np.zeros(num_classes + 1),
                         w_reg=np.zeros((4, dim)), b_reg=np.array([6.0, 0.0, 6.0, 0.0]),
                         dropout_rate=config.dropout_rate)
    sample = DetectionSample(id=0, proposal_boxes=boxes, proposal_features=features,
                             gt_boxes=boxes[:num_classes], gt_classes=np.arange(num_classes))
    return params, [sample]


@pytest.mark.parametrize("variant", ["base", "full"])
def test_pseudo_labels_supervise_their_own_row_where_iou_points_elsewhere(variant):
    # an IoU match would send row 0's label to row 1; the label keeps the
    # row it was read from, in the loss and the relation pairs. Strong noise
    # flips some of the student's classes, so on full the matrix leaves the
    # identity and, ready after epoch 0, has its majority bases blend rows
    # with other classes' crops in epochs 1 and 2
    config = dataclasses.replace(ablation_variants(tiny_config(epochs=3, eval_size=20))[variant],
                                 batch_size=1, noise_scale=2.0)
    params, target = shifted_label_world(config)
    sample = target[0]
    scored = detector.Scored(params, sample.proposal_features, sample.proposal_boxes,
                             np.array([0, sample.num_proposals]))
    rows = trainer.pseudo_label(params, scored, config.conf_threshold)
    assert rows.tolist() == list(range(config.num_classes))
    iou_rows = detector.match_labels(sample.proposal_boxes, scored.boxes[rows],
                                     [0, sample.num_proposals], [0, len(rows)])
    assert iou_rows.tolist() == [1, 1, 2, 3, 4]
    teacher, history = adapt(params, target, config)
    want_teacher, want_history = oracle_adapt(params, target, config)
    assert np.array_equal(teacher.flat, want_teacher.flat)
    assert history.to_csv_text() == want_history.to_csv_text()


@pytest.mark.parametrize("variant,calls", [("base", 0), ("full", 1)])
def test_adapt_matches_only_the_expert_labels_by_iou_once_per_run(variant, calls, busy_run,
                                                                  monkeypatch):
    # pseudo-labels come with their pass rows; the frozen expert's labels are
    # free boxes, matched in one call for the whole run
    config, params, target = busy_run
    config = dataclasses.replace(ablation_variants(config)[variant], epochs=2)
    real, counted = detector.match_labels, []

    def counting(*args, **kwargs):
        counted.append(args)
        return real(*args, **kwargs)

    for info in pkgutil.iter_modules(detadapt.__path__):
        module = importlib.import_module(f"detadapt.{info.name}")
        if getattr(module, "match_labels", None) is real:
            monkeypatch.setattr(module, "match_labels", counting)
    _, history = adapt(params, target, config)
    assert len(history.records) == 2
    assert len(counted) == calls


def test_crop_bank_and_class_split_serve_augmentation_alone(busy_run, monkeypatch):
    # the busy run's relation matrix becomes ready, so the +SA run takes the
    # majority classes and fills the bank; the base run, which reads neither,
    # does neither
    config, params, target = busy_run
    calls = []
    for cls, name in ((trainer.Cropbank, "push"), (trainer.RelationMatrix, "majority")):
        def counted(*args, real=getattr(cls, name), name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    variants = ablation_variants(config)
    adapt(params, target, variants["sa"])
    assert {"push", "majority"} <= set(calls)
    calls.clear()
    adapt(params, target, variants["base"])
    assert calls == []


@pytest.mark.parametrize("epoch", [0, 1])
def test_a_non_finite_gradient_stops_adapt_naming_its_epoch(epoch, busy_run, monkeypatch):
    # the student's gradient turns NaN at the epoch's second batch; each
    # batch's first kernel call is the student's term, its second the expert's
    config, params, target = busy_run
    config = dataclasses.replace(ablation_variants(config)["full"], epochs=2)
    bad = epoch * -(-len(target) // config.batch_size) + 2
    real, calls = trainer.supervised_losses, []

    def corrupted(scored, layout):
        losses, grads = real(scored, layout)
        if layout.expert is None:
            calls.append(layout)
            if len(calls) == bad:
                grads.flat[0] = np.nan
        return losses, grads

    monkeypatch.setattr(trainer, "supervised_losses", corrupted)
    with pytest.raises(detector.TrainingError, match=f"^non-finite loss at epoch {epoch}$"):
        adapt(params, target, config)
    assert len(calls) == bad


@pytest.mark.parametrize("variant", ["full", "base"])
def test_adapt_checks_the_gradients_finiteness_once_per_batch(variant, busy_run, monkeypatch):
    config, params, target = busy_run
    config = dataclasses.replace(ablation_variants(config)[variant], epochs=1)
    real, checked = detector.GradientSet.is_finite, []

    def counted(grads):
        checked.append(grads)
        return real(grads)

    monkeypatch.setattr(detector.GradientSet, "is_finite", counted)
    adapt(params, target, config)
    assert len(checked) == -(-len(target) // config.batch_size)


def test_adapt_rejects_repeated_sample_ids():
    # 50 samples reusing 10 ids would train on 10 of them
    config = tiny_config(epochs=1)
    params, _ = pretrain_source(config)
    target = generate_domain(config.target, derive_seed(config.seed, "world", "target"))
    for i, sample in enumerate(target):
        sample.id = i % 10
    # the rule `partition` applies too (`util.sorted_by_id`)
    with pytest.raises(ValueError, match="^40 samples repeat an id$"):
        adapt(params, target, config)


def test_adapt_at_zero_epochs_evaluates_the_source_model_on_its_eval_set(tmp_path):
    # one evaluation path: the CLI summary takes `final_teacher_eval` at any epoch count
    config = tiny_config(epochs=0)
    params, _ = pretrain_source(config)
    target = generate_domain(config.target, derive_seed(config.seed, "world", "target"))
    teacher, history = adapt(params, target, config)
    eval_spec = dataclasses.replace(config.target, size=config.eval_size)
    eval_data = generate_domain(eval_spec, derive_seed(config.seed, "world", "eval"))
    want = evaluate(params, eval_data, num_classes=config.num_classes)
    assert history.records == [] and to_json(teacher) == to_json(params)
    assert history.final_teacher_eval.to_dict() == want.to_dict()
    assert history.final_teacher_eval.map50 == want.map50
    config_path = tmp_path / "config.json"
    config.save_json(config_path)
    assert cli.run_cli(["--mode", "adapt", "--config", str(config_path),
                        "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["final_teacher"] == want.to_dict()


def test_target_split_is_a_diagnostic_only(busy_run, tmp_path, monkeypatch):
    # the CLI writes the source model's split, and `adapt` never sees it:
    # tagging every sample dissimilar changes partition.csv and nothing that
    # +SA trains, whose history.csv stays byte-identical
    config, params, _ = busy_run
    config_path, params_path = tmp_path / "config.json", tmp_path / "params.json"
    ablation_variants(config)["sa"].save_json(config_path)
    save_params(params_path, params)
    real_partition = cli.partition

    def run(name):
        assert cli.run_cli(["--mode", "adapt", "--config", str(config_path),
                            "--out", str(tmp_path / name), "--params", str(params_path)]) == 0
        return {line.rsplit(",", 1)[1] for line in (tmp_path / name / "checkpoints" /
                                                    "partition.csv").read_text().splitlines()[1:]}

    tags = {"split": run("split")}
    # no rank level reaches a sigma of 2
    monkeypatch.setattr(cli, "partition", lambda *args: dataclasses.replace(
        real_partition(*args), sigma=2.0))
    tags["dissimilar"] = run("dissimilar")
    assert tags == {"split": {SIMILAR, DISSIMILAR}, "dissimilar": {DISSIMILAR}}
    assert (tmp_path / "split" / "history.csv").read_bytes() == \
        (tmp_path / "dissimilar" / "history.csv").read_bytes()
    assert not hasattr(trainer, "partition")


def test_ablation_variants_switch_matrix():
    variants = ablation_variants(tiny_config())
    assert set(variants) == {"base", "sa", "sal", "full"}
    base = variants["base"]
    assert not base.enable_sa and not base.enable_sal and not base.enable_expert
    assert variants["sa"].enable_sa and not variants["sa"].enable_sal
    assert variants["sal"].enable_sal and not variants["sal"].enable_sa
    full = variants["full"]
    assert full.enable_sa and full.enable_sal and full.enable_expert


def test_adapt_writes_checkpoints(tmp_path):
    config = tiny_config(epochs=2)
    params, _ = pretrain_source(config)
    target = generate_domain(config.target, derive_seed(config.seed, "world", "target"))
    adapt(params, target, config, out_dir=str(tmp_path))
    # each epoch's teacher and relation rows; the CLI adds the split (see above)
    assert sorted(os.listdir(tmp_path)) == [f"epoch_{epoch:03d}_{name}.json" for epoch in (0, 1)
                                            for name in ("relation", "teacher")]


RESUMED_VARIANTS = {
    # a bank of two rows per class evicts on almost every push
    "full-capacity2": lambda config: dataclasses.replace(ablation_variants(config)["full"],
                                                         bank_capacity=2),
    "base": lambda config: ablation_variants(config)["base"],
}


@pytest.mark.parametrize("paused", [0, 1, -1], ids=["after-0", "after-1", "after-last"])
@pytest.mark.parametrize("variant", sorted(RESUMED_VARIANTS))
def test_a_pickled_state_continues_as_the_uninterrupted_run(variant, paused, busy_run,
                                                            tmp_path):
    # every piece of run state crosses the epoch boundary in `AdaptState`: a
    # state pickled after epoch k, continued with its fixed set built anew,
    # ends where `adapt` ends, bit for bit
    config, params, target = busy_run
    config = RESUMED_VARIANTS[variant](config)
    paused %= config.epochs
    teacher, history = adapt(params, target, config, out_dir=str(tmp_path))
    state, fixed = AdaptState.start(params, config), AdaptFixed.build(target, config)
    while state.epoch <= paused:
        state = adapt_epoch(state, fixed, config)
    if config.enable_sa:  # the paused bank has evicted rows (`_filed` counts every row filed)
        assert (state.bank._filed > state.bank.capacity).any()
    state, fixed = pickle.loads(pickle.dumps(state)), AdaptFixed.build(target, config)
    while state.epoch < config.epochs:
        state = adapt_epoch(state, fixed, config)
    assert state.teacher.flat.tobytes() == teacher.flat.tobytes()
    assert state.history.to_csv_text() == history.to_csv_text()
    with open(tmp_path / f"epoch_{config.epochs - 1:03d}_relation.json") as fh:
        assert state.relation.matrix.tobytes() == np.array(json.load(fh)).tobytes()


def test_runs_advanced_in_turn_each_equal_their_run_alone(busy_run):
    # two runs share nothing: advanced epoch by epoch in turn, each ends as
    # it ends alone
    config, params, target = busy_run
    configs = [ablation_variants(config)["full"],
               dataclasses.replace(ablation_variants(config)["base"], seed=config.seed + 1)]
    alone = [adapt(params, target, c) for c in configs]
    runs = [(AdaptState.start(params, c), AdaptFixed.build(target, c), c) for c in configs]
    for _ in range(config.epochs):
        runs = [(adapt_epoch(state, fixed, c), fixed, c) for state, fixed, c in runs]
    for (state, _, _), (teacher, history) in zip(runs, alone):
        assert state.teacher.flat.tobytes() == teacher.flat.tobytes()
        assert state.history.to_csv_text() == history.to_csv_text()


def test_adapt_epoch_rejects_a_fixed_set_built_from_another_config():
    # the fixed set holds its config's expert switch and weights: a full run
    # on base's fixed set would train without the expert term, with no error
    config = tiny_config(epochs=1)
    full, base = ablation_variants(config)["full"], ablation_variants(config)["base"]
    params = ModelParams.init(config.num_classes, config.target.feature_dim,
                              np.random.default_rng(0), config.dropout_rate)
    target = generate_domain(config.target, derive_seed(config.seed, "world", "target"))
    heavier = dataclasses.replace(full, expert_reg_weight=2 * full.expert_reg_weight)
    for run, built in ((full, base), (heavier, full), (base, full)):
        with pytest.raises(ValueError, match="another config"):
            adapt_epoch(AdaptState.start(params, run), AdaptFixed.build(target, built), run)
    state = adapt_epoch(AdaptState.start(params, full), AdaptFixed.build(target, full), full)
    assert state.epoch == 1 and state.history.records[0].loss_expert > 0.0


def test_blended_labels_reach_the_relation_statistics_with_the_teachers_classes(
        busy_run, monkeypatch):
    # at a mix ratio of .5 a blend's class vector ties its two classes, and
    # its argmax is the lower class id; the relation update (and SAL's
    # weights) must take each pseudo-label's class from the teacher's pass
    config, params, target = busy_run
    config = dataclasses.replace(ablation_variants(config)["full"], mix_ratio=0.5)
    teacher_classes, true_classes, blends = [], [], []
    real_label, real_confusion = trainer.pseudo_label, trainer.batch_confusion
    real_augment = trainer.augment_sample

    def label(teacher, scored, threshold):
        rows = real_label(teacher, scored, threshold)
        teacher_classes.append(scored.class_ids[rows])
        return rows

    def augment(*args, **kwargs):
        strong, labels = real_augment(*args, **kwargs)
        blends.append(int((labels.classes.max(axis=1) < 1.0).sum()))
        return strong, labels

    def confusion(true_cls, pred_cls, num_classes):
        true_classes.append(np.array(true_cls))
        return real_confusion(true_cls, pred_cls, num_classes)

    monkeypatch.setattr(trainer, "pseudo_label", label)
    monkeypatch.setattr(trainer, "augment_sample", augment)
    monkeypatch.setattr(trainer, "batch_confusion", confusion)
    adapt(params, target, config)
    assert sum(blends) > 0
    assert len(true_classes) == len(teacher_classes)
    for got, want in zip(true_classes, teacher_classes):
        assert np.array_equal(got, want)


def test_config_dict_roundtrip_and_unknown_fields():
    config = tiny_config()
    clone = AdaptationConfig.from_dict(config.to_dict())
    assert clone.to_dict() == config.to_dict()
    from detadapt.world import ConfigError
    with pytest.raises(ConfigError):
        AdaptationConfig.from_dict({"bogus_field": 1})
    # each scalar takes only its field's JSON type
    for bad in ({"enable_sa": "false"}, {"enable_sal": 1}, {"epochs": 2.5}, {"batch_size": 16.0},
                {"seed": 1.5}, {"epochs": True}, {"learning_rate": True},
                {"background_bar": "0.1"}, {"background_bar": None},
                {"expert": {"flip_rate": False}}, {"source": {"size": 40.0}},
                {"target": {"box_jitter": None}}, {"source": 3}, {"expert": [0.1]}, [1, 2]):
        with pytest.raises(ConfigError):
            AdaptationConfig.from_dict(bad)
    loose = AdaptationConfig.from_dict({"learning_rate": 1, "background_bar": 0})
    assert loose.learning_rate == 1 and loose.background_bar == 0


FLOAT_FIELDS = [f.name for f in dataclasses.fields(AdaptationConfig)
                if f.type == "float"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10 ** 400],
                         ids=["nan", "inf", "-inf", "huge"])
@pytest.mark.parametrize("field", FLOAT_FIELDS + ["expert.miss_rate", "expert.flip_rate",
                                                  "expert.box_jitter"])
def test_non_finite_scalar_config_values_are_config_errors(field, value):
    # a range check alone lets NaN through, and infinity through a lower bound
    from detadapt.world import ConfigError
    section, _, name = field.rpartition(".")
    with pytest.raises(ConfigError, match=name):
        AdaptationConfig.from_dict({section: {name: value}} if section else {name: value})


def test_out_of_range_expert_rates_are_config_errors():
    from detadapt.world import ConfigError
    for bad in ({"miss_rate": 2.0}, {"flip_rate": -0.1}, {"box_jitter": -1}):
        with pytest.raises(ConfigError, match="expert"):
            AdaptationConfig.from_dict({"expert": bad})


def test_frozen_expert_labels_each_sample_once_before_the_first_epoch(monkeypatch):
    # the expert stands for a frozen model: one draw per target sample, from
    # its own stream, all before training starts, and the same labels reach
    # the loss every epoch: the run lays them out once, and each epoch's
    # batches' cuts of that layout give each sample's labels to the kernel once
    config = ablation_variants(tiny_config(epochs=3))["full"]
    params, _ = pretrain_source(config)
    target = generate_domain(config.target, derive_seed(config.seed, "world", "target"))
    events, drawn, seen = [], {}, [{} for _ in range(config.epochs)]
    block, samples_of = [], pass_samples(target)
    real_predict, real_losses = trainer.expert_predict, trainer.supervised_losses
    real_scored, real_evaluate = trainer.Scored, trainer.evaluate

    def predict(spec, samples, rngs, num_classes):
        labels = real_predict(spec, samples, rngs, num_classes)
        for sample, a, b in zip(samples, labels.offsets, labels.offsets[1:]):
            events.append("predict")
            drawn[sample.id] = labels.boxes[a:b], labels.classes[a:b]
        return labels

    def losses(scored, layout):
        # an expert layout's CE rows are its labels, so their targets' first C
        # columns are the labels' classes
        if layout.expert is not None:
            epoch = events.count("epoch end")
            for sample_id, a, b in zip(block[-1], layout.label_offsets, layout.label_offsets[1:]):
                seen[epoch].setdefault(sample_id, []).append(
                    (layout.label_boxes[a:b], layout.ce_target[a:b, :config.num_classes]))
        events.append("loss")
        return real_losses(scored, layout)

    def scored(params, features, boxes, offsets, *args):
        block.append(samples_of(boxes, offsets))
        return real_scored(params, features, boxes, offsets, *args)

    def evaluate(*args, **kwargs):
        if events[-1] != "epoch end":
            events.append("epoch end")
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(trainer, "expert_predict", predict)
    monkeypatch.setattr(trainer, "supervised_losses", losses)
    monkeypatch.setattr(trainer, "Scored", scored)
    monkeypatch.setattr(trainer, "evaluate", evaluate)
    adapt(params, target, config)
    assert events.count("predict") == len(target)
    assert events.index("loss") > max(i for i, e in enumerate(events) if e == "predict")
    assert sorted(drawn) == sorted(s.id for s in target)
    for sample in target:
        want = real_predict(config.expert, [sample],
                            [rng_stream(config.seed, "expert", sample.id)], config.num_classes)
        assert np.array_equal(drawn[sample.id][0], want.boxes)
        assert np.array_equal(drawn[sample.id][1], want.classes)
    for epoch_labels in seen:
        assert sorted(epoch_labels) == sorted(drawn)
        for sample_id, sets in epoch_labels.items():
            assert len(sets) == 1
            boxes, classes = sets[0]
            assert np.array_equal(boxes, drawn[sample_id][0])
            assert np.array_equal(classes, drawn[sample_id][1])
