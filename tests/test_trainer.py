import dataclasses

import numpy as np
import pytest

from bruteforce import oracle_adapt
from detadapt import detector, trainer
from detadapt.config import AdaptationConfig, default_config
from detadapt.detector import ModelParams
from detadapt.metrics import evaluate
from detadapt.partition import DISSIMILAR, SIMILAR
from detadapt.trainer import (DiscriminatorParams, SealedDataset,
                              SourceAccessError, ablation_variants, adapt,
                              discriminator_loss, pretrain_source)
from detadapt.util import derive_seed, rng_stream
from detadapt.world import generate_domain, make_domain_spec


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


@pytest.mark.parametrize("variant", ["full", "base"])
def test_adapt_runs_each_model_forward_once_per_sample_step(variant, monkeypatch):
    # each model scores a batch in one `Scored` block: the teacher the clean
    # samples, the student their views, so each sample twice per epoch and no
    # other pass, one-sample blocks included
    config = ablation_variants(tiny_config(epochs=2))[variant]
    params, _ = pretrain_source(config)
    target = generate_domain(config.target, derive_seed(config.seed, "world", "target"))
    real_init = detector.Scored.__init__
    scored_calls = []
    outside_loop = []

    def counted_init(self, params, samples, *args, **kwargs):
        if not outside_loop:
            scored_calls.append([s.id for s in samples])
        real_init(self, params, samples, *args, **kwargs)

    def not_counted(fn):
        def wrapper(*args, **kwargs):
            outside_loop.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                outside_loop.pop()
        return wrapper

    monkeypatch.setattr(detector.Scored, "__init__", counted_init)
    monkeypatch.setattr(trainer, "partition", not_counted(trainer.partition))
    monkeypatch.setattr(trainer, "evaluate", not_counted(trainer.evaluate))
    adapt(params, target, config)
    # per batch the teacher's pass, then the student's over the same samples
    teacher_calls, student_calls = scored_calls[0::2], scored_calls[1::2]
    assert teacher_calls == student_calls
    assert sorted(sum(teacher_calls, [])) == sorted([s.id for s in target] * config.epochs)


@pytest.fixture(scope="module")
def busy_run():
    config = busy_config()
    params, _ = pretrain_source(config)
    target = generate_domain(config.target, derive_seed(config.seed, "world", "target"))
    return config, params, target


@pytest.mark.parametrize("variant,background_bar", [
    ("base", 0.1), ("sa", 0.1), ("sal", 0.1), ("full", 0.1), ("full", None)])
def test_adapt_matches_per_sample_object_loop_oracle(variant, background_bar, busy_run):
    config, params, target = busy_run
    config = dataclasses.replace(ablation_variants(config)[variant],
                                 background_bar=background_bar)
    teacher, history = adapt(params, target, config)
    want_teacher, want_history = oracle_adapt(params, target, config)
    for name in ("w_cls", "b_cls", "w_reg", "b_reg"):
        assert np.array_equal(getattr(teacher, name), getattr(want_teacher, name)), name
    assert history.to_csv_text() == want_history.to_csv_text()


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
    assert (tmp_path / "partition.csv").exists()
    assert (tmp_path / "epoch_000_teacher.json").exists()
    assert (tmp_path / "epoch_001_relation.json").exists()


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
                {"background_bar": "0.1"}, {"expert": {"flip_rate": False}},
                {"source": {"size": 40.0}}, {"target": {"box_jitter": None}},
                {"source": 3}, {"expert": [0.1]}, [1, 2]):
        with pytest.raises(ConfigError):
            AdaptationConfig.from_dict(bad)
    loose = AdaptationConfig.from_dict({"learning_rate": 1, "background_bar": None})
    assert loose.learning_rate == 1 and loose.background_bar is None
