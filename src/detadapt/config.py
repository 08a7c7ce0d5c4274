"""Run configuration: every knob of the adaptation pipeline in one dataclass."""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .expert import ExpertSpec
from .util import ConfigError, from_json, to_json, write_atomic
from .world import DomainSpec, make_domain_spec, shift_domain

DEFAULT_FREQUENCY = (0.35, 0.25, 0.20, 0.15, 0.05)
# the default target domain: shift length, rare-class pull toward the anchor
# class, and the seed of the shift direction
SHIFT_MAGNITUDE, CONTRACTION, ANCHOR_CLASS, DIRECTION_SEED = 2.0, 0.35, 0, 11


@dataclass
class AdaptationConfig:
    """All hyperparameters of the pipeline, with working desk-scale defaults."""

    source: DomainSpec
    target: DomainSpec
    expert: ExpertSpec = field(default_factory=ExpertSpec)
    seed: int = 0

    # mean-teacher loop; thresholds and rates were calibrated by pilot runs on
    # the default world (slower EMA freezes the teacher at desk scale, and a
    # 0.8 gate starves the minority-class statistics)
    epochs: int = 50
    batch_size: int = 16
    learning_rate: float = 0.05     # student SGD step
    conf_threshold: float = 0.7     # pseudo-label confidence gate
    teacher_ema: float = 0.99       # weight kept on the old teacher
    background_bar: float = 0.1     # below this the teacher calls background
    noise_scale: float = 0.4        # strong-view feature noise for the student
    pretrain_epochs: int = 25

    # relation matrix and loss weighting
    relation_ema: float = 0.99
    weight_reg: float = 0.5         # regularizer pulling instance weights to 1

    # relation-guided augmentation
    p_aug: float = 0.5
    mix_ratio: float = 0.7
    bank_capacity: int = 64

    # variance partitioning
    mc_passes: int = 10
    variance_threshold: float = 0.5
    dropout_rate: float = 0.3

    # combined objective
    unsup_weight: float = 1.0       # on the pseudo-label loss
    expert_cls_weight: float = 1.0
    expert_reg_weight: float = 1.0

    # ablation switches
    enable_sa: bool = True
    enable_sal: bool = True
    enable_expert: bool = True

    eval_size: int = 200

    def validate(self) -> None:
        self.source.validate()
        self.target.validate()
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        # the range checks below let NaN, and some of them infinity, through; an
        # integer beyond the float range counts as infinite
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not -sys.float_info.max <= value <= sys.float_info.max:
                raise ConfigError(f"{f.name} must be finite")
        if self.epochs < 0 or self.pretrain_epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be non-negative")
        if not 0.0 < self.conf_threshold <= 1.0:
            raise ConfigError("conf_threshold must lie in (0, 1]")
        if not 0.0 <= self.teacher_ema <= 1.0 or not 0.0 <= self.relation_ema <= 1.0:
            raise ConfigError("EMA rates must lie in [0, 1]")
        if not 0.0 <= self.background_bar < 1.0:
            raise ConfigError("background_bar must lie in [0, 1)")
        if not 0.0 <= self.p_aug <= 1.0 or not 0.0 < self.mix_ratio <= 1.0:
            raise ConfigError("p_aug in [0, 1], mix_ratio in (0, 1]")
        if self.weight_reg < 0 or self.bank_capacity < 1:
            raise ConfigError("weight_reg >= 0 and bank_capacity >= 1 required")
        if self.mc_passes < 2 or not 0.0 < self.variance_threshold < 1.0:
            raise ConfigError("mc_passes >= 2 and variance_threshold in (0, 1) required")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must lie in [0, 1)")
        for name in ("unsup_weight", "expert_cls_weight", "expert_reg_weight",
                     "noise_scale"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.eval_size < 1:
            raise ConfigError("eval_size must be >= 1")
        if self.source.num_classes != self.target.num_classes:
            raise ConfigError("source and target must share the class set")
        if self.source.feature_dim != self.target.feature_dim:
            raise ConfigError("source and target must share the feature dimension")

    @property
    def num_classes(self) -> int:
        return self.source.num_classes

    def to_dict(self) -> dict:
        return to_json(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AdaptationConfig":
        """Build from a (possibly partial) plain dict and validate it; omitted
        fields, also those of the source, target and expert sections, keep
        the defaults of `default_config`. `util.from_json` gives the JSON
        type each field takes.
        """
        if not isinstance(data, dict):
            raise ConfigError("a config must be a JSON object")
        doc = to_json(default_config())
        for key, value in data.items():
            section = isinstance(doc.get(key), dict) and isinstance(value, dict)
            doc[key] = {**doc[key], **value} if section else value
        config = from_json(cls, doc, "config")
        config.validate()
        return config

    def save_json(self, path) -> None:
        write_atomic(path, json.dumps(to_json(self), indent=2))

    @classmethod
    def load_json(cls, path) -> "AdaptationConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def shift_vector(feature_dim: int, magnitude: float) -> np.ndarray:
    """Deterministic unit direction scaled to `magnitude`."""
    rng = np.random.default_rng(DIRECTION_SEED)
    v = rng.standard_normal(feature_dim)
    return magnitude * v / np.linalg.norm(v)


def biased_target_spec(source: DomainSpec, shift_magnitude: float,
                       contraction: float) -> DomainSpec:
    """Target spec with a covariate shift plus class-context bias.

    Every feature center moves by a common shift vector; on top of that the
    centers of rare classes (frequency below the uniform share) are pulled
    `contraction` of the way toward the dominant `ANCHOR_CLASS`. Rare classes
    therefore get systematically mistaken for the anchor on the target domain,
    which is the bias self-training amplifies.
    """
    if not 0.0 <= contraction < 1.0:
        raise ConfigError("contraction must lie in [0, 1)")
    spec = shift_domain(source, shift_vector(source.feature_dim, shift_magnitude))
    means = spec.class_means.copy()
    fair_share = 1.0 / source.num_classes
    for c in range(source.num_classes):
        if source.frequency[c] < fair_share:
            means[c] = means[c] + contraction * (means[ANCHOR_CLASS] - means[c])
    return dataclasses.replace(spec, class_means=means)


def default_config(seed: int = 0) -> AdaptationConfig:
    """The default imbalanced, shifted world (C=5, D=16, N=500 per domain)."""
    source = make_domain_spec(
        num_classes=5, feature_dim=16, size=500,
        frequency=DEFAULT_FREQUENCY, separation=4.0, layout_seed=7,
    )
    target = biased_target_spec(source, SHIFT_MAGNITUDE, CONTRACTION)
    return AdaptationConfig(source=source, target=target, seed=seed)
