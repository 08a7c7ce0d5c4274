"""detadapt: source-free adaptation of a toy detector on a synthetic proposal world.

A mean-teacher self-training pipeline hardened against class-context bias and
mode collapse: an EMA-smoothed class-relation matrix drives instance-level loss
reweighting and relation-guided MixUp from FIFO crop banks, a dropout-variance
split separates source-similar from dissimilar target samples, and a simulated
frozen expert supplies auxiliary pseudo-supervision. The subset discriminator
loss (with gradient reversal) is provided but not trained: the detector is
linear in the raw features, so it has no trunk for the reversed gradients.
"""

from .config import AdaptationConfig, default_config
from .cropbank import AugmentPolicy, Cropbank, augment_sample, sample_pair
from .detector import (Detection, GradientSet, Labels, ModelParams, Scored, TrainingError,
                       detection_loss, forward, load_params, save_params, sgd_step)
from .expert import ExpertSpec, expert_loss, expert_predict
from .metrics import EvalResult, evaluate, f1_auc, froc, map_at_iou
from .partition import (DISSIMILAR, SIMILAR, VarianceReport, box_variance, cls_variance,
                        mc_passes, partition)
from .relation import NotReadyError, RelationMatrix, batch_confusion
from .teacher import ema_update, pseudo_label
from .trainer import (DiscriminatorParams, SealedDataset, SourceAccessError,
                      TrainHistory, ablation_variants, adapt, discriminator_loss,
                      pretrain_source)
from .weighting import relation_weights
from .world import (BBox, ConfigError, DetectionSample, DomainSpec, generate_domain,
                    load_dataset, make_domain_spec, save_dataset, shift_domain)

__version__ = "0.1.0"
