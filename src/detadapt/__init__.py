"""detadapt: source-free adaptation of a toy detector on a synthetic proposal world.

A mean-teacher self-training pipeline hardened against class-context bias and
mode collapse: an EMA-smoothed class-relation matrix drives instance-level loss
reweighting and relation-guided MixUp from per-class FIFO crop banks, and a
simulated frozen expert supplies auxiliary pseudo-supervision. A
dropout-variance split of the target set into source-similar and dissimilar
samples is written as a diagnostic; training does not read it. `adapt` runs
one `adapt_epoch` per epoch on an `AdaptState`, which holds all the run state
that crosses an epoch boundary, and an `AdaptFixed` set, what the run builds
once. The package exports the array path that runs. The object view
(`Detection`, `forward`, `BBox`), the list metrics, the one-sample wrappers
and the untrained subset discriminator stay defined in their own modules
only.
"""

from .config import AdaptationConfig, default_config
from .cropbank import Cropbank, augment_sample
from .detector import (GradientSet, Labels, ModelParams, Scored, TrainingError, load_params,
                       save_params, sgd_step)
from .expert import ExpertSpec, expert_predict
from .metrics import EvalResult, evaluate
from .partition import DISSIMILAR, SIMILAR, VarianceReport, partition
from .relation import NotReadyError, RelationMatrix, batch_confusion
from .teacher import ema_update, pseudo_label
from .trainer import (AdaptFixed, AdaptState, SealedDataset, SourceAccessError, TrainHistory,
                      ablation_variants, adapt, adapt_epoch, pretrain_source)
from .weighting import relation_weights
from .world import (ConfigError, DetectionSample, DomainSpec, generate_domain, load_dataset,
                    make_domain_spec, save_dataset, shift_domain)

__version__ = "0.1.0"
