"""The benchmark's tracer wraps library names by `getattr` at install time, so
a rename or deletion here breaks the traced benchmark run. Its name tables are
read from `perfbench/tracer.py` without installing anything. Its observers read
what `pseudo_label` and `augment_sample` take and return, so one tiny traced
adaptation checks that they still count what they claim to."""

import importlib
import importlib.util
import math
import os

import numpy as np
import pytest

from detadapt import trainer
from detadapt.detector import Scored
from detadapt.util import derive_seed
from detadapt.world import generate_domain
from test_trainer import busy_config

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def traced_entries():
    tracer = load_tracer()
    return [(tracer.PACKAGE, mod, name)
            for table in (tracer.TRACED, tracer.COUNTED)
            for mod, names in table.items() for name in names]


@pytest.mark.parametrize("package,mod,name", traced_entries())
def test_traced_name_resolves(package, mod, name):
    target = importlib.import_module(f"{package}.{mod}")
    for part in name.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_tracer_observers_on_a_traced_adaptation():
    config = trainer.ablation_variants(busy_config())["full"]
    params, _ = trainer.pretrain_source(config)
    target = generate_domain(config.target, derive_seed(config.seed, "world", "target"))
    confident, scored_proposals = [], []
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        traced = trainer.pseudo_label

        def counting(teacher, block, conf_threshold):
            rows = block if isinstance(block, Scored) else Scored(teacher, [block])
            confident.append(int(np.count_nonzero(rows.fg_scores >= conf_threshold)))
            scored_proposals.append(block.num_proposals)
            return traced(teacher, block, conf_threshold)

        trainer.pseudo_label = counting
        try:
            trainer.adapt(params, target, config)
        finally:
            trainer.pseudo_label = traced
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(config.epochs * len(target))
    # one call per batch, on the teacher's pass of the whole batch
    batches = config.epochs * math.ceil(len(target) / config.batch_size)
    assert tracer.calls["teacher.pseudo_label"] == len(confident) == batches
    assert layers["teacher.pseudo_label.yield"] == sum(confident) / sum(scored_proposals)
    assert layers["cropbank.augment_sample.mixed_share"] > 0
