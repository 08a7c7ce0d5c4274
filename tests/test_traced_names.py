"""The benchmark's tracer wraps library names by `getattr` at install time, so
a rename or deletion here breaks the traced benchmark run. Its name tables are
read from `perfbench/tracer.py` without installing anything. Its observers read
what `pseudo_label` and `augment_sample` take and return, so one tiny traced
adaptation checks that they still count what they claim to. The benchmark's
worker, `perfbench/worker.py`, calls the library by name and signature, so its
phases run once here, untraced, on a tiny world."""

import importlib
import importlib.util
import math
import os

import numpy as np
import pytest

from detadapt import trainer
from detadapt.util import derive_seed
from detadapt.world import generate_domain
from test_trainer import busy_config

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load_perfbench(name):
    """`perfbench/<name>.py`, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_entries():
    tracer = load_perfbench("tracer")
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
    tracer = load_perfbench("tracer").Tracer()
    tracer.install()
    try:
        traced = trainer.pseudo_label

        def counting(teacher, block, conf_threshold):
            confident.append(int(np.count_nonzero(block.fg_scores >= conf_threshold)))
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


def test_worker_phases_run_untraced_on_a_tiny_world(tmp_path):
    worker = load_perfbench("worker")
    tiny = {"source": {"size": 40}, "target": {"size": 20}, "epochs": 1,
            "pretrain_epochs": 1, "eval_size": 30, "mc_passes": 2}
    config = worker.workload_config("score-large", 0, tiny)
    record = worker._run_score(config, str(tmp_path / "score"), lambda: None)
    assert record["samples"] == worker.LARGE_FACTOR * config.target.size
    assert sorted(os.listdir(tmp_path / "score")) == ["eval.json", "partition.csv"]
    config_path = str(tmp_path / "adapt-full.json")
    worker.workload_config("adapt-full", 0, tiny).save_json(config_path)
    record = worker._run_adapt(config_path, str(tmp_path / "adapt"), lambda: None)
    assert record["exit_codes"] == [0, 0]
