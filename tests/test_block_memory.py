"""Traced peak memory of the packed scoring calls on a default-size target set.

The bound is counted in units of one block's dropped features at the default
budget, 4096 row-passes x D float64s (512 KiB at D = 16). Measured at that
budget on the 500-sample default target set: the 10-pass partition peaks at
5.9 units (3.10 MB), the evaluation at 3.5 (1.85 MB, the whole set in one
block). The bound of 8 units catches a doubled budget, which takes the
partition to 11.7.
"""

import tracemalloc

import numpy as np
import pytest

from detadapt import detector
from detadapt.config import default_config
from detadapt.detector import ModelParams
from detadapt.metrics import evaluate
from detadapt.partition import partition
from detadapt.world import generate_domain

PEAK_UNITS = 8
UNIT_ROWS = 4096


@pytest.fixture(scope="module")
def default_set():
    config = default_config()
    samples = generate_domain(config.target, 0)
    params = ModelParams.init(config.num_classes, config.target.feature_dim,
                              np.random.default_rng(0), dropout_rate=config.dropout_rate)
    runs = {"partition": lambda: partition(samples, params, config.mc_passes,
                                           config.variance_threshold, np.random.default_rng(0)),
            "evaluate": lambda: evaluate(params, samples, config.num_classes)}
    return runs, PEAK_UNITS * UNIT_ROWS * params.feature_dim * 8


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["partition", "evaluate"])
def test_scoring_peak_stays_within_the_budget_bound(default_set, name):
    runs, bound = default_set
    assert traced_peak(runs[name]) <= bound


def test_a_doubled_budget_breaks_the_bound(default_set, monkeypatch):
    runs, bound = default_set
    monkeypatch.setattr(detector, "BLOCK_ROWS", 2 * UNIT_ROWS)
    assert traced_peak(runs["partition"]) > bound
