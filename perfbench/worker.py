"""One benchmark repetition of one workload, in a fresh process.

Drives `detadapt` the way a user does and writes a small timing record, with
the reference loop's time before, between and after the workload's phases;
the parent (`run.py`) times the whole process, checks the outputs and digests
them.

    PYTHONPATH=src python3 perfbench/worker.py --workload adapt-full \
        --config cfg.json --out OUT --result rep.json [--spans spans.csv] [--cpu 0]

Every library call goes through a module attribute (`trainer.adapt`, not a
name imported here), so the spans installed by `tracer.py` see it.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import resource
import statistics
import sys
import time

ADAPT_EPOCHS = 10
# score-large scores a target set this many times the default size
LARGE_FACTOR = 10
WORKLOADS = ("adapt-full", "adapt-base", "score-large")
REFERENCE_SAMPLES = 4


def reference_seconds() -> float:
    """Median time of a fixed NumPy-and-Python loop, independent of detadapt.

    Shaped like the detector's per-sample work: a small matmul and softmax per
    sample and a Python tuple per proposal. Its arrays total under 200 KB, so
    it leaves the worker's peak RSS to the workload. The parent divides by it
    to take the host's speed out of the repetition's times.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    features = rng.standard_normal((200, 6, 16))
    weights = rng.standard_normal((6, 16))
    order = rng.integers(0, len(features), 1500)
    times = []
    for _ in range(REFERENCE_SAMPLES):
        start = time.perf_counter()
        for i in order:
            z = features[i] @ weights.T
            z = np.exp(z - z.max(axis=1, keepdims=True))
            z /= z.sum(axis=1, keepdims=True)
            rows = [(j, float(z[j].max()), int(z[j].argmax())) for j in range(6)]
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def workload_config(workload: str, seed: int, overrides: dict | None = None):
    """The AdaptationConfig a workload runs; `overrides` shrink it for self-tests."""
    from detadapt.config import AdaptationConfig, default_config
    from detadapt.trainer import ablation_variants

    config = default_config(seed=seed)
    if workload in ("adapt-full", "adapt-base"):
        variant = ablation_variants(config)[workload.split("-")[1]]
        config = dataclasses.replace(variant, epochs=ADAPT_EPOCHS)
    elif workload != "score-large":
        raise ValueError(f"unknown workload {workload!r}")
    data = config.to_dict()
    for key, value in (overrides or {}).items():
        if isinstance(value, dict):
            data[key] = {**data[key], **value}
        else:
            data[key] = value
    return AdaptationConfig.from_dict(data)


class Reference:
    """Times `reference_seconds` before, between and after the workload's phases."""

    def __init__(self):
        self.samples: list[float] = []
        self.total_s = 0.0

    def __call__(self) -> None:
        start = time.perf_counter()
        self.samples.append(reference_seconds())
        self.total_s += time.perf_counter() - start


def _run_adapt(config_path: str, out: str, reference: Reference) -> dict:
    cli = importlib.import_module("detadapt.cli")
    pretrain_dir = os.path.join(out, "pretrain")
    adapt_dir = os.path.join(out, "adapt")
    reference()
    t0 = time.perf_counter()
    rc_pretrain = cli.run_cli(["--mode", "pretrain", "--config", config_path,
                               "--out", pretrain_dir])
    t1 = time.perf_counter()
    reference()
    t2 = time.perf_counter()
    rc_adapt = cli.run_cli(["--mode", "adapt", "--config", config_path, "--out", adapt_dir,
                            "--params", os.path.join(pretrain_dir, "source_params.json")])
    t3 = time.perf_counter()
    reference()
    return {"exit_codes": [rc_pretrain, rc_adapt], "setup_s": t1 - t0, "main_s": t3 - t2}


def _run_score(config, out: str, reference: Reference) -> dict:
    trainer = importlib.import_module("detadapt.trainer")
    world = importlib.import_module("detadapt.world")
    partition = importlib.import_module("detadapt.partition")
    metrics = importlib.import_module("detadapt.metrics")
    util = importlib.import_module("detadapt.util")

    reference()
    t0 = time.perf_counter()
    params, _ = trainer.pretrain_source(config)
    large = dataclasses.replace(config.target, size=LARGE_FACTOR * config.target.size)
    samples = world.generate_domain(large, util.derive_seed(config.seed, "world", "target"))
    t1 = time.perf_counter()
    reference()
    t2 = time.perf_counter()
    report = partition.partition(samples, params, config.mc_passes,
                                 config.variance_threshold,
                                 util.rng_stream(config.seed, "partition"))
    result = metrics.evaluate(params, samples, num_classes=config.num_classes)
    t3 = time.perf_counter()
    reference()

    os.makedirs(out, exist_ok=True)
    report.save_csv(os.path.join(out, "partition.csv"))
    with open(os.path.join(out, "eval.json"), "w") as fh:
        json.dump(result.to_dict(), fh, indent=2)
    return {"setup_s": t1 - t0, "main_s": t3 - t2, "samples": len(samples)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--config", required=True, help="AdaptationConfig JSON")
    parser.add_argument("--out", required=True, help="the run's output directory")
    parser.add_argument("--result", required=True, help="where the timing record goes")
    parser.add_argument("--spans", help="trace the run and write its spans here")
    parser.add_argument("--cpu", type=int, help="pin the process to this CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from detadapt.config import AdaptationConfig

    config = AdaptationConfig.load_json(args.config)
    reference = Reference()
    tracer = None
    if args.spans:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        if args.workload == "score-large":
            record = _run_score(config, args.out, reference)
        else:
            record = _run_adapt(args.config, args.out, reference)
    finally:
        if tracer is not None:
            tracer.uninstall()
    record["reference_s"] = reference.samples
    record["reference_total_s"] = reference.total_s
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        sample_steps = config.epochs * config.target.size if args.workload != "score-large" else 0
        record["layers"] = tracer.layer_metrics(sample_steps)
        tracer.write(args.spans)
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
