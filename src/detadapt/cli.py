"""Command-line experiment runner.

Modes:
  pretrain        train on generated source data, save the model
  adapt           pretrain (or load --params), write the source model's
                  MC-dropout split, adapt, save history/checkpoints
  eval            score saved params against a saved dataset
  ablation-suite  base / +SA / +SAL / full runs from one shared source model
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

from .config import AdaptationConfig
from .detector import ModelParams, load_params, save_params
from .metrics import evaluate
from .partition import partition
from .trainer import ablation_variants, adapt, pretrain_source
from .util import derive_seed, rng_stream, write_atomic
from .world import ConfigError, generate_domain, load_dataset, save_dataset


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="detadapt",
                                     description="source-free detector adaptation runner")
    parser.add_argument("--mode", required=True,
                        choices=["pretrain", "adapt", "eval", "ablation-suite"])
    parser.add_argument("--config", help="JSON config; omitted fields use documented defaults")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    parser.add_argument("--params", help="saved model params: the source model for adapt "
                                         "(skips pretraining), the scored model for eval")
    parser.add_argument("--dataset", help="saved dataset JSON (eval mode)")
    return parser


def _load_config(args) -> AdaptationConfig:
    data = {}
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
    if args.seed is not None and isinstance(data, dict):
        data["seed"] = args.seed
    return AdaptationConfig.from_dict(data)


def _write_json(path, payload) -> None:
    write_atomic(path, json.dumps(payload, indent=2))


def _check_fit(what: str, got: tuple[int, int], config: AdaptationConfig) -> None:
    """Raise `ConfigError` unless (class count, feature dim) `got` is the config's."""
    want = (config.num_classes, config.target.feature_dim)
    if got != want:
        raise ConfigError(f"{what} has {got[0]} classes and feature dim {got[1]}; "
                          f"the config has {want[0]} and {want[1]}")


def _load_model(path: str, config: AdaptationConfig) -> ModelParams:
    """Saved params whose class count and feature dimension are the config's."""
    params = load_params(path)
    _check_fit("model", (params.num_classes, params.feature_dim), config)
    return params


def _mode_pretrain(config: AdaptationConfig, out: str) -> None:
    params, _ = pretrain_source(config)
    save_params(os.path.join(out, "source_params.json"), params)
    eval_spec = dataclasses.replace(config.source, size=config.eval_size)
    eval_data = generate_domain(eval_spec, derive_seed(config.seed, "world", "source-eval"))
    result = evaluate(params, eval_data, num_classes=config.num_classes)
    _write_json(os.path.join(out, "pretrain_eval.json"), result.to_dict())


def _mode_adapt(config: AdaptationConfig, out: str, params_path: str | None) -> None:
    # the split ranks at least two samples; fail before anything is trained or written
    if config.target.size < 2:
        raise ConfigError(f"adapt mode needs at least 2 target samples to partition, "
                          f"got {config.target.size}")
    if params_path:
        source_params = _load_model(params_path, config)
    else:
        source_params, _ = pretrain_source(config)
    save_params(os.path.join(out, "source_params.json"), source_params)
    target_data = generate_domain(config.target, derive_seed(config.seed, "world", "target"))
    checkpoints = os.path.join(out, "checkpoints")
    os.makedirs(checkpoints, exist_ok=True)
    report = partition(target_data, source_params, config.mc_passes, config.variance_threshold,
                       rng_stream(config.seed, "partition"))
    report.save_csv(os.path.join(checkpoints, "partition.csv"))
    teacher, history = adapt(source_params, target_data, config, out_dir=checkpoints)
    history.save_csv(os.path.join(out, "history.csv"))
    save_params(os.path.join(out, "teacher_params.json"), teacher)
    summary = {"final_teacher": history.final_teacher_eval.to_dict(),
               "final_teacher_map": history.final_teacher_eval.map50,
               "epochs": config.epochs}
    _write_json(os.path.join(out, "summary.json"), summary)


def _mode_eval(config: AdaptationConfig, out: str, params_path: str | None,
               dataset_path: str | None) -> None:
    if not params_path:
        raise ConfigError("eval mode needs --params")
    params = _load_model(params_path, config)
    if dataset_path:
        spec, samples = load_dataset(dataset_path)
        _check_fit("dataset", (spec.num_classes, spec.feature_dim), config)
    else:
        samples = generate_domain(config.target, derive_seed(config.seed, "world", "target"))
        save_dataset(os.path.join(out, "eval_dataset.json"), config.target, samples)
    result = evaluate(params, samples, num_classes=config.num_classes)
    _write_json(os.path.join(out, "eval.json"), result.to_dict())


def _mode_ablation(config: AdaptationConfig, out: str) -> None:
    # the variants differ only in enable_* flags, which neither pretraining nor
    # target generation reads, so all four share one source model and target set
    source_params, _ = pretrain_source(config)
    target_data = generate_domain(config.target, derive_seed(config.seed, "world", "target"))
    summary = io.StringIO()
    writer = csv.writer(summary)
    writer.writerow(["variant", "final_teacher_map"])
    for name, variant in ablation_variants(config).items():
        _, history = adapt(source_params, target_data, variant)
        history.save_csv(os.path.join(out, f"history_{name}.csv"))
        writer.writerow([name, repr(history.final_teacher_eval.map50)])
    write_atomic(os.path.join(out, "ablation_summary.csv"), summary.getvalue())


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        config = _load_config(args)
        os.makedirs(args.out, exist_ok=True)
        if args.mode == "pretrain":
            _mode_pretrain(config, args.out)
        elif args.mode == "adapt":
            _mode_adapt(config, args.out, args.params)
        elif args.mode == "eval":
            _mode_eval(config, args.out, args.params, args.dataset)
        else:
            _mode_ablation(config, args.out)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 1
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
