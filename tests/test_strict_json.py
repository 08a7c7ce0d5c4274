"""Every JSON file the CLI writes is strict JSON: no `NaN` or `Infinity`,
which Python's `json` writes by default and other parsers reject."""

import dataclasses
import json

import numpy as np
import pytest

from detadapt.cli import run_cli
from detadapt.config import default_config
from detadapt.util import derive_seed
from detadapt.world import generate_domain, save_dataset


def strict_loads(text: str):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    """Output directories of the four CLI modes on a tiny config, of adapt mode
    once more at 0 epochs, and of eval mode once more on a saved set whose
    spec gives the last class frequency 0."""
    root = tmp_path_factory.mktemp("strict")
    config = default_config(seed=0)
    config.source = dataclasses.replace(config.source, size=40)
    config.target = dataclasses.replace(config.target, size=30)
    config.pretrain_epochs, config.epochs, config.eval_size, config.mc_passes = 3, 2, 40, 3
    config_path, no_epochs_path = root / "config.json", root / "no_epochs.json"
    config.save_json(config_path)
    dataclasses.replace(config, epochs=0).save_json(no_epochs_path)
    frequency = np.append(config.target.frequency[:-1], 0.0)
    spec = dataclasses.replace(config.target, size=20, frequency=frequency / frequency.sum())
    dataset_path = root / "no_last_class.json"
    save_dataset(dataset_path, spec, generate_domain(spec, derive_seed(0, "world", "lacking")))

    params = str(root / "pretrain" / "source_params.json")
    runs = {"pretrain": ["--mode", "pretrain"],
            "adapt": ["--mode", "adapt", "--params", params],
            "adapt-0-epochs": ["--mode", "adapt", "--params", params],
            "eval": ["--mode", "eval", "--params", params],
            "eval-lacking": ["--mode", "eval", "--params", params, "--dataset",
                             str(dataset_path)],
            "ablation-suite": ["--mode", "ablation-suite"]}
    for name, args in runs.items():
        path = no_epochs_path if name == "adapt-0-epochs" else config_path
        out = ["--config", str(path), "--out", str(root / name)]
        assert run_cli(args + out) == 0, name
    return root, config


def test_every_json_file_the_cli_writes_parses_strictly(cli_outputs):
    root, _ = cli_outputs
    written = {}
    for name in ("pretrain", "adapt", "adapt-0-epochs", "eval", "eval-lacking",
                 "ablation-suite"):
        written[name] = sorted((root / name).rglob("*.json"))
        for path in written[name]:
            strict_loads(path.read_text())
    assert [p.name for p in written["pretrain"]] == ["pretrain_eval.json", "source_params.json"]
    assert {"summary.json", "teacher_params.json", "epoch_001_relation.json"} \
        <= {p.name for p in written["adapt"]}
    assert [p.name for p in written["adapt-0-epochs"]] == ["source_params.json", "summary.json",
                                                          "teacher_params.json"]
    assert {p.name for p in written["eval"]} == {"eval.json", "eval_dataset.json"}
    assert [p.name for p in written["eval-lacking"]] == ["eval.json"]


def test_an_undefined_class_ap_is_written_as_null(cli_outputs):
    root, config = cli_outputs
    result = strict_loads((root / "eval-lacking" / "eval.json").read_text())
    per_class = result["per_class_ap"]
    assert len(per_class) == config.num_classes
    assert per_class[-1] is None
    assert all(isinstance(ap, float) for ap in per_class[:-1])
