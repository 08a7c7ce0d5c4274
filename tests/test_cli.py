import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import detadapt

from detadapt import cli, trainer
from detadapt.cli import run_cli
from detadapt.config import default_config
from detadapt.detector import ModelParams, save_params
from detadapt.trainer import pretrain_source
from detadapt.util import derive_seed
from detadapt.world import generate_domain, make_domain_spec, save_dataset
from test_trainer import busy_config


@pytest.fixture(scope="module")
def tiny_config_file(tmp_path_factory):
    config = default_config(seed=0)
    config.source = dataclasses.replace(config.source, size=40)
    config.target = dataclasses.replace(config.target, size=30)
    config.pretrain_epochs = 3
    config.epochs = 2
    config.eval_size = 40
    config.mc_passes = 3
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    config.save_json(path)
    return str(path), config


def test_eval_mode_writes_result(tmp_path, tiny_config_file):
    config_path, config = tiny_config_file
    params, _ = pretrain_source(config)
    params_path = tmp_path / "params.json"
    save_params(params_path, params)
    data = generate_domain(config.target, derive_seed(0, "world", "target"))
    dataset_path = tmp_path / "data.json"
    save_dataset(dataset_path, config.target, data)
    out = tmp_path / "out"
    code = run_cli(["--mode", "eval", "--config", config_path, "--out", str(out),
                    "--params", str(params_path), "--dataset", str(dataset_path)])
    assert code == 0
    doc = json.loads((out / "eval.json").read_text())
    assert 0.0 <= doc["map50"] <= 1.0
    assert set(doc["recall_at_fpi"]) == {"0.05", "0.3", "0.5", "1.0"}


def eval_corrupted_dataset(tmp_path, tiny_config_file, corrupt):
    """`--mode eval` of an untrained model on the saved target set after
    `corrupt` edits its first sample's JSON record; returns the exit code and
    the output directory."""
    config_path, config = tiny_config_file
    params_path = tmp_path / "params.json"
    save_params(params_path, pretrain_source(dataclasses.replace(config, pretrain_epochs=0))[0])
    dataset_path = tmp_path / "data.json"
    save_dataset(dataset_path, config.target,
                 generate_domain(config.target, derive_seed(0, "world", "target")))
    doc = json.loads(dataset_path.read_text())
    corrupt(doc["samples"][0])
    dataset_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = run_cli(["--mode", "eval", "--config", config_path, "--out", str(out),
                    "--params", str(params_path), "--dataset", str(dataset_path)])
    return code, out


@pytest.mark.parametrize("row", [[1.0, float("nan"), 5.0, 5.0], [5.0, 1.0, 1.0, 5.0],
                                 [3.0, 1.0, 3.0, 5.0]], ids=["nan", "inverted", "zero_width"])
def test_eval_mode_rejects_invalid_ground_truth_box(row, tmp_path, tiny_config_file, capsys):
    def corrupt(sample):
        sample["objects"][0][:4] = row

    code, out = eval_corrupted_dataset(tmp_path, tiny_config_file, corrupt)
    assert code == 2
    assert "config error: invalid ground-truth box" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def object_class(value):
    def corrupt(sample):
        sample["objects"][0][4] = value
    return corrupt


def drop_last_proposal_value(sample):
    sample["proposals"][0].pop()


@pytest.mark.parametrize("corrupt, message", [
    (object_class(6), "object class"), (object_class(-1), "object class"),
    (object_class(1.5), "object class"), (drop_last_proposal_value, "proposal row")],
    ids=["class_6", "class_-1", "class_1.5", "short_proposal_row"])
def test_eval_mode_rejects_a_dataset_row_outside_its_own_spec(
        corrupt, message, tmp_path, tiny_config_file, capsys):
    # the file's spec has 5 classes and 16-value features
    code, out = eval_corrupted_dataset(tmp_path, tiny_config_file, corrupt)
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_adapt_mode_outputs_are_deterministic(tmp_path, tiny_config_file, monkeypatch):
    # the tiny config never augments; the busy one does (see `busy_config`)
    busy_path = tmp_path / "busy.json"
    busy_config().save_json(busy_path)
    soft_labels = []
    augment = trainer.augment_sample

    def counted_augment(*args, **kwargs):
        out = augment(*args, **kwargs)
        soft_labels.extend(vec for _, vec in out[1] if vec.max() < 1.0)
        return out

    monkeypatch.setattr(trainer, "augment_sample", counted_augment)
    for name, config_path in (("tiny", tiny_config_file[0]), ("busy", str(busy_path))):
        out1, out2 = tmp_path / name / "a", tmp_path / name / "b"
        assert run_cli(["--mode", "adapt", "--config", config_path, "--out", str(out1)]) == 0
        assert run_cli(["--mode", "adapt", "--config", config_path, "--out", str(out2)]) == 0
        for file in ("history.csv", "summary.json", "teacher_params.json"):
            assert (out1 / file).read_bytes() == (out2 / file).read_bytes(), (name, file)
    assert soft_labels


def test_ablation_suite_produces_four_runs(tmp_path, tiny_config_file, monkeypatch):
    config_path, _ = tiny_config_file
    pretrain_calls = []

    def counted_pretrain(config):
        pretrain_calls.append(config)
        return pretrain_source(config)

    monkeypatch.setattr(cli, "pretrain_source", counted_pretrain)
    out = tmp_path / "suite"
    assert run_cli(["--mode", "ablation-suite", "--config", config_path,
                    "--out", str(out)]) == 0
    assert len(pretrain_calls) == 1
    lines = (out / "ablation_summary.csv").read_text().strip().splitlines()
    assert lines[0] == "variant,final_teacher_map"
    assert [row.split(",")[0] for row in lines[1:]] == ["base", "sa", "sal", "full"]
    for name in ("base", "sa", "sal", "full"):
        assert (out / f"history_{name}.csv").exists()
    # the shared source model changes nothing: the full variant is the config itself
    single = tmp_path / "single"
    assert run_cli(["--mode", "adapt", "--config", config_path, "--out", str(single)]) == 0
    assert (out / "history_full.csv").read_bytes() == (single / "history.csv").read_bytes()


def test_bad_config_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"epochs": -3}')
    assert run_cli(["--mode", "adapt", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    # a value of the wrong JSON type, on a config that would otherwise run in a moment
    for value in ({"enable_sa": "false"}, {"epochs": 2.5}, {"batch_size": 16.0}, {"seed": 1.5},
                  {"background_bar": True}, {"expert": {"miss_rate": "0.1"}},
                  {"target": {"size": 30.0}}, {"source": 3},
                  {"target": {"frequency": "x"}}, {"source": {"background_mean": "a"}}):
        bad.write_text(json.dumps({"pretrain_epochs": 0, "epochs": 0, **value}))
        assert run_cli(["--mode", "adapt", "--config", str(bad),
                        "--out", str(tmp_path / "o")]) == 2, value
    missing = tmp_path / "missing.json"
    assert run_cli(["--mode", "adapt", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    assert run_cli(["--mode", "eval", "--out", str(tmp_path / "o")]) == 2


def test_model_that_does_not_fit_the_config_exits_two_and_writes_nothing(tmp_path, capsys):
    # a 3-class model under the default 5-class config
    params_path = tmp_path / "params.json"
    save_params(params_path, ModelParams.init(3, 16, np.random.default_rng(0)))
    for mode in ("eval", "adapt"):
        out = tmp_path / mode
        assert run_cli(["--mode", mode, "--out", str(out), "--params", str(params_path)]) == 2
        assert "3 classes" in capsys.readouterr().err
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("num_classes, feature_dim", [(7, 16), (5, 12)])
def test_dataset_that_does_not_fit_the_config_exits_two_and_writes_nothing(
        num_classes, feature_dim, tmp_path, capsys):
    # a default-config model scored on a dataset of another class count or feature dimension
    params_path = tmp_path / "params.json"
    save_params(params_path, ModelParams.init(5, 16, np.random.default_rng(0)))
    spec = make_domain_spec(num_classes, feature_dim, size=5,
                            frequency=np.full(num_classes, 1 / num_classes))
    dataset_path = tmp_path / "data.json"
    save_dataset(dataset_path, spec, generate_domain(spec, 0))
    out = tmp_path / "out"
    assert run_cli(["--mode", "eval", "--out", str(out), "--params", str(params_path),
                    "--dataset", str(dataset_path)]) == 2
    assert f"dataset has {num_classes} classes and feature dim {feature_dim}" \
        in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("field", ["enable_dis", "disc_weight", "decay_disc", "decay_unsup",
                                   "expert.score_confidence"])
def test_removed_config_field_exits_two(field, tmp_path, capsys):
    # the discriminator-training fields and the expert's unread confidence were
    # removed; old configs must fail loudly
    section, _, name = field.rpartition(".")
    value = 0.1 if name == "disc_weight" else 0.9 if section else True
    config = tmp_path / "old.json"
    config.write_text(json.dumps({section: {name: value}} if section else {name: value}))
    assert run_cli(["--mode", "adapt", "--config", str(config),
                    "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"unknown {section or 'config'} fields" in err and name in err


def test_unknown_mode_exits_two(tmp_path, capsys):
    assert run_cli(["--mode", "nonsense", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


def test_pretrain_mode_writes_params(tmp_path, tiny_config_file):
    config_path, _ = tiny_config_file
    out = tmp_path / "pre"
    assert run_cli(["--mode", "pretrain", "--config", config_path, "--out", str(out)]) == 0
    assert (out / "source_params.json").exists()
    doc = json.loads((out / "pretrain_eval.json").read_text())
    assert doc["map50"] > 0.3


def test_module_invocation_runs_pretrain(tmp_path, tiny_config_file):
    # `python -m detadapt.cli` must run the mode, not just import the module
    config_path, _ = tiny_config_file
    out = tmp_path / "pre"
    src = os.path.dirname(os.path.dirname(detadapt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "detadapt.cli", "--mode", "pretrain",
                           "--config", config_path, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (out / "source_params.json").exists()
    assert (out / "pretrain_eval.json").exists()
