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
from detadapt.detector import ModelParams, load_params, save_params
from detadapt.expert import ExpertSpec
from detadapt.metrics import evaluate
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
    return eval_corrupted_document(tmp_path, tiny_config_file,
                                   lambda doc: corrupt(doc["samples"][0]))


def eval_corrupted_document(tmp_path, tiny_config_file, corrupt, corrupt_params=None):
    """As `eval_corrupted_dataset`, with `corrupt` editing the whole JSON
    document of the saved target set, and `corrupt_params`, if given, that
    of the saved model."""
    config_path, config = tiny_config_file
    params_path = tmp_path / "params.json"
    save_params(params_path, pretrain_source(dataclasses.replace(config, pretrain_epochs=0))[0])
    if corrupt_params:
        doc = json.loads(params_path.read_text())
        corrupt_params(doc)
        params_path.write_text(json.dumps(doc))
    dataset_path = tmp_path / "data.json"
    save_dataset(dataset_path, config.target,
                 generate_domain(config.target, derive_seed(0, "world", "target")))
    doc = json.loads(dataset_path.read_text())
    corrupt(doc)
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


def proposal_value(value):
    def corrupt(sample):
        sample["proposals"][0][5] = value
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (object_class(6), "object class"), (object_class(-1), "object class"),
    (object_class(1.5), "object class"), (drop_last_proposal_value, "proposal row"),
    (proposal_value("x"), "proposal row"), (proposal_value(float("nan")), "proposal row")],
    ids=["class_6", "class_-1", "class_1.5", "short_proposal_row", "string_proposal_value",
         "nan_proposal_value"])
def test_eval_mode_rejects_a_dataset_row_outside_its_own_spec(
        corrupt, message, tmp_path, tiny_config_file, capsys):
    # the file's spec has 5 classes and 16-value features
    code, out = eval_corrupted_dataset(tmp_path, tiny_config_file, corrupt)
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def drop_class_mean_row(doc):
    doc["spec"]["class_means"].pop()


def shrink_spec_size(doc):
    doc["spec"]["size"] = 3


def drop_spec_size(doc):
    del doc["spec"]["size"]


@pytest.mark.parametrize("corrupt, message", [
    (drop_class_mean_row, "class_means must be (5, 16)"),
    (shrink_spec_size, "spec size 3 but 30 samples"),
    (drop_spec_size, "invalid dataset spec")],
    ids=["4_class_means_for_5_classes", "size_3_for_30_samples", "no_size"])
def test_eval_mode_rejects_a_dataset_whose_spec_is_invalid(
        corrupt, message, tmp_path, tiny_config_file, capsys):
    code, out = eval_corrupted_document(tmp_path, tiny_config_file, corrupt)
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def empty_proposals(sample):
    sample["proposals"] = []


def drop_object_class(sample):
    sample["objects"][0].pop()


def sample_id(value):
    def corrupt(sample):
        sample["id"] = value
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (empty_proposals, "no proposals in sample"),
    (drop_object_class, "object row not 5 values"),
    (sample_id(0.9), "sample id 0.9 is not an integer"),
    (sample_id(True), "sample id True is not an integer"),
    (sample_id("3"), "sample id '3' is not an integer"),
    (sample_id(1), "sample id 1 repeats")],
    ids=["no_proposals", "object_row_of_4", "id_0.9", "id_true", "id_text", "id_repeated"])
def test_eval_mode_rejects_a_malformed_sample_with_exit_two(
        corrupt, message, tmp_path, tiny_config_file, capsys):
    code, out = eval_corrupted_dataset(tmp_path, tiny_config_file, corrupt)
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def drop_key(key):
    def corrupt(doc):
        del doc[key]
    return corrupt


def first_sample(corrupt_sample):
    def corrupt(doc):
        corrupt_sample(doc["samples"][0])
    return corrupt


def objects_of_5(sample):
    sample["objects"] = 5


@pytest.mark.parametrize("corrupt, message", [
    (drop_key("spec"), "the dataset has no 'spec' key"),
    (drop_key("samples"), "the dataset has no 'samples' key"),
    (first_sample(drop_key("id")), "sample record 0 has no 'id' key"),
    (first_sample(drop_key("proposals")), "sample 0 has no 'proposals' key"),
    (first_sample(drop_key("objects")), "sample 0 has no 'objects' key"),
    (first_sample(objects_of_5), "'objects' of sample 0 is not a list")],
    ids=["no_spec", "no_samples", "no_id", "no_proposals", "no_objects", "objects_5"])
def test_eval_mode_rejects_a_dataset_without_a_key_or_list_with_exit_two(
        corrupt, message, tmp_path, tiny_config_file, capsys):
    code, out = eval_corrupted_document(tmp_path, tiny_config_file, corrupt)
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def set_key(key, value, at=lambda doc: doc):
    def corrupt(doc):
        at(doc)[key] = value
    return corrupt


def unchanged(doc):
    pass


def spec_of(doc):
    return doc["spec"]


def first_object(doc):
    return doc["samples"][0]["objects"][0]


def first_weight_row(doc):
    return doc["w_cls"][0]


def one_row_w_cls(doc):
    doc["w_cls"] = doc["w_cls"][:1]


# a value of the wrong JSON type, a missing field, or a value out of range, in
# the saved dataset's spec or object boxes or in the saved model
MALFORMED = {
    "spec_size_text": (set_key("size", "3", at=spec_of), None),
    "spec_background_cov_text": (set_key("background_cov", "1", at=spec_of), None),
    "spec_num_classes_float": (set_key("num_classes", 5.0, at=spec_of), None),
    "spec_min_objects_true": (set_key("min_objects", True, at=spec_of), None),
    "box_text": (set_key(1, "x", at=first_object), None),
    "box_true": (set_key(1, True, at=first_object), None),
    "weight_text": (unchanged, set_key(0, "0.1", at=first_weight_row)),
    "weight_true": (unchanged, set_key(0, True, at=first_weight_row)),
    "weight_nan": (unchanged, set_key(0, float("nan"), at=first_weight_row)),
    "no_b_reg": (unchanged, drop_key("b_reg")),
    "dropout_1.5": (unchanged, set_key("dropout_rate", 1.5)),
    "dropout_text": (unchanged, set_key("dropout_rate", "0.3")),
    "one_row_w_cls": (unchanged, one_row_w_cls),
}


@pytest.mark.parametrize("corrupt, corrupt_params", MALFORMED.values(), ids=MALFORMED)
def test_eval_mode_rejects_a_malformed_value_with_exit_two(
        corrupt, corrupt_params, tmp_path, tiny_config_file, capsys):
    code, out = eval_corrupted_document(tmp_path, tiny_config_file, corrupt, corrupt_params)
    assert code == 2
    assert "config error: " in capsys.readouterr().err
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


@pytest.mark.parametrize("epochs", [2, 0])
def test_adapt_mode_summary_reuses_the_last_epochs_teacher_eval(
        epochs, tmp_path, tiny_config_file, monkeypatch):
    # the last epoch has already scored the final teacher on the eval set, so
    # the summary takes that result; with no epochs `adapt` evaluates the
    # teacher it returns, and the CLI evaluates nothing itself
    _, config = tiny_config_file
    config = dataclasses.replace(config, epochs=epochs)
    config_path = tmp_path / "config.json"
    config.save_json(config_path)
    calls = []

    def counted(module):
        evaluate = module.evaluate

        def wrapper(*args, **kwargs):
            calls.append(module.__name__)
            return evaluate(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(trainer, "evaluate", counted(trainer))
    monkeypatch.setattr(cli, "evaluate", counted(cli))
    generate, generated = cli.generate_domain, []
    monkeypatch.setattr(cli, "generate_domain",
                        lambda spec, seed: generated.append(spec.size) or generate(spec, seed))
    out = tmp_path / "out"
    assert run_cli(["--mode", "adapt", "--config", str(config_path), "--out", str(out)]) == 0
    assert calls == ["detadapt.trainer"] * (2 * epochs + (epochs == 0))
    # the CLI builds the target set alone, not the eval set of `eval_size` samples
    assert generated == [config.target.size] and config.eval_size != config.target.size
    teacher = load_params(out / "teacher_params.json")
    eval_spec = dataclasses.replace(config.target, size=config.eval_size)
    eval_data = generate_domain(eval_spec, derive_seed(config.seed, "world", "eval"))
    want = evaluate(teacher, eval_data, num_classes=config.num_classes)
    summary = json.loads((out / "summary.json").read_text())
    # compared as JSON text, where a NaN AP equals itself
    assert json.dumps(summary["final_teacher"]) == json.dumps(want.to_dict())
    assert summary["final_teacher_map"] == want.map50 and summary["epochs"] == epochs


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


def test_adapt_with_expert_flips_in_a_one_class_world(tmp_path):
    # a flipped object has no other class to take, so it keeps its own
    spec = make_domain_spec(1, 4, size=20, frequency=[1.0])
    config = dataclasses.replace(default_config(seed=0), source=spec, target=spec, epochs=1,
                                 pretrain_epochs=1, eval_size=20, mc_passes=2,
                                 expert=ExpertSpec(flip_rate=0.5))
    config_path = tmp_path / "config.json"
    config.save_json(config_path)
    assert run_cli(["--mode", "adapt", "--config", str(config_path),
                    "--out", str(tmp_path / "out")]) == 0


def test_bad_config_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"epochs": -3}')
    assert run_cli(["--mode", "adapt", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    # a value of the wrong JSON type, on a config that would otherwise run in a moment
    for value in ({"enable_sa": "false"}, {"epochs": 2.5}, {"batch_size": 16.0}, {"seed": 1.5},
                  {"background_bar": True}, {"background_bar": None},
                  {"expert": {"miss_rate": "0.1"}},
                  {"target": {"size": 30.0}}, {"source": 3},
                  {"target": {"frequency": "x"}}, {"source": {"background_mean": "a"}}):
        bad.write_text(json.dumps({"pretrain_epochs": 0, "epochs": 0, **value}))
        assert run_cli(["--mode", "adapt", "--config", str(bad),
                        "--out", str(tmp_path / "o")]) == 2, value
    # `--seed` on a config that is not a JSON object
    bad.write_text("[1, 2]")
    assert run_cli(["--mode", "adapt", "--config", str(bad), "--seed", "1",
                    "--out", str(tmp_path / "o")]) == 2
    missing = tmp_path / "missing.json"
    assert run_cli(["--mode", "adapt", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    assert run_cli(["--mode", "eval", "--out", str(tmp_path / "o")]) == 2


def test_nan_in_a_json_config_exits_two(tmp_path, capsys):
    # Python's json reads the NaN literal; a NaN frequency passes the sum check
    bad = tmp_path / "nan.json"
    bad.write_text('{"pretrain_epochs": 0, "epochs": 0, '
                   '"target": {"frequency": [NaN, 0.25, 0.2, 0.15, 0.05]}}')
    assert run_cli(["--mode", "adapt", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "config error: frequency must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("size", [0, 1])
@pytest.mark.parametrize("params", [None, "missing.json"], ids=["pretrain", "params"])
def test_adapt_on_fewer_than_two_target_samples_exits_two_and_writes_nothing(
        size, params, tmp_path, capsys):
    # the split ranks at least two samples; the check comes before pretraining
    # or loading the source model
    config = tmp_path / "small.json"
    config.write_text(json.dumps({"target": {"size": size}}))
    out = tmp_path / "o"
    args = ["--mode", "adapt", "--config", str(config), "--out", str(out)]
    assert run_cli(args + ([] if params is None else ["--params", str(tmp_path / params)])) == 2
    assert f"config error: adapt mode needs at least 2 target samples to partition, got {size}" \
        in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_nan_in_a_scalar_config_field_exits_two_and_writes_nothing(tmp_path, capsys):
    # a NaN learning rate passes `learning_rate < 0`; it must not reach training
    bad = tmp_path / "nan.json"
    bad.write_text('{"pretrain_epochs": 0, "epochs": 1, "learning_rate": NaN}')
    out = tmp_path / "o"
    assert run_cli(["--mode", "adapt", "--config", str(bad), "--out", str(out)]) == 2
    assert "config error: learning_rate must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, config, message", [
    ("pretrain", {"source": {"box_jitter": 1e308}},
     "box_jitter must be at most half the largest float"),
    ("adapt", {"expert": {"box_jitter": 1e308}},
     "invalid expert: box_jitter must lie in [0, half the largest float]")],
    ids=["source", "expert"])
def test_box_jitter_whose_range_overflows_exits_two_and_writes_nothing(
        mode, config, message, tmp_path, capsys):
    # `uniform(-j, j)` spans 2j, which overflows past half the largest float
    path = tmp_path / "jitter.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert run_cli(["--mode", mode, "--config", str(path), "--out", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


def test_model_that_does_not_fit_the_config_exits_two_and_writes_nothing(tmp_path, capsys):
    # a 3-class model under the default 5-class config
    params_path = tmp_path / "params.json"
    save_params(params_path, ModelParams.init(3, 16, np.random.default_rng(0), 0.0))
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
    save_params(params_path, ModelParams.init(5, 16, np.random.default_rng(0), 0.0))
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


# a CLI pretrain and full-method adapt, then whether the run imported `numpy.ma`
NO_MASKED_ARRAYS = """
import os, sys
from detadapt.cli import run_cli
config, out = sys.argv[1:]
pre = os.path.join(out, "pre")
assert run_cli(["--mode", "pretrain", "--config", config, "--out", pre]) == 0
assert run_cli(["--mode", "adapt", "--config", config, "--out", os.path.join(out, "adapt"),
                "--params", os.path.join(pre, "source_params.json")]) == 0
print("numpy.ma" in sys.modules)
"""


def test_a_cli_adapt_run_never_imports_masked_arrays(tmp_path, tiny_config_file):
    # importing `numpy.ma` costs 15 ms, inside the timed adapt call if the
    # crop bank's first push is what imports it; at this threshold the
    # teacher's confident rows fill the bank from the first batch on
    config = dataclasses.replace(tiny_config_file[1], conf_threshold=0.3)
    assert config.enable_sa and config.enable_sal and config.enable_expert
    config_path = str(tmp_path / "config.json")
    config.save_json(config_path)
    src = os.path.dirname(os.path.dirname(detadapt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS, config_path, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
