import dataclasses
import json
import os
import re

import numpy as np
import pytest

from bruteforce import oracle_check_class_ids, oracle_check_offsets
from detadapt import cli, util
from detadapt.config import AdaptationConfig, default_config
from detadapt.expert import ExpertSpec
from detadapt.detector import Labels, ModelParams, match_labels, pack, save_params, targets
from detadapt.partition import VarianceReport
from detadapt.relation import RelationMatrix, batch_confusion, check_class_ids
from detadapt.trainer import EpochRecord, TrainHistory
from detadapt.weighting import relation_weights
from detadapt.world import (ConfigError, DetectionSample, DomainSpec, generate_domain,
                            make_domain_spec, save_dataset)


def _params(version):
    return ModelParams.init(2, 3, np.random.default_rng(version), 0.0)


def _history(version):
    return TrainHistory(1, [EpochRecord(0, 0.5, 0.25 + version, [0.75], 1.0, 0.0)])


def _report(version):
    return VarianceReport(np.array([7]), np.array([0.1]), np.array([0.2 + version]), 0.5)


def _dataset(path, version):
    spec = make_domain_spec(num_classes=2, feature_dim=3, size=2, frequency=(0.5, 0.5))
    save_dataset(path, spec, generate_domain(spec, version))


# every output writer of the package, each writing content that depends on `version`
WRITERS = {
    "save_params": lambda path, v: save_params(path, _params(v)),
    "save_rows": lambda path, v: RelationMatrix(np.eye(2) * (1 + v), 0.9).save_rows(path),
    "history_csv": lambda path, v: _history(v).save_csv(path),
    "partition_csv": lambda path, v: _report(v).save_csv(path),
    "config_json": lambda path, v: default_config(seed=v).save_json(path),
    "save_dataset": _dataset,
    "cli_json": lambda path, v: cli._write_json(path, {"version": v}),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_interrupted_write_keeps_old_file_and_leaves_no_temp(writer, tmp_path, monkeypatch):
    write = WRITERS[writer]
    path = tmp_path / "out.txt"
    write(path, 0)
    before = path.read_bytes()

    def interrupted(src, dst):
        raise OSError("interrupted before the rename")

    monkeypatch.setattr(util.os, "replace", interrupted)
    with pytest.raises(OSError, match="interrupted"):
        write(path, 1)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.txt"]

    monkeypatch.undo()
    write(path, 1)
    assert path.read_bytes() != before
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_atomic_writes_text_verbatim(tmp_path):
    path = tmp_path / "rows.csv"
    util.write_atomic(path, "a,b\r\nc\n")
    assert path.read_bytes() == b"a,b\r\nc\n"


def _offsets_callers():
    """Three callers of `util.check_offsets`, each on a block of 3 labels cut
    by the given offsets: `targets`, `relation_weights` and `match_labels`,
    the last against one proposal per sample."""
    def sample(i):
        boxes = np.array([[0.0, 0.0, 4.0, 4.0], [10.0, 10.0, 14.0, 14.0]])
        return DetectionSample(i, boxes, np.ones((2, 2)), np.zeros((0, 4)), np.zeros(0, int))

    def with_targets(offsets):
        labels = Labels.one_hot(np.tile([0.0, 0.0, 4.0, 4.0], (3, 1)), [0, 1, 0], 2, offsets)
        targets(*pack([sample(i) for i in range(len(labels.offsets) - 1)])[1:], labels)

    def with_weights(offsets):
        relation_weights(RelationMatrix.identity(2, 0.9), [0, 1, 0], [0, 1, 1], 0.5, offsets)

    def with_matches(offsets):
        proposal_offsets = np.arange(max(len(offsets), 2))
        match_labels(np.tile([0.0, 0.0, 4.0, 4.0], (proposal_offsets[-1], 1)),
                     np.tile([0.0, 0.0, 4.0, 4.0], (3, 1)), proposal_offsets, offsets)

    return {"targets": with_targets, "relation_weights": with_weights,
            "match_labels": with_matches}


@pytest.mark.parametrize("caller", ["targets", "relation_weights", "match_labels"])
@pytest.mark.parametrize("offsets", [[1, 3], [0, 2], [0, 4], [1, 4], [0, 2, 1, 3], [],
                                     [[0, 3]]],
                         ids=["starts_past_0", "ends_short", "ends_past", "shifted_by_one",
                              "falls", "empty", "two_dimensional"])
def test_each_caller_rejects_malformed_offsets_with_one_message(caller, offsets):
    if caller == "targets" and not offsets:
        # a block needs offsets of one more entry than its samples, so no
        # sample count admits empty offsets: `targets` rejects them before
        with pytest.raises(ValueError, match="one label set per sample"):
            _offsets_callers()[caller](offsets)
        return
    message = f"offsets {np.array(offsets, dtype=int).tolist()} do not rise from 0 to 3"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _offsets_callers()[caller](offsets)


@pytest.mark.parametrize("caller", ["targets", "relation_weights", "match_labels"])
def test_each_caller_accepts_offsets_that_rise_from_zero_to_the_count(caller):
    for offsets in ([0, 3], [0, 0, 1, 3, 3]):
        _offsets_callers()[caller](offsets)


def outcome(check, *args):
    """The message of the `ValueError` a check raises, or None if it accepts."""
    try:
        check(*args)
    except ValueError as error:
        return str(error)
    return None


NAN = float("nan")
CLASS_IDS = {"empty": np.zeros(0, dtype=int), "empty-float": np.zeros(0),
             "in-range": np.array([0, 1, 2]), "negative": np.array([0, -1]),
             "num_classes": np.array([3]), "past_then_in": np.array([5, 0]),
             "unsigned": np.array([0, 2], dtype=np.uint8), "float": np.array([0.0, 2.0]),
             "float-fraction": np.array([2.5]), "nan": np.array([NAN]),
             "nan-then-negative": np.array([NAN, -1.0]), "nan-then-past": np.array([NAN, 4.0]),
             "bool": np.array([True, False]), "scalar": np.array(2), "scalar-past": np.array(3),
             "two-dimensional": np.array([[0, 1], [2, 3]]), "huge": np.array([2 ** 40])}


@pytest.mark.parametrize("class_ids", CLASS_IDS.values(), ids=CLASS_IDS)
def test_check_class_ids_accepts_and_rejects_as_its_any_form(class_ids):
    assert outcome(check_class_ids, class_ids, 3) == \
        outcome(oracle_check_class_ids, class_ids, 3)


OFFSETS = {"empty": (np.zeros(0, dtype=int), 0), "empty-float": (np.zeros(0), 0),
           "zero": (np.array([0]), 0), "rising": (np.array([0, 0, 2, 3]), 3),
           "falls": (np.array([0, 2, 1, 3]), 3), "starts_past_0": (np.array([1, 3]), 3),
           "ends_short": (np.array([0, 2]), 3), "negative": (np.array([0, -1, 3]), 3),
           "unsigned": (np.array([0, 1, 3], dtype=np.uint8), 3),
           "float": (np.array([0.0, 3.0]), 3), "float-nan": (np.array([0.0, NAN, 3.0]), 3),
           "bool": (np.array([False, True]), 1), "scalar": (np.array(0), 0),
           "two-dimensional": (np.array([[0, 3]]), 3)}


@pytest.mark.parametrize("offsets,total", OFFSETS.values(), ids=OFFSETS)
def test_check_offsets_accepts_and_rejects_as_its_any_form(offsets, total):
    assert outcome(util.check_offsets, offsets, total) == \
        outcome(oracle_check_offsets, offsets, total)


def test_check_offsets_takes_integers_only():
    util.check_offsets(np.array([0, 1, 3]), 3)
    util.check_offsets(np.array([0], dtype=np.uint8), 0)
    with pytest.raises(ValueError, match=r"^offsets \[0.0, 3.0\] do not rise from 0 to 3$"):
        util.check_offsets(np.array([0.0, 3.0]), 3)


def test_sorted_by_id_sorts_and_counts_repeated_ids():
    samples = [DetectionSample(i, np.zeros((0, 4)), np.zeros((0, 2)), np.zeros((0, 4)),
                               np.zeros(0, int)) for i in (3, 1, 2)]
    assert [s.id for s in util.sorted_by_id(samples)] == [1, 2, 3]
    assert util.sorted_by_id([]) == []
    samples[0].id = 1
    samples.append(samples[1])
    with pytest.raises(ValueError, match="^2 samples repeat an id$"):
        util.sorted_by_id(samples)


def _relation():
    rel = RelationMatrix.identity(3, 0.9)
    rel.update(batch_confusion([0, 0, 2, 1], [0, 1, 2, 0], 3))
    rel.update(batch_confusion([0, 1], [1, 1], 3))
    return rel


def _same(a, b) -> bool:
    """Equal fields, recursively: arrays of one dtype and value, scalars of one type."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


ROUND_TRIPS = {
    "config": lambda: dataclasses.replace(default_config(seed=3), learning_rate=1,
                                          background_bar=0.0, expert=ExpertSpec(0.2, 0.0, 1)),
    "domain_spec": lambda: default_config().target,
    "expert_spec": lambda: ExpertSpec(0.25, 0.5, 0.125),
    "params": lambda: ModelParams.init(4, 6, np.random.default_rng(5), 0.25),
    "relation": _relation,
}


@pytest.mark.parametrize("make", ROUND_TRIPS.values(), ids=ROUND_TRIPS)
def test_json_codec_round_trip_keeps_fields_and_bytes(make):
    obj = make()
    text = json.dumps(util.to_json(obj))
    back = util.from_json(type(obj), json.loads(text), "it")
    assert _same(back, obj)
    assert json.dumps(util.to_json(back)) == text


def test_relation_round_trip_keeps_integer_update_counts():
    back = util.from_json(RelationMatrix, json.loads(json.dumps(util.to_json(_relation()))), "it")
    assert back.update_counts.dtype.kind == "i" and back.update_counts.tolist() == [2, 2, 1]


# id: (class, JSON document, the message of its ConfigError)
REJECTED = {
    "not_an_object": (ExpertSpec, [0.1], "^spec must be a JSON object$"),
    "bool_float": (ExpertSpec, {"miss_rate": True}, "^spec: miss_rate must be float, got True$"),
    "text_float": (ExpertSpec, {"flip_rate": "0.1"}, "^spec: flip_rate must be float"),
    "unknown": (ExpertSpec, {"miss_rate": 0.1, "bogus": 1}, r"^unknown spec fields: \['bogus'\]$"),
    "out_of_range": (ExpertSpec, {"miss_rate": 2.0}, "^invalid spec: miss_rate and flip_rate"),
    "null_float": (AdaptationConfig, {"expert": {"box_jitter": None}},
                   "^expert: box_jitter must be float"),
    "null_bar": (AdaptationConfig, {"background_bar": None},
                 "^spec: background_bar must be float, got None$"),
    "missing": (ModelParams, {"w_cls": [[0.0]], "b_cls": [0.0], "w_reg": [[0.0]], "b_reg": [0.0]},
                "^invalid spec: .*dropout_rate"),
    "bool_in_array": (ModelParams, {"w_cls": [[0.0, True]]},
                      "^spec: w_cls must be lists of numbers$"),
    "mixed_depth": (ModelParams, {"w_cls": [[0.0], 0.0]}, "^spec: w_cls must be lists of numbers$"),
    "number_array": (ModelParams, {"w_cls": 0.0}, "^spec: w_cls must be lists of numbers$"),
    "ragged": (ModelParams, {"w_cls": [[0.0], [0.0, 1.0]]},
               r"^spec: w_cls must be lists of numbers \("),
    "int_beyond_float": (ModelParams, {"b_cls": [10 ** 400]},
                         r"^spec: b_cls must be lists of numbers \("),
    "text_array": (DomainSpec, {"background_mean": "a"}, "^spec: background_mean must be lists"),
}


@pytest.mark.parametrize("cls, doc, message", REJECTED.values(), ids=REJECTED)
def test_from_json_rejects_a_wrong_type_field_or_value(cls, doc, message):
    with pytest.raises(ConfigError, match=message):
        util.from_json(cls, doc, "spec")


def test_from_json_takes_null_where_the_annotation_does():
    # `background_mean: np.ndarray | None`
    doc = util.to_json(default_config())
    doc["source"]["background_mean"] = None
    config = util.from_json(AdaptationConfig, doc, "config")
    assert config.source.background_mean.tolist() == [0.0] * config.source.feature_dim


def test_number_array_is_a_float_array_of_json_numbers():
    assert util.number_array([[1, 2.5], [3, 4]], "x").dtype == float
    assert util.number_array([], "x").shape == (0,)
    for bad in ([1, "2"], [[1, None]], [1, [2]], (1, 2), 1.0):
        with pytest.raises(ConfigError, match="^rows must be lists of numbers"):
            util.number_array(bad, "rows")
