import os

import numpy as np
import pytest

from detadapt import cli, util
from detadapt.config import default_config
from detadapt.detector import ModelParams, save_params
from detadapt.partition import VarianceReport
from detadapt.relation import RelationMatrix
from detadapt.trainer import EpochRecord, TrainHistory
from detadapt.world import generate_domain, make_domain_spec, save_dataset


def _params(version):
    return ModelParams.init(2, 3, np.random.default_rng(version))


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
