"""The numeric mode of `tools/compare_outputs.py` on hand-made output files."""

import importlib.util
import json
import math
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "compare_outputs.py")
spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_json_numbers_give_their_largest_relative_difference(tmp_path):
    a = write(tmp_path, "a.json", json.dumps({"w": [[1.0, 2.0], [3.0, -4.0]], "rate": 0.3,
                                              "ok": True, "ap": [float("nan"), 0.5]}))
    b = write(tmp_path, "b.json", json.dumps({"w": [[1.0, 2.0 * (1 + 1e-12)], [3.0, -4.0]],
                                              "rate": 0.3, "ok": True, "ap": [float("nan"), 0.5]}))
    assert compare_outputs.largest_difference(a, b) == pytest.approx(1e-12, rel=1e-3)
    assert compare_outputs.largest_difference(a, a) == 0.0


def test_csv_cells_compare_as_numbers_and_text_must_match(tmp_path):
    a = write(tmp_path, "a.csv", "id,subset,score\n1,similar,0.25\n2,dissimilar,nan\n")
    b = write(tmp_path, "b.csv", "id,subset,score\n1,similar,0.2500001\n2,dissimilar,nan\n")
    assert compare_outputs.largest_difference(a, b) == pytest.approx(1e-7 / 0.2500001)
    c = write(tmp_path, "c.csv", "id,subset,score\n1,dissimilar,0.25\n2,dissimilar,nan\n")
    assert compare_outputs.largest_difference(a, c) == math.inf


@pytest.mark.parametrize("other", [
    json.dumps({"w": [1.0, 2.0, 3.0]}),
    json.dumps({"v": [1.0, 2.0]}),
    json.dumps({"w": [1.0, "2.0"]}),
    json.dumps({"w": [1.0, float("inf")]}),
], ids=["another-count", "another-key", "number-turned-text", "infinity"])
def test_anything_but_the_numbers_differing_is_infinite(tmp_path, other):
    a = write(tmp_path, "a.json", json.dumps({"w": [1.0, 2.0]}))
    assert compare_outputs.largest_difference(a, write(tmp_path, "b.json", other)) == math.inf


def test_other_files_cannot_be_compared_as_numbers(tmp_path):
    a, b = write(tmp_path, "a.txt", "1.0"), write(tmp_path, "b.txt", "1.0000001")
    assert compare_outputs.largest_difference(a, b) == math.inf
