"""`tools/seed_table.py` on a tiny config: two seeds, two epochs."""

import csv
import importlib.util
import json
import math
import os

import pytest

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
TOOL = os.path.join(REPO, "tools", "seed_table.py")
spec = importlib.util.spec_from_file_location("seed_table", TOOL)
seed_table = importlib.util.module_from_spec(spec)
spec.loader.exec_module(seed_table)


@pytest.fixture(scope="module")
def tiny_config():
    return {"source": {"size": 40}, "target": {"size": 30}, "pretrain_epochs": 3,
            "eval_size": 40, "mc_passes": 3}


def test_seed_ranges():
    assert seed_table.parse_seeds("0-4") == [0, 1, 2, 3, 4]
    assert seed_table.parse_seeds("3") == [3]


@pytest.mark.parametrize("text", ["4-2", "x", "1-y", ""])
def test_seeds_that_are_no_range_are_usage_errors(text, capsys):
    # a falling range holds no seed, and would run nothing and then fail in `render`
    with pytest.raises(SystemExit) as stopped:
        seed_table.main([REPO, "--seeds", text])
    assert stopped.value.code == 2
    assert "argument --seeds: " in capsys.readouterr().err


def test_runs_read_each_variants_last_history_row(tmp_path, tiny_config):
    out = tmp_path / "seed_1"
    finals = seed_table.run_seed(REPO, 1, 2, tiny_config, str(out))
    assert json.loads((out / "config.json").read_text())["epochs"] == 2
    for name in seed_table.VARIANTS:
        with open(out / f"history_{name}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        dominant = [float(rows[-1][f"ap_class_{c}"]) for c in (0, 1, 2)]
        assert finals[name] == (float(rows[-1]["teacher_map"]),
                                (float(rows[-1]["ap_class_3"]), float(rows[-1]["ap_class_4"])),
                                math.fsum(dominant) / 3)


def test_table_rows_means_differences_and_rescue(tiny_config, monkeypatch, capsys):
    run_seed = seed_table.run_seed
    monkeypatch.setattr(seed_table, "run_seed",
                        lambda tree, seed, epochs, config, out:
                        run_seed(tree, seed, epochs, tiny_config, out))
    assert seed_table.main([REPO, "--seeds", "0-1", "--epochs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("| seed | base | +SA | +SAL | full | base AP3 / AP4 |")
    assert lines[0].endswith("| base AP0-2 | +SA AP0-2 | +SAL AP0-2 | full AP0-2 |")
    assert [line.split(" | ")[0] for line in lines[2:5]] == ["| 0", "| 1", "| mean"]
    assert lines[6].startswith("full - +SA: ") and ", SD " in lines[6]
    assert lines[7].startswith("+SA lifts AP3 and AP4 above base on ")
    assert lines[7].endswith(" of 2 seeds")


def test_render_by_hand():
    results = {0: {"base": (0.5, (0.0, 0.1), 0.9), "sa": (0.8, (0.5, 0.6), 0.95),
                   "sal": (0.6, (0.1, 0.1), 0.875), "full": (0.9, (0.5, 0.7), 1.0)},
               1: {"base": (0.6, (0.2, 0.0), 0.8), "sa": (0.7, (0.4, 0.0), 0.85),
                   "sal": (0.6, (0.2, 0.0), 0.625), "full": (0.7, (0.4, 0.1), 0.75)}}
    lines = seed_table.render(results).splitlines()
    assert lines[2] == ("| 0 | 0.5000 | 0.8000 | 0.6000 | 0.9000 | 0.000 / 0.100 | "
                        "0.500 / 0.600 | 0.100 / 0.100 | 0.500 / 0.700 | "
                        "0.900 | 0.950 | 0.875 | 1.000 |")
    assert lines[4].startswith("| mean | 0.5500 | 0.7500 | 0.6000 | 0.8000 | 0.100 / 0.050 |")
    assert lines[4].endswith("| 0.850 | 0.900 | 0.750 | 0.875 |")
    assert lines[6] == "full - +SA: +0.1000, +0.0000; mean +0.0500, SD 0.0707"
    # seed 1's +SA leaves AP4 at base's 0.0
    assert lines[7] == "+SA lifts AP3 and AP4 above base on 1 of 2 seeds"


def test_render_against_by_hand():
    # `test_render_by_hand`'s two seeds, each paired with its parent's run
    results = {0: {"base": (0.5, (0.0, 0.1), 0.9), "sa": (0.8, (0.5, 0.6), 0.95),
                   "sal": (0.6, (0.1, 0.1), 0.875), "full": (0.9, (0.5, 0.7), 1.0)},
               1: {"base": (0.6, (0.2, 0.0), 0.8), "sa": (0.7, (0.4, 0.0), 0.85),
                   "sal": (0.6, (0.2, 0.0), 0.625), "full": (0.7, (0.4, 0.1), 0.75)}}
    parents = {0: {"base": (0.5, (0.0, 0.1), 0.9), "sa": (0.7, (0.5, 0.4), 0.95),
                   "sal": (0.6, (0.1, 0.1), 0.875), "full": (1.0, (0.5, 0.9), 1.0)},
               1: {"base": (0.6, (0.2, 0.0), 0.8), "sa": (0.7, (0.4, 0.0), 0.85),
                   "sal": (0.5, (0.0, 0.0), 0.625), "full": (0.6, (0.4, 0.3), 0.75)}}
    lines = seed_table.render_against(results, parents).splitlines()
    assert lines == [
        "base change - parent: mAP50 +0.0000 (SE 0.0000, higher on 0 of 2), "
        "mean AP3/AP4 +0.0000 (SE 0.0000, higher on 0 of 2)",
        # diffs +0.1, 0.0 and +0.1, 0.0: SD 0.0707, SE 0.05
        "+SA change - parent: mAP50 +0.0500 (SE 0.0500, higher on 1 of 2), "
        "mean AP3/AP4 +0.0500 (SE 0.0500, higher on 1 of 2)",
        "+SAL change - parent: mAP50 +0.0500 (SE 0.0500, higher on 1 of 2), "
        "mean AP3/AP4 +0.0500 (SE 0.0500, higher on 1 of 2)",
        # diffs -0.1, +0.1 and -0.1, -0.1
        "full change - parent: mAP50 +0.0000 (SE 0.1000, higher on 1 of 2), "
        "mean AP3/AP4 -0.1000 (SE 0.0000, higher on 0 of 2)"]
