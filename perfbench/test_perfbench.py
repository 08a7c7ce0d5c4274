"""Self-test of the benchmark on a tiny world.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
from worker import workload_config

TINY = {"source": {"size": 40}, "target": {"size": 40}, "epochs": 2,
        "pretrain_epochs": 2, "eval_size": 60, "mc_passes": 2}


@pytest.fixture(autouse=True)
def out_root(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_ROOT", str(tmp_path))
    return tmp_path


def benchmark_spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def tiny_rep(workload, tmp_path, name, traced=False):
    config = workload_config(workload, 0, TINY)
    config_path = os.path.join(tmp_path, f"{workload}.json")
    config.save_json(config_path)
    rep = run.run_rep(workload, config, config_path, os.path.join(tmp_path, name), traced,
                      min(os.sched_getaffinity(0)))
    return config, rep


@pytest.mark.parametrize("workload,trace", [("adapt-full", 0), ("adapt-full", 1),
                                            ("adapt-base", 0), ("score-large", 0)])
def test_every_named_metric_is_printed_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, overrides=TINY) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    if trace:
        assert result["attempted"] == 2
    else:
        assert result["attempted"] >= run.MIN_REPS
    spec = benchmark_spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
        assert f"{m['name']} = {reported['value']!r} {m['unit']}" in lines
    assert any(line.startswith("digest = ") for line in lines)
    wall = [line for line in lines if line.startswith("wall ")]
    assert wall and all(line.split()[1] in result["metrics"] for line in wall)


def test_traced_run_reports_exactly_the_per_layer_metrics(tmp_path):
    _, untraced = tiny_rep("adapt-full", tmp_path, "plain")
    _, traced = tiny_rep("adapt-full", tmp_path, "traced", traced=True)
    names = {m["name"] for m in benchmark_spec()["per_layer"]}
    assert set(run.per_layer(untraced, traced)) == names
    assert os.path.getsize(os.path.join(tmp_path, "traced", "spans.csv")) > 0


@pytest.mark.parametrize("workload", ["adapt-full", "score-large"])
def test_tracing_leaves_output_digests_unchanged(workload, tmp_path):
    _, untraced = tiny_rep(workload, tmp_path, "plain")
    _, traced = tiny_rep(workload, tmp_path, "traced", traced=True)
    assert untraced["problems"] == [] and traced["problems"] == []
    assert traced["digest"] == untraced["digest"]
    assert traced["layers"]["trainer.pretrain_source.calls"] == 1


def _rewrite(path, edit):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(edit(text))


def test_tampered_adapt_outputs_fail_the_checks(tmp_path):
    config, rep = tiny_rep("adapt-full", tmp_path, "rep")
    assert rep["problems"] == []
    out = os.path.join(tmp_path, "rep", "out")
    ad = os.path.join(out, "adapt")
    pristine = os.path.join(tmp_path, "pristine")
    shutil.copytree(ad, pristine)

    def nan_in_history(text):
        lines = text.splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[2] = "nan"
        return "".join([lines[0], ",".join(cells), *lines[2:]])

    last_relation = os.path.join(ad, "checkpoints", f"epoch_{config.epochs - 1:03d}_relation.json")
    tampers = [
        (os.path.join(ad, "history.csv"), nan_in_history),
        (os.path.join(ad, "history.csv"), lambda t: "".join(t.splitlines(keepends=True)[:-1])),
        (last_relation, lambda t: json.dumps([[r[0] + 0.01, *r[1:]] for r in json.loads(t)])),
    ]
    for path, edit in tampers:
        shutil.rmtree(ad)
        shutil.copytree(pristine, ad)
        _rewrite(path, edit)
        assert checks.check_adapt(out, config, [0, 0]), path
    os.remove(os.path.join(ad, "summary.json"))
    assert checks.check_adapt(out, config, [0, 0])
    assert checks.check_adapt(out, config, [0, 1])


def test_tampered_partition_fails_the_checks(tmp_path):
    config, rep = tiny_rep("score-large", tmp_path, "rep")
    assert rep["problems"] == []
    out = os.path.join(tmp_path, "rep", "out")
    _rewrite(os.path.join(out, "partition.csv"),
             lambda t: t.replace("dissimilar", "similar", 1))
    assert checks.check_score(out, config, rep["samples"])


def test_digest_mismatch_inside_one_set_fails():
    reps = [{"problems": [], "digest": {"history.csv": "a" * 64}},
            {"problems": ["worker exit 1"]},
            {"problems": [], "digest": {"history.csv": "a" * 64}},
            {"problems": [], "digest": {"history.csv": "b" * 64}}]
    assert run.check_purity(reps) == {"history.csv": "a" * 64}
    assert [len(r["problems"]) for r in reps] == [0, 1, 0, 1]
    assert "differs" in reps[3]["problems"][0]


def test_invocations_are_not_compared_with_each_other(monkeypatch):
    # a change that moves results still gets a result; only one set's repetitions must agree
    argv = ["--workload", "adapt-base", "--seconds", "0", "--trace", "0"]
    for version in ("parent", "change"):
        monkeypatch.setattr(checks, "digest", lambda paths, v=version: {"history.csv": v})
        record = run.run(run.build_parser().parse_args(argv), TINY)
        assert record["result"]["correct"]
        assert record["digest"] == {"history.csv": version}


def test_expected_similar_matches_rank_levels():
    assert checks.expected_similar(5000, 0.5) == 2501
    assert checks.expected_similar(4, 0.5) == 3


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "adapt-full",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
