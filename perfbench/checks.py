"""Correctness checks and result digests for one benchmark repetition.

Each check function reads a run's output directory and returns a list of
problems; an empty list means the run's outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

REL_TOL = 1e-9


def minority_classes(config) -> list[int]:
    """The rare, contracted classes: frequency below the uniform share."""
    fair = 1.0 / config.num_classes
    return [c for c in range(config.num_classes) if config.target.frequency[c] < fair]


def _missing(paths) -> list[str]:
    return [f"missing output {p}" for p in paths if not os.path.isfile(p)]


def check_history(path: str, epochs: int) -> list[str]:
    """One row per epoch in order, every value finite, every mAP/AP in [0, 1]."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if [r.get("epoch") for r in rows] != [str(e) for e in range(epochs)]:
        problems.append(f"history has epochs {[r.get('epoch') for r in rows]}, want 0..{epochs - 1}")
    for r in rows:
        for key, text in r.items():
            value = float(text)
            if not math.isfinite(value):
                problems.append(f"history epoch {r['epoch']}: {key} = {text}")
            elif (key.endswith("_map") or key.startswith("ap_class_")) and not 0.0 <= value <= 1.0:
                problems.append(f"history epoch {r['epoch']}: {key} = {text} outside [0, 1]")
    return problems


def check_relation_rows(path: str) -> list[str]:
    """Every row of a relation checkpoint is a probability vector."""
    with open(path) as fh:
        rows = json.load(fh)
    problems = []
    for c, row in enumerate(rows):
        if min(row) < 0.0 or abs(math.fsum(row) - 1.0) > REL_TOL:
            problems.append(f"relation row {c} sums to {math.fsum(row)!r}")
    return problems


def check_eval(result: dict, num_classes: int, where: str) -> list[str]:
    aps = [result["map50"], *result["per_class_ap"]]
    if len(result["per_class_ap"]) != num_classes:
        return [f"{where}: {len(result['per_class_ap'])} per-class APs, want {num_classes}"]
    if not all(isinstance(v, float) and 0.0 <= v <= 1.0 for v in aps):
        return [f"{where}: mAP/AP values {aps} not all in [0, 1]"]
    return []


def check_adapt(out: str, config, exit_codes: list[int]) -> list[str]:
    if exit_codes != [0, 0]:
        return [f"CLI exit codes {exit_codes}, want [0, 0]"]
    pre = os.path.join(out, "pretrain")
    ad = os.path.join(out, "adapt")
    ckpt = os.path.join(ad, "checkpoints")
    expected = [os.path.join(pre, "source_params.json"), os.path.join(pre, "pretrain_eval.json")]
    expected += [os.path.join(ad, name) for name in
                 ("source_params.json", "history.csv", "teacher_params.json", "summary.json")]
    expected.append(os.path.join(ckpt, "partition.csv"))
    for epoch in range(config.epochs):
        expected += [os.path.join(ckpt, f"epoch_{epoch:03d}_teacher.json"),
                     os.path.join(ckpt, f"epoch_{epoch:03d}_relation.json")]
    problems = _missing(expected)
    if problems:
        return problems
    problems += check_history(os.path.join(ad, "history.csv"), config.epochs)
    problems += check_relation_rows(
        os.path.join(ckpt, f"epoch_{config.epochs - 1:03d}_relation.json"))
    with open(os.path.join(ad, "summary.json")) as fh:
        problems += check_eval(json.load(fh)["final_teacher"], config.num_classes, "summary")
    return problems


def expected_similar(n: int, sigma: float) -> int:
    """Samples whose rank level r/n reaches sigma are tagged source-similar."""
    return sum(1 for rank in range(1, n + 1) if rank / n >= sigma)


def check_score(out: str, config, num_samples: int) -> list[str]:
    paths = [os.path.join(out, "partition.csv"), os.path.join(out, "eval.json")]
    problems = _missing(paths)
    if problems:
        return problems
    with open(paths[0], newline="") as fh:
        rows = list(csv.DictReader(fh))
    ids = sorted(int(r["sample_id"]) for r in rows)
    if ids != list(range(num_samples)):
        problems.append(f"partition covers {len(ids)} distinct ids, want {num_samples}")
    similar = sum(1 for r in rows if r["subset"] == "similar")
    want = expected_similar(num_samples, config.variance_threshold)
    if similar != want or len(rows) - similar != num_samples - want:
        problems.append(f"partition split {similar}/{len(rows) - similar}, "
                        f"want {want}/{num_samples - want} at sigma {config.variance_threshold}")
    with open(paths[1]) as fh:
        problems += check_eval(json.load(fh), config.num_classes, "eval")
    return problems


def output_files(workload: str, out: str) -> list[str]:
    """The files whose bytes must repeat exactly for a fixed config."""
    if workload == "score-large":
        return [os.path.join(out, "partition.csv"), os.path.join(out, "eval.json")]
    return [os.path.join(out, "adapt", "history.csv"),
            os.path.join(out, "adapt", "teacher_params.json")]


def digest(paths) -> dict[str, str]:
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def final_eval(workload: str, out: str) -> dict:
    """The evaluation of the workload's output model."""
    if workload == "score-large":
        with open(os.path.join(out, "eval.json")) as fh:
            return json.load(fh)
    with open(os.path.join(out, "adapt", "summary.json")) as fh:
        return json.load(fh)["final_teacher"]


def bytes_under(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(root) for f in files)
