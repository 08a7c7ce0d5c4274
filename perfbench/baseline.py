"""Summarise the runs in `.bench_out/runs.jsonl` into a baseline table.

    python3 perfbench/baseline.py perfbench/BASELINE.json

Per workload: each end-to-end metric's median and quartiles over the
untraced runs, the traced per-layer metrics (median over traced runs), the
raw wall-time medians of the time metrics, the per-class AP of the output
model and the output digest. The commit, machine
and run length are taken from the runs themselves.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".bench_out", "runs.jsonl")


def summarise(records: list[dict], run_seconds: int) -> dict:
    workloads = {}
    for rec in records:
        env = rec["environment"]
        entry = workloads.setdefault(env["workload"], {"untraced": [], "traced": []})
        entry["traced" if "trace.overhead" in rec["result"]["metrics"] else "untraced"].append(rec)
    out = {}
    for name, entry in sorted(workloads.items()):
        row = {}
        for kind, key in (("untraced", "end_to_end"), ("traced", "per_layer")):
            recs = entry[kind]
            if not recs:
                continue
            table = {}
            for metric, first in recs[0]["result"]["metrics"].items():
                values = [r["result"]["metrics"][metric]["value"] for r in recs]
                cell = {"median": statistics.median(values), "unit": first["unit"]}
                if len(values) >= 2 and kind == "untraced":
                    q1, _, q3 = statistics.quantiles(values, n=4)
                    cell.update(q1=q1, q3=q3, spread=(q3 - q1) / cell["median"])
                table[metric] = cell
            row[key] = table
            row[f"{key}_wall"] = {
                metric: {"median": statistics.median(r["wall"][metric]["value"] for r in recs),
                         "unit": first["unit"]}
                for metric, first in recs[0]["wall"].items()}
            row[f"{kind}_runs"] = len(recs)
            row[f"{kind}_seeds"] = [r["environment"]["seed"] for r in recs]
        last = (entry["untraced"] or entry["traced"])[-1]
        row["per_class_ap"] = last["per_class_ap"]
        row["digest"] = last["digest"]
        row["failed"] = sum(r["result"]["failed"] for r in entry["untraced"] + entry["traced"])
        out[name] = row
    env = records[-1]["environment"]
    config = env["config"]
    return {
        "commit": env["commit"],
        "machine": {k: env[k] for k in ("python", "numpy", "blas", "nproc", "threads")},
        "run_length": {
            "adapt_epochs": max(r["environment"]["config"]["epochs"] for r in records
                                if r["environment"]["workload"].startswith("adapt")),
            "pretrain_epochs": config["pretrain_epochs"],
            "target_size": config["target"]["size"],
            "workload_seed": env["workload_seed"],
            "run_seconds": run_seconds,
        },
        "workloads": out,
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with open(RUNS) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    summary = summarise(records, run_seconds)
    text = json.dumps(summary, indent=2) + "\n"
    if argv:
        with open(argv[0], "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
