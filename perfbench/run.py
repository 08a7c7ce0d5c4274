"""Benchmark of the detadapt adaptation pipeline.

    python3 perfbench/run.py --workload adapt-full --seed 0 --seconds 40 --trace 0

Run from the repository root. Each repetition runs the workload in a fresh
worker process (`worker.py`) with single-threaded BLAS, pinned to one CPU;
repetitions run one per CPU at a time. The parent then checks each
repetition's outputs and digests them. `--trace 0` repeats the workload for
`--seconds` (at least three repetitions) and reports the medians of the
end-to-end metrics in `BENCHMARK.json`, with times at reference speed (see
REFERENCE_NOMINAL_S; raw wall-time medians are printed beside them as
`wall <metric>` lines and kept in the record); `--trace 1` runs it
once untraced, then once traced on the same CPU, and reports the per-layer
metrics. The last line of stdout is the JSON result; the full record (environment, config,
digests, per-class AP, every repetition) is appended to `.bench_out/runs.jsonl`.

Workloads (see `worker.py`):
  adapt-full   pretrain then 10 adapt epochs of the full method, via the CLI;
               every module of the training loop does work
  adapt-base   the same with SA, SAL and the expert off; the minority classes
               collapse, and augmentation, weighting and expert do no work
  score-large  source model partitions and evaluates a 5,000-sample target set;
               no training module runs

The world is fixed by `--workload-seed` (default 0), not by `--seed`, which is
only recorded: mAP and minority AP are exact for one world but differ by about
20% between worlds (adapt-base minority AP spans 0.23-0.40 over seeds 0-9),
more than any regression bound could absorb. So every repetition of an
invocation sees the same config and must write identical output bytes, traced
or not; the digest is printed and recorded, so runs of two commits can be
compared by hand. A change that moves results within the bounds of `map50` and
`minority_ap` passes. Re-check a claim on another world with `--workload-seed`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy

import checks
from worker import WORKLOADS, workload_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")
MIN_REPS = 3
REP_TIMEOUT_S = 150
# stop starting repetitions once another one could pass this, so a run ends within 180 s
RUN_LIMIT_S = 165
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Reported times are at reference speed: raw wall time x REFERENCE_NOMINAL_S / the
# reference loop's time (`worker.reference_seconds`) sampled around that phase in
# the same process. On shared 2-vCPU hosts the speed drifts by up to 1.5x over
# minutes to half an hour, which no run length within the time budget averages out.
REFERENCE_NOMINAL_S = 0.03

# the parent builds the workload config with the library
sys.path.insert(0, os.path.join(ROOT, "src"))


def metric_units(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment(args, config) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS},
        "commit": commit,
        "seed": args.seed,
        "workload_seed": args.workload_seed,
        "workload": args.workload,
        "config": config.to_dict(),
    }


def run_rep(workload: str, config, config_path: str, rep_dir: str, traced: bool,
            cpu: int) -> dict:
    """One fresh-process repetition: time it, then check and digest its outputs."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    os.makedirs(rep_dir)
    out = os.path.join(rep_dir, "out")
    result_path = os.path.join(rep_dir, "result.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--config", config_path, "--out", out, "--result", result_path, "--cpu", str(cpu)]
    if traced:
        cmd += ["--spans", os.path.join(rep_dir, "spans.csv")]
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)

    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "problems": [f"worker timed out after {REP_TIMEOUT_S} s"]}
    run_s = time.perf_counter() - start
    if proc.returncode != 0:
        return {"traced": traced, "run_s": run_s,
                "problems": [f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"]}

    with open(result_path) as fh:
        record = json.load(fh)
    record.update(traced=traced, run_s=run_s)
    if workload == "score-large":
        record["problems"] = checks.check_score(out, config, record["samples"])
    else:
        record["problems"] = checks.check_adapt(out, config, record["exit_codes"])
    if not record["problems"]:
        record["digest"] = checks.digest(checks.output_files(workload, out))
        record["eval"] = checks.final_eval(workload, out)
        record["bytes_written"] = checks.bytes_under(out)
    return record


def check_purity(reps: list[dict]) -> dict | None:
    """Every passing repetition of this invocation must write the same output bytes."""
    passing = [r for r in reps if not r["problems"]]
    if not passing:
        return None
    reference = passing[0]["digest"]
    for rep in passing[1:]:
        if rep["digest"] != reference:
            rep["problems"].append(f"digest {rep['digest']} differs from {reference}")
    return reference


def speed_scale(rep: dict, phase: slice = slice(None)) -> float:
    """Factor that takes raw times to reference speed, from the reference
    samples bracketing `phase` (0:2 set-up, 1:3 main phase, all for the run)."""
    return REFERENCE_NOMINAL_S / statistics.fmean(rep["reference_s"][phase])


def main_work(reps: list[dict], config, workload: str) -> int:
    """Samples processed by the main phase of one repetition."""
    return (reps[0]["samples"] if workload == "score-large"
            else config.epochs * config.target.size)


def end_to_end(reps: list[dict], config, workload: str) -> dict[str, float]:
    work = main_work(reps, config, workload)
    final = reps[0]["eval"]
    minority = checks.minority_classes(config)
    return {
        "setup_s": statistics.median(r["setup_s"] * speed_scale(r, slice(0, 2)) for r in reps),
        "run_s": statistics.median(run_seconds(r) for r in reps),
        "samples_per_s": statistics.median(
            work / (r["main_s"] * speed_scale(r, slice(1, 3))) for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "map50": final["map50"],
        "minority_ap": statistics.fmean(final["per_class_ap"][c] for c in minority),
    }


def end_to_end_wall(reps: list[dict], config, workload: str) -> dict[str, float]:
    """The time metrics of `end_to_end` as raw wall-time medians, not at reference speed."""
    work = main_work(reps, config, workload)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "run_s": statistics.median(wall_seconds(r) for r in reps),
        "samples_per_s": statistics.median(work / r["main_s"] for r in reps),
    }


def wall_seconds(rep: dict) -> float:
    """The repetition's raw wall time without its reference loops."""
    return rep["run_s"] - rep["reference_total_s"]


def run_seconds(rep: dict) -> float:
    """The repetition's wall time without its reference loops, at reference speed."""
    return wall_seconds(rep) * speed_scale(rep)


def per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    scale = speed_scale(traced)
    values = {name: value * scale if name.endswith(".self_s") else value
              for name, value in traced["layers"].items()}
    values["io.bytes_written"] = traced["bytes_written"]
    values["trace.overhead"] = run_seconds(traced) / run_seconds(untraced)
    return values


def per_layer_wall(traced: dict) -> dict[str, float]:
    """The self times of `per_layer` as raw wall time, not at reference speed."""
    return {name: value for name, value in traced["layers"].items() if name.endswith(".self_s")}


def repeat(args, config, config_path: str, work_dir: str) -> list[dict]:
    """Untraced repetitions, one per CPU at a time, for about `args.seconds`."""
    cpus = sorted(os.sched_getaffinity(0))
    reps: list[dict] = []
    start = time.perf_counter()
    with ThreadPoolExecutor(len(cpus)) as pool:
        while True:
            futures = [pool.submit(run_rep, args.workload, config, config_path,
                                   os.path.join(work_dir, f"rep{len(reps) + i}"), False, cpu)
                       for i, cpu in enumerate(cpus)]
            reps += [f.result() for f in futures]
            elapsed = time.perf_counter() - start
            longest = max(r.get("run_s", REP_TIMEOUT_S) for r in reps)
            if elapsed + longest > RUN_LIMIT_S:
                return reps
            if len(reps) >= MIN_REPS and elapsed + longest > args.seconds:
                return reps


def run(args, overrides: dict | None = None) -> dict | None:
    """Run one benchmark invocation; returns its record, None if a repetition it needs failed."""
    config = workload_config(args.workload, args.workload_seed, overrides)
    work_dir = os.path.join(OUT_ROOT, args.workload)
    os.makedirs(work_dir, exist_ok=True)
    config_path = os.path.join(work_dir, "config.json")
    config.save_json(config_path)

    if args.trace:
        # traced after untraced on the same CPU, so trace.overhead compares like with like
        cpu = min(os.sched_getaffinity(0))
        reps = [run_rep(args.workload, config, config_path, os.path.join(work_dir, f"rep{i}"),
                        traced, cpu) for i, traced in enumerate((False, True))]
    else:
        reps = repeat(args, config, config_path, work_dir)
    digest = check_purity(reps)

    failed = [r for r in reps if r["problems"]]
    for i, rep in enumerate(reps):
        for problem in rep["problems"]:
            print(f"rep {i}: {problem}", file=sys.stderr)
    passing = [r for r in reps if not r["problems"]]
    if not passing or (args.trace and failed):
        return None
    if args.trace:
        values, wall = per_layer(*reps), per_layer_wall(reps[1])
    else:
        values = end_to_end(passing, config, args.workload)
        wall = end_to_end_wall(passing, config, args.workload)
    units = metric_units(bool(args.trace))
    result = {
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"environment": environment(args, config), "digest": digest,
              "wall": {name: {"value": value, "unit": units[name]} for name, value in wall.items()},
              "per_class_ap": passing[0]["eval"]["per_class_ap"],
              "reps": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
              "result": result}
    with open(os.path.join(OUT_ROOT, "runs.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="detadapt benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed, recorded with the run (the world is --workload-seed)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measure at least this long (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, default=0,
                        help="config seed of the generated world and training streams")
    return parser


def main(argv=None, overrides: dict | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "detadapt", "__init__.py")):
        print(f"no detadapt sources under {ROOT}/src; run from a repository checkout",
              file=sys.stderr)
        return 2
    record = run(args, overrides)
    if record is None:
        print("no result: the repetitions failed their checks", file=sys.stderr)
        return 1
    result = record["result"]
    print("environment = " + json.dumps(record["environment"]))
    print("digest = " + json.dumps(record["digest"]))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    for name, metric in record["wall"].items():
        print(f"wall {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
