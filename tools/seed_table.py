"""Run the CLI ablation suite of one source tree over several seeds and print its seed table.

    python3 tools/seed_table.py TREE [--against PARENT] [--seeds 0-4] [--epochs 50]

For each seed, TREE's own `src/` runs `--mode ablation-suite` with one BLAS
thread, on the default config with `--epochs` adapt epochs. The table has one
row per seed and a row of means: each variant's final teacher mAP50, then each
variant's final AP of the rare classes 3 and 4 (the default world's contracted
classes), then each variant's final AP of the dominant classes 0-2, averaged
over the three, to show what augmentation costs them. Below it come full - +SA
per seed, with its mean and sample SD, and the number of seeds on which +SA
lifts both rare classes above base.

With `--against PARENT`, PARENT runs the same seeds too, and one line per
variant follows: the paired difference TREE - PARENT, seed by seed, in final
mAP50 and in the mean of AP3 and AP4, each as its mean, its standard error
(sample SD / sqrt(seeds)) and the number of seeds on which TREE is higher.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

VARIANTS = {"base": "base", "sa": "+SA", "sal": "+SAL", "full": "full"}
RARE = (3, 4)
DOMINANT = (0, 1, 2)


def parse_seeds(text: str) -> list[int]:
    """"0-4" is seeds 0 to 4; "3" is seed 3 alone. Anything else, a range
    that holds no seed such as "4-2" included, is an `ArgumentTypeError`,
    which argparse reports as a usage error (exit 2)."""
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(f"{text!r} is neither a rising range such as 0-4 "
                                         f"nor one seed")
    return seeds


def run_seed(tree: str, seed: int, epochs: int, config: dict, out: str) -> dict:
    """Run the suite for one seed into `out`; {variant: (final teacher mAP50,
    final AP of each rare class, mean final AP of the dominant classes)} from
    its histories."""
    os.makedirs(out)
    config_path = os.path.join(out, "config.json")
    with open(config_path, "w") as fh:
        json.dump(dict(config, seed=seed, epochs=epochs), fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "detadapt.cli", "--mode", "ablation-suite",
                    "--config", config_path, "--out", out], env=env, check=True)
    finals = {}
    for name in VARIANTS:
        with open(os.path.join(out, f"history_{name}.csv"), newline="") as fh:
            last = list(csv.DictReader(fh))[-1]
        finals[name] = (float(last["teacher_map"]),
                        tuple(float(last[f"ap_class_{c}"]) for c in RARE),
                        statistics.fmean(float(last[f"ap_class_{c}"]) for c in DOMINANT))
    return finals


def render(results: dict[int, dict]) -> str:
    """The markdown seed table of `run_seed` results by seed, and its summary lines."""
    rare = " / ".join(f"AP{c}" for c in RARE)
    dominant = f"AP{DOMINANT[0]}-{DOMINANT[-1]}"
    header = ["seed"] + list(VARIANTS.values()) + [f"{v} {rare}" for v in VARIANTS.values()]
    header += [f"{v} {dominant}" for v in VARIANTS.values()]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]

    def row(label, finals):
        cells = [label] + [f"{finals[n][0]:.4f}" for n in VARIANTS]
        cells += [" / ".join(f"{ap:.3f}" for ap in finals[n][1]) for n in VARIANTS]
        cells += [f"{finals[n][2]:.3f}" for n in VARIANTS]
        lines.append("| " + " | ".join(cells) + " |")

    runs = list(results.values())
    for seed, finals in results.items():
        row(str(seed), finals)
    row("mean", {n: (statistics.fmean(r[n][0] for r in runs),
                     [statistics.fmean(aps) for aps in zip(*(r[n][1] for r in runs))],
                     statistics.fmean(r[n][2] for r in runs))
                 for n in VARIANTS})

    diffs = [r["full"][0] - r["sa"][0] for r in runs]
    sd = statistics.stdev(diffs) if len(diffs) > 1 else float("nan")
    lines.append("")
    lines.append("full - +SA: " + ", ".join(f"{d:+.4f}" for d in diffs)
                 + f"; mean {statistics.fmean(diffs):+.4f}, SD {sd:.4f}")
    rescued = sum(all(sa > base for sa, base in zip(r["sa"][1], r["base"][1])) for r in runs)
    lines.append(f"+SA lifts AP{' and AP'.join(map(str, RARE))} above base on {rescued} "
                 f"of {len(runs)} seeds")
    return "\n".join(lines)


def render_against(results: dict[int, dict], parents: dict[int, dict]) -> str:
    """One line per variant: the paired differences of `run_seed` results
    minus the parent's, seed by seed, in final mAP50 and in mean rare-class AP."""
    rare = "/".join(f"AP{c}" for c in RARE)
    measures = {"mAP50": lambda finals: finals[0],
                f"mean {rare}": lambda finals: statistics.fmean(finals[1])}
    lines = []
    for name, label in VARIANTS.items():
        cells = []
        for measure, value in measures.items():
            diffs = [value(results[seed][name]) - value(parents[seed][name]) for seed in results]
            se = statistics.stdev(diffs) / math.sqrt(len(diffs)) if len(diffs) > 1 \
                else float("nan")
            cells.append(f"{measure} {statistics.fmean(diffs):+.4f} (SE {se:.4f}, "
                         f"higher on {sum(d > 0 for d in diffs)} of {len(diffs)})")
        lines.append(f"{label} change - parent: " + ", ".join(cells))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree")
    parser.add_argument("--against", metavar="PARENT",
                        help="a second tree, run on the same seeds, to pair with TREE")
    parser.add_argument("--seeds", type=parse_seeds, default="0-4",
                        help='a range, "0-4", or one seed')
    parser.add_argument("--epochs", type=int, default=50)
    args = parser.parse_args(argv)
    seeds = args.seeds
    with tempfile.TemporaryDirectory() as tmp:
        results = {seed: run_seed(args.tree, seed, args.epochs, {},
                                  os.path.join(tmp, f"seed_{seed}"))
                   for seed in seeds}
        parents = {seed: run_seed(args.against, seed, args.epochs, {},
                                  os.path.join(tmp, f"parent_seed_{seed}"))
                   for seed in seeds} if args.against else None
    print(render(results))
    if parents:
        print()
        print(render_against(results, parents))
    return 0


if __name__ == "__main__":
    sys.exit(main())
