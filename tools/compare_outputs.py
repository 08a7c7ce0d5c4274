"""Run the benchmark's three workloads on two source trees and diff every output file.

    python3 tools/compare_outputs.py TREE_A TREE_B

Each tree runs, from its own `src/`, with one BLAS thread: CLI pretrain, then
CLI adapt of the full method and of the base variant from that source model
(seed 0, 10 epochs), of the +SA variant with a crop bank of two rows per
buffer (3 epochs), which evicts on almost every push (the default capacity
rarely does), of the +SA variant without feature noise (3 epochs), of the
+SA variant on a crowded target world (4 to 6 objects of sides 20 to 40 per
sample, 3 epochs), whose batches carry about twice the default's labels and
blends (each pseudo-label supervises and blends the pass row it was read
from, so no two blends of a batch share a feature row, and rows blended
twice are left to the crop bank's unit tests), and of the full method with
a noisy expert (miss rate .3, flip rate .5), on a target world of one
proposal per sample and on a dense-background target world (Poisson rate
10 of background proposals, boxes of sides 20 to 60), where proposals
overlap most, so a change to how labels reach their proposals shows there
first (3 epochs each), the
score-large partition and evaluation (that source model on a target set ten
times the default size), CLI eval of that source
model twice (once generating and saving the target set, once reloading the
saved set with --dataset, so the dataset writer and reader are both diffed),
and the CLI ablation suite (seed 0, 3 epochs), whose +SA and +SAL runs no
benchmark workload makes. Three more CLI pretrain runs cover the edges of
pretraining's batches and layouts: batch size 7, whose last batch is short,
a source world of one proposal per sample, and a crowded source world (4 to
6 objects of sides 20 to 40 per sample), where at seed 0 six proposals are
each the best match of two of its 2,494 objects (the default source world
has no such proposal among its 976 objects), so labels sharing a pass row
reach the outputs through the layout's rows, slots and segments. A small
C = 8 world (60 samples, 3 pretrain epochs) is pretrained, partitioned and
evaluated too, so score vectors of 9 entries
are diffed as well as those of 6. It also saves two generated worlds as
dataset JSON, the seed-0 source set (`source_dataset.json`) and the
score-large target set (`score-large/target_dataset.json`), so a generator
change is diffed on the worlds themselves, not only through the outputs
built on them.
Prints one line per file that differs or exists in one tree only, then a
summary. Exits 1 on any difference.

    python3 tools/compare_outputs.py --rtol 1e-9 TREE_A TREE_B

compares the numbers of each file that differs instead: every JSON number
and every CSV cell that parses as one, in order. It prints the largest
relative difference, |a - b| / max(|a|, |b|), of each such file, and exits 1
only if one exceeds RTOL, if anything but those numbers differs (keys,
text cells, counts) or if a file exists in one tree only.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import math
import os
import subprocess
import sys
import tempfile

RUN = r"""
import dataclasses, json, os, sys
from detadapt import cli, trainer, util, world
from detadapt.config import default_config
from detadapt.detector import load_params, save_params
from detadapt.metrics import evaluate
from detadapt.partition import partition
out = sys.argv[1]
base = dataclasses.replace(default_config(seed=0), epochs=10)
variants = trainer.ablation_variants(base)
os.makedirs(out)
assert cli.run_cli(["--mode", "pretrain", "--out", os.path.join(out, "pretrain")]) == 0
source_params = os.path.join(out, "pretrain", "source_params.json")
# a two-row bank evicts on almost every push;
# without noise the student scores the augmented or the teacher's own feature rows;
# a crowded target world doubles each batch's labels and blends; a noisy
# expert draws a flip's `integers` for many of its labels; in a target
# world of one proposal per sample every batch row takes `_heads`' one-row
# products, on row views of the epoch's rows; and a dense-background world's
# proposals overlap most, where a label's box lies nearest other proposals
# than its own
one_proposal_target = dataclasses.replace(base.target, max_objects=1, background_rate=0.0)
crowded_target = dataclasses.replace(base.target, min_objects=4, max_objects=6, min_box=20.0,
                                     max_box=40.0)
dense_target = dataclasses.replace(base.target, background_rate=10.0, min_box=20.0,
                                   max_box=60.0)
runs = {"full": variants["full"], "base": variants["base"],
        "sa-capacity2": dataclasses.replace(variants["sa"], bank_capacity=2, epochs=3),
        "sa-noise0": dataclasses.replace(variants["sa"], noise_scale=0.0, epochs=3),
        "sa-crowded": dataclasses.replace(variants["sa"], epochs=3, target=crowded_target),
        "full-noisy-expert": dataclasses.replace(
            variants["full"], epochs=3,
            expert=dataclasses.replace(base.expert, miss_rate=0.3, flip_rate=0.5)),
        "full-one-proposal": dataclasses.replace(variants["full"], epochs=3,
                                                 target=one_proposal_target),
        "full-dense-background": dataclasses.replace(variants["full"], epochs=3,
                                                     target=dense_target)}
for name, variant in runs.items():
    config_path = os.path.join(out, f"config_{name}.json")
    variant.save_json(config_path)
    assert cli.run_cli(["--mode", "adapt", "--config", config_path,
                        "--out", os.path.join(out, f"adapt-{name}"),
                        "--params", source_params]) == 0
# pretraining cuts each batch from its epoch's rows and layout: at batch size 7
# the last batch is short, in a world of one proposal per sample every row
# takes `_heads`' one-row products, and in a crowded world some labels share
# their proposal
one_proposal = dataclasses.replace(base.source, max_objects=1, background_rate=0.0)
crowded = dataclasses.replace(base.source, min_objects=4, max_objects=6, min_box=20.0,
                              max_box=40.0)
for name, variant in {"batch7": dataclasses.replace(base, batch_size=7),
                      "one-proposal": dataclasses.replace(base, source=one_proposal),
                      "crowded": dataclasses.replace(base, source=crowded)}.items():
    config_path = os.path.join(out, f"config_pretrain-{name}.json")
    variant.save_json(config_path)
    assert cli.run_cli(["--mode", "pretrain", "--config", config_path,
                        "--out", os.path.join(out, f"pretrain-{name}")]) == 0
assert cli.run_cli(["--mode", "eval", "--out", os.path.join(out, "eval-generate"),
                    "--params", source_params]) == 0
assert cli.run_cli(["--mode", "eval", "--out", os.path.join(out, "eval-reload"),
                    "--params", source_params,
                    "--dataset", os.path.join(out, "eval-generate", "eval_dataset.json")]) == 0
config = default_config(seed=0)
params = load_params(source_params)
large = dataclasses.replace(config.target, size=10 * config.target.size)
samples = world.generate_domain(large, util.derive_seed(config.seed, "world", "target"))
os.makedirs(os.path.join(out, "score-large"))
# the worlds themselves, so a generator change is diffed before any model reads it
world.save_dataset(os.path.join(out, "score-large", "target_dataset.json"), large, samples)
world.save_dataset(os.path.join(out, "source_dataset.json"), config.source,
                   world.generate_domain(config.source,
                                         util.derive_seed(config.seed, "world", "source")))
report = partition(samples, params, config.mc_passes, config.variance_threshold,
                   util.rng_stream(config.seed, "partition"))
report.save_csv(os.path.join(out, "score-large", "partition.csv"))
result = evaluate(params, samples, num_classes=config.num_classes)
with open(os.path.join(out, "score-large", "eval.json"), "w") as fh:
    json.dump(result.to_dict(), fh, indent=2)
# a C = 8 world: its C + 1 = 9 scores per proposal are past the 8-column
# switch of the log-softmax, which the C = 5 runs above never reach
spec8 = world.make_domain_spec(8, 6, 60, (0.3, 0.2, 0.15, 0.1, 0.1, 0.05, 0.05, 0.05),
                               layout_seed=3)
config8 = dataclasses.replace(config, source=spec8, target=world.shift_domain(spec8, [0.5] * 6),
                              pretrain_epochs=3)
params8, _ = trainer.pretrain_source(config8)
samples8 = world.generate_domain(config8.target, util.derive_seed(0, "world", "target"))
os.makedirs(os.path.join(out, "classes8"))
save_params(os.path.join(out, "classes8", "source_params.json"), params8)
partition(samples8, params8, config8.mc_passes, config8.variance_threshold,
          util.rng_stream(0, "partition")).save_csv(os.path.join(out, "classes8", "partition.csv"))
with open(os.path.join(out, "classes8", "eval.json"), "w") as fh:
    json.dump(evaluate(params8, samples8, num_classes=8).to_dict(), fh, indent=2)
# a partial config: its bytes do not depend on the tree's config fields
suite_config = os.path.join(out, "config_suite.json")
with open(suite_config, "w") as fh:
    json.dump({"seed": 0, "epochs": 3}, fh)
assert cli.run_cli(["--mode", "ablation-suite", "--config", suite_config,
                    "--out", os.path.join(out, "ablation-suite")]) == 0
"""


def run_tree(tree: str, out: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", RUN, out], env=env, check=True)


def files_under(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def _split(node, numbers: list[float]):
    """A parsed JSON value with each number replaced by None, its numbers appended in order."""
    if isinstance(node, dict):
        return {key: _split(value, numbers) for key, value in node.items()}
    if isinstance(node, list):
        return [_split(value, numbers) for value in node]
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        numbers.append(float(node))
        return None
    return node


def _cell(text: str, numbers: list[float]):
    try:
        numbers.append(float(text))
    except ValueError:
        return text
    return None


def numbers_of(path: str):
    """(the file's content with each number replaced by None, its numbers in
    order) for a JSON or CSV file; None for any other file."""
    numbers: list[float] = []
    with open(path, newline="") as fh:
        if path.endswith(".json"):
            rest = _split(json.load(fh), numbers)
        elif path.endswith(".csv"):
            rest = [[_cell(text, numbers) for text in row] for row in csv.reader(fh)]
        else:
            return None
    return rest, numbers


def relative_difference(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def largest_difference(path_a: str, path_b: str) -> float:
    """The largest relative difference of two files' numbers; inf if anything
    else differs or the files are neither JSON nor CSV."""
    split_a, split_b = numbers_of(path_a), numbers_of(path_b)
    if split_a is None or split_b is None or split_a[0] != split_b[0]:
        return math.inf
    return max(map(relative_difference, split_a[1], split_b[1]), default=0.0)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--rtol", type=float, help="compare differing files' numbers to this "
                                                   "relative tolerance instead of their bytes")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        outs = [os.path.join(tmp, side) for side in ("a", "b")]
        for tree, out in zip((args.tree_a, args.tree_b), outs):
            run_tree(tree, out)
        names = [files_under(out) for out in outs]
        differ = [n for n in sorted(names[0] & names[1])
                  if not filecmp.cmp(*(os.path.join(o, n) for o in outs), shallow=False)]
        drift = {} if args.rtol is None else \
            {n: largest_difference(*(os.path.join(o, n) for o in outs)) for n in differ}
    only = sorted(names[0] ^ names[1])
    for name in differ:
        print(f"differs: {name}" if args.rtol is None else
              f"differs: {name} (largest relative difference {drift[name]:.3g})")
    for name in only:
        print(f"only in {'A' if name in names[0] else 'B'}: {name}")
    summary = f"{len(names[0] | names[1])} files, {len(differ)} differ, {len(only)} in one tree only"
    if args.rtol is None:
        print(summary)
        return 1 if differ or only else 0
    beyond = [name for name in differ if not drift[name] <= args.rtol]
    print(f"{summary}, {len(beyond)} beyond rtol {args.rtol:g}")
    return 1 if beyond or only else 0


if __name__ == "__main__":
    sys.exit(main())
