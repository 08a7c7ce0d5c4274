"""Spans around calls into each `detadapt` module, recorded from outside it.

`Tracer.install()` replaces each traced public function in every namespace
that binds it (`from .detector import forward` binds `forward` in `trainer`,
`teacher`, `partition`, `metrics`, ...) and each traced method on its class.
A span is (name, parent, start, end); spans stay in memory and are written
once at exit. Self time is a span's duration minus that of its child spans.
The wrappers only call through, so tracing cannot change a run's results.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import Counter

# module -> traced public functions ("Class.method" for methods)
TRACED = {
    "world": ["generate_domain", "perturb_features"],
    "detector": ["forward", "forward_arrays", "detection_loss", "match_labels",
                 "sgd_step", "save_params"],
    "teacher": ["pseudo_label", "background_indices", "ema_update"],
    "partition": ["partition", "mc_passes"],
    "relation": ["batch_confusion", "RelationMatrix.update", "RelationMatrix.save_rows"],
    "weighting": ["relation_weights"],
    "cropbank": ["augment_sample", "Cropbank.push"],
    "expert": ["expert_predict", "expert_loss"],
    "trainer": ["pretrain_source", "adapt", "discriminator_loss"],
    "metrics": ["evaluate", "map_at_iou", "froc", "f1_auc"],
}
# called too often for a span each; only counted
COUNTED = {"world": ["BBox.from_raw"]}

PACKAGE = "detadapt"


def traced_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def counted_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in COUNTED.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []  # name, parent index, start, end
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[list] = []      # [span index, name, start, child ns]
        self._open: Counter = Counter()   # open spans per name
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "detector.forward_arrays" and self._in_adapt_loop():
                self.counters["adapt_passes"] += 1
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append((name, parent, 0, 0))
            frame = [index, name, time.perf_counter_ns(), 0]
            self._stack.append(frame)
            self._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self._open[name] -= 1
                duration = end - frame[2]
                self.spans[index] = (name, parent, frame[2], end)
                self.calls[name] += 1
                self.self_ns[name] += duration - frame[3]
                if self._stack:
                    self._stack[-1][3] += duration
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _in_adapt_loop(self) -> bool:
        """True inside trainer.adapt but outside its partition and per-epoch eval."""
        return (self._open["trainer.adapt"] > 0 and self._open["partition.partition"] == 0
                and self._open["metrics.evaluate"] == 0)

    def _observe_pseudo_label(self, args, labels) -> None:
        self.counters["pseudo_labels"] += len(labels)
        self.counters["proposals_scored"] += args[1].num_proposals

    def _observe_augment(self, args, result) -> None:
        self.counters["aug_labels_in"] += len(args[1])
        self.counters["aug_labels_soft"] += sum(1 for _, vec in result[1] if vec.max() < 1.0)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced and counted callable of the package."""
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        observers = {"teacher.pseudo_label": self._observe_pseudo_label,
                     "cropbank.augment_sample": self._observe_augment}
        for table, make in ((TRACED, None), (COUNTED, self._counter)):
            for mod_name, fns in table.items():
                module = sys.modules[f"{PACKAGE}.{mod_name}"]
                for fn_name in fns:
                    name = f"{mod_name}.{fn_name}"
                    if make is None:
                        wrap = functools.partial(self._span, name, observe=observers.get(name))
                    else:
                        wrap = functools.partial(make, name)
                    if "." in fn_name:
                        self._patch_method(module, fn_name, wrap)
                    else:
                        self._patch_function(module, fn_name, wrap)

    def _patch_function(self, module, fn_name: str, wrap) -> None:
        original = getattr(module, fn_name)
        wrapper = wrap(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, module, dotted: str, wrap) -> None:
        cls_name, meth_name = dotted.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[meth_name]
        self._restore.append((cls, meth_name, raw))
        if isinstance(raw, classmethod):
            setattr(cls, meth_name, classmethod(wrap(raw.__func__)))
        else:
            setattr(cls, meth_name, wrap(raw))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self, sample_steps: int) -> dict[str, float]:
        """Per-layer counts, self times and ratios; `sample_steps` = epochs x target size."""
        out: dict[str, float] = {}
        for name in traced_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9
        for name in counted_names():
            out[f"{name}.calls"] = self.calls[name]
        c = self.counters
        out["detector.passes_per_sample_step"] = \
            c["adapt_passes"] / sample_steps if sample_steps else 0.0
        out["teacher.pseudo_label.yield"] = \
            c["pseudo_labels"] / c["proposals_scored"] if c["proposals_scored"] else 0.0
        out["cropbank.augment_sample.mixed_share"] = \
            c["aug_labels_soft"] / c["aug_labels_in"] if c["aug_labels_in"] else 0.0
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_ns,end_ns\n")
            for index, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{index},{parent},{name},{start},{end}\n")
