"""In-memory span recorder and the patches that trace gaitverify's layers.

A span is (name, tag, start, end, parent). ``tag`` groups spans of one
kind (for example every convolution forward is tagged ``nn.conv.fwd``)
and maps to the module the time is charged to. Spans stay in memory and
are reduced to per-layer metrics when the traced iteration ends.

Tracing wraps the public functions and methods of each layer from the
benchmark's own files: every gaitverify namespace that bound a traced
function (``gaitverify.cli.run_protocol`` next to
``gaitverify.evaluate.run_protocol``) is patched, and every patch is
undone when the traced section ends, so untraced iterations run the
original code.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "tag", "start", "end", "parent")

    def __init__(self, name: str, tag: str, start: float, parent: int):
        self.name = name
        self.tag = tag
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Nested spans of one thread plus integer counts, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def begin(self, name: str, tag: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, tag or name, self.clock(), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name!r} ended out of order")
        self._stack.pop()
        self.spans[index].end = self.clock()

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def has_ancestor(self, index: int, tag: str) -> bool:
        parent = self.spans[index].parent
        while parent >= 0:
            if self.spans[parent].tag == tag:
                return True
            parent = self.spans[parent].parent
        return False


# --- what is traced -------------------------------------------------------
#
# Functions: (module, attribute, span tag, count key, count of (args, result)).
# The tag doubles as the span name.

def _rows_loaded(args, result):
    return sum(len(rec) for rec in result)


FUNCTIONS = [
    ("gaitverify.data.canonical", "load_canonical_csv", "data.load_canonical",
     "data.load_canonical.rows", _rows_loaded),
    ("gaitverify.data.canonical", "write_canonical_csv", "data.write_canonical", None, None),
    ("gaitverify.data.canonical", "export_features_csv", "data.export_features", None, None),
    ("gaitverify.data.canonical", "load_features_csv", "data.load_features", None, None),
    ("gaitverify.data.container", "save_model", "data.save_model", None, None),
    ("gaitverify.data.container", "load_model", "data.load_model", None, None),
    ("gaitverify.pipeline", "frames_from_recordings", "signal.frames",
     "signal.frames.count", lambda args, result: len(result)),
    ("gaitverify.augment", "augment_dataset", "augment",
     "augment.frames", lambda args, result: len(result) - len(args[0])),
    ("gaitverify.nn.ops", "softmax_crossentropy", "nn.other", None, None),
    ("gaitverify.nn.ops", "mse_loss", "nn.other", None, None),
    ("gaitverify.nn.training", "train", "nn.train", None, None),
    ("gaitverify.nn.training", "evaluate_loss", "nn.train.val", None, None),
    ("gaitverify.models", "frames_to_array", "models.frames_to_array", None, None),
    ("gaitverify.ocsvm", "train_ocsvm", "ocsvm.fit",
     "ocsvm.fit.iterations", lambda args, result: result.iterations),
    ("gaitverify.ocsvm", "scores", "ocsvm.score",
     "ocsvm.score.rows", lambda args, result: len(result)),
    ("gaitverify.ocsvm", "rbf_kernel", "ocsvm.rbf_kernel", None, None),
    ("gaitverify.evaluate", "run_protocol", "evaluate.protocol", None, None),
    ("gaitverify.evaluate", "aggregate_scores", "evaluate.aggregate", None, None),
    ("gaitverify.evaluate", "roc_auc", "evaluate.metrics", None, None),
    ("gaitverify.evaluate", "eer", "evaluate.metrics", None, None),
    ("gaitverify.evaluate", "write_report_csv", "evaluate.report", None, None),
    ("gaitverify.evaluate", "format_summary", "evaluate.report", None, None),
]

# Methods: (module, class, method, span tag, per-instance name or None,
# count key, count of (args, result)). Per-instance spans are named
# ``nn.<layer name>.<fwd|bwd>`` after the layer object's ``name``.
METHODS = [
    ("gaitverify.nn.layers", "Conv1d", "forward", "nn.conv.fwd", "fwd", None, None),
    ("gaitverify.nn.layers", "Conv1d", "backward", "nn.conv.bwd", "bwd", None, None),
    ("gaitverify.nn.layers", "BatchNorm", "forward", "nn.bn.fwd", "fwd", None, None),
    ("gaitverify.nn.layers", "BatchNorm", "backward", "nn.bn.bwd", "bwd", None, None),
    ("gaitverify.nn.layers", "ReLU", "forward", "nn.other", None, None, None),
    ("gaitverify.nn.layers", "ReLU", "backward", "nn.other", None, None, None),
    ("gaitverify.nn.layers", "GlobalAveragePool", "forward", "nn.other", None, None, None),
    ("gaitverify.nn.layers", "GlobalAveragePool", "backward", "nn.other", None, None, None),
    ("gaitverify.nn.layers", "LatentBroadcast", "forward", "nn.other", None, None, None),
    ("gaitverify.nn.layers", "LatentBroadcast", "backward", "nn.other", None, None, None),
    ("gaitverify.nn.layers", "Dense", "forward", "nn.other", None, None, None),
    ("gaitverify.nn.layers", "Dense", "backward", "nn.other", None, None, None),
    ("gaitverify.nn.optim", "Adam", "step", "nn.optim.step", None, None, None),
    ("gaitverify.models", "FCNClassifier", "loss_and_backward", "models.loss_and_backward",
     None, None, None),
    ("gaitverify.models", "Autoencoder", "loss_and_backward", "models.loss_and_backward",
     None, None, None),
    ("gaitverify.models", "_Model", "snapshot", "nn.train.snapshot", None, None, None),
    ("gaitverify.models", "_Model", "load_snapshot", "nn.train.snapshot", None, None, None),
    ("gaitverify.models", "Encoder", "transform", "models.transform",
     None, "models.transform.frames", lambda args, result: len(result)),
]

# Module each span tag's self time is charged to; ``cli.<command>`` spans
# are charged to ``cli``.
TAG_LAYER = {
    "data.load_canonical": "data.canonical", "data.write_canonical": "data.canonical",
    "data.export_features": "data.canonical", "data.load_features": "data.canonical",
    "data.save_model": "data.container", "data.load_model": "data.container",
    "signal.frames": "signal", "augment": "augment",
    "nn.conv.fwd": "nn.layers", "nn.conv.bwd": "nn.layers", "nn.bn.fwd": "nn.layers",
    "nn.bn.bwd": "nn.layers", "nn.other": "nn.layers",
    "nn.optim.step": "nn.optim",
    "nn.train": "nn.training", "nn.train.val": "nn.training",
    "nn.train.snapshot": "nn.training",
    "models.frames_to_array": "models", "models.transform": "models",
    "models.loss_and_backward": "models",
    "ocsvm.fit": "ocsvm", "ocsvm.score": "ocsvm", "ocsvm.rbf_kernel": "ocsvm",
    "evaluate.protocol": "evaluate", "evaluate.aggregate": "evaluate",
    "evaluate.metrics": "evaluate", "evaluate.report": "evaluate",
}

LAYERS = ("data.canonical", "data.container", "signal", "augment", "nn.layers", "nn.optim",
          "nn.training", "models", "ocsvm", "evaluate", "cli")


def layer_of(tag: str) -> str:
    return "cli" if tag.startswith("cli.") else TAG_LAYER[tag]


def _wrapper(orig, recorder: Recorder, tag: str, phase: str | None,
             count_key: str | None, counter):
    @functools.wraps(orig)
    def traced(*args, **kwargs):
        name = f"nn.{args[0].name}.{phase}" if phase else tag
        index = recorder.begin(name, tag)
        try:
            result = orig(*args, **kwargs)
        finally:
            recorder.end(index)
        if count_key is not None:
            recorder.count(count_key, counter(args, result))
        return result
    return traced


@contextmanager
def traced(recorder: Recorder):
    """Patch every traced function and method for the duration of the block."""
    undo = []
    try:
        modules = [m for name, m in list(sys.modules.items())
                   if name.split(".")[0] == "gaitverify" and m is not None]
        for module_name, attr, tag, count_key, counter in FUNCTIONS:
            orig = getattr(importlib.import_module(module_name), attr)
            wrapped = _wrapper(orig, recorder, tag, None, count_key, counter)
            for module in modules:
                if vars(module).get(attr) is orig:
                    undo.append((module, attr, orig))
                    setattr(module, attr, wrapped)
        for module_name, cls_name, attr, tag, phase, count_key, counter in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            orig = vars(cls)[attr]
            undo.append((cls, attr, orig))
            setattr(cls, attr, _wrapper(orig, recorder, tag, phase, count_key, counter))
        yield recorder
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


# --- reduction to per-layer metrics --------------------------------------

NN_INSTANCES = ("block1.conv", "block1.bn", "block2.conv", "block2.bn", "block3.conv",
                "block3.bn", "dec.block1.conv", "dec.block1.bn", "dec.block2.conv",
                "dec.block2.bn", "dec.out")
COMMANDS = ("train", "extract", "evaluate")


def _percentile(values: list[float], q: int) -> float:
    """q-th percentile (Python's exclusive quantile method); 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline iteration.

    Times are in seconds unless the name ends in ``_ms``. Per-instance
    ``nn.<layer>.fwd_ms``/``bwd_ms`` are medians over the calls made by
    training steps (inside ``loss_and_backward``, one batch each);
    the ``nn.<kind>`` totals cover every call, inference included.
    """
    spans = recorder.spans
    selfs = recorder.self_times()
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_tag: dict[str, float] = {}
    per_call: dict[str, list[float]] = {}
    steps: list[float] = []
    optim: list[float] = []
    snapshot = 0.0
    for i, s in enumerate(spans):
        d = s.duration
        total[s.tag] = total.get(s.tag, 0.0) + d
        calls[s.tag] = calls.get(s.tag, 0) + 1
        self_by_tag[s.tag] = self_by_tag.get(s.tag, 0.0) + selfs[i]
        if s.name != s.tag and recorder.has_ancestor(i, "models.loss_and_backward"):
            per_call.setdefault(s.name, []).append(d)
        if recorder.has_ancestor(i, "nn.train"):
            if s.tag == "models.loss_and_backward":
                steps.append(d)
            elif s.tag == "nn.optim.step":
                optim.append(d)
            elif s.tag == "nn.train.snapshot":
                snapshot += d

    m: dict[str, float] = {
        "data.load_canonical.s": total.get("data.load_canonical", 0.0),
        "data.export_features.s": total.get("data.export_features", 0.0),
        "data.load_features.s": total.get("data.load_features", 0.0),
        "data.write_canonical.s": total.get("data.write_canonical", 0.0),
        "data.save_model.s": total.get("data.save_model", 0.0),
        "data.load_model.s": total.get("data.load_model", 0.0),
        "signal.frames.s": total.get("signal.frames", 0.0),
        "augment.s": total.get("augment", 0.0),
        "nn.conv.fwd_s": total.get("nn.conv.fwd", 0.0),
        "nn.conv.bwd_s": total.get("nn.conv.bwd", 0.0),
        "nn.bn.fwd_s": total.get("nn.bn.fwd", 0.0),
        "nn.bn.bwd_s": total.get("nn.bn.bwd", 0.0),
        "nn.other.s": total.get("nn.other", 0.0),
        "nn.optim.step_ms": 1e3 * _percentile(optim, 50),
        "nn.optim.steps": len(optim),
        # one training step = loss_and_backward on a batch + the Adam update after it
        "nn.train.step_ms.p50": 1e3 * _percentile([a + b for a, b in zip(steps, optim)], 50),
        "nn.train.step_ms.p90": 1e3 * _percentile([a + b for a, b in zip(steps, optim)], 90),
        "nn.train.val_s": total.get("nn.train.val", 0.0),
        "nn.train.snapshot_s": snapshot,
        "models.transform.s": total.get("models.transform", 0.0),
        "models.frames_to_array.s": total.get("models.frames_to_array", 0.0),
        "ocsvm.fit.s": total.get("ocsvm.fit", 0.0),
        "ocsvm.fit.calls": calls.get("ocsvm.fit", 0),
        "ocsvm.score.s": total.get("ocsvm.score", 0.0),
        "ocsvm.score.calls": calls.get("ocsvm.score", 0),
        "ocsvm.rbf_kernel.s": total.get("ocsvm.rbf_kernel", 0.0),
        "evaluate.protocol.self_s": self_by_tag.get("evaluate.protocol", 0.0),
        "evaluate.protocol.calls": calls.get("evaluate.protocol", 0),
        "evaluate.aggregate.s": total.get("evaluate.aggregate", 0.0),
        "evaluate.aggregate.calls": calls.get("evaluate.aggregate", 0),
        "evaluate.metrics.s": total.get("evaluate.metrics", 0.0),
        "evaluate.report.s": total.get("evaluate.report", 0.0),
    }
    for key in ("data.load_canonical.rows", "signal.frames.count", "augment.frames",
                "models.transform.frames", "ocsvm.fit.iterations", "ocsvm.score.rows"):
        m[key] = recorder.counts.get(key, 0)
    for inst in NN_INSTANCES:
        for phase in ("fwd", "bwd"):
            m[f"nn.{inst}.{phase}_ms"] = 1e3 * _percentile(
                per_call.get(f"nn.{inst}.{phase}", []), 50)
    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = self_by_tag.get(f"cli.{command}", 0.0)
    return m


def layer_shares(recorder: Recorder, pipeline_s: float) -> dict[str, float]:
    """Percent of ``pipeline_s`` each module spent in its own (self) time."""
    shares = dict.fromkeys(LAYERS, 0.0)
    for s, own in zip(recorder.spans, recorder.self_times()):
        shares[layer_of(s.tag)] += own
    return {k: 100.0 * v / pipeline_s for k, v in shares.items()}
