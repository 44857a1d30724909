"""Per-layer spans for the traced benchmark run.

The harness wraps the public functions of each layer of the program from
here, without touching the program's files.  A span is ``[name, start,
end, parent]``; spans stay in memory until the run ends.  A layer's self
time is its spans' time minus the time of their child spans; the
unattributed remainder is the timed window's own self time, so the self
times of every layer inside the window plus the remainder equal the
window's wall time by construction.

Tracing is switched on only for ``--trace 1`` runs; end-to-end metrics
always come from a run without these wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

#: (span name or None for a count-only hook, "module:qualname", count hook).
#: A dotted qualname wraps a class attribute, which every caller reaches
#: through the class; a bare function name is replaced in its defining
#: module and in every ``repro`` module that imported it by name.
_TARGETS = (
    ("history.generate", "repro.core.history:HistoryGenerator.generate", "records"),
    ("clustering.fit", "repro.clustering.kmeans:GEDKMeans.fit", None),
    ("ged.distance", "repro.ged.search:GEDCache.distance", "ged"),
    ("ged.distance", "repro.ged.search:GEDCache.within", "ged"),
    ("ged.distance", "repro.service.cache:SharedGEDCache.distance", "ged"),
    ("ged.distance", "repro.service.cache:SharedGEDCache.within", "ged"),
    ("gnn.train", "repro.gnn.train:train_bottleneck_gnn", "train"),
    ("gnn.encode", "repro.gnn.model:BottleneckGNN.encode", "encode"),
    ("pretrain", "repro.core.pretrain:pretrain", None),
    ("persistence.load", "repro.core.persistence:load_pretrained", None),
    ("plans.load", "repro.api.plans:load_plan", None),
    ("tuner.tune", "repro.core.tuner:StreamTuneTuner.tune", "tune"),
    ("finetune.warmup", "repro.core.finetune:build_warmup_dataset", None),
    ("finetune.distill", "repro.core.finetune:distill_rows", None),
    ("finetune.embed", "repro.core.finetune:agnostic_embeddings", None),
    ("models.fit", "repro.models.svm:MonotonicSVM.fit", "fit"),
    ("models.predict", "repro.models.svm:MonotonicSVM.predict_proba", None),
    ("models.predict", "repro.models.svm:MonotonicSVM.predict", None),
    ("models.predict", "repro.models.svm:MonotonicSVM.decision_function", None),
    ("models.predict", "repro.models.svm:MonotonicSVM.proba_profile", None),
    ("models.predict", "repro.models.svm:MonotonicSVM.margin_profile", None),
    ("baselines.ds2.tune", "repro.baselines.ds2:DS2Tuner.tune", None),
    ("engines.measure", "repro.engines.base:EngineCluster.measure", "measure"),
    (None, "repro.engines.base:EngineCluster.reconfigure", "reconfigure"),
    (None, "repro.engines.base:EngineCluster.live_reconfigure", "reconfigure"),
)

#: Modules whose by-name imports must exist before wrapping, so that every
#: caller's reference is replaced.
_IMPORTERS = (
    "repro.api.session",
    "repro.core",
    "repro.core.tuner",
    "repro.experiments.context",
    "repro.service.tuning",
)

#: Every per-layer metric, in report order, with its unit.
LAYER_METRICS = (
    ("history.generate_s", "s"),
    ("history.records", "count"),
    ("clustering.fit_s", "s"),
    ("ged.distance_s", "s"),
    ("ged.distance_calls", "count"),
    ("gnn.train_s", "s"),
    ("gnn.train_sample_passes", "count"),
    ("gnn.encode_s", "s"),
    ("gnn.encode_calls", "count"),
    ("pretrain.total_s", "s"),
    ("pretrain.self_s", "s"),
    ("persistence.load_s", "s"),
    ("plans.load_s", "s"),
    ("tuner.tune_s", "s"),
    ("tuner.tune_calls", "count"),
    ("tuner.iterations", "count"),
    ("finetune.warmup_s", "s"),
    ("finetune.distill_s", "s"),
    ("finetune.embed_s", "s"),
    ("models.fit_s", "s"),
    ("models.fit_calls", "count"),
    ("models.fit_rows", "count"),
    ("models.predict_s", "s"),
    ("baselines.ds2.tune_s", "s"),
    ("engines.measure_s", "s"),
    ("engines.measure_calls", "count"),
    ("engines.reconfigure_calls", "count"),
    ("engines.backpressure_final", "count"),
    *(
        (f"service.cache.{section}.{outcome}", "count")
        for section in ("assign", "warmup", "distill", "embed")
        for outcome in ("hits", "misses")
    ),
    ("events.count", "count"),
    ("ledger.write_s", "s"),
    ("ledger.lines", "count"),
    ("ledger.bytes", "bytes"),
    ("unattributed_s", "s"),
    ("tracing_overhead_s", "s"),
)

#: Root spans: set-up (plan and artifact loading) and the timed window.
SETUP_ROOT = "setup"
RUN_ROOT = "run"


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def open(self, name: str) -> int:
        if threading.get_ident() != self._thread:
            raise RuntimeError(f"span {name!r} opened off the benchmark thread")
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    @property
    def depth(self) -> int:
        return len(self._stack)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def layer_times(self, root: str) -> tuple[dict, dict, float]:
        """Per-name self and inclusive times of the spans under ``root``.

        Returns ``(self_times, inclusive_times, root_self)``; nested spans
        of one name (a model method calling another) count once in the
        inclusive figure, through their outermost span.
        """
        n = len(self.spans)
        child_time = [0.0] * n
        top = [0] * n
        for i, (_, start, end, parent) in enumerate(self.spans):
            top[i] = i if parent < 0 else top[parent]
            if parent >= 0:
                child_time[parent] += end - start
        self_times: Counter = Counter()
        inclusive: Counter = Counter()
        root_self = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            if self.spans[top[i]][0] != root:
                continue
            if parent < 0:
                root_self += (end - start) - child_time[i]
                continue
            self_times[name] += (end - start) - child_time[i]
            if self.spans[parent][0] != name:
                inclusive[name] += end - start
        return dict(self_times), dict(inclusive), root_self


def _count(tracer: Tracer, hook: str, signature, args, kwargs, result) -> None:
    counts = tracer.counts
    if hook == "records":
        counts["history.records"] += len(result)
    elif hook == "ged":
        counts["ged.distance_calls"] += 1
    elif hook == "train":
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        labelled = sum(1 for s in bound.arguments["samples"] if s.n_labelled > 0)
        counts["gnn.train_sample_passes"] += labelled * bound.arguments["epochs"]
    elif hook == "encode":
        counts["gnn.encode_calls"] += 1
    elif hook == "tune":
        counts["tuner.tune_calls"] += 1
        counts["tuner.iterations"] += len(result.steps)
    elif hook == "fit":
        counts["models.fit_calls"] += 1
        counts["models.fit_rows"] += len(args[1])
    elif hook == "measure":
        counts["engines.measure_calls"] += 1
    elif hook == "reconfigure":
        counts["engines.reconfigure_calls"] += 1


def _wrapper(tracer: Tracer, span: str | None, hook: str | None, original):
    signature = inspect.signature(original) if hook == "train" else None

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        index = tracer.open(span) if span is not None else None
        try:
            result = original(*args, **kwargs)
        finally:
            if index is not None:
                tracer.close(index)
        if hook is not None:
            _count(tracer, hook, signature, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary in :data:`_TARGETS` for this process."""
    for module_name in _IMPORTERS:
        importlib.import_module(module_name)
    for span, target, hook in _TARGETS:
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attribute = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attribute]
            setattr(owner, attribute, _wrapper(tracer, span, hook, original))
            continue
        original = getattr(module, attribute)
        wrapped = _wrapper(tracer, span, hook, original)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, name, wrapped)


def check_spans(tracer: Tracer) -> None:
    """Raise unless the spans form a well-nested tree in time.

    Every span must end no earlier than it starts, lie inside its parent's
    interval, and start no earlier than its previous sibling ended.
    """
    last_end: dict = {}
    for index, (name, start, end, parent) in enumerate(tracer.spans):
        if end < start:
            raise RuntimeError(f"span {index} ({name!r}) ends before it starts")
        if parent >= 0:
            _, parent_start, parent_end, _ = tracer.spans[parent]
            if start < parent_start or end > parent_end:
                raise RuntimeError(f"span {index} ({name!r}) leaves its parent's interval")
        if start < last_end.get(parent, start):
            raise RuntimeError(f"span {index} ({name!r}) overlaps its previous sibling")
        last_end[parent] = end


def layer_metrics(tracer: Tracer, paused_s: float) -> dict:
    """The per-layer figures of a finished traced run.

    Each ``<span>_s`` figure is that span's self time; ``pretrain`` reports
    its inclusive time as ``pretrain.total_s`` and its self time as
    ``pretrain.self_s``.

    ``paused_s`` is the time the harness spent on correctness checks inside
    the timed window, when no layer span is open; ``unattributed_s`` is the
    window's own self time minus that pause.  Raises when the spans are not
    a well-nested tree (:func:`check_spans`), when the pause exceeds the
    window's self time, or when a span has no reported layer.
    """
    check_spans(tracer)
    run_self, run_inclusive, root_self = tracer.layer_times(RUN_ROOT)
    setup_self, _, _ = tracer.layer_times(SETUP_ROOT)
    unattributed = root_self - paused_s
    if unattributed < 0:
        raise RuntimeError(
            f"the checks paused the clock for {paused_s!r} s, more than the "
            f"{root_self!r} s no layer span covers"
        )
    metrics: dict = {}
    for name, unit in LAYER_METRICS:
        if unit != "s" or name in ("unattributed_s", "tracing_overhead_s"):
            metrics[name] = tracer.counts.get(name, 0)
            continue
        span = name[: -len("_s")]
        if name == "pretrain.total_s":
            metrics[name] = run_inclusive.get("pretrain", 0.0)
        elif name == "pretrain.self_s":
            metrics[name] = run_self.get("pretrain", 0.0)
        elif span in ("persistence.load", "plans.load"):
            metrics[name] = setup_self.get(span, 0.0)
        else:
            metrics[name] = run_self.get(span, 0.0)
    metrics["unattributed_s"] = unattributed
    attributed = {
        name[: -len("_s")]
        for name, unit in LAYER_METRICS
        if unit == "s" and name.endswith("_s")
    }
    stray = set(run_self) - attributed - {"pretrain"}
    if stray:
        raise RuntimeError(f"spans without a reported layer: {sorted(stray)}")
    return metrics
