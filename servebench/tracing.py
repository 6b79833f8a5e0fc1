"""Per-layer tracing for the traced run: spans and counts around public calls.

The tracer wraps the public entry points of each library layer (see
``TARGETS``) from the benchmark's own files.  Every wrapped call records a
span (id, parent, name, start, end, plus the benchmark operation it ran
under: phase, call id and pass id); count hooks record work done at the
same boundaries.  Spans stay in memory and are written out at the end.

A span's *self time* is its duration minus the part of that interval its
child spans cover.  ``LAYER_METRICS`` turns spans and counts into the
per-layer metrics, each tied to the end-to-end metric it should move.

Under the ``process`` executor the shard-internal layers run in forked
workers, where nothing is recorded; those layers are measured on the
``serial`` baseline pass instead.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

from servebench.stats import median, quantile


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    phase: str | None
    call: int
    pass_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and count recorder.

    The benchmark marks each timed operation with :meth:`begin`; spans and
    counts recorded meanwhile (on any thread) carry that operation's phase
    and call id, so work done on an executor's pool threads is still
    attributed to the round or answer that caused it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.events: list[tuple] = []  # (name, value, phase, call, pass_id)
        self.calls: list[tuple] = []  # (call, phase, pass_id)
        self.pass_tags: dict[int, str] = {}
        self.phase: str | None = None
        self.call = 0
        self.pass_id = 0
        self.fsyncs = 0  # os.fsync calls while patched, read by the journal hooks
        self._ids = itertools.count(1)
        self._calls = itertools.count(1)
        self._local = threading.local()

    def begin(self, phase: str | None, pass_id: int) -> None:
        """Start benchmark operation ``phase`` (``None`` ends the current one)."""
        self.phase = phase
        self.pass_id = pass_id
        self.call = next(self._calls)
        if phase is not None:
            self.calls.append((self.call, phase, pass_id))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped in a span; optional count hooks around the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            phase, call, pass_id = tracer.phase, tracer.call, tracer.pass_id
            token = before(tracer, args, kwargs) if before is not None else None
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(span_id, parent, name, start, end, phase, call, pass_id)
                )
            if after is not None:
                after(tracer, args, kwargs, result, token)
            return result

        return traced

    def counted(self, fn, after):
        """``fn`` with a count hook only (for calls too frequent for a span)."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(tracer, args, kwargs, result, None)
            return result

        return counted

    def count(self, name: str, value: float = 1.0) -> None:
        self.events.append((name, float(value), self.phase, self.call, self.pass_id))

    def dump(self, path: str) -> None:
        """Write every span and count as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "span": span.span_id,
                            "parent": span.parent,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "phase": span.phase,
                            "call": span.call,
                            "pass": span.pass_id,
                        }
                    )
                    + "\n"
                )
            for name, value, phase, call, pass_id in self.events:
                handle.write(
                    json.dumps(
                        {"count": name, "value": value, "phase": phase,
                         "call": call, "pass": pass_id}
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval and merged before being
    subtracted, so overlapping children (from pool threads) are not
    counted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.span_id] = span.duration - covered
    return out


def outermost(spans) -> list:
    """Spans with no ancestor of the same name (so durations add up)."""
    by_id = {span.span_id: span for span in spans}
    keep = []
    for span in spans:
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != span.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            keep.append(span)
    return keep


# ----------------------------------------------------------------------
# Wrapped layer entry points
# ----------------------------------------------------------------------


def _store_records(tracer, args, kwargs, result, token):
    tracer.count("store.records", args[0].n_active)


def _admitted(tracer, args, kwargs, result, token):
    count = args[1] if len(args) > 1 else kwargs.get("count", 0)
    round_number = args[2] if len(args) > 2 else kwargs.get("round_number", 0)
    if round_number > 1:  # round 1 admits the initial population, not churn
        tracer.count("population.churn_ids", count)


def _retired(tracer, args, kwargs, result, token):
    ids = args[1] if len(args) > 1 else kwargs.get("ids", ())
    tracer.count("population.churn_ids", len(ids))


def _draw(tracer, args, kwargs, result, token):
    tracer.count("dp.draws")


def _cache_lookup(tracer, args, kwargs, result, token):
    # Only the service-level cache, looked up straight from
    # ShardedService.answer_batch; the per-shard release caches behind it
    # only ever see the service's misses.
    stack = tracer._stack()
    if stack and stack[-1][1] == "sharded.answer_batch":
        tracer.count("plan.cache_misses" if result is None else "plan.cache_hits")


def _rpc(tracer, args, kwargs, result, token):
    tracer.count("executor.rpcs")


def _array_bytes(state) -> int:
    if isinstance(state, dict):
        return sum(_array_bytes(value) for value in state.values())
    if isinstance(state, (list, tuple)):
        return sum(_array_bytes(value) for value in state)
    return int(getattr(state, "nbytes", 0))


def _fingerprinted(tracer, args, kwargs, result, token):
    state = args[1] if len(args) > 1 else kwargs.get("state", {})
    tracer.count("supervisor.fingerprint_bytes", _array_bytes(state))


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _journal_before(tracer, args, kwargs):
    return _size(args[0].path), tracer.fsyncs


def _journal_after(tracer, args, kwargs, result, token):
    size, fsyncs = token
    tracer.count("journal.bytes", _size(args[0].path) - size)
    tracer.count("journal.fsyncs", tracer.fsyncs - fsyncs)


def _checkpointed(tracer, args, kwargs, result, token):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if isinstance(path, (str, os.PathLike)):
        tracer.count("checkpoint.bytes", os.path.getsize(path))


#: (module, class or None, attribute, span name or None for count-only, hooks)
TARGETS = [
    ("repro.core.cumulative", "CumulativeSynthesizer", "observe", "cumulative.observe", None),
    ("repro.core.cumulative", None, "stream_increments", "cumulative.increments", None),
    ("repro.streams.bank", "CounterBank", "feed", "streams.counter", None),
    ("repro.dp.discrete_gaussian", "DiscreteGaussianSampler", "sample", "dp.sample", None),
    ("repro.dp.discrete_gaussian", "DiscreteGaussianSampler", "sample_array", "dp.sample",
     None),
    ("repro.dp.discrete_gaussian", "DiscreteGaussianSampler", "sample_columns", "dp.sample",
     None),
    ("repro.dp.discrete_gaussian", None, "sample_discrete_gaussian", None, (None, _draw)),
    ("repro.core.window_engine", "WindowEngine", "observe", "window.observe", None),
    ("repro.core.consistency", None, "apply_overlap_correction", "consistency.project", None),
    ("repro.core.consistency", None, "apply_group_correction", "consistency.project", None),
    ("repro.core.synthetic_store", "WindowSyntheticStore", "extend", "store.extend",
     (None, _store_records)),
    ("repro.core.synthetic_store", "CumulativeSyntheticStore", "extend", "store.extend",
     (None, _store_records)),
    ("repro.core.population", "PopulationLedger", "admit", "population", (None, _admitted)),
    ("repro.core.population", "PopulationLedger", "retire", "population", (None, _retired)),
    ("repro.core.population", "PopulationLedger", "scatter_column", "population", None),
    ("repro.core.multi_attribute", "MultiAttributeSynthesizer", "observe", "multiattr.observe",
     None),
    ("repro.core.multi_attribute", "MultiAttributeRelease", "answer_batch", "multiattr.answer",
     None),
    ("repro.queries.plan", None, "workload_key", "plan.compile", None),
    ("repro.queries.plan", None, "compile_cumulative", "plan.compile", None),
    ("repro.queries.plan", None, "encode_workload", "plan.compile", None),
    ("repro.queries.plan", "AnswerCache", "get", None, (None, _cache_lookup)),
    ("repro.serve.executor", "RoundTicket", "wait", "executor.round_wait", None),
    ("repro.serve.sharded", "ShardedService", "observe", "sharded.observe", None),
    ("repro.serve.sharded", "ShardedService", "answer", "sharded.answer", None),
    ("repro.serve.sharded", "ShardedService", "answer_batch", "sharded.answer_batch", None),
    ("repro.serve.sharded", "ShardedService", "state_fingerprints", "sharded.fingerprints",
     None),
    ("repro.serve.sharded", "ShardedService", "checkpoint", "checkpoint.write",
     (None, _checkpointed)),
    ("repro.serve.sharded", "ShardedService", "restore", "checkpoint.restore", None),
    ("repro.serve.checkpoint", None, "read_bundle", "checkpoint.read", None),
    ("repro.serve.checkpoint", None, "state_fingerprint", "fingerprint.hash",
     (None, _fingerprinted)),
    ("repro.serve.supervisor", "SupervisedService", "observe", "supervisor.observe", None),
    ("repro.serve.supervisor", "SupervisedService", "attach", "supervisor.attach", None),
    ("repro.serve.journal", "ReleaseJournal", "append", "journal.append",
     (_journal_before, _journal_after)),
]

_EXECUTORS = ("SerialShardExecutor", "ThreadShardExecutor", "ProcessShardExecutor")
for _cls in _EXECUTORS:
    TARGETS.append(("repro.serve.executor", _cls, "dispatch_round", "executor.dispatch",
                    (None, _rpc)))
    TARGETS.append(("repro.serve.executor", _cls, "answer_batch", "executor.answer_rpc",
                    (None, _rpc)))
    TARGETS.append(("repro.serve.executor", _cls, "answer", "executor.answer_rpc",
                    (None, _rpc)))
    for _method in ("ledgers", "checkpoint_blobs", "fingerprints"):
        TARGETS.append(("repro.serve.executor", _cls, _method, "executor.rpc", (None, _rpc)))


class Patches:
    """Installs the wrappers of ``TARGETS`` and removes them again."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple] = []

    def install(self) -> None:
        for module_name, owner, attr, name, hooks in TARGETS:
            before, after = hooks if hooks is not None else (None, None)
            module = importlib.import_module(module_name)
            if owner is None:
                self._patch_function(module, attr, name, before, after)
            else:
                self._patch_method(getattr(module, owner), attr, name, before, after)
        original_fsync = os.fsync
        tracer = self.tracer

        def fsync(fd):
            tracer.fsyncs += 1
            return original_fsync(fd)

        self._wrap_attr(os, "fsync", self.tracer.wrap("os.fsync", fsync))

    def _make(self, fn, name, before, after):
        if name is None:
            return self.tracer.counted(fn, after)
        return self.tracer.wrap(name, fn, before, after)

    def _patch_function(self, module, attr, name, before, after) -> None:
        original = getattr(module, attr)
        wrapped = self._make(original, name, before, after)
        # Rebind every ``from module import attr`` copy in the library too.
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and (
                getattr(other, attr, None) is original
            ):
                self._wrap_attr(other, attr, wrapped)

    def _patch_method(self, cls, attr, name, before, after) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._make(raw.__func__, name, before, after))
        else:
            wrapped = self._make(raw, name, before, after)
        self._wrap_attr(cls, attr, wrapped)

    def _wrap_attr(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and how it is reduced from spans or counts.

    ``measure`` is ``self`` or ``dur`` (span time), ``spans`` (how many
    outermost spans), or ``count`` (summed count values).  ``per`` is
    ``call`` (summed per benchmark operation of ``phase``, median over
    operations), ``span`` (median over single spans or count events),
    ``pass`` (summed per pass, median over passes), or ``run`` (a ratio or
    total over the whole run).  ``with_child`` keeps only the spans that
    have a child span of that name.
    """

    name: str
    unit: str
    module: str
    sources: tuple
    measure: str
    per: str
    phase: str | None
    moves: str
    main_only: bool = False
    with_child: str | None = None


LAYER_METRICS = (
    LayerMetric("cumulative.observe_ms", "ms", "core.cumulative", ("cumulative.observe",),
                "self", "call", "publish", "ingest_cells_per_s, publish_p50_ms"),
    LayerMetric("cumulative.increments_ms", "ms", "core.cumulative",
                ("cumulative.increments",), "self", "call", "publish",
                "ingest_cells_per_s, publish_p50_ms"),
    LayerMetric("streams.counter_ms", "ms", "streams", ("streams.counter",), "self", "call",
                "publish", "ingest_cells_per_s, publish_p50_ms"),
    LayerMetric("dp.sample_ms", "ms", "dp", ("dp.sample",), "self", "call", "publish",
                "publish_p50_ms"),
    LayerMetric("dp.draws_per_round", "count", "dp", ("dp.draws",), "count", "call", "publish",
                "publish_p50_ms"),
    LayerMetric("window.observe_self_ms", "ms", "core.window_engine", ("window.observe",),
                "self", "call", "publish", "publish_p50_ms"),
    LayerMetric("consistency.project_ms", "ms", "core.consistency", ("consistency.project",),
                "self", "call", "publish", "publish_p50_ms"),
    LayerMetric("store.extend_ms", "ms", "core.synthetic_store", ("store.extend",), "self",
                "call", "publish", "ingest_cells_per_s, peak_rss_mb"),
    LayerMetric("store.records_per_round", "count", "core.synthetic_store", ("store.records",),
                "count", "call", "publish", "ingest_cells_per_s, peak_rss_mb"),
    LayerMetric("population.ms", "ms", "core.population", ("population",), "self", "call",
                "publish", "publish_p50_ms"),
    LayerMetric("population.churn_ids", "count", "core.population", ("population.churn_ids",),
                "count", "call", "publish", "publish_p50_ms"),
    LayerMetric("multiattr.observe_self_ms", "ms", "core.multi_attribute",
                ("multiattr.observe",), "self", "call", "publish", "answers_per_s"),
    LayerMetric("multiattr.answer_ms", "ms", "core.multi_attribute", ("multiattr.answer",),
                "dur", "span", "answer", "answers_per_s"),
    LayerMetric("plan.compile_ms", "ms", "queries.plan", ("plan.compile",), "self", "call",
                "answer", "answers_per_s, answer_p50_ms"),
    LayerMetric("plan.cache_hits", "count", "queries.plan", ("plan.cache_hits",), "count",
                "pass", "answer", "answers_per_s, answer_p50_ms"),
    LayerMetric("plan.cache_misses", "count", "queries.plan", ("plan.cache_misses",), "count",
                "pass", "answer", "answers_per_s, answer_p50_ms"),
    LayerMetric("plan.cache_hit_ratio", "ratio", "queries.plan",
                ("plan.cache_hits", "plan.cache_misses"), "ratio", "run", "answer",
                "answers_per_s, answer_p50_ms"),
    LayerMetric("executor.round_wait_ms", "ms", "serve.executor", ("executor.round_wait",),
                "dur", "call", "publish", "publish_p50_ms", main_only=True),
    LayerMetric("executor.answer_rpc_ms", "ms", "serve.executor", ("executor.answer_rpc",),
                "dur", "span", "answer", "answer_p50_ms", main_only=True),
    LayerMetric("executor.rpcs_per_round", "count", "serve.executor", ("executor.rpcs",),
                "count", "call", "publish", "publish_p50_ms, answer_p50_ms", main_only=True),
    LayerMetric("sharded.observe_self_ms", "ms", "serve.sharded", ("sharded.observe",), "self",
                "call", "publish", "publish_p50_ms", main_only=True),
    # Cache misses only: a hit returns before the fan-out and the merge.
    LayerMetric("sharded.merge_ms", "ms", "serve.sharded", ("sharded.answer_batch",), "self",
                "span", "answer", "answers_per_s", main_only=True,
                with_child="executor.answer_rpc"),
    LayerMetric("sharded.load_skew", "ratio", "serve.sharded", ("sharded.load_skew",), "count",
                "span", None, "publish_p50_ms, answers_per_s", main_only=True),
    LayerMetric("supervisor.fingerprint_ms", "ms", "serve.supervisor",
                ("sharded.fingerprints",), "dur", "call", "publish", "publish_p50_ms"),
    LayerMetric("supervisor.fingerprint_bytes", "count", "serve.supervisor",
                ("supervisor.fingerprint_bytes",), "count", "call", "publish",
                "publish_p50_ms"),
    LayerMetric("supervisor.retries", "count", "serve.supervisor", ("supervisor.retries",),
                "count", "run", None, "publish_p50_ms"),
    LayerMetric("journal.append_ms", "ms", "serve.journal", ("journal.append",), "dur", "call",
                "publish", "publish_p50_ms"),
    LayerMetric("journal.bytes_per_round", "count", "serve.journal", ("journal.bytes",),
                "count", "call", "publish", "publish_p50_ms"),
    LayerMetric("journal.fsyncs", "count", "serve.journal", ("journal.fsyncs",), "count",
                "call", "publish", "publish_p50_ms"),
    LayerMetric("checkpoint.write_ms", "ms", "serve.checkpoint", ("checkpoint.write",), "dur",
                "span", None, "ingest_cells_per_s, recover_s"),
    LayerMetric("checkpoint.read_ms", "ms", "serve.checkpoint", ("checkpoint.read",), "dur",
                "call", "recover", "recover_s"),
    LayerMetric("checkpoint.bytes", "count", "serve.checkpoint", ("checkpoint.bytes",),
                "count", "span", None, "recover_s"),
    LayerMetric("recovery.replay_rounds", "count", "recovery", ("sharded.observe",), "spans",
                "call", "recover", "recover_s"),
    LayerMetric("recovery.replay_ms", "ms", "recovery",
                ("sharded.observe", "sharded.fingerprints", "sharded.answer"), "dur", "call",
                "recover", "recover_s"),
)


@dataclass
class LayerValue:
    value: float
    p90: float
    n: int


def layer_values(tracer: Tracer) -> dict[str, LayerValue]:
    """Reduce the recorded spans and counts to ``LAYER_METRICS``."""
    selfs = self_times(tracer.spans)
    top = outermost(tracer.spans)
    main = {pass_id for pass_id, tag in tracer.pass_tags.items() if tag == "main"}
    out = {}
    for metric in LAYER_METRICS:
        out[metric.name] = _reduce(metric, tracer, selfs, top, main)
    return out


def _reduce(metric, tracer, selfs, top, main) -> LayerValue:
    sources = set(metric.sources)
    if metric.measure == "ratio":
        hits, misses = (
            sum(value for event, value, phase, _, _ in tracer.events
                if event == name and phase == metric.phase)
            for name in metric.sources
        )
        total = hits + misses
        return LayerValue(hits / total if total else 0.0, math.nan, int(total))
    if metric.measure in ("self", "dur", "spans"):
        spans = top if metric.measure != "self" else tracer.spans
        if metric.with_child is not None:
            parents = {span.parent for span in tracer.spans if span.name == metric.with_child}
            spans = [span for span in spans if span.span_id in parents]
        samples = [
            (
                span.phase,
                span.call,
                span.pass_id,
                selfs[span.span_id] if metric.measure == "self"
                else span.duration if metric.measure == "dur" else 1.0,
            )
            for span in spans
            if span.name in sources
        ]
        scale = 1e3 if metric.measure in ("self", "dur") else 1.0
    else:
        samples = [
            (phase, call, pass_id, value)
            for name, value, phase, call, pass_id in tracer.events
            if name in sources
        ]
        scale = 1.0
    if metric.main_only:
        samples = [sample for sample in samples if sample[2] in main]
    if metric.phase is not None:
        samples = [sample for sample in samples if sample[0] == metric.phase]
    if metric.per == "run":
        return LayerValue(sum(s[3] for s in samples) * scale, math.nan, len(samples))
    if metric.per == "span":
        values = [s[3] * scale for s in samples]
    elif metric.per == "pass":
        per_pass = defaultdict(float)
        for _, _, pass_id, value in samples:
            per_pass[pass_id] += value * scale
        values = list(per_pass.values())
    else:
        # Sum per benchmark operation; operations of passes in which the
        # layer was seen at all but that did not reach it count as zero.
        seen = {s[2] for s in samples}
        per_call = defaultdict(float)
        for _, call, _, value in samples:
            per_call[call] += value * scale
        values = [
            per_call.get(call, 0.0)
            for call, phase, pass_id in tracer.calls
            if phase == metric.phase and pass_id in seen
        ]
    if not values:
        return LayerValue(0.0, math.nan, 0)
    return LayerValue(median(values), quantile(values, 0.9), len(values))
