"""Tests of the serving benchmark itself: inputs, reducers, tracing, smoke runs."""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from servebench import run, stats, tracing, workloads  # noqa: E402
from servebench.tracing import Span  # noqa: E402

SMOKE_SCALE = 0.004


def _round_bytes(inputs):
    out = []
    for data, entrants, exits in inputs.rounds:
        matrix = data.data if hasattr(data, "data") else np.asarray(data)
        out.append((np.asarray(matrix).tobytes(), entrants,
                    None if exits is None else np.asarray(exits).tobytes()))
    return out


def _ask_identity(inputs):
    return [
        [(ask.key, ask.times, tuple(sorted(ask.kwargs.items())),
          tuple(np.asarray(q.weights).tobytes() if hasattr(q, "weights") else repr(q)
                for q in ask.queries))
         for ask in asks]
        for asks in inputs.asks
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = workloads.make_inputs(workload, 7, SMOKE_SCALE)
    again = workloads.make_inputs(workload, 7, SMOKE_SCALE)
    other = workloads.make_inputs(workload, 8, SMOKE_SCALE)
    assert _round_bytes(first) == _round_bytes(again)
    assert _ask_identity(first) == _ask_identity(again)
    assert first.scalar_checks == again.scalar_checks
    assert _round_bytes(first) != _round_bytes(other)


def test_churn_inputs_are_consistent():
    inputs = workloads.make_inputs("window-supervised", 3, SMOKE_SCALE)
    n_active = inputs.rounds[0][0].size
    n_ever = n_active
    for data, entrants, exits in inputs.rounds[1:]:
        assert entrants > 0 and len(exits) > 0
        assert len(set(exits.tolist())) == len(exits) and exits.max() < n_ever
        n_active += entrants - len(exits)
        n_ever += entrants
        assert data.size == n_active


def test_median_reducers_on_synthetic_samples():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert np.isnan(stats.median([]))
    assert stats.median([0.9, 0.1, 0.5, 100.0, 0.4]) == 0.5  # one value per pass
    # Pooled: every sample of every pass, not a median of medians.
    assert stats.pooled_median([[1.0, 2.0, 3.0], [10.0], [4.0]]) == 3.0
    # Rates are per pass, then the median: one slow pass does not move it.
    assert stats.rate_over_passes([100, 100, 100], [1.0, 2.0, 50.0]) == 50.0
    assert stats.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.9) == pytest.approx(4.6)


def _span(span_id, parent, start, end, name="x"):
    return Span(span_id, parent, name, start, end, "publish", 1, 0)


def test_self_time_of_nested_spans():
    spans = [
        _span(1, None, 0.0, 10.0, "root"),
        _span(2, 1, 1.0, 3.0, "child"),
        _span(3, 1, 2.0, 5.0, "child"),  # overlaps span 2 (another thread)
        _span(4, 1, 6.0, 7.0, "child"),
        _span(5, 2, 1.5, 2.5, "grandchild"),
        _span(6, 4, 6.0, 7.0, "child"),  # same name nested in span 4
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (4.0 + 1.0))  # union [1,5] + [6,7]
    assert selfs[2] == pytest.approx(2.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.0)
    assert selfs[5] == pytest.approx(1.0)
    # Self times tile the root's interval, except that [2, 3] is covered by
    # both overlapping children.
    assert sum(selfs.values()) - 1.0 == pytest.approx(10.0)
    assert {span.span_id for span in tracing.outermost(spans)} == {1, 2, 3, 4, 5}


def test_tracer_records_parents_and_counts():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.begin("publish", 0)
    assert outer(1) == 4
    tracer.count("things", 3)
    tracer.begin(None, 0)
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].span_id
    assert by_name["outer"].parent is None
    assert by_name["inner"].call == by_name["outer"].call
    assert tracer.events[0][:3] == ("things", 3.0, "publish")


def test_merge_counts_only_calls_that_fan_out():
    tracer = tracing.Tracer()
    tracer.pass_tags[0] = "main"
    tracer.spans = [
        Span(1, None, "sharded.answer_batch", 0.0, 0.001, "answer", 1, 0),  # cache hit
        Span(2, None, "sharded.answer_batch", 1.0, 1.010, "answer", 2, 0),  # miss
        Span(3, 2, "executor.answer_rpc", 1.002, 1.008, "answer", 2, 0),
    ]
    merge = tracing.layer_values(tracer)["sharded.merge_ms"]
    assert merge.n == 1
    assert merge.value == pytest.approx(4.0)


def test_patches_are_removed():
    from repro.serve.sharded import ShardedService

    original = ShardedService.__dict__["observe"]
    with tracing.Patches(tracing.Tracer()):
        assert ShardedService.__dict__["observe"] is not original
    assert ShardedService.__dict__["observe"] is original


def _run(monkeypatch, *argv):
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(list(argv))
    return code, out.getvalue().strip().splitlines()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_has_no_failures(monkeypatch, workload):
    code, lines = _run(
        monkeypatch, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", "0", "--scale", str(SMOKE_SCALE),
    )
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_PASSES * workloads.HORIZON
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_wrong_cache_hit_is_a_failure(monkeypatch):
    from repro.queries.plan import AnswerCache

    get = AnswerCache.get

    def skewed(self, version, key):
        hit = get(self, version, key)
        return None if hit is None else hit + 1e-12

    monkeypatch.setattr(AnswerCache, "get", skewed)
    code, lines = _run(
        monkeypatch, "--workload", "query-serving", "--seed", "3", "--seconds", "0",
        "--trace", "0", "--scale", str(SMOKE_SCALE),
    )
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert any("differs from its first answer" in line for line in lines)


def test_traced_smoke_run_reports_every_layer(monkeypatch):
    code, lines = _run(
        monkeypatch, "--workload", "cumulative-ingest", "--seed", "3", "--seconds", "0",
        "--trace", "1", "--scale", str(SMOKE_SCALE),
    )
    assert code == 0
    result = json.loads(lines[-1])
    assert result["failed"] == 0
    assert set(result["metrics"]) == {metric.name for metric in tracing.LAYER_METRICS}
    assert result["metrics"]["cumulative.observe_ms"]["value"] > 0  # serial pass
    assert result["metrics"]["executor.round_wait_ms"]["value"] > 0
    assert any(line.startswith("tracing overhead") for line in lines)
    assert any(line.startswith("serial baseline pass") for line in lines)


def test_refuses_repro_environment(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "scalar")
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "query-serving", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert out.getvalue() == ""
