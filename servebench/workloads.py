"""The three closed-loop workloads: inputs, service recipes, and the pass loop.

A *pass* builds a fresh service, streams every round, answers the
analyst sessions after each published round, closes the service and
brings it back (restore or attach).  Every pass of a run replays the
same inputs against a service with the same seed, so all passes must
publish byte-identical answers; the pass loop checks that, along with
batched-versus-scalar agreement, restore identity and the zCDP budget.

Inputs are generated once per run from ``--seed``, before any timing.
The library receives only those generated inputs.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from repro.queries.categorical import (
    CategoricalPatternQuery,
    CategoricalWindowQuery,
    CategoryAtLeastM,
)
from repro.queries.cumulative import HammingAtLeast, HammingExactly
from repro.queries.window import (
    AllOnes,
    AtLeastMConsecutiveOnes,
    AtLeastMOnes,
    PatternQuery,
    WindowLinearQuery,
)
from repro.serve import RetryPolicy, ShardedService, SupervisedService
from repro.types import AttributeFrame

HORIZON = 24
WINDOW = 3
N_SHARDS = 2
RHO = 0.5
#: Master seed of every service; the workload seed only shapes the inputs.
SERVICE_SEED = 20240611

#: ``RetryPolicy()`` defaults, spelled out so an environment variable or a
#: changed default cannot silently change the measured program.
POLICY = RetryPolicy(
    rpc_timeout=None,
    max_retries=2,
    backoff_base=0.05,
    backoff_factor=2.0,
    backoff_max=5.0,
    heartbeat_every=1,
    checkpoint_every=16,
    checkpoint_retain=3,
)

#: Services built per pass: all but the last are closed at once, so
#: ``setup_s`` is a median over several set-ups in every pass.
SETUPS_PER_PASS = 7

#: Full-scale population per workload (``--scale`` multiplies these).
POPULATION = {
    "cumulative-ingest": 1_000_000,
    "window-supervised": 150_000,
    "query-serving": 100_000,
}

#: Shard-stepping strategy each workload measures.
EXECUTOR = {
    "cumulative-ingest": "process",
    "window-supervised": "serial",
    "query-serving": "thread",
}

WORKLOADS = tuple(POPULATION)

ATTRIBUTES = (
    {"name": "poverty", "alphabet": 2},
    {"name": "employment", "alphabet": 3},
)

#: Probe queries the supervised service journals and verifies on replay.
PROBE_QUERIES = {"at-least-1": AtLeastMOnes(WINDOW, 1), "all-ones": AllOnes(WINDOW)}


@dataclass(frozen=True)
class Ask:
    """One analyst ``answer_batch`` call: a workload over some rounds."""

    key: str  # identity: equal keys ask the same workload at the same times
    queries: tuple
    times: tuple
    kwargs: dict = field(default_factory=dict)


@dataclass
class Inputs:
    """Everything a pass feeds the service, generated once per run."""

    workload: str
    rounds: list  # (data, entrants, exits) per round
    cells: list  # reported cells per round
    asks: list  # per round (index t - 1): the Asks issued after it
    scalar_checks: frozenset  # rounds at which batched cells are checked
    final: Ask  # workload compared before close and after recovery


def _trailing(t: int, width: int, first: int = 1) -> tuple:
    return tuple(range(max(first, t - width + 1), t + 1))


def _scalar_check_rounds(rng, first: int) -> frozenset:
    rounds = rng.choice(np.arange(first, HORIZON + 1), size=3, replace=False)
    return frozenset(int(t) for t in rounds)


def make_inputs(workload: str, seed: int, scale: float = 1.0) -> Inputs:
    """Generate a workload's inputs; the same seed gives the same inputs."""
    if workload not in POPULATION:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])
    n = max(int(POPULATION[workload] * scale), 200)
    if workload == "cumulative-ingest":
        return _cumulative_inputs(rng, n)
    if workload == "window-supervised":
        return _window_inputs(rng, n)
    return _query_inputs(rng, n)


def _cumulative_inputs(rng, n: int) -> Inputs:
    propensity = rng.beta(1.0, 3.0, size=n)
    rounds = [
        ((rng.random(n) < propensity).astype(np.int8), 0, None) for _ in range(HORIZON)
    ]
    dashboard = (
        HammingAtLeast(1),
        HammingAtLeast(2),
        HammingAtLeast(4),
        HammingAtLeast(8),
        HammingExactly(0),
    )
    asks = [[Ask("dashboard", dashboard, _trailing(t, 4))] for t in range(1, HORIZON + 1)]
    return Inputs(
        workload="cumulative-ingest",
        rounds=rounds,
        cells=[n] * HORIZON,
        asks=asks,
        scalar_checks=_scalar_check_rounds(rng, 1),
        final=Ask("final", dashboard, tuple(range(1, HORIZON + 1))),
    )


def _window_inputs(rng, n: int) -> Inputs:
    """Binary reports under churn: about 1% entrants and 1% exits a round."""
    churn = max(n // 100, 1)
    active = np.arange(n, dtype=np.int64)
    propensity = rng.beta(1.0, 2.0, size=n)
    n_ever = n
    rounds = []
    for t in range(1, HORIZON + 1):
        entrants, exits = 0, None
        if t > 1:
            leaving = rng.choice(active.size, size=churn, replace=False)
            exits = np.sort(active[leaving])
            keep = np.ones(active.size, dtype=bool)
            keep[leaving] = False
            entrants = churn
            active = np.concatenate(
                [active[keep], np.arange(n_ever, n_ever + entrants, dtype=np.int64)]
            )
            propensity = np.concatenate(
                [propensity[keep], rng.beta(1.0, 2.0, size=entrants)]
            )
            n_ever += entrants
        column = (rng.random(active.size) < propensity).astype(np.int8)
        rounds.append((column, entrants, exits))
    dashboard = (AtLeastMOnes(WINDOW, 1), AtLeastMOnes(WINDOW, 2), AllOnes(WINDOW))
    asks = [
        [Ask("dashboard", dashboard, _trailing(t, 4, WINDOW))] if t >= WINDOW else []
        for t in range(1, HORIZON + 1)
    ]
    return Inputs(
        workload="window-supervised",
        rounds=rounds,
        cells=[round_[0].size for round_ in rounds],
        asks=asks,
        scalar_checks=_scalar_check_rounds(rng, WINDOW),
        final=Ask("final", dashboard, tuple(range(WINDOW, HORIZON + 1))),
    )


def _query_dashboards() -> list:
    """The four repeated dashboards: (attribute, queries) of mixed families."""
    return [
        ("poverty", (AtLeastMOnes(WINDOW, 1), AtLeastMOnes(WINDOW, 2), AllOnes(WINDOW))),
        (
            "poverty",
            tuple(PatternQuery(WINDOW, code) for code in range(2**WINDOW))
            + (AtLeastMConsecutiveOnes(WINDOW, 2),),
        ),
        (
            "employment",
            (
                CategoryAtLeastM(WINDOW, 3, category=1, m=1),
                CategoryAtLeastM(WINDOW, 3, category=1, m=2),
                CategoryAtLeastM(WINDOW, 3, category=2, m=3),
            ),
        ),
        (
            "employment",
            tuple(
                CategoricalPatternQuery(WINDOW, pattern, 3)
                for pattern in ((0, 0, 0), (1, 1, 1), (0, 1, 1), (2, 2, 2))
            ),
        ),
    ]


def _query_inputs(rng, n: int) -> Inputs:
    """Two attributes, no churn; 16 analyst sessions after every release."""
    poverty_rate = rng.beta(1.0, 3.0, size=n)
    employment_p = rng.dirichlet((4.0, 1.0, 1.0), size=n)
    cumulative = np.cumsum(employment_p, axis=1)
    rounds = []
    for _ in range(HORIZON):
        poverty = (rng.random(n) < poverty_rate).astype(np.int8)
        draws = rng.random(n)[:, None]
        employment = (draws > cumulative[:, :2]).sum(axis=1).astype(np.int8)
        frame = AttributeFrame(
            np.stack([poverty, employment], axis=1), names=("poverty", "employment")
        )
        rounds.append((frame, 0, None))
    dashboards = _query_dashboards()
    asks = []
    adhoc = 0
    for t in range(1, HORIZON + 1):
        if t < WINDOW:
            asks.append([])
            continue
        times = _trailing(t, 6, WINDOW)
        session = [
            Ask(f"dashboard-{index}", queries, times, {"attribute": attribute})
            for index, (attribute, queries) in enumerate(dashboards)
            for _ in range(3)
        ]
        for _ in range(4):
            # Random real weights: never asked before, so always cold.
            width = int(rng.integers(1, len(times) + 1))
            adhoc_times = times[len(times) - width :]
            if rng.random() < 0.5:
                query = WindowLinearQuery(WINDOW, rng.random(2**WINDOW), name="adhoc")
                attribute = "poverty"
            else:
                query = CategoricalWindowQuery(WINDOW, rng.random(3**WINDOW), 3, "adhoc")
                attribute = "employment"
            session.append(
                Ask(f"adhoc-{adhoc}", (query,), adhoc_times, {"attribute": attribute})
            )
            adhoc += 1
        order = rng.permutation(len(session))
        asks.append([session[i] for i in order])
    attribute, queries = dashboards[0]
    return Inputs(
        workload="query-serving",
        rounds=rounds,
        cells=[frame.n * frame.width for frame, _, _ in rounds],
        asks=asks,
        scalar_checks=_scalar_check_rounds(rng, WINDOW),
        final=Ask(
            "final", queries, tuple(range(WINDOW, HORIZON + 1)), {"attribute": attribute}
        ),
    )


# ----------------------------------------------------------------------
# Service recipes
# ----------------------------------------------------------------------


class _Recipe:
    """How one workload builds, closes and recovers its service."""

    def __init__(self, workload: str, executor: str, state_dir: str):
        self.workload = workload
        self.executor = executor
        self.state_dir = state_dir

    def build(self):
        if self.workload == "cumulative-ingest":
            return ShardedService(
                N_SHARDS,
                algorithm="cumulative",
                seed=SERVICE_SEED,
                executor=self.executor,
                policy=POLICY,
                horizon=HORIZON,
                rho=RHO,
                counter="binary_tree",
                engine="vectorized",
                noise_method="exact",
            )
        if self.workload == "window-supervised":
            return SupervisedService(
                self._directory(),
                n_shards=N_SHARDS,
                algorithm="fixed_window",
                seed=SERVICE_SEED,
                executor=self.executor,
                policy=POLICY,
                probe_queries=PROBE_QUERIES,
                horizon=HORIZON,
                window=WINDOW,
                rho=RHO,
                noise_method="exact",
            )
        return ShardedService(
            N_SHARDS,
            algorithm="multi_attribute",
            seed=SERVICE_SEED,
            executor=self.executor,
            policy=POLICY,
            horizon=HORIZON,
            window=WINDOW,
            rho=RHO,
            attributes=[dict(spec) for spec in ATTRIBUTES],
            noise_method="exact",
            engine="vectorized",
        )

    def _directory(self) -> str:
        return os.path.join(self.state_dir, "service")

    def _bundle(self) -> str:
        return os.path.join(self.state_dir, "service.bundle")

    def prepare(self) -> None:
        """Start from an empty state directory, with the removal on disk.

        Syncing the parent directory commits the file-system journal
        (the previous pass's deleted files, trimmed on a ``discard`` mount)
        here, untimed, rather than in the next timed set-up's first fsync.
        """
        shutil.rmtree(self.state_dir, ignore_errors=True)
        os.makedirs(self.state_dir)
        parent = os.open(os.path.dirname(self.state_dir), os.O_RDONLY)
        try:
            os.fsync(parent)
        finally:
            os.close(parent)

    def observe(self, service, round_):
        data, entrants, exits = round_
        return service.observe(data, entrants=entrants, exits=exits)

    def persist(self, service) -> None:
        """Untimed: write what recovery needs (the journal already holds it)."""
        if not isinstance(service, SupervisedService):
            service.checkpoint(self._bundle())

    def recover(self):
        if self.workload == "window-supervised":
            return SupervisedService.attach(
                self._directory(),
                executor=self.executor,
                policy=POLICY,
                probe_queries=PROBE_QUERIES,
            )
        return ShardedService.restore(self._bundle(), executor=self.executor, policy=POLICY)

    def cleanup(self) -> None:
        shutil.rmtree(self.state_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# The pass loop
# ----------------------------------------------------------------------


class PassAborted(Exception):
    """An operation failed; the rest of the pass is not attempted."""


@dataclass
class PassLog:
    """Samples and outcome counts of one pass."""

    tag: str
    setup_s: list = field(default_factory=list)
    publish_s: list = field(default_factory=list)
    cells: int = 0
    answer_s: list = field(default_factory=list)
    session_rates: list = field(default_factory=list)  # cells/s of each round's asks
    cold_s: list = field(default_factory=list)
    recover_s: list = field(default_factory=list)  # one sample, or none on failure
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    digest: str = ""

    @property
    def busy_s(self) -> float:
        """Time spent inside timed operations."""
        return (
            sum(self.setup_s) + sum(self.publish_s) + sum(self.answer_s)
            + sum(self.recover_s)
        )


class _NullTracer:
    """Stands in for the tracer in untraced passes: costs one call per op."""

    def begin(self, phase, pass_id):
        return None

    def count(self, name, value=1.0):
        return None


class _Pass:
    def __init__(self, log: PassLog, tracer, pass_id: int):
        self.log = log
        self.tracer = tracer if tracer is not None else _NullTracer()
        self.pass_id = pass_id

    def timed(self, phase: str, fn):
        """Run one attempted operation; return ``(result, seconds)``."""
        self.log.attempted += 1
        self.tracer.begin(phase, self.pass_id)
        start = time.perf_counter()
        try:
            result = fn()
            seconds = time.perf_counter() - start
        except Exception as exc:  # counted, reported, and the pass stops
            self.log.failed += 1
            self.log.errors.append(f"{phase}: {type(exc).__name__}: {exc}")
            raise PassAborted from exc
        finally:
            self.tracer.begin(None, self.pass_id)
        return result, seconds

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.log.failed += 1
            self.log.errors.append(message)


def run_pass(inputs: Inputs, executor: str, state_dir: str, *, tag: str = "main",
             tracer=None, pass_id: int = 0) -> PassLog:
    """One pass: set up, stream and answer, close, recover, verify."""
    log = PassLog(tag=tag)
    run = _Pass(log, tracer, pass_id)
    recipe = _Recipe(inputs.workload, executor, state_dir)
    recipe.prepare()
    digest = hashlib.sha256()
    try:
        for _ in range(SETUPS_PER_PASS - 1):
            spare, seconds = run.timed("setup", recipe.build)
            log.setup_s.append(seconds)
            spare.close()
            recipe.prepare()
        service, seconds = run.timed("setup", recipe.build)
        log.setup_s.append(seconds)
        try:
            _stream(inputs, recipe, service, run, digest)
            before = service.answer_batch(
                inputs.final.queries, inputs.final.times, **inputs.final.kwargs
            )
            digest.update(before.tobytes())
            spent = service.zcdp_spent()
            run.check(spent <= RHO, f"zcdp_spent {spent!r} exceeds rho {RHO}")
            supervised = isinstance(service, SupervisedService)
            sharded = service.service if supervised else service
            run.tracer.count("sharded.load_skew", _skew(sharded.shard_loads()))
            if supervised:
                run.tracer.count(
                    "supervisor.retries",
                    sum("attempt" in event for event in service.events),
                )
            recipe.persist(service)
        finally:
            service.close()
        recovered, seconds = run.timed("recover", recipe.recover)
        log.recover_s.append(seconds)
        try:
            after = recovered.answer_batch(
                inputs.final.queries, inputs.final.times, **inputs.final.kwargs
            )
            run.check(
                before.shape == after.shape and before.tobytes() == after.tobytes(),
                "recovered service answers differ",
            )
            run.check(
                recovered.t == HORIZON, f"recovered at t={recovered.t}, not {HORIZON}"
            )
        finally:
            recovered.close()
    except PassAborted:
        pass
    except Exception as exc:  # an untimed step (checkpoint, close) failed
        log.failed += 1
        log.errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        recipe.cleanup()
    log.digest = digest.hexdigest()
    return log


def _skew(loads) -> float:
    loads = np.asarray(loads, dtype=np.float64)
    return float(loads.max() / loads.mean())


def _stream(inputs: Inputs, recipe: _Recipe, service, run: _Pass, digest) -> None:
    log = run.log
    for t, round_ in enumerate(inputs.rounds, 1):
        _, seconds = run.timed("publish", lambda: recipe.observe(service, round_))
        log.publish_s.append(seconds)
        log.cells += inputs.cells[t - 1]
        first = {}  # ask key -> (shape, bytes) of its first grid at this release
        session_cells, session_s = 0, 0.0
        for index, ask in enumerate(inputs.asks[t - 1]):
            grid, seconds = run.timed(
                "answer",
                lambda: service.answer_batch(ask.queries, ask.times, **ask.kwargs),
            )
            log.answer_s.append(seconds)
            session_cells += grid.size
            session_s += seconds
            if ask.key not in first:  # first ask at this release version
                log.cold_s.append(seconds)
                first[ask.key] = (grid.shape, grid.tobytes())
            else:  # a repeat, which the answer cache serves: must match the first
                run.check(
                    first[ask.key] == (grid.shape, grid.tobytes()),
                    f"{ask.key}: repeated ask at t={t} differs from its first answer",
                )
            digest.update(grid.tobytes())
            if index == 0 and t in inputs.scalar_checks:
                _check_scalar(service, ask, grid, run)
        if session_s > 0:
            log.session_rates.append(session_cells / session_s)


def _check_scalar(service, ask: Ask, grid: np.ndarray, run: _Pass) -> None:
    """Two batched cells must equal the scalar ``answer()`` bit for bit."""
    rng = np.random.default_rng(len(run.log.publish_s))
    candidates = np.argwhere(~np.isnan(grid))
    if not len(candidates):
        run.check(False, f"no answerable cell in {ask.key} at {ask.times}")
        return
    for qi, ti in candidates[rng.choice(len(candidates), size=2)]:
        scalar = service.answer(ask.queries[qi], ask.times[ti], **ask.kwargs)
        run.check(
            float(scalar) == float(grid[qi, ti]),
            f"{ask.key}: batched {grid[qi, ti]!r} != scalar {scalar!r} "
            f"at t={ask.times[ti]}",
        )
