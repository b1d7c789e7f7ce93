"""The benchmark's workloads: inputs from a seed, timed passes, checks.

Each workload sets itself up (:meth:`Workload.set_up`: all inputs from
the seed, and a first service), then runs passes over those inputs. A
pass drives one of the workload's scenarios (distinct inputs); the
runner repeats cycles of one pass per scenario until the measuring time
is spent. :meth:`Workload.run_pass` does the timed work and
:meth:`Workload.verify` checks it afterwards, untimed and untraced.
The system is driven only through its public entry points: the
``ArrangementService`` / ``ShardCoordinator`` commands,
``run_with_budget``, ``ArrangementService.recover`` and
``repro.service.journal.replay``.

Every workload reports the same end-to-end metrics (``BENCHMARK.json``);
what an "operation" is differs per workload:

* ``online-*``: one assignment request, from the call until it returns
  with its batch committed (closed loop, one client, synchronous engine);
* ``offline-solve``: one batch of ``run_with_budget`` solves, six
  instance pairs each solved by Greedy and by MinCostFlow;
* ``recovery``: one restart through the snapshot+tail rung.

Timed stretches are recorded as ``(start_ns, end_ns)`` pairs of
``time.perf_counter_ns``; the runner normalises them for the host's
speed (``speed.py``).
"""

from __future__ import annotations

import gc
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.core.bounds import nn_capacity_bound, relaxation_bound
from repro.core.model import Arrangement, Instance
from repro.core.validation import validate_arrangement
from repro.datagen.synthetic import (
    SyntheticConfig,
    generate_instance,
    generate_instance_rng,
)
from repro.exceptions import ServiceError
from repro.robustness import harness
from repro.service import (
    ArrangementService,
    Delta,
    ShardCoordinator,
    ShardManager,
    StoreConfig,
    shardable_instance,
    shardable_timeline,
)
from repro.service import journal as service_journal
from repro.simulation.workload import Timeline, random_timeline
from tracer import LADDER, Tracer, rebind


#: Set-ups before the first pass; the runner adds one after every
#: measured pass. Each is a ``setup_s`` sample, and each pass goes on
#: with the inputs of the set-up before it (the same seed gives the
#: same inputs).
SETUPS = 7

#: A timed stretch: ``(start_ns, end_ns)`` of ``time.perf_counter_ns``.
Stretch = tuple[int, int]


class CheckFailed(Exception):
    """A correctness check failed; the run is void."""


@dataclass
class PassResult:
    """What one pass measured, plus what its checks need."""

    #: The pass's timed stretches; its time is their sum.
    timed: list[Stretch]
    ops: list[Stretch]
    attempted: int
    failed: int = 0
    #: MaxSum of the arrangement the pass produced (set by verify).
    achieved: float = 0.0
    rebalances: int = 0
    state: dict[str, Any] = field(default_factory=dict)

    @property
    def wall_ns(self) -> int:
        return sum(end - start for start, end in self.timed)


def stretch_since(start: int) -> Stretch:
    return start, time.perf_counter_ns()


@contextmanager
def untraced(tracer: Tracer | None) -> Iterator[None]:
    """Suspend span recording for benchmark-side checks inside a pass."""
    if tracer is None:
        yield
        return
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = True


@contextmanager
def ladder_outcomes() -> Iterator[Counter[str]]:
    """Tally batch-ladder outcomes during an online pass.

    A ladder whose every rung failed keeps the standing arrangement
    without raising, so the only place the failure is visible from
    outside is the ladder's result. Engines bind ``solve_with_ladder``
    at construction, so the service must be created inside this block.
    """
    outcomes: Counter[str] = Counter()

    def make(original: Callable) -> Callable:
        def tallied(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            outcomes[result.outcome.value] += 1
            return result

        return tallied

    undo = rebind(LADDER, make)
    try:
        yield outcomes
    finally:
        undo()


def _attrs(row: np.ndarray) -> list[float]:
    return [float(x) for x in row]


def _check_arrangement(instance: Instance, pairs: list[tuple[int, int]]) -> float:
    """Validate ``pairs`` against the input instance; returns MaxSum."""
    arrangement = Arrangement(instance)
    for event, user in pairs:
        arrangement.add(event, user)
    validate_arrangement(arrangement)
    return arrangement.max_sum()


class Workload:
    name = ""
    #: Distinct inputs; a cycle of the runner drives each of them once.
    n_scenarios = 1
    #: Measured cycles every run makes, however long they take.
    min_cycles = 3

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def set_up(self, number: int) -> Stretch:
        """Build every input from the seed and create a first service.

        Returns the timed stretch, from the start until the inputs and
        the service (if the workload has one) are ready. Set-up
        ``number`` (unique in the run) replaces the inputs of the one
        before.
        """
        raise NotImplementedError

    def run_pass(self, number: int, scenario: int, tracer: Tracer | None) -> PassResult:
        """Pass ``number`` (unique in the run) over input ``scenario``."""
        raise NotImplementedError

    def verify(self, result: PassResult) -> None:
        raise NotImplementedError

    def quality_ratio(self, passes: list[PassResult]) -> float:
        raise NotImplementedError

    def canary(self) -> str | None:
        """A line of exact outputs, printed so two commits can be diffed."""
        return None


# ----------------------------------------------------------------------
# Online: a closed loop of assignment requests through the service
# ----------------------------------------------------------------------

POST, ARRIVE, FREEZE, COMMIT = 0, 1, 2, 3


def timeline_commands(instance: Instance, timeline: Timeline) -> list[tuple]:
    """The timeline as time-ordered commands with converted arguments.

    Same intra-instant order as ``geacc replay``: posts, arrivals,
    freezes. Arguments are converted here so the timed drive measures
    the service, not the client's list building.
    """
    moments: list[tuple[float, int, int]] = []
    moments += [(float(t), POST, e) for e, t in enumerate(timeline.post_times)]
    moments += [(float(t), ARRIVE, u) for u, t in enumerate(timeline.arrival_times)]
    moments += [(float(t), FREEZE, e) for e, t in enumerate(timeline.start_times)]
    moments.sort()
    assert instance.event_attributes is not None and instance.user_attributes is not None
    commands: list[tuple] = []
    for _, kind, entity in moments:
        if kind == POST:
            commands.append(
                (
                    POST,
                    entity,
                    int(instance.event_capacities[entity]),
                    _attrs(instance.event_attributes[entity]),
                    sorted(instance.conflicts.conflicts_with(entity)),
                )
            )
        elif kind == ARRIVE:
            commands.append(
                (
                    ARRIVE,
                    entity,
                    int(instance.user_capacities[entity]),
                    _attrs(instance.user_attributes[entity]),
                )
            )
        else:
            commands.append((FREEZE, entity))
    return commands


def drive(
    service: Any, commands: list[tuple], latencies: list[Stretch], tracer: Tracer | None
) -> tuple[dict[int, int], dict[int, int], int]:
    """Issue ``commands`` one at a time; a request waits for its batch.

    Returns the input-id -> service-id maps for events and users, and
    the number of requests that raised.
    """
    event_ids: dict[int, int] = {}
    user_ids: dict[int, int] = {}
    failed = 0
    for command in commands:
        kind, entity = command[0], command[1]
        if kind == POST:
            conflicts = [event_ids[w] for w in command[4] if w in event_ids]
            event_ids[entity] = service.post_event(command[2], command[3], conflicts)
        elif kind == ARRIVE:
            user = user_ids[entity] = service.register_user(command[2], command[3])
            if tracer is not None:
                tracer.request = entity
            started = time.perf_counter_ns()
            try:
                service.request_assignment(user)
            except ServiceError:
                failed += 1
            else:
                latencies.append(stretch_since(started))
            if tracer is not None:
                tracer.request = None
        else:
            service.freeze_event(event_ids[entity])
    return event_ids, user_ids, failed


@dataclass
class Scenario:
    """One online input: an instance, its timeline, the command list."""

    instance: Instance
    timeline: Timeline
    commands: list[tuple]

    @classmethod
    def of(cls, instance: Instance, timeline: Timeline) -> "Scenario":
        return cls(instance, timeline, timeline_commands(instance, timeline))

    def bound(self) -> float:
        """Relaxation bound over the pairs the service could ever seat.

        A user can only take a seat in an event that has not frozen by
        the time the user arrives, so those pairs are masked out before
        the conflict-free optimum is computed (Corollary 1 on the rest).
        The mask removes the timeline's share of the run-to-run spread
        of the quality ratio, which a bound on the full instance keeps.
        """
        instance, timeline = self.instance, self.timeline
        seatable = timeline.arrival_times[None, :] <= timeline.start_times[:, None]
        return relaxation_bound(
            Instance.from_matrix(
                instance.sims * seatable,
                instance.event_capacities,
                instance.user_capacities,
                instance.conflicts,
            )
        )


class OnlineWorkload(Workload):
    """Shared pass structure of the two online workloads.

    A pass drives one scenario from a fresh service; a cycle of the
    runner drives every scenario once, so the request mix of a run does
    not depend on how many passes fit in it.
    """

    scenarios: list[Scenario]

    @property
    def n_scenarios(self) -> int:
        return len(self.scenarios)

    def _make_scenarios(self) -> list[Scenario]:
        raise NotImplementedError

    def _create(self, root: Path) -> Any:
        raise NotImplementedError

    def set_up(self, number: int) -> Stretch:
        root = self.workdir / f"setup-{number}"
        root.mkdir(parents=True)
        started = time.perf_counter_ns()
        self.scenarios = self._make_scenarios()
        service = self._create(root)
        ready = stretch_since(started)
        service.close()
        return ready

    def run_pass(self, number: int, scenario: int, tracer: Tracer | None) -> PassResult:
        latencies: list[Stretch] = []
        root = self.workdir / f"pass-{number}"
        root.mkdir(parents=True)
        with ladder_outcomes() as outcomes:
            started = time.perf_counter_ns()
            service = self._create(root)
            event_ids, user_ids, failed = drive(
                service, self.scenarios[scenario].commands, latencies, tracer
            )
            driven = stretch_since(started)
        return PassResult(
            timed=[driven],
            ops=latencies,
            attempted=self.scenarios[scenario].instance.n_users,
            failed=failed + outcomes["failed"],
            state={
                "root": root,
                "service": service,
                "scenario": scenario,
                "events": event_ids,
                "users": user_ids,
            },
        )

    def _achieved(self, state: dict[str, Any], pairs: list[tuple[int, int]]) -> float:
        """Map service ids back to input ids; validate; return MaxSum."""
        event_of = {sid: e for e, sid in state["events"].items()}
        user_of = {sid: u for u, sid in state["users"].items()}
        return _check_arrangement(
            self.scenarios[state["scenario"]].instance,
            [(event_of[e], user_of[u]) for e, u in pairs],
        )

    def quality_ratio(self, passes: list[PassResult]) -> float:
        achieved: dict[int, float] = {}
        for result in passes:
            achieved.setdefault(result.state["scenario"], result.achieved)
        assert sorted(achieved) == list(range(len(self.scenarios)))
        return sum(achieved.values()) / sum(s.bound() for s in self.scenarios)


class OnlineUniform(OnlineWorkload):
    """Table III distributions through one unsharded service."""

    name = "online-uniform"
    min_cycles = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        super().__init__(seed, smoke, workdir)
        n_events, n_users, self.count = (8, 40, 2) if smoke else (30, 300, 6)
        self.config = SyntheticConfig(n_events=n_events, n_users=n_users)
        self.store_config = StoreConfig(dimension=self.config.d)

    def _make_scenarios(self) -> list[Scenario]:
        scenarios = []
        for k in range(self.count):
            rng = np.random.default_rng([self.seed, k])
            instance = generate_instance_rng(self.config, rng)
            scenarios.append(Scenario.of(instance, random_timeline(instance, rng, horizon=100.0)))
        return scenarios

    def _create(self, root: Path) -> ArrangementService:
        return ArrangementService.create(
            root / "journal.jsonl", self.store_config, threaded=False
        )

    def verify(self, result: PassResult) -> None:
        state = result.state
        service = state.pop("service")
        service.check_invariants()
        live = service.store.digest()
        result.achieved = self._achieved(state, service.store.pairs())
        service.close()
        recovered, _ = service_journal.replay(state["root"] / "journal.jsonl")
        if recovered.digest() != live:
            raise CheckFailed(f"{self.name}: journal replay digest != live digest")


class OnlineClustered(OnlineWorkload):
    """Clustered universe on a 4-shard fleet (no rebalance ever fires)."""

    name = "online-clustered"

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        super().__init__(seed, smoke, workdir)
        self.components, self.users, self.shards = (4, 4, 2) if smoke else (32, 12, 4)
        self.store_config = StoreConfig(dimension=8)

    def _make_scenarios(self) -> list[Scenario]:
        instance = shardable_instance(
            self.components, 3, self.users, dimension=8, seed=self.seed
        )
        return [Scenario.of(instance, shardable_timeline(instance))]

    def _create(self, root: Path) -> ShardCoordinator:
        return ShardCoordinator.create(root, self.store_config, self.shards, threaded=False)

    def verify(self, result: PassResult) -> None:
        state = result.state
        root = state["root"]
        coordinator = state.pop("service")
        coordinator.check_invariants()
        summary = coordinator.state_summary()
        live = coordinator.arrangement_digest()
        assignments = [tuple(pair) for pair in coordinator.arrangement_state()["assignments"]]
        result.achieved = self._achieved(state, assignments)
        result.rebalances = summary["sharding"]["rebalances"]
        coordinator.close()
        for row in summary["sharding"]["per_shard"]:
            recovered, _ = service_journal.replay(ShardManager.journal_path(root, row["shard"]))
            if recovered.digest() != row["digest"]:
                raise CheckFailed(
                    f"{self.name}: shard {row['shard']} journal replay digest != live digest"
                )
        with ShardCoordinator.recover(root, threaded=False) as reopened:
            if reopened.arrangement_digest() != live:
                raise CheckFailed(f"{self.name}: fleet recovery digest != live digest")


# ----------------------------------------------------------------------
# Offline: whole-instance solves, service layers bypassed
# ----------------------------------------------------------------------


class OfflineSolve(Workload):
    """Both paper algorithms on a batch of instances, service bypassed.

    Greedy-GEACC runs matrix-free over chunked index streams (the Fig. 5
    regime); MinCostFlow-GEACC runs with the matrix materialised in
    set-up. A pass builds and solves :data:`PAIRS` instance pairs from
    sub-seeds of the seed, and one operation is that whole batch: a
    single instance's solve time varies by 9-14% (coefficient of
    variation) from seed to seed, the batch's by about 3%.
    """

    name = "offline-solve"
    PAIRS = 6
    #: (solver, constructor arguments, bound the quality ratio divides by)
    SOLVERS = (
        ("greedy", {"index_kind": "chunked"}, nn_capacity_bound),
        # The conflict-free optimum: a tighter bound than nn_capacity_bound,
        # whose looseness varies from seed to seed four times as much.
        ("mincostflow", {}, relaxation_bound),
    )

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        super().__init__(seed, smoke, workdir)
        if smoke:
            self.configs = (
                SyntheticConfig(n_events=10, n_users=300, cv_high=60),
                SyntheticConfig(n_events=10, n_users=100),
            )
        else:
            self.configs = (
                SyntheticConfig(n_events=100, n_users=1250),
                SyntheticConfig(n_events=50, n_users=500),
            )
        self._fingerprint: tuple | None = None
        self._instances: list[Instance] = []

    def _build(self) -> list[Instance]:
        """Greedy's and MinCostFlow's instance of each pair, in solve order."""
        instances = []
        for k in range(self.PAIRS):
            for config in self.configs:
                instance = generate_instance_rng(config, np.random.default_rng([self.seed, k]))
                instances.append(instance)
            instance.sims  # materialise MinCostFlow's: set-up, not solve
        return instances

    def _solvers(self) -> Iterator[tuple]:
        return (entry for _ in range(self.PAIRS) for entry in self.SOLVERS)

    def set_up(self, number: int) -> Stretch:
        started = time.perf_counter_ns()
        self._build()
        return stretch_since(started)

    def run_pass(self, number: int, scenario: int, tracer: Tracer | None) -> PassResult:
        # Fresh instances every pass, so no pass solves on another's caches.
        built = time.perf_counter_ns()
        instances = self._build()
        started = time.perf_counter_ns()
        results = [
            harness.run_with_budget(solver, instance, solver_kwargs=kwargs)
            for (solver, kwargs, _), instance in zip(self._solvers(), instances)
        ]
        solved = stretch_since(started)
        self._instances = instances
        return PassResult(
            timed=[(built, solved[1])],
            ops=[solved],
            attempted=len(results),
            failed=sum(result.outcome.value != "optimal" for result in results),
            state={"results": results},
        )

    def verify(self, result: PassResult) -> None:
        fingerprint: tuple = ()
        for (solver, _, _), solved in zip(self._solvers(), result.state.pop("results")):
            if solved.arrangement is None:
                raise CheckFailed(f"{self.name}: {solver} produced no arrangement")
            max_sum = solved.max_sum()
            result.achieved += max_sum
            fingerprint += ((solver, max_sum, len(solved.arrangement), solved.nodes),)
        if self._fingerprint is None:
            self._fingerprint = fingerprint
        elif fingerprint != self._fingerprint:
            raise CheckFailed(
                f"{self.name}: (solver, max_sum, n_pairs, nodes) {fingerprint} differs "
                f"from the first pass's {self._fingerprint}"
            )

    def quality_ratio(self, passes: list[PassResult]) -> float:
        """Every solve's MaxSum over the sum of their bounds."""
        bounds = [bound(i) for (_, _, bound), i in zip(self._solvers(), self._instances)]
        return passes[0].achieved / sum(bounds)

    def canary(self) -> str | None:
        if self._fingerprint is None:
            return None
        return f"{self.name} canary: " + "; ".join(
            f"{solver} max_sum={max_sum!r} n_pairs={n_pairs} nodes={nodes}"
            for solver, max_sum, n_pairs, nodes in self._fingerprint
        )


# ----------------------------------------------------------------------
# Recovery: the durable write path and the restart ladder, no solver
# ----------------------------------------------------------------------

#: Pairs per ``commit_delta`` command during ingest.
COMMIT_PAIRS = 20
#: Share of the commands ingested before the compaction snapshot.
SNAPSHOT_AT = 0.95
#: Restarts per pass, each one an operation.
RESTARTS = 7


def arrival_arrangement(instance: Instance) -> list[tuple[int, int]]:
    """A feasible arrangement built user by user, best events first.

    Input generation for the recovery workload: computed here rather
    than by a solver under ``src/`` so the workload's inputs do not move
    when a solver changes.
    """
    sims = instance.sims
    remaining = instance.event_capacities.tolist()
    conflicts = instance.conflicts
    pairs: list[tuple[int, int]] = []
    for user, capacity in enumerate(instance.user_capacities.tolist()):
        column = sims[:, user]
        values = column.tolist()
        chosen: list[int] = []
        for event in np.argsort(-column, kind="stable").tolist():
            if len(chosen) == capacity or values[event] <= 0:
                break
            if remaining[event] > 0 and not conflicts.conflicts_with_any(event, chosen):
                chosen.append(event)
                remaining[event] -= 1
        pairs.extend((event, user) for event in chosen)
    return sorted(pairs)


class Recovery(Workload):
    """Ingest through the service, compact, then restart via the ladder."""

    name = "recovery"

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        super().__init__(seed, smoke, workdir)
        self.synthetic = (
            SyntheticConfig(n_events=10, n_users=300, cv_high=60)
            if smoke
            else SyntheticConfig(n_events=100, n_users=10_000, cv_high=240)
        )
        self.store_config = StoreConfig(dimension=self.synthetic.d)
        self.commands: list[tuple] = []
        self.cut = 0
        self._pairs: list[tuple[int, int]] = []

    def set_up(self, number: int) -> Stretch:
        root = self.workdir / f"setup-{number}"
        root.mkdir(parents=True)
        # Free the last inputs and the last pass's state first, so the peak
        # RSS does not depend on when the collector last ran.
        self.commands = []
        gc.collect()
        started = time.perf_counter_ns()
        instance = generate_instance(self.synthetic, self.seed)
        self.commands = self._commands(instance, arrival_arrangement(instance))
        self.cut = int(len(self.commands) * SNAPSHOT_AT)
        service = ArrangementService.create(
            root / "journal.jsonl", self.store_config, threaded=False,
            snapshot_dir=root / "snapshots",
        )
        ready = stretch_since(started)
        service.close()
        return ready

    @staticmethod
    def _commands(instance: Instance, pairs: list[tuple[int, int]]) -> list[tuple]:
        """Posts, then each registration followed by its seats' commits."""
        assert instance.event_attributes is not None and instance.user_attributes is not None
        commands: list[tuple] = [
            (
                POST,
                int(instance.event_capacities[e]),
                _attrs(instance.event_attributes[e]),
                sorted(w for w in instance.conflicts.conflicts_with(e) if w < e),
            )
            for e in range(instance.n_events)
        ]
        seats: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for event, user in pairs:
            seats[user].append((event, user))
        pending: list[tuple[int, int]] = []
        for user in range(instance.n_users):
            commands.append(
                (ARRIVE, int(instance.user_capacities[user]), _attrs(instance.user_attributes[user]))
            )
            pending.extend(seats[user])
            while len(pending) >= COMMIT_PAIRS:
                batch, pending = pending[:COMMIT_PAIRS], pending[COMMIT_PAIRS:]
                commands.append(Recovery._commit(batch))
        if pending:
            commands.append(Recovery._commit(pending))
        return commands

    @staticmethod
    def _commit(batch: list[tuple[int, int]]) -> tuple:
        return (COMMIT, Delta(assigns=tuple(sorted(batch))), sorted({u for _, u in batch}))

    @staticmethod
    def _ingest(service: ArrangementService, commands: list[tuple]) -> int:
        failed = 0
        for command in commands:
            try:
                if command[0] == POST:
                    service.post_event(command[1], command[2], command[3])
                elif command[0] == ARRIVE:
                    service.register_user(command[1], command[2])
                else:
                    service.commit_delta(command[1], users=command[2])
            except ServiceError:
                failed += 1
        return failed

    def run_pass(self, number: int, scenario: int, tracer: Tracer | None) -> PassResult:
        restarts: list[Stretch] = []
        root = self.workdir / f"pass-{number}"
        root.mkdir(parents=True)
        path, snapshots = root / "journal.jsonl", root / "snapshots"
        started = time.perf_counter_ns()
        service = ArrangementService.create(
            path, self.store_config, threaded=False, snapshot_dir=snapshots
        )
        failed = self._ingest(service, self.commands[: self.cut])
        replayed, _ = service_journal.replay(path)  # the ladder's last rung
        timed = [stretch_since(started)]
        with untraced(tracer):
            if replayed.digest() != service.store.digest():
                raise CheckFailed(f"{self.name}: full replay digest != live digest")
        del replayed
        resumed = time.perf_counter_ns()
        service.compact()
        failed += self._ingest(service, self.commands[self.cut :])
        timed.append(stretch_since(resumed))
        with untraced(tracer):
            live = service.store.digest()
            service.close()

        for restart in range(RESTARTS):
            restart_started = time.perf_counter_ns()
            restarted = ArrangementService.recover(
                path, snapshot_dir=snapshots, threaded=False
            )
            restarts.append(stretch_since(restart_started))
            failed += restarted.journal.last_recovery.rung != "snapshot+tail"
            # Every restart reads the same files; the first and the last
            # are compared in full, the rest by sequence number only.
            with untraced(tracer):
                if restart in (0, RESTARTS - 1):
                    same = restarted.store.digest() == live
                else:
                    same = restarted.store.seq == service.store.seq
                if not same:
                    raise CheckFailed(f"{self.name}: restart state != pre-restart state")
                restarted.close()
        self._pairs = restarted.store.pairs()
        return PassResult(
            timed=timed + restarts,
            ops=restarts,
            attempted=len(self.commands) + RESTARTS,
            failed=failed,
        )

    def verify(self, result: PassResult) -> None:
        """Checked inside the pass: digests are compared as state is built."""

    def quality_ratio(self, passes: list[PassResult]) -> float:
        instance = generate_instance(self.synthetic, self.seed)
        achieved = _check_arrangement(instance, self._pairs)
        return achieved / nn_capacity_bound(instance)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (OnlineUniform, OnlineClustered, OfflineSolve, Recovery)
}
