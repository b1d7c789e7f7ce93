"""Exception hierarchy for the GEACC reproduction library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything the library may raise with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class InvalidInstanceError(ReproError):
    """A GEACC instance violates a structural invariant.

    Examples: negative capacity, attribute vectors of mismatched
    dimensionality, a conflict pair referencing an unknown event, or a
    similarity matrix whose shape does not match ``|V| x |U|``.
    """


class InfeasibleArrangementError(ReproError):
    """An arrangement violates a GEACC constraint.

    Raised by :func:`repro.core.validation.validate_arrangement` with a
    human-readable description of the first violated constraint.
    """


class FlowError(ReproError):
    """Base class for errors raised by the min-cost-flow substrate."""


class InfeasibleFlowError(FlowError):
    """The requested flow amount exceeds the network's maximum flow."""


class NegativeCycleError(FlowError):
    """The residual network contains a negative-cost cycle.

    The successive-shortest-path solver maintains the invariant that no
    negative-cost residual cycle exists; encountering one indicates
    corrupted input (e.g. negative arc costs fed to the Dijkstra variant).
    """


class NNIndexError(ReproError):
    """Base class for errors raised by the nearest-neighbour indexes.

    (Known as ``IndexError_`` before PR 2; the deprecated alias was
    removed in PR 5 after its one-release grace period.)
    """


class EmptyIndexError(NNIndexError):
    """A nearest-neighbour query was issued against an empty index."""


class ReductionError(ReproError):
    """The Theorem 1 reduction received a malformed MFCGS instance."""


class BudgetExceededError(ReproError):
    """A cooperative execution budget was exhausted mid-solve.

    Raised by :meth:`repro.robustness.budget.Budget.checkpoint` when the
    wall-clock deadline passes or the node budget runs out. Budget-aware
    solvers catch it in their hot loop and return their feasible
    best-so-far arrangement; the :mod:`repro.robustness.harness` converts
    that into a ``feasible-timeout`` outcome, so the exception never
    crosses the harness boundary.
    """


class ServiceError(ReproError):
    """Base class for errors raised by the online arrangement service.

    Raised by :mod:`repro.service` when a command is rejected *before*
    it is journaled: unknown entity ids, out-of-range attributes,
    lifecycle violations (freezing a cancelled event, cancelling a
    frozen one). A rejected command never reaches the write-ahead
    journal, so it can never resurface during recovery.
    """


class JournalError(ServiceError):
    """The write-ahead journal is unreadable or internally inconsistent.

    A torn *final* line (crash mid-append) is not an error -- recovery
    truncates it and re-runs nothing, see
    :meth:`repro.service.journal.Journal.recover`. This exception is for
    everything else: a missing/foreign header, a sequence-number gap, or
    an undecodable record in the middle of the file.
    """


class SnapshotError(JournalError):
    """A store snapshot file is unreadable, torn, or fails its checksum.

    Raised by :mod:`repro.service.snapshot` when a snapshot cannot be
    trusted: missing/foreign header or buffer layout, a torn or
    truncated body, CRC mismatch, a body that fails the store's
    structural checks (shapes, id ranges, repeated seats, flags,
    remaining capacities), or a restored store whose digest differs
    from the one the writer recorded. A bad snapshot is never fatal on its own --
    recovery falls one rung down the degradation ladder (an older
    snapshot, else full journal replay); only when *no* durable rung
    survives does recovery raise :class:`JournalError`.
    """


class ServiceOverloadedError(ServiceError):
    """The engine's admission queue is full; the request was rejected.

    Explicit overload beats an unbounded queue: the HTTP front-end maps
    this to ``503 Retry-After`` so clients back off instead of piling
    latency onto every in-flight request.
    """


class SolverFailedError(ReproError):
    """A solver could not produce any feasible arrangement.

    Raised by the robustness harness when a solver errored (or returned
    an infeasible arrangement) and no degradation rung was left to fall
    through to. Carries the structured
    :class:`repro.robustness.outcome.FailureRecord` list on
    :attr:`failures`.
    """

    def __init__(self, message: str, failures: tuple = ()) -> None:
        super().__init__(message)
        self.failures = failures
