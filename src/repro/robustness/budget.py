"""Cooperative execution budgets: wall-clock deadlines and node limits.

A :class:`Budget` bounds one solve. It is *cooperative*: the budget does
nothing by itself -- budget-aware solvers call :meth:`Budget.checkpoint`
inside their hot loop (one call per search node / heap pop / flow
augmentation), and the checkpoint raises
:class:`~repro.exceptions.BudgetExceededError` once the deadline passes
or the node budget runs out. Solvers catch that exception at the top of
their loop and return their feasible best-so-far arrangement, which the
harness (:mod:`repro.robustness.harness`) tags ``feasible-timeout``.

Deadlines are measured on ``time.monotonic()``. Wall-clock time
(``time.time()``) is never acceptable for budgets -- NTP steps and DST
jumps would fire (or silently extend) deadlines -- and
``tests/test_boundaries.py`` enforces that tree-wide.

The clock is read on the first node, whenever a checkpoint's count
crosses a multiple of ``clock_stride`` (so a checkpoint in a
million-node search loop stays an integer compare in the common case;
with the default stride of 32 a 50 ms deadline is still honoured to
well under a millisecond in practice), and on every checkpoint whose
weight is not 1. A weighted checkpoint stands for a whole slice of work
(or, at weight 0, probes before an expensive step), so it is rare and
must never slip past a deadline between two stride boundaries.
"""

from __future__ import annotations

import time

from repro.exceptions import BudgetExceededError


class Budget:
    """One solve's execution budget (deadline and/or node limit).

    Args:
        deadline: Wall-clock allowance in seconds (monotonic clock),
            counted from the first :meth:`checkpoint` (or an explicit
            :meth:`start`). None = no deadline.
        node_limit: Maximum number of checkpointed units of work (search
            nodes, heap pops, flow augmentations...). None = unlimited.
        clock_stride: Consult the monotonic clock every this many unit
            checkpoints (weighted ones always consult it). 1 checks
            every call; larger strides make the checkpoint cheaper but
            the deadline coarser.

    A budget is single-use: it belongs to one solve (or one degradation
    ladder sharing a global deadline across rungs) and keeps its counters
    afterwards for reporting.
    """

    __slots__ = ("deadline", "node_limit", "clock_stride", "nodes",
                 "_started_at", "_exhausted_reason")

    def __init__(
        self,
        deadline: float | None = None,
        node_limit: int | None = None,
        clock_stride: int = 32,
    ) -> None:
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {deadline}")
        if node_limit is not None and node_limit < 0:
            raise ValueError(f"node_limit must be >= 0, got {node_limit}")
        if clock_stride < 1:
            raise ValueError(f"clock_stride must be >= 1, got {clock_stride}")
        self.deadline = deadline
        self.node_limit = node_limit
        self.clock_stride = clock_stride
        self.nodes = 0
        self._started_at: float | None = None
        self._exhausted_reason: str | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "Budget":
        """Anchor the deadline at *now* (idempotent); returns ``self``."""
        if self._started_at is None:
            self._started_at = time.monotonic()
        return self

    @property
    def started(self) -> bool:
        return self._started_at is not None

    @property
    def exhausted(self) -> bool:
        """True once the budget ran out (checkpoint raised or marked)."""
        return self._exhausted_reason is not None

    @property
    def exhausted_reason(self) -> str | None:
        """Human-readable reason the budget ran out, or None."""
        return self._exhausted_reason

    def elapsed(self) -> float:
        """Seconds since :meth:`start` (0.0 if never started)."""
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    def remaining_seconds(self) -> float | None:
        """Seconds left on the deadline (clamped at 0), or None."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self.elapsed())

    def remaining_nodes(self) -> int | None:
        """Nodes left on the node budget (clamped at 0), or None."""
        if self.node_limit is None:
            return None
        return max(0, self.node_limit - self.nodes)

    # ------------------------------------------------------------------
    # The hot-loop hook
    # ------------------------------------------------------------------

    def checkpoint(self, weight: int = 1) -> None:
        """Account one unit of work; raise once the budget is exhausted.

        Args:
            weight: Number of units this checkpoint represents (e.g. a
                vectorised step covering ``weight`` elementary nodes).

        Raises:
            BudgetExceededError: On the first checkpoint at or past the
                node limit or the deadline. Subsequent checkpoints keep
                raising, so a solver that swallowed one exhaustion cannot
                silently keep burning time.
        """
        if self._exhausted_reason is not None:
            raise BudgetExceededError(self._exhausted_reason)
        self.nodes += weight
        if self.node_limit is not None and self.nodes > self.node_limit:
            self.mark_exhausted(
                f"node budget exhausted ({self.nodes} > {self.node_limit})"
            )
            raise BudgetExceededError(self._exhausted_reason)
        if self.deadline is not None:
            if self._started_at is None:
                self.start()
            # Only hit the clock every `clock_stride` unit nodes; always on
            # the first node (so a zero deadline fires immediately) and on
            # every weighted or zero-weight checkpoint.
            if weight != 1 or self.nodes % self.clock_stride == 0 or self.nodes == 1:
                if self.elapsed() >= self.deadline:
                    self.mark_exhausted(
                        f"deadline exhausted ({self.deadline:.3f}s, "
                        f"{self.nodes} nodes)"
                    )
                    raise BudgetExceededError(self._exhausted_reason)

    def expired(self) -> bool:
        """Non-raising probe: would the next checkpoint raise?"""
        if self._exhausted_reason is not None:
            return True
        if self.node_limit is not None and self.nodes >= self.node_limit:
            return True
        if self.deadline is not None and self.started:
            return self.elapsed() >= self.deadline
        return False

    def mark_exhausted(self, reason: str) -> None:
        """Record exhaustion detected outside :meth:`checkpoint`.

        Solvers that delegate to an engine with its own time limit (e.g.
        the MILP backend) call this when the engine reports a timeout, so
        the harness sees a consistent ``exhausted`` flag.
        """
        if self._exhausted_reason is None:
            self._exhausted_reason = reason

    def __repr__(self) -> str:
        parts = []
        if self.deadline is not None:
            parts.append(f"deadline={self.deadline}s")
        if self.node_limit is not None:
            parts.append(f"node_limit={self.node_limit}")
        parts.append(f"nodes={self.nodes}")
        if self.exhausted:
            parts.append("exhausted")
        return f"Budget({', '.join(parts)})"
