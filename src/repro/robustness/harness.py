"""The anytime solver harness: budgeted solves and degradation ladders.

:func:`run_with_budget` wraps any registered solver with a
:class:`~repro.robustness.budget.Budget` and *always* returns a
:class:`~repro.robustness.outcome.SolveResult` -- optimal, best-so-far
on timeout, or a structured failure -- never an exception. This is the
per-request entry point a production deployment would sit behind: a
deadline comes in, a feasible arrangement (possibly the empty one) comes
out, tagged with how it was obtained.

:func:`solve_with_ladder` adds graceful degradation: a ladder of solvers
(default ``prune -> greedy -> random-u``) sharing one global budget.
Each rung that fails falls through to the next, carrying a
:class:`~repro.robustness.outcome.FailureRecord`; a rung that merely
times out already answers with its feasible best-so-far (Prune-GEACC's
floor is its Greedy warm-start seed), so the ladder stops there.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections.abc import Mapping, Sequence

from repro.core.model import Arrangement, Instance
from repro.core.validation import validate_arrangement
from repro.exceptions import (
    BudgetExceededError,
    InfeasibleArrangementError,
    SolverFailedError,
)
from repro.robustness.budget import Budget
from repro.robustness.outcome import FailureRecord, Outcome, SolveResult, is_transient

#: The default degradation ladder: exact, then the paper's scalable
#: approximation, then the cheapest baseline that can still answer.
DEFAULT_LADDER: tuple[str, ...] = ("prune", "greedy", "random-u")


def _resolve_solver(solver: object, kwargs: Mapping[str, object] | None = None):
    """Instantiate a registry name, or pass a Solver instance through."""
    if isinstance(solver, str):
        from repro.core.algorithms.base import get_solver

        return get_solver(solver, **dict(kwargs or {}))
    return solver


def _solver_name(solver: object) -> str:
    name = getattr(solver, "name", None)
    if isinstance(name, str) and name and name != "abstract":
        return name
    return type(solver).__name__


@functools.cache
def _takes_budget(solver_class: type) -> bool:
    """True when ``solver_class.solve`` has a ``budget`` parameter."""
    try:
        return "budget" in inspect.signature(solver_class.solve).parameters
    except (AttributeError, TypeError, ValueError):  # builtins / C callables
        return False


def _call_solve(solver, instance: Instance, budget: Budget) -> Arrangement:
    """Call ``solver.solve``, passing the budget when the solver takes one.

    Legacy / third-party solvers whose ``solve`` predates the budget
    parameter still run -- they just cannot be preempted cooperatively.
    The signature is looked up once per solver class.
    """
    if _takes_budget(type(solver)):
        return solver.solve(instance, budget=budget)
    return solver.solve(instance)


def run_with_budget(
    solver: object,
    instance: Instance,
    budget: Budget | None = None,
    *,
    timeout: float | None = None,
    node_limit: int | None = None,
    solver_kwargs: Mapping[str, object] | None = None,
    validate: bool = True,
) -> SolveResult:
    """Run one solver under a budget; never raises.

    Args:
        solver: Registry name (``"prune"``) or a Solver instance.
        budget: An existing budget to run under (a ladder passes its
            shared one). Mutually exclusive with ``timeout``/``node_limit``.
        timeout: Wall-clock allowance in seconds (monotonic clock).
        node_limit: Cap on checkpointed work units.
        solver_kwargs: Constructor arguments when ``solver`` is a name.
        validate: Validate the arrangement before reporting it feasible
            (an infeasible output is converted into a ``failed`` result).

    Returns:
        A :class:`SolveResult`; ``outcome`` is ``optimal`` when the solver
        completed, ``feasible-timeout`` when the budget ran out (the
        arrangement is the validated best-so-far, possibly empty), and
        ``failed`` when the solver raised or produced infeasible output.
    """
    if budget is not None and (timeout is not None or node_limit is not None):
        raise ValueError("pass either an existing budget or timeout/node_limit")
    if budget is None:
        budget = Budget(deadline=timeout, node_limit=node_limit)
    budget.start()
    started = time.monotonic()

    try:
        instantiated = _resolve_solver(solver, solver_kwargs)
    except Exception as exc:  # unknown name, bad constructor args
        return SolveResult(
            arrangement=None,
            outcome=Outcome.FAILED,
            solver=str(solver),
            seconds=time.monotonic() - started,
            nodes=budget.nodes,
            failures=(
                FailureRecord(
                    solver=str(solver),
                    error_type=type(exc).__name__,
                    message=str(exc),
                    transient=False,
                ),
            ),
        )
    name = _solver_name(instantiated)

    try:
        arrangement: Arrangement | None = _call_solve(instantiated, instance, budget)
    except BudgetExceededError:
        # The solver let the exhaustion escape instead of returning its
        # best-so-far; the empty arrangement is the universal feasible
        # floor, so degrade to it rather than erroring.
        arrangement = Arrangement(instance)
    except Exception as exc:
        return SolveResult(
            arrangement=None,
            outcome=Outcome.FAILED,
            solver=name,
            seconds=time.monotonic() - started,
            nodes=budget.nodes,
            failures=(
                FailureRecord(
                    solver=name,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    transient=is_transient(exc),
                ),
            ),
        )

    if validate and arrangement is not None:
        try:
            validate_arrangement(arrangement)
        except InfeasibleArrangementError as exc:
            return SolveResult(
                arrangement=None,
                outcome=Outcome.FAILED,
                solver=name,
                seconds=time.monotonic() - started,
                nodes=budget.nodes,
                failures=(
                    FailureRecord(
                        solver=name,
                        error_type=type(exc).__name__,
                        message=str(exc),
                        transient=False,
                    ),
                ),
            )

    outcome = Outcome.FEASIBLE_TIMEOUT if budget.exhausted else Outcome.OPTIMAL
    return SolveResult(
        arrangement=arrangement,
        outcome=outcome,
        solver=name,
        seconds=time.monotonic() - started,
        nodes=budget.nodes,
        failures=(),
    )


def solve_with_ladder(
    instance: Instance,
    ladder: Sequence[object] = DEFAULT_LADDER,
    *,
    timeout: float | None = None,
    node_limit: int | None = None,
    solver_kwargs: Mapping[str, Mapping[str, object]] | None = None,
    validate: bool = True,
) -> SolveResult:
    """Solve with graceful degradation down a ladder of solvers.

    All rungs share ONE budget: the deadline is global, so a rung that
    burns the whole allowance leaves the remaining rungs only their
    empty-arrangement floor (still feasible, still an answer).

    Args:
        ladder: Solver names and/or instances, best first.
        solver_kwargs: Per-name constructor arguments for string rungs.
        timeout / node_limit / validate: As in :func:`run_with_budget`.

    Returns:
        The first rung's result that produced a feasible arrangement
        (``optimal`` or ``feasible-timeout``), with the failure records
        of every earlier rung attached; if every rung failed, a
        ``failed`` result carrying all records.
    """
    if not ladder:
        raise ValueError("ladder must name at least one solver")
    budget = Budget(deadline=timeout, node_limit=node_limit).start()
    started = time.monotonic()
    failures: list[FailureRecord] = []
    kwargs_by_name = dict(solver_kwargs or {})
    for rung in ladder:
        rung_kwargs = kwargs_by_name.get(rung) if isinstance(rung, str) else None
        result = run_with_budget(
            rung,
            instance,
            budget=budget,
            solver_kwargs=rung_kwargs,
            validate=validate,
        )
        failures.extend(result.failures)
        if result.ok:
            return SolveResult(
                arrangement=result.arrangement,
                outcome=result.outcome,
                solver=result.solver,
                seconds=time.monotonic() - started,
                nodes=budget.nodes,
                failures=tuple(failures),
            )
    return SolveResult(
        arrangement=None,
        outcome=Outcome.FAILED,
        solver="",
        seconds=time.monotonic() - started,
        nodes=budget.nodes,
        failures=tuple(failures),
    )


def raise_on_failure(result: SolveResult) -> SolveResult:
    """Convert a ``failed`` result back into an exception, for callers
    that prefer raising APIs; passes successful results through."""
    if result.outcome is Outcome.FAILED:
        details = "; ".join(
            f"{f.solver}: {f.error_type}: {f.message}" for f in result.failures
        )
        raise SolverFailedError(
            f"no solver produced a feasible arrangement ({details})",
            failures=result.failures,
        )
    return result
