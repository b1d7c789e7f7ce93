"""Solver interface and registry."""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.core.model import Arrangement, Instance

if TYPE_CHECKING:  # pragma: no cover - typing only (no runtime cycle)
    from repro.robustness.budget import Budget

SOLVERS: dict[str, type["Solver"]] = {}


def register_solver(name: str) -> Callable[[type["Solver"]], type["Solver"]]:
    """Class decorator adding a solver to the global registry."""

    def decorate(cls: type["Solver"]) -> type["Solver"]:
        if name in SOLVERS:
            raise ValueError(f"solver name {name!r} already registered")
        SOLVERS[name] = cls
        cls.name = name
        return cls

    return decorate


def get_solver(name: str, **kwargs: Any) -> "Solver":
    """Instantiate a registered solver by name.

    Args:
        name: Registry key (e.g. ``greedy``, ``mincostflow``, ``prune``).
        **kwargs: Forwarded to the solver constructor.
    """
    try:
        cls = SOLVERS[name]
    except KeyError:
        known = ", ".join(sorted(SOLVERS))
        raise ValueError(f"unknown solver {name!r}; registered: {known}")
    return cls(**kwargs)


class Solver(ABC):
    """A GEACC solver: turns an :class:`Instance` into an arrangement.

    Solvers are stateless across calls (construct once, solve many
    instances); any per-solve state lives inside :meth:`solve`.

    **Budget contract (anytime semantics).** ``solve`` accepts an
    optional cooperative :class:`~repro.robustness.budget.Budget`. A
    budget-aware solver must (a) call ``budget.checkpoint()`` once per
    unit of work in its hot loop, (b) catch the resulting
    :class:`~repro.exceptions.BudgetExceededError` *inside* ``solve``,
    and (c) return its feasible best-so-far arrangement instead of
    raising. The solver's intermediate state must therefore stay
    feasible at every checkpoint. A solver may ignore the budget -- it
    stays correct, it just cannot be preempted -- but its ``solve``
    still takes the parameter: the harness
    (:mod:`repro.robustness.harness`) always passes it, and degrades an
    escaped exhaustion to the empty arrangement.
    """

    name: str = "abstract"

    @abstractmethod
    def solve(self, instance: Instance, budget: "Budget | None" = None) -> Arrangement:
        """Return a feasible arrangement for ``instance``.

        Args:
            instance: The GEACC instance.
            budget: Optional cooperative execution budget; on exhaustion
                the solver returns its feasible best-so-far (see class
                docstring).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
