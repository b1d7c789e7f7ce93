"""repro: reproduction of "Conflict-Aware Event-Participant Arrangement".

(She, Tong, Chen, Cao -- ICDE 2015.)

The library implements the GEACC problem (Global Event-participant
Arrangement with Conflict and Capacity) and everything the paper builds
or depends on:

* the problem model -- events/users with capacities, conflict graphs,
  Eq. (1) similarity (:mod:`repro.core`);
* the three algorithms -- Greedy-GEACC, MinCostFlow-GEACC and the exact
  Prune-GEACC, plus the random baselines and a local-search extension
  (:mod:`repro.core.algorithms`);
* substrates -- a successive-shortest-path min-cost-flow solver
  (:mod:`repro.flow`) and incremental nearest-neighbour indexes
  (:mod:`repro.index`);
* workloads -- Table III synthetic generators (:mod:`repro.datagen`) and
  the simulated Meetup city datasets of Table II
  (:mod:`repro.datasets`);
* the experiment harness regenerating every figure
  (:mod:`repro.experiments`);
* the anytime robustness harness -- execution budgets, the
  ``optimal | feasible-timeout | failed`` outcome taxonomy, and the
  degradation ladder (:mod:`repro.robustness`, ``docs/robustness.md``).

Quickstart::

    from repro import GreedyGEACC, generate_instance

    instance = generate_instance()          # Table III defaults
    arrangement = GreedyGEACC().solve(instance)
    print(arrangement.max_sum(), len(arrangement))
"""

from repro.core.conflicts import ConflictGraph
from repro.core.model import Arrangement, Event, Instance, User
from repro.core.validation import is_feasible, validate_arrangement
from repro.core.algorithms import (
    SOLVERS,
    ExhaustiveGEACC,
    GreedyGEACC,
    LocalSearchGEACC,
    MinCostFlowGEACC,
    OnlineGreedyGEACC,
    PruneGEACC,
    RandomU,
    RandomV,
    Solver,
    fill_user,
    get_solver,
)
from repro.core.analysis import ArrangementStats, analyze
from repro.datagen.synthetic import SyntheticConfig, generate_instance
from repro.datasets.meetup import MeetupCityConfig, meetup_city
from repro.exceptions import (
    BudgetExceededError,
    InfeasibleArrangementError,
    InvalidInstanceError,
    ReproError,
    SolverFailedError,
)
from repro.robustness import (
    Budget,
    FailureRecord,
    Outcome,
    SolveResult,
    run_with_budget,
    solve_with_ladder,
)

__version__ = "1.0.0"

__all__ = [
    "Arrangement",
    "ConflictGraph",
    "Event",
    "Instance",
    "User",
    "Solver",
    "SOLVERS",
    "get_solver",
    "GreedyGEACC",
    "MinCostFlowGEACC",
    "PruneGEACC",
    "ExhaustiveGEACC",
    "RandomV",
    "RandomU",
    "LocalSearchGEACC",
    "OnlineGreedyGEACC",
    "fill_user",
    "ArrangementStats",
    "analyze",
    "SyntheticConfig",
    "generate_instance",
    "MeetupCityConfig",
    "meetup_city",
    "is_feasible",
    "validate_arrangement",
    "ReproError",
    "InvalidInstanceError",
    "InfeasibleArrangementError",
    "BudgetExceededError",
    "SolverFailedError",
    "Budget",
    "Outcome",
    "SolveResult",
    "FailureRecord",
    "run_with_budget",
    "solve_with_ladder",
    "__version__",
]
