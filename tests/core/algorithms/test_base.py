"""Tests for the solver registry."""

import importlib
import inspect
import pkgutil

import pytest

import repro.core.algorithms as algorithms
from repro.core.algorithms import SOLVERS, Solver, get_solver, register_solver


def concrete_solvers() -> list[type[Solver]]:
    """Every concrete Solver subclass defined in a repro.core.algorithms module."""
    found = []
    for info in pkgutil.iter_modules(algorithms.__path__, algorithms.__name__ + "."):
        module = importlib.import_module(info.name)
        for _name, cls in inspect.getmembers(module, inspect.isclass):
            if (
                issubclass(cls, Solver)
                and cls.__module__ == module.__name__
                and not inspect.isabstract(cls)
            ):
                found.append(cls)
    return found


def test_every_concrete_solver_is_registered_and_exported():
    # A solver missing from the registry or the package exports silently
    # drops out of the CLI and the harness, thinning the comparison tables.
    solvers = concrete_solvers()
    assert solvers
    for cls in solvers:
        assert SOLVERS.get(cls.name) is cls, f"{cls.__name__} is not registered"
        assert cls.__name__ in algorithms.__all__, f"{cls.__name__} not in __all__"
        assert getattr(algorithms, cls.__name__, None) is cls, (
            f"{cls.__name__} is not imported by repro.core.algorithms"
        )


def test_all_paper_solvers_registered():
    for name in ("greedy", "mincostflow", "prune", "exhaustive", "random-v",
                 "random-u", "local-search"):
        assert name in SOLVERS


def test_get_solver_instantiates():
    solver = get_solver("greedy")
    assert solver.name == "greedy"
    assert isinstance(solver, Solver)


def test_get_solver_forwards_kwargs():
    solver = get_solver("mincostflow", engine="generic")
    assert solver._engine == "generic"


def test_unknown_solver():
    with pytest.raises(ValueError, match="unknown solver"):
        get_solver("simulated-annealing")


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):

        @register_solver("greedy")
        class Duplicate(Solver):  # pragma: no cover - never used
            def solve(self, instance):
                raise NotImplementedError


def test_repr():
    assert "GreedyGEACC" in repr(get_solver("greedy"))
