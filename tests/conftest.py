"""Shared fixtures: the Table I toy instance and small random instances.

Also the reference MinCostFlow relaxation that the solver's dense flow
kernel is cross-checked against.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.algorithms import MinCostFlowGEACC
from repro.core.conflicts import ConflictGraph
from repro.core.model import Arrangement, Instance
from repro.core.toy import toy_instance
from repro.datagen.synthetic import SyntheticConfig, generate_instance
from repro.flow.network import FlowNetwork
from repro.flow.sspa import SuccessiveShortestPaths


@pytest.fixture
def toy() -> Instance:
    """The paper's Table I instance (3 events, 5 users, one conflict)."""
    return toy_instance()


@pytest.fixture
def small_instance() -> Instance:
    """A small synthetic instance with conflicts, fixed seed."""
    config = SyntheticConfig(
        n_events=8, n_users=30, cv_high=6, cu_high=3, conflict_ratio=0.3
    )
    return generate_instance(config, seed=123)


@pytest.fixture
def medium_instance() -> Instance:
    """A medium synthetic instance (Table III shape at 1/10 scale)."""
    config = SyntheticConfig(
        n_events=20, n_users=120, cv_high=10, cu_high=4, conflict_ratio=0.25
    )
    return generate_instance(config, seed=7)


def random_matrix_instance(
    rng: np.random.Generator,
    n_events: int,
    n_users: int,
    max_cv: int = 4,
    max_cu: int = 3,
    conflict_ratio: float = 0.3,
    zero_fraction: float = 0.1,
) -> Instance:
    """Helper for property tests: explicit-matrix instance.

    A ``zero_fraction`` of similarities is forced to exactly 0 so the
    ``sim > 0`` constraint paths get exercised.
    """
    sims = rng.random((n_events, n_users))
    zeros = rng.random((n_events, n_users)) < zero_fraction
    sims[zeros] = 0.0
    event_capacities = rng.integers(1, max_cv + 1, size=n_events)
    user_capacities = rng.integers(1, max_cu + 1, size=n_users)
    conflicts = ConflictGraph.random(n_events, conflict_ratio, rng)
    return Instance.from_matrix(sims, event_capacities, user_capacities, conflicts)


def sspa_relaxation(instance: Instance) -> list[tuple[int, int]]:
    """MinCostFlow's conflict-free relaxation ``M_0`` by the reference SSP.

    Builds the tripartite network of Fig. 1a as an explicit
    :class:`FlowNetwork` and runs the heap-based
    :class:`SuccessiveShortestPaths` until the marginal path cost reaches
    1 (the concavity argmax), reporting pairs with ``sim > 0`` -- what
    :meth:`MinCostFlowGEACC.solve_relaxation` computes with its dense
    kernel.
    """
    sims = instance.sims
    network = FlowNetwork()
    source = network.add_node()
    event_nodes = network.add_nodes(instance.n_events)
    user_nodes = network.add_nodes(instance.n_users)
    sink = network.add_node()
    for v in range(instance.n_events):
        network.add_arc(source, event_nodes[v], int(instance.event_capacities[v]))
    middle_arcs: dict[int, tuple[int, int]] = {}
    for v in range(instance.n_events):
        for u in range(instance.n_users):
            arc = network.add_arc(
                event_nodes[v], user_nodes[u], 1, 1.0 - float(sims[v, u])
            )
            middle_arcs[arc] = (v, u)
    for u in range(instance.n_users):
        network.add_arc(user_nodes[u], sink, int(instance.user_capacities[u]))
    SuccessiveShortestPaths(network, source, sink).run(
        stop_when=lambda cost: cost >= 1.0 - 1e-12
    )
    return [
        (v, u)
        for arc, (v, u) in middle_arcs.items()
        if network.flow_on(arc) > 0 and sims[v, u] > 0
    ]


def sspa_mincostflow(instance: Instance) -> Arrangement:
    """MinCostFlow-GEACC with its relaxation from :func:`sspa_relaxation`."""
    return MinCostFlowGEACC()._resolve_conflicts(instance, sspa_relaxation(instance))
