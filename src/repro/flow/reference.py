"""Scalar reference for the dense bipartite min-cost-flow kernel.

:class:`ReferenceBipartiteMinCostFlow` implements the specification in
:mod:`repro.flow.dense_bipartite`'s module docstring with explicit
per-element loops: same float associations and clamps at 0, same
two-phase strict sweeps, same potential clamp. It takes only the
kernel's first Dijkstra cut (no sweeps unless an improved event label
undercuts the direct sink distance): once started, its sweeps run to
fixpoint, so comparing the two checks the kernel's decided-label cut
against a search that relaxes every row. Where
the kernel stamps each label with its generation and recomputes the
argmin for the nodes on the path, this reference records each parent as
it lowers the label (a strict ``<`` over nodes in index order keeps the
lowest-index argmin), and the path is read off those records. Every
intermediate quantity is an IEEE double on both sides, so the
kernel-equivalence property suite can assert *bitwise* identical flows,
path costs, and potentials -- ties included -- between this reference
and the block kernel.

It exists for verification only: it is O(|V| x |U|) Python work per
sweep generation and has no place on a hot path (lint rule R15 exempts
this module by name).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import FlowError

_INF = math.inf


class _Search:
    """Labels and parents; ``direct[u]``: ``u``'s label is a direct source path."""

    __slots__ = (
        "dist_v", "dist_u", "dist_t", "parent_v", "parent_u", "direct", "parent_t", "path_cost",
    )

    def __init__(
        self,
        dist_v: list[float],
        dist_u: list[float],
        dist_t: float,
        parent_v: list[int],
        parent_u: list[int],
        direct: list[bool],
        parent_t: int,
        path_cost: float,
    ) -> None:
        self.dist_v = dist_v
        self.dist_u = dist_u
        self.dist_t = dist_t
        self.parent_v = parent_v
        self.parent_u = parent_u
        self.direct = direct
        self.parent_t = parent_t
        self.path_cost = path_cost


class ReferenceBipartiteMinCostFlow:
    """Loop-based SSP on the source/events/users/sink network.

    Mirrors :class:`repro.flow.dense_bipartite.DenseBipartiteMinCostFlow`
    field-for-field (``flow``, ``event_used``, ``user_used``,
    ``total_flow``, ``total_cost``, ``exhausted``) so tests can compare
    the two after any prefix of ``run`` / ``augment`` calls.
    """

    def __init__(
        self,
        costs: np.ndarray,
        event_capacities: np.ndarray,
        user_capacities: np.ndarray,
    ) -> None:
        costs = np.ascontiguousarray(costs, dtype=np.float64)
        if costs.ndim != 2:
            raise FlowError(f"costs must be 2-D, got shape {costs.shape}")
        if not (costs >= 0).all():  # NaN fails the comparison too
            raise FlowError("dense SSP requires non-negative, non-NaN arc costs")
        self.costs = costs
        self.n_events, self.n_users = costs.shape
        self.event_capacities = [int(c) for c in event_capacities]
        self.user_capacities = [int(c) for c in user_capacities]
        if len(self.event_capacities) != self.n_events:
            raise FlowError("event capacities misshaped")
        if len(self.user_capacities) != self.n_users:
            raise FlowError("user capacities misshaped")
        self.flow = np.zeros(costs.shape, dtype=bool)
        self.event_used = [0] * self.n_events
        self.user_used = [0] * self.n_users
        self.total_flow = 0
        self.total_cost = 0.0
        self._pot_v = [0.0] * self.n_events
        self._pot_u = [0.0] * self.n_users
        self._pot_t = 0.0
        self._exhausted = False
        self._cached_search: _Search | None = None

    # ------------------------------------------------------------------
    # Public driver (same surface as the kernel)
    # ------------------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    def augment(self) -> float | None:
        if self._exhausted:
            return None
        found = self._take_search()
        if found is None:
            return None
        self._commit(found)
        return found.path_cost

    def run(self, amount: int | None = None, stop_cost: float | None = None) -> int:
        routed = 0
        while amount is None or routed < amount:
            if self._exhausted:
                break
            found = self._take_search()
            if found is None:
                break
            if stop_cost is not None and found.path_cost >= stop_cost:
                self._cached_search = found
                break
            self._commit(found)
            routed += 1
        return routed

    def _take_search(self) -> _Search | None:
        found = self._cached_search
        self._cached_search = None
        if found is None:
            found = self._shortest_path()
        if found is None:
            self._exhausted = True
        return found

    # ------------------------------------------------------------------
    # Masking predicates (the kernel maintains these incrementally as
    # inf entries; here they are recomputed per probe)
    # ------------------------------------------------------------------

    def _event_closed(self, v: int) -> bool:
        return self.event_used[v] >= self.event_capacities[v]

    def _user_closed(self, u: int) -> bool:
        return self.user_used[u] >= self.user_capacities[u]

    def _masked(self, v: int, u: int) -> bool:
        """True where the forward arc s->v->u has no residual capacity."""
        return bool(self.flow[v, u]) or self._event_closed(v)

    # ------------------------------------------------------------------
    # One shortest-path search, scalar
    # ------------------------------------------------------------------

    def _shortest_path(self) -> _Search | None:
        nv, nu = self.n_events, self.n_users
        if nv == 0 or nu == 0:
            return None
        costs, pot_v, pot_u = self.costs, self._pot_v, self._pot_u

        # Phase 1: direct labels -- min over open arcs per user column.
        dist_u = [0.0] * nu
        parent_u = [-1] * nu
        for u in range(nu):
            best, best_v = _INF, -1
            for v in range(nv):
                if self._masked(v, u):
                    continue
                c = costs[v, u]
                if c < best:
                    best, best_v = c, v
            dist_u[u] = best - pot_u[u]
            parent_u[u] = best_v
        direct = [True] * nu
        dist_v = [
            -pot_v[v] if self.event_used[v] < self.event_capacities[v] else _INF
            for v in range(nv)
        ]
        parent_v = [-1] * nv

        def sink_relax() -> tuple[int, list[float]]:
            tvals = [0.0] * nu
            best_u, best_t = 0, _INF
            for u in range(nu):
                t = _INF if self._user_closed(u) else (dist_u[u] + pot_u[u]) - self._pot_t
                tvals[u] = t
                if t < best_t:
                    best_t = t
                    best_u = u
            return best_u, tvals

        parent_t, tvals = sink_relax()
        t_direct = tvals[parent_t]

        # Phase 2: two-phase strict sweeps over the matched arcs, in
        # row-major (v, u) order.
        matched = [
            (v, u) for v in range(nv) for u in range(nu) if self.flow[v, u]
        ]
        if matched:
            cres = {
                (v, u): max((-costs[v, u] + pot_u[u]) - pot_v[v], 0.0)
                for v, u in matched
            }
            matched_users = {u for _, u in matched}

            def segment_minima() -> dict[int, tuple[float, int]]:
                """Per event: the least candidate over its arcs and its user."""
                seg: dict[int, tuple[float, int]] = {}
                for v, u in matched:
                    cand = dist_u[u] + cres[(v, u)]
                    if v not in seg or cand < seg[v][0]:
                        seg[v] = (cand, u)
                return seg

            def lowered_events() -> dict[int, tuple[float, int]]:
                return {v: seg for v, seg in segment_minima().items() if seg[0] < dist_v[v]}

            changed = lowered_events()
            if changed and min(m for m, _ in changed.values()) < t_direct:
                for _ in range(nu + nv + 2):
                    for v, (m, u) in changed.items():
                        dist_v[v] = m
                        parent_v[v] = u
                    vc = sorted(changed)
                    improved: set[int] = set()
                    for u in range(nu):
                        best, best_v = _INF, -1
                        for v in vc:
                            if self.flow[v, u]:
                                continue  # saturated: no forward residual
                            reduced = max((costs[v, u] + pot_v[v]) - pot_u[u], 0.0)
                            cand = reduced + dist_v[v]
                            if cand < best:
                                best, best_v = cand, v
                        if best < dist_u[u]:
                            dist_u[u] = best
                            parent_u[u] = best_v
                            direct[u] = False
                            improved.add(u)
                    if not improved:
                        break
                    if not (improved & matched_users):
                        break  # candidate vector cannot change: fixpoint
                    changed = lowered_events()
                    if not changed:
                        break
                parent_t, tvals = sink_relax()

        dist_t = tvals[parent_t]
        if math.isinf(dist_t):
            return None
        return _Search(
            dist_v=dist_v,
            dist_u=dist_u,
            dist_t=dist_t,
            parent_v=parent_v,
            parent_u=parent_u,
            direct=direct,
            parent_t=parent_t,
            path_cost=dist_t + self._pot_t,
        )

    def _augmenting_path(self, search: _Search) -> list[int]:
        """``[u0, v0, u1, v1, ...]`` from the sink user back to the source.

        Follows the recorded parents; a user with a direct label ends the
        path at its parent event.
        """
        path: list[int] = []
        u = search.parent_t
        for _ in range(self.n_users):
            v = search.parent_u[u]
            path += (u, v)
            if search.direct[u]:
                return path
            u = search.parent_v[v]
        raise FlowError("the search's parent pointers form a cycle")

    def _commit(self, search: _Search) -> None:
        path = self._augmenting_path(search)
        users, events = path[0::2], path[1::2]
        dist_t = search.dist_t
        for v in range(self.n_events):
            self._pot_v[v] += min(search.dist_v[v], dist_t)
        for u in range(self.n_users):
            self._pot_u[u] += min(search.dist_u[u], dist_t)
        self._pot_t += dist_t
        self.user_used[search.parent_t] += 1
        for v, u in zip(events, users):
            self.flow[v, u] = True
        self.event_used[events[-1]] += 1
        for v, u in zip(events, users[1:]):
            self.flow[v, u] = False
        self.total_flow += 1
        self.total_cost += search.path_cost
