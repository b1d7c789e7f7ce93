"""Dense successive-shortest-paths for capacitated bipartite assignment.

Algorithm 1's flow network has a fixed tripartite shape: a source feeding
every event (capacity ``c_v``), a *complete* bipartite middle layer of
unit-capacity event-to-user arcs (cost ``1 - sim``), and every user
feeding the sink (capacity ``c_u``). This module implements successive
shortest paths with Johnson potentials as a **block kernel**: each search
starts from the column minima of the masked cost tile (the reduced
length of every direct ``s -> v -> u`` path at once) and then runs
vectorised Bellman-Ford sweeps over the *residual* (matched) arcs only --
there are at most Delta of those, so a sweep is a handful of small array
ops instead of a Python loop over every node. Early augmentations, whose
shortest path is a direct one, converge with zero sweeps.

Costs must be non-negative; NaN is rejected like a negative cost. A
``+inf`` cost means "no arc": such a pair is never routed.

State kept between searches. An augmentation flips only the arcs of one
path, so :meth:`DenseBipartiteMinCostFlow._commit` updates, cell by cell,
everything a search would otherwise rebuild from ``flow``:

* ``_costs_open``: ``costs`` with ``inf`` exactly on saturated arcs
  (``inf`` plus a finite potential stays ``inf``, so no sweep masks by
  ``flow``);
* ``_open_v``: the events with source capacity left. ``_costs_open``
  with the other rows set to ``inf`` is the masked tile of the direct
  labels below;
* ``_colmin``: the column minima of that masked tile. A commit
  re-reduces only the columns its path touched, and the whole tile only
  when an event closes;
* ``_matched``: the flat keys ``v * |U| + u`` of the matched arcs,
  ascending, i.e. row-major ``(v, u)`` order.

Outside its sweeps a search is therefore O(|V| + |U|), not O(|V| x |U|).

The kernel's arithmetic is part of its contract, because arrangements
built on it must be digest-reproducible:

* direct labels: ``dist_u = min_v costs_masked[v, u] - pot_u[u]`` where
  ``costs_masked`` carries ``inf`` on saturated arcs and closed events;
* residual arcs: ``cres = max((-costs[v, u] + pot_u[u]) - pot_v[v], 0)``;
* sweep row relaxation:
  ``max((costs[v, u] + pot_v[v]) - pot_u[u], 0) + dist_v``;
* sweeps are two-phase (all event labels from the pre-sweep user labels,
  then all user labels from the changed event rows) and improvements are
  strict;
* a node's parent is the lowest-index argmin of the relaxation that last
  lowered its label: the masked cost column for a direct label, the
  event's matched arcs for an event label, the changed event rows of its
  generation for a user label lowered by a sweep.

The two clamps at 0 change a value only where rounding has made a
reduced cost a few ulps negative. They are what keeps the parents
acyclic: a sweep sets a label to its parent's label plus a non-negative
term and labels only fall, so every label is at least its parent's. On a
cycle of parents all labels would then be equal, yet the last label
lowered on it fell strictly below the value its child was built from.
Without the clamps, labels near ``0.1`` with reduced costs rounding to
``-5.55e-17`` made the parents cycle (``u2 <- v11 <- u6 <- v9 <- u2``).

A search records parents lazily: each node is stamped with the sweep
generation that last lowered it, and each generation keeps the arrays it
built anyway (the candidate vector of its event phase, the changed rows
and their new labels). :meth:`DenseBipartiteMinCostFlow._path` takes the
argmin only for the nodes on the path, in O(path) small array ops and
with no float equality test. A direct label's argmin is over the masked
cost column, which no sweep changes.

Two Dijkstra cuts skip sweep work. The first skips the sweeps: they
start only if some improved event label is below the direct sink
distance (reduced costs are non-negative, so no residual path can win
otherwise). The second works inside them. Let ``T`` be the best sink
value so far (the least ``(dist_u + pot_u) - pot_t`` over open users,
updated from each generation's improved users) and ``pmin`` the least
``pot_u`` of an open user. A label ``x`` is *decided* when ``x >= T``
and ``(x + pmin) - pot_t > T``. A generation relaxes no row of an event
lowered to a decided label, and the sweeps end once every newly lowered
event label is decided. Neither cut changes the result:

* every label derived from a decided ``x`` is at least ``x`` (the clamps
  make every added term non-negative), so it is at least the final
  ``dist_t`` and clamps to it in the potential update, as ``x`` does;
* its sink value is at least ``(x + pmin) - pot_t`` (rounding is
  monotone), strictly above ``T``, so it can neither win nor tie the
  sink argmin;
* every label on the augmenting path is strictly below ``x``, so no
  parent argmin changes when decided rows are left out.

Without the guard's second half (cutting once the lowered labels are
``>= T``) the cut is not exact: a label equal to ``T`` can still feed a
user whose sink value ties ``T`` at a lower index, and draw 241 of the
seed-2 fuzz recipe then routes a different flow with different
potentials.

``repro.flow.reference.ReferenceBipartiteMinCostFlow`` implements the
same specification with scalar loops, recording each parent as it
lowers the label, and takes only the first cut: it runs every search's
sweeps to fixpoint. The kernel-equivalence property suite and
``tests/flow/fuzz_kernel.py`` assert bit-identical flows, path costs and
potentials, ties included, so they check the second cut too.

Every middle arc has capacity 1, so each augmenting path carries exactly
one unit: the Delta-sweep of Algorithm 1 falls out one augmentation at a
time, and because successive path costs are non-decreasing the sweep can
stop as soon as the marginal path cost reaches 1 (a unit that adds nothing
to MaxSum). Both the early-stopping and full-sweep behaviours are exposed.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FlowError

#: Generation stamp of a label no sweep lowered: a user's direct source
#: path, an event's source arc.
_SOURCE_FED = -1


class DenseBipartiteMinCostFlow:
    """SSP min-cost flow on the source/events/users/sink network.

    Args:
        costs: ``(|V|, |U|)`` middle-arc costs (each arc has capacity 1),
            non-negative; ``+inf`` marks a missing arc.
        event_capacities: Source-to-event capacities ``c_v``.
        user_capacities: User-to-sink capacities ``c_u``.

    After construction, call :meth:`augment` repeatedly (each call routes
    one unit along the cheapest augmenting path) or :meth:`run`. The unit
    flow on middle arcs is exposed as the boolean matrix :attr:`flow`.
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
        self.event_capacities = np.asarray(event_capacities, dtype=np.int64)
        self.user_capacities = np.asarray(user_capacities, dtype=np.int64)
        if self.event_capacities.shape != (self.n_events,):
            raise FlowError("event capacities misshaped")
        if self.user_capacities.shape != (self.n_users,):
            raise FlowError("user capacities misshaped")
        self.flow = np.zeros(costs.shape, dtype=bool)
        self.event_used = np.zeros(self.n_events, dtype=np.int64)
        self.user_used = np.zeros(self.n_users, dtype=np.int64)
        self.total_flow = 0
        self.total_cost = 0.0
        self._pot_v = np.zeros(self.n_events, dtype=np.float64)
        self._pot_u = np.zeros(self.n_users, dtype=np.float64)
        self._pot_t = 0.0
        # The residual state the module docstring lists; _commit keeps
        # every piece current.
        self._costs_open = self.costs.copy()
        self._open_v = self.event_capacities > 0
        self._colmin = self.costs[self._open_v].min(axis=0, initial=np.inf)
        self._matched = np.empty(0, dtype=np.int64)
        # Users with no sink capacity left; kept current by _commit.
        self._closed_u = self.user_capacities <= 0
        self._exhausted = False
        self._cached_search: _Search | None = None
        # Search scratch (safe to reuse: a search's buffers are consumed
        # by the following _commit before the next search runs).
        self._gen_u_buf = np.empty(self.n_users, dtype=np.int64)
        self._tvals_buf = np.empty(self.n_users, dtype=np.float64)

    @property
    def exhausted(self) -> bool:
        """True once the sink became unreachable (max flow reached)."""
        return self._exhausted

    def augment(self) -> float | None:
        """Route one unit along the cheapest augmenting path.

        Returns:
            The path's true (un-reduced) cost, or None when no augmenting
            path exists.
        """
        if self._exhausted:
            return None
        found = self._take_search()
        if found is None:
            return None
        self._commit(found)
        return found.path_cost

    def run(self, amount: int | None = None, stop_cost: float | None = None) -> int:
        """Augment until ``amount`` units routed, exhaustion, or stop_cost.

        Args:
            amount: Max units to route (None = to max flow).
            stop_cost: Stop *before* pushing a path costing >= this.

        Returns:
            Units routed by this call.
        """
        routed = 0
        while amount is None or routed < amount:
            if self._exhausted:
                break
            found = self._take_search()
            if found is None:
                break
            if stop_cost is not None and found.path_cost >= stop_cost:
                # Costs only go up from here; keep the search so a later
                # call with a looser stop does not redo it.
                self._cached_search = found
                break
            self._commit(found)
            routed += 1
        return routed

    def _take_search(self) -> "_Search | None":
        """Pop the cached search or run a fresh one; flags exhaustion."""
        found = self._cached_search
        self._cached_search = None
        if found is None:
            found = self._shortest_path()
        if found is None:
            self._exhausted = True
        return found

    def _matched_arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(mv, mu)`` of the matched arcs in row-major order."""
        return np.divmod(self._matched, self.n_users)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _shortest_path(self) -> "_Search | None":
        """One shortest-path search in reduced costs.

        Phase 1 labels every user with its cheapest *direct* path from the
        kept column minima. Phase 2 runs two-phase Bellman-Ford sweeps
        over the matched (residual) arcs until fixpoint or a Dijkstra
        cut -- each sweep is O(|M|) gathers plus one (changed rows x |U|)
        tile relax. Returns None when the sink is unreachable.
        """
        nv, nu = self.n_events, self.n_users
        if nv == 0 or nu == 0:
            return None
        pot_v, pot_u, pot_t = self._pot_v, self._pot_u, self._pot_t

        # Phase 1: direct labels.
        dist_u = self._colmin - pot_u
        gen_u = self._gen_u_buf
        gen_u.fill(_SOURCE_FED)
        dist_v = np.where(self._open_v, -pot_v, np.inf)
        gen_v = np.full(nv, _SOURCE_FED)
        sweeps: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

        # Direct sink distance (sink relaxation over open users).
        tvals = self._tvals_buf
        np.add(dist_u, pot_u, out=tvals)
        tvals -= pot_t
        tvals[self._closed_u] = np.inf
        parent_t = int(tvals.argmin())
        t_direct = float(tvals[parent_t])

        # Phase 2: residual sweeps. Matched arcs in row-major (v, u)
        # order; both phases of a sweep read the labels produced by the
        # previous phase, improvements are strict.
        keys = self._matched
        if keys.shape[0]:
            mv, mu = self._matched_arcs()
            cres = (-self.costs.reshape(-1)[keys] + pot_u[mu]) - pot_v[mv]
            np.maximum(cres, 0.0, out=cres)
            # Generation 1 considers every matched arc at once (every
            # user label was just set): segmented min per event over the
            # row-major arc list (mv is sorted).
            head = np.empty(mv.shape[0], dtype=bool)
            head[0] = True
            np.not_equal(mv[1:], mv[:-1], out=head[1:])
            starts = head.nonzero()[0]
            seg_v = mv[starts]
            cand = dist_u[mu] + cres
            seg_min = np.minimum.reduceat(cand, starts)
            changed = seg_min < dist_v[seg_v]
            vc, lowered = seg_v[changed], seg_min[changed]
            # Dijkstra cut: every label on a residual path is at least
            # its first improved event label (reduced costs >= 0), so if
            # no improved event undercuts the direct sink distance no
            # residual path can win -- and every label below dist_t is
            # already exact, which is all the potential clamp needs.
            if vc.shape[0] and lowered.min() < t_direct:
                # The decided-label cut (module docstring): best_t is the
                # best sink value so far, pmin the least open-user
                # potential. A label's test reads best_t when it runs.
                closed_u = self._closed_u
                pmin = float(np.min(pot_u, where=~closed_u, initial=np.inf))
                best_t = t_direct

                def decided(labels: np.ndarray) -> np.ndarray:
                    return (labels >= best_t) & ((labels + pmin) - pot_t > best_t)

                for gen in range(nu + nv + 2):
                    dist_v[vc] = lowered
                    if decided(lowered.min()):
                        break  # and so is every label lowered
                    if vc.shape[0] > 1 and decided(lowered.max()):
                        keep = ~decided(lowered)
                        vc, lowered = vc[keep], lowered[keep]
                    # What _path needs to recompute this generation's
                    # argmins: the candidates that lowered the events,
                    # and the relaxed rows' events with their new labels.
                    gen_v[vc] = gen
                    sweeps.append((cand, vc, lowered))
                    # Row relaxation keeps the canonical association
                    # max((cost + pot_v) - pot_u, 0) + dist_v.
                    if vc.shape[0] == 1:
                        v = int(vc[0])
                        best = self._costs_open[v] + pot_v[v]
                        best -= pot_u
                        np.maximum(best, 0.0, out=best)
                        best += dist_v[v]
                    else:
                        rows = self._costs_open[vc] + pot_v[vc, None]
                        rows -= pot_u
                        np.maximum(rows, 0.0, out=rows)
                        rows += dist_v[vc, None]
                        best = rows.min(axis=0)
                    improve = best < dist_u
                    if not improve.any():
                        break
                    dist_u[improve] = best[improve]
                    gen_u[improve] = gen
                    # Labels fell: keep the sink relaxation current.
                    np.add(dist_u, pot_u, out=tvals)
                    tvals -= pot_t
                    tvals[closed_u] = np.inf
                    best_t = float(tvals.min())
                    # Fixpoint check: if no improved user feeds a
                    # residual arc, the candidate vector cannot change
                    # -- skip the verification sweep entirely.
                    if not improve[mu].any():
                        break
                    cand = dist_u[mu] + cres
                    seg_min = np.minimum.reduceat(cand, starts)
                    changed = seg_min < dist_v[seg_v]
                    vc, lowered = seg_v[changed], seg_min[changed]
                    if not vc.shape[0]:
                        break
                parent_t = int(tvals.argmin())

        dist_t = float(tvals[parent_t])
        if np.isinf(dist_t):
            return None
        return _Search(
            dist_v=dist_v,
            dist_u=dist_u,
            dist_t=dist_t,
            gen_v=gen_v,
            gen_u=gen_u,
            sweeps=sweeps,
            parent_t=parent_t,
            path_cost=dist_t + pot_t,
        )

    def _path(
        self, search: "_Search"
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """The augmenting path read off the search's parents.

        Each parent is the lowest-index argmin of the relaxation that last
        lowered the node's label, recomputed from the arrays of the
        generation that stamped it (the module docstring has the rule).
        It reads the search-time potentials and cost views, so it runs
        before anything mutates.

        Returns:
            ``(adds, drops)``: the ``(v, u)`` arcs to saturate, sink side
            first, and the matched arcs the path runs backwards over.
        """
        nu, keys = self.n_users, self._matched
        costs_open, pot_v, pot_u = self._costs_open, self._pot_v, self._pot_u
        adds: list[tuple[int, int]] = []
        drops: list[tuple[int, int]] = []
        u = search.parent_t
        # The clamps keep parents acyclic, so a path holds each user at
        # most once; the bound turns a broken invariant into an error.
        for _ in range(nu):
            gen = int(search.gen_u[u])
            if gen == _SOURCE_FED:
                column = np.where(self._open_v, costs_open[:, u], np.inf)
                adds.append((int(column.argmin()), u))
                return adds, drops
            _, vc, lowered = search.sweeps[gen]
            row = (costs_open[vc, u] + pot_v[vc]) - pot_u[u]
            np.maximum(row, 0.0, out=row)
            row += lowered
            v = int(vc[row.argmin()])
            adds.append((v, u))
            cand = search.sweeps[search.gen_v[v]][0]
            lo, hi = np.searchsorted(keys, (v * nu, (v + 1) * nu))
            u = int(keys[lo + cand[lo:hi].argmin()]) - v * nu
            drops.append((v, u))
        raise FlowError("the search's parent pointers form a cycle")

    def _commit(self, search: "_Search") -> None:
        """Flip the path, update potentials and the kept state, account the unit."""
        adds, drops = self._path(search)
        dist_t = search.dist_t
        # Johnson update with the standard clamp at the sink label so all
        # residual reduced costs stay non-negative (unreached labels are
        # inf and clamp to dist_t).
        self._pot_v += np.minimum(search.dist_v, dist_t)
        self._pot_u += np.minimum(search.dist_u, dist_t)
        self._pot_t += dist_t
        sink_u = search.parent_t
        self.user_used[sink_u] += 1
        if self.user_used[sink_u] >= self.user_capacities[sink_u]:
            self._closed_u[sink_u] = True
        open_, open_v = self._costs_open, self._open_v
        for v, u in adds:
            self.flow[v, u] = True
            open_[v, u] = np.inf
        for v, u in drops:
            self.flow[v, u] = False
            open_[v, u] = self.costs[v, u]
        source_v = adds[-1][0]
        self.event_used[source_v] += 1
        if self.event_used[source_v] >= self.event_capacities[source_v]:
            open_v[source_v] = False
            open_[open_v].min(axis=0, initial=np.inf, out=self._colmin)
        else:
            # Every dropped arc's user heads the next added arc, so the
            # added columns are all the columns the path touched.
            cols = [u for _, u in adds]
            self._colmin[cols] = np.where(
                open_v[:, None], open_[:, cols], np.inf
            ).min(axis=0)
        nu, keys = self.n_users, self._matched
        if drops:
            keep = np.ones(keys.shape[0], dtype=bool)
            keep[np.searchsorted(keys, [v * nu + u for v, u in drops])] = False
            keys = keys[keep]
        keys = np.concatenate((keys, [v * nu + u for v, u in adds]))
        keys.sort()
        self._matched = keys
        self.total_flow += 1
        self.total_cost += search.path_cost


class _Search:
    """One shortest-path search's labels and the records its parents are read from.

    ``gen_v``/``gen_u`` stamp each node with the sweep generation that last
    lowered its label (``_SOURCE_FED`` if none did); ``sweeps[g]`` is
    generation ``g``'s ``(cand, vc, lowered)``.
    """

    __slots__ = (
        "dist_v", "dist_u", "dist_t", "gen_v", "gen_u", "sweeps", "parent_t", "path_cost",
    )

    def __init__(
        self,
        dist_v: np.ndarray,
        dist_u: np.ndarray,
        dist_t: float,
        gen_v: np.ndarray,
        gen_u: np.ndarray,
        sweeps: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
        parent_t: int,
        path_cost: float,
    ) -> None:
        self.dist_v = dist_v
        self.dist_u = dist_u
        self.dist_t = dist_t
        self.gen_v = gen_v
        self.gen_u = gen_u
        self.sweeps = sweeps
        self.parent_t = parent_t
        self.path_cost = path_cost
