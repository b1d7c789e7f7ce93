"""Arrangement analysis: the quantities an EBSN operator would report.

Beyond the paper's MaxSum objective, operators care how an arrangement
*distributes* value: how full events are, how satisfied users are, and
how fairly interest is spread. These are used by the examples and by the
local-search ablation to explain where each algorithm's MaxSum comes
from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.model import Arrangement


@dataclass(frozen=True)
class ArrangementStats:
    """Summary statistics of one arrangement."""

    max_sum: float
    n_pairs: int
    event_fill_mean: float
    event_fill_min: float
    empty_events: int
    users_matched: int
    users_unmatched: int
    user_satisfaction_mean: float
    satisfaction_gini: float
    mean_pair_similarity: float

    def render(self) -> str:
        """Multi-line human-readable report."""
        return "\n".join(
            [
                f"MaxSum                {self.max_sum:.3f}",
                f"matched pairs         {self.n_pairs}",
                f"event fill (mean/min) {self.event_fill_mean:.1%} / "
                f"{self.event_fill_min:.1%}",
                f"empty events          {self.empty_events}",
                f"users matched         {self.users_matched} "
                f"(unmatched {self.users_unmatched})",
                f"user satisfaction     {self.user_satisfaction_mean:.3f} mean, "
                f"Gini {self.satisfaction_gini:.3f}",
                f"mean pair similarity  {self.mean_pair_similarity:.3f}",
            ]
        )


def gini(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative value vector (0 = equal)."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = values.shape[0]
    if n == 0:
        return 0.0
    total = values.sum()
    if total == 0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float((2 * (ranks * values).sum()) / (n * total) - (n + 1) / n)


def analyze(arrangement: Arrangement) -> ArrangementStats:
    """Compute :class:`ArrangementStats` for an arrangement."""
    instance = arrangement.instance
    n_users = instance.n_users
    events, users = arrangement.seats()
    attendees = np.bincount(events, minlength=instance.n_events)
    capacities = instance.event_capacities
    fills = attendees[capacities > 0] / capacities[capacities > 0]
    pair_sims = instance.sims_of(events, users)
    satisfaction = np.bincount(users, weights=pair_sims, minlength=n_users)
    matched = int(np.count_nonzero(satisfaction > 0))

    return ArrangementStats(
        max_sum=arrangement.max_sum(),
        n_pairs=len(arrangement),
        event_fill_mean=float(fills.mean()) if len(fills) else 0.0,
        event_fill_min=float(fills.min()) if len(fills) else 0.0,
        empty_events=int(np.count_nonzero(attendees == 0)),
        users_matched=matched,
        users_unmatched=n_users - matched,
        user_satisfaction_mean=float(satisfaction.mean()) if n_users else 0.0,
        satisfaction_gini=gini(satisfaction),
        mean_pair_similarity=float(pair_sims.mean()) if len(pair_sims) else 0.0,
    )


def compare(arrangements: dict[str, Arrangement]) -> str:
    """Side-by-side stats table for several arrangements."""
    from repro.experiments.reporting import format_table

    headers = ["metric", *arrangements]
    stats = {name: analyze(a) for name, a in arrangements.items()}
    metrics = [
        ("MaxSum", "max_sum"),
        ("pairs", "n_pairs"),
        ("event fill mean", "event_fill_mean"),
        ("empty events", "empty_events"),
        ("users matched", "users_matched"),
        ("satisfaction Gini", "satisfaction_gini"),
        ("mean pair sim", "mean_pair_similarity"),
    ]
    rows = [
        [label, *(getattr(stats[name], attr) for name in arrangements)]
        for label, attr in metrics
    ]
    return format_table(headers, rows)
