"""Ablation (extension): dynamic arrangement policies vs clairvoyance.

Replays the same workload timeline under first-come-first-served and
periodic-rebatch policies and compares the achieved MaxSum to the
clairvoyant offline arrangement of the full instance.
"""

import numpy as np

from repro.core.algorithms import GreedyGEACC
from repro.datagen.synthetic import generate_instance
from repro.experiments.reporting import format_table
from repro.simulation import random_timeline, simulate


def test_ablation_dynamic_policies(benchmark, scale, record_series):
    instance = generate_instance(scale.default, seed=3)
    timeline = random_timeline(instance, np.random.default_rng(3))

    def run():
        offline = GreedyGEACC().solve(instance).max_sum()
        rows = [("offline (clairvoyant greedy)", offline, 100.0)]
        for rebatch in (None, "greedy"):
            result = simulate(instance, timeline, rebatch=rebatch)
            rows.append(
                (
                    result.policy_name,
                    result.achieved_max_sum,
                    result.achieved_max_sum / offline * 100,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    record_series(
        "ablation_policies",
        "== Ablation: dynamic arrangement policies ==\n"
        + format_table(["policy", "achieved MaxSum", "% of offline"], rows),
    )
    offline_value = rows[0][1]
    fcfs_value = rows[1][1]
    rebatch_value = rows[2][1]
    assert fcfs_value <= offline_value * 1.02
    assert rebatch_value >= fcfs_value * 0.95  # rebatching should not hurt
