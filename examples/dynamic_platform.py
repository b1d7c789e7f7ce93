"""Dynamic EBSN platform simulation (extension).

The paper arranges a static snapshot; a live platform sees organisers
post events ahead of time, users trickle in, and attendee lists freeze at
event start. This example replays one simulated month of a platform
under two policies -- first-come-first-served seat assignment vs.
periodic global re-arrangement with Greedy-GEACC -- and compares both
against the clairvoyant offline arrangement (which sees all users before
any event starts).

Run:  python examples/dynamic_platform.py
"""

from __future__ import annotations

import numpy as np

from repro import GreedyGEACC, SyntheticConfig, generate_instance
from repro.core.analysis import analyze
from repro.simulation import random_timeline, simulate


def main() -> None:
    config = SyntheticConfig(
        n_events=30, n_users=300, cv_high=15, cu_high=3, conflict_ratio=0.25
    )
    instance = generate_instance(config, seed=17)
    rng = np.random.default_rng(17)
    timeline = random_timeline(instance, rng, horizon=30.0, min_lead_time=5.0)
    print(f"platform: {instance}")
    print(
        f"timeline: events posted over [0, {timeline.post_times.max():.1f}] days, "
        f"users arrive over [0, {timeline.arrival_times.max():.1f}] days"
    )

    offline = GreedyGEACC().solve(instance)
    print(f"\nclairvoyant offline greedy:  MaxSum={offline.max_sum():.2f}")

    results = {}
    for rebatch in (None, "greedy"):
        result = simulate(instance, timeline, rebatch=rebatch)
        results[result.policy_name] = result
        gap = (1 - result.achieved_max_sum / offline.max_sum()) * 100
        print(f"{result.summary()}   ({gap:.1f}% below offline)")

    best = results["rebatch"]
    stats = analyze(best.arrangement)
    print(f"\nrebatch policy outcome:\n{stats.render()}")
    print(
        "\nThe rebatch policy recovers most of the gap by re-optimising the "
        "open events\neach time one is about to freeze, while FCFS locks in "
        "early users' choices."
    )


if __name__ == "__main__":
    main()
