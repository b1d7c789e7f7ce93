"""Shared-memory instance archives: bit-identical round-trips, clean teardown."""

import pickle

import numpy as np
import pytest

from repro.core.algorithms.base import get_solver
from repro.datagen.synthetic import SyntheticConfig, generate_instance
from repro.parallel import SharedInstanceArchive

CONFIG = SyntheticConfig(n_events=8, n_users=30, cv_high=4, cu_high=3)


def make_instance(seed: int = 0):
    return generate_instance(CONFIG, seed)


def test_round_trip_is_bit_identical() -> None:
    instance = make_instance()
    expected_sims = instance.sims.copy()
    archive = SharedInstanceArchive.from_instance(instance, include_sims=True)
    assert archive is not None
    try:
        with archive.handle.attach() as other:
            assert other.n_events == instance.n_events
            assert other.n_users == instance.n_users
            np.testing.assert_array_equal(
                other.event_capacities, instance.event_capacities
            )
            np.testing.assert_array_equal(
                other.user_capacities, instance.user_capacities
            )
            assert other.conflicts.pairs == instance.conflicts.pairs
            assert other.has_matrix
            # Bit-identical, not merely close: parallel workers must
            # produce the same floats as the serial path.
            np.testing.assert_array_equal(other.sims, expected_sims)
    finally:
        archive.destroy()


def test_solvers_agree_across_the_boundary() -> None:
    instance = make_instance(seed=3)
    instance.sims
    archive = SharedInstanceArchive.from_instance(instance, include_sims=True)
    assert archive is not None
    try:
        with archive.handle.attach() as other:
            mine = get_solver("greedy").solve(instance)
            theirs = get_solver("greedy").solve(other)
            assert mine.max_sum() == theirs.max_sum()
            assert mine.pairs() == theirs.pairs()
    finally:
        archive.destroy()


def test_handle_pickles_small() -> None:
    instance = make_instance()
    archive = SharedInstanceArchive.from_instance(instance, include_sims=True)
    assert archive is not None
    try:
        payload = pickle.dumps(archive.handle)
        # The whole point: the handle crosses the process boundary, the
        # arrays do not. Anything beyond ~1 KiB means data leaked in.
        assert len(payload) < 1024
        handle = pickle.loads(payload)
        with handle.attach() as other:
            assert other.n_events == instance.n_events
    finally:
        archive.destroy()


def test_without_sims_the_view_stays_attribute_backed() -> None:
    instance = make_instance()
    archive = SharedInstanceArchive.from_instance(instance, include_sims=False)
    assert archive is not None
    try:
        with archive.handle.attach() as other:
            assert not other.has_matrix
            assert other.sim(0, 0) == instance.sim(0, 0)
    finally:
        archive.destroy()


def test_destroy_is_idempotent_and_attach_after_destroy_fails() -> None:
    archive = SharedInstanceArchive.from_instance(make_instance())
    assert archive is not None
    handle = archive.handle
    archive.destroy()
    archive.destroy()  # second destroy is a no-op, not an error
    with pytest.raises(Exception):
        handle.attach()


def test_lease_close_is_idempotent() -> None:
    archive = SharedInstanceArchive.from_instance(make_instance())
    assert archive is not None
    try:
        lease = archive.handle.attach()
        assert lease.instance is not None
        lease.close()
        assert lease.instance is None
        lease.close()  # no-op
    finally:
        archive.destroy()
