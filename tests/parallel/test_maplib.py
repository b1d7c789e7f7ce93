"""repro.parallel.maplib.thread_map: ordering, fallbacks, errors, arguments."""

from __future__ import annotations

import threading

import pytest

from repro.parallel import thread_map


def square(value: int) -> int:
    return value * value


def identify(value: int) -> tuple[int, int]:
    return value, threading.get_ident()


def test_serial_path_preserves_order() -> None:
    assert thread_map(square, [3, 1, 2], jobs=1) == [9, 1, 4]


def test_parallel_results_match_serial_in_order() -> None:
    items = list(range(37))
    assert thread_map(square, items, jobs=4) == [square(i) for i in items]


def test_work_actually_leaves_the_calling_thread() -> None:
    results = thread_map(identify, list(range(8)), jobs=2)
    assert [value for value, _ident in results] == list(range(8))
    assert all(ident != threading.get_ident() for _value, ident in results)


def test_jobs_zero_means_all_cores() -> None:
    assert thread_map(square, [1, 2, 3, 4], jobs=0) == [1, 4, 9, 16]


def test_single_item_runs_in_process() -> None:
    # One item runs on the calling thread: no thread is started.
    results = thread_map(identify, [7], jobs=8)
    assert results == [(7, threading.get_ident())]


def test_empty_input() -> None:
    assert thread_map(square, [], jobs=4) == []


def test_first_error_in_input_order_is_raised_after_all_items_ran() -> None:
    ran: list[int] = []

    def fail_on_odd(value: int) -> int:
        ran.append(value)
        if value % 2:
            raise ValueError(f"odd {value}")
        return value

    with pytest.raises(ValueError, match="odd 1"):
        thread_map(fail_on_odd, list(range(6)), jobs=3)
    assert sorted(ran) == list(range(6))


def test_negative_jobs_rejected() -> None:
    with pytest.raises(ValueError, match="jobs"):
        thread_map(square, [1], jobs=-1)
