import sys
import threading
import time

import pytest

from solit.parallel import map_on_cpus
from conftest import force_cpus, record_started_threads


def test_every_item_once_and_in_order_under_frequent_switches(monkeypatch):
    # far more items than threads, and threads switched as often as possible:
    # an item handed out twice or lost would break the count or the order
    force_cpus(monkeypatch, 16)
    calls = []

    def square(x):
        calls.append(x)
        return x * x

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            del calls[:]
            assert map_on_cpus(square, range(500)) == [x * x for x in range(500)]
            assert sorted(calls) == list(range(500))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(("cpus", "items", "threads"), [(1, 5, 0), (4, 1, 0), (4, 0, 0), (4, 3, 3), (3, 9, 3)])
def test_pool_of_min_cpus_and_items_threads(cpus, items, threads, monkeypatch):
    # the pool starts a thread only while none of its threads is idle, so the
    # calls wait for each other until every thread of the pool has one
    force_cpus(monkeypatch, cpus)
    started = record_started_threads(monkeypatch)
    barrier = threading.Barrier(threads, timeout=10) if threads else None

    def ident(item):
        if barrier:
            barrier.wait()
        return item, threading.get_ident()

    results = map_on_cpus(ident, range(items))
    assert [item for item, _ in results] == list(range(items))
    assert len(started) == threads
    assert not any(thread.is_alive() for thread in started)
    idents = {ident for _, ident in results}
    if threads:
        assert idents == {thread.ident for thread in started}
    else:
        assert idents <= {threading.get_ident()}


def test_first_error_raised_and_no_further_item_handed_out(monkeypatch):
    force_cpus(monkeypatch, 1)
    calls = []

    def failing(item):
        calls.append(item)
        if item == 2:
            raise KeyError(item)

    with pytest.raises(KeyError):
        map_on_cpus(failing, range(6))
    assert calls == [0, 1, 2]


def test_error_cancels_the_items_not_started(monkeypatch):
    force_cpus(monkeypatch, 2)
    started = record_started_threads(monkeypatch)
    calls = []

    def failing_first(item):
        calls.append(item)
        if item == 0:
            raise KeyError(item)
        time.sleep(1e-3)

    with pytest.raises(KeyError):
        map_on_cpus(failing_first, range(50))
    assert 0 in calls and len(calls) < 50
    assert started and not any(thread.is_alive() for thread in started)


def test_nested_calls_return_every_result_in_order(monkeypatch):
    # a call made inside another call's worker gets a pool of its own
    force_cpus(monkeypatch, 2)
    started = record_started_threads(monkeypatch)
    rows = map_on_cpus(lambda i: map_on_cpus(lambda j: (i, j), range(3)), range(4))
    assert rows == [[(i, j) for j in range(3)] for i in range(4)]
    assert started and not any(thread.is_alive() for thread in started)
