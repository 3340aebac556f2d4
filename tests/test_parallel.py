import sys
import threading

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


@pytest.mark.parametrize(("cpus", "items", "threads"), [(1, 5, 0), (4, 1, 0), (4, 0, 0), (4, 3, 2), (3, 9, 2)])
def test_threads_started_and_first_item_on_calling_thread(cpus, items, threads, monkeypatch):
    force_cpus(monkeypatch, cpus)
    started = record_started_threads(monkeypatch)
    idents = map_on_cpus(lambda item: threading.get_ident(), range(items))
    assert len(started) == threads
    assert not any(thread.is_alive() for thread in started)
    assert idents[:1] == [threading.get_ident()] * min(items, 1)


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
