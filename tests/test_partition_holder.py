"""Partition holders: queues, EOF protocol, back-pressure, registry."""
import queue
import threading
import time

import pytest

from repro.core.partition_holder import (
    EOF, ActivePartitionHolder, PartitionHolderManager, PassivePartitionHolder,
)


def test_passive_fifo_order():
    h = PassivePartitionHolder("intake")
    for i in range(5):
        h.put(i)
    assert [h.take() for _ in range(5)] == list(range(5))


def test_passive_take_timeout_returns_none():
    h = PassivePartitionHolder("intake")
    assert h.take(timeout=0.05) is None


def test_passive_close_appends_eof_after_data():
    h = PassivePartitionHolder("intake")
    h.put("frame")
    h.close()
    assert h.take() == "frame"
    assert h.take() is EOF


def test_passive_put_after_close_raises():
    h = PassivePartitionHolder("intake")
    h.close()
    with pytest.raises(RuntimeError, match="closed"):
        h.put("x")


def test_passive_close_idempotent():
    h = PassivePartitionHolder("intake")
    h.close()
    h.close()
    assert h.take() is EOF
    assert h.take(timeout=0.05) is None  # exactly one EOF


def test_passive_capacity_backpressure():
    h = PassivePartitionHolder("intake", capacity=2)
    h.put(1)
    h.put(2)
    with pytest.raises(queue.Full):
        h.put(3, timeout=0.05)
    assert h.depth == 2


def test_active_forwards_to_downstream():
    got = []
    h = ActivePartitionHolder("storage", downstream=got.append)
    for i in range(4):
        h.push(i)
    h.close_and_join()
    assert got == [0, 1, 2, 3]
    assert h.forwarded == 4


def test_active_downstream_error_surfaces():
    def bad(_):
        raise ValueError("disk full")

    h = ActivePartitionHolder("storage", downstream=bad)
    h.push("frame")
    time.sleep(0.1)
    with pytest.raises(RuntimeError, match="downstream failed"):
        h.close_and_join()


def test_active_push_after_error_raises():
    def bad(_):
        raise ValueError("boom")

    h = ActivePartitionHolder("storage", downstream=bad)
    h.push("a")
    time.sleep(0.1)
    with pytest.raises(RuntimeError):
        h.push("b")


def test_concurrent_producer_consumer():
    h = PassivePartitionHolder("intake", capacity=4)
    out = []

    def producer():
        for i in range(50):
            h.put(i)
        h.close()

    t = threading.Thread(target=producer)
    t.start()
    while True:
        f = h.take(timeout=1.0)
        if f is EOF:
            break
        if f is not None:
            out.append(f)
    t.join()
    assert out == list(range(50))


def test_manager_register_lookup_unregister():
    m = PartitionHolderManager()
    h = PassivePartitionHolder("intake", partition=3)
    m.register(h)
    assert m.lookup("intake", 3) is h
    assert len(m) == 1
    m.unregister("intake", 3)
    assert len(m) == 0
    with pytest.raises(KeyError):
        m.lookup("intake", 3)


def test_manager_rejects_duplicate_registration():
    m = PartitionHolderManager()
    m.register(PassivePartitionHolder("intake"))
    with pytest.raises(ValueError, match="already registered"):
        m.register(PassivePartitionHolder("intake"))


def test_manager_distinguishes_partitions():
    m = PartitionHolderManager()
    h0 = PassivePartitionHolder("intake", partition=0)
    h1 = PassivePartitionHolder("intake", partition=1)
    m.register(h0)
    m.register(h1)
    assert m.lookup("intake", 0) is h0
    assert m.lookup("intake", 1) is h1


def test_passive_cancel_unblocks_a_blocked_put():
    """A failed consumer cancels the holder; the producer blocked on the
    full queue returns, and its next put raises."""
    h = PassivePartitionHolder("intake", capacity=1)
    h.put("a")
    errors = []

    def producer():
        try:
            h.put("b")          # blocks: queue full
            h.put("c")          # raises: holder cancelled
        except RuntimeError as e:
            errors.append(e)

    t = threading.Thread(target=producer, daemon=True)
    t.start()
    time.sleep(0.1)
    assert t.is_alive()
    h.cancel()
    t.join(5)
    assert not t.is_alive()
    assert len(errors) == 1 and "closed" in str(errors[0])


def test_active_close_and_join_bounded_after_downstream_failure():
    """Downstream fails while the queue is full: close_and_join must not
    block on a queue that nobody drains, and must surface the error."""
    go = threading.Event()

    def bad(_):
        go.wait(5)
        raise ValueError("disk full")

    h = ActivePartitionHolder("storage", downstream=bad, capacity=2)
    for i in range(3):          # one in downstream, two queued
        h.push(i)
    go.set()
    outcome = []

    def close():
        try:
            h.close_and_join(timeout=5)
        except RuntimeError as e:
            outcome.append(e)

    t = threading.Thread(target=close, daemon=True)
    t.start()
    t.join(10)
    assert not t.is_alive()
    assert len(outcome) == 1 and isinstance(outcome[0].__cause__, ValueError)
    assert h.forwarded == 0
