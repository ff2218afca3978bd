"""Unit tests of the benchmark's own helpers, on synthetic inputs.

    python3 -m pytest perfbench -q -p no:cacheprovider
"""
import os
import sys
import threading

import pandas as pd
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import check_run  # noqa: E402
from markers import MarkerLog, Upsert, row_ok, visibility  # noqa: E402
from spans import (  # noqa: E402
    Span, Tracer, add_batch_roots, batch_self_sums, covered, self_times,
)
from stats import quartile_spread, tail_percentile  # noqa: E402


# -- tail percentile: the highest with at least ten samples beyond it ---------

def test_tail_percentile_picks_highest_with_ten_beyond():
    assert tail_percentile(range(1, 101)) == (90.0, 90, 100)
    p, value, n = tail_percentile(range(1000))
    assert (p, n) == (99.0, 1000)
    assert sum(v > value for v in range(1000)) == 10


def test_tail_percentile_needs_enough_samples():
    assert tail_percentile(range(39)) is None
    assert tail_percentile(range(40)) == (75.0, 29, 40)
    assert tail_percentile([]) is None


def test_tail_percentile_ignores_input_order():
    xs = list(range(200))
    assert tail_percentile(xs[::-1]) == tail_percentile(xs)


def test_quartile_spread_is_iqr_over_median():
    assert quartile_spread([10, 10, 10, 10]) == 0
    assert quartile_spread([8, 9, 10, 11, 12]) == pytest.approx(
        (11.5 - 8.5) / 10)


# -- span self time -------------------------------------------------------------

def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert covered([], 0, 10) == 0
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_children_once():
    spans = [
        Span(1, "parent", None, 0, "t", 0.0, 10.0),
        Span(2, "a", 1, 0, "t", 1.0, 3.0),
        Span(3, "b", 1, 0, "t", 2.0, 5.0),     # overlaps a
        Span(4, "a.child", 2, 0, "t", 1.5, 2.5),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(6.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_tracer_nests_and_inherits_batch_per_thread():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.set_batch(7)
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    with tracer.span("explicit", batch=3) as explicit:
        pass
    seen = {}

    def other():
        with tracer.span("elsewhere") as s:
            seen["span"] = s

    t = threading.Thread(target=other)
    t.start()
    t.join(5)
    assert not t.is_alive()
    assert inner.parent == outer.id and outer.parent is None
    assert (outer.batch, inner.batch, explicit.batch) == (7, 7, 3)
    assert seen["span"].batch is None and seen["span"].parent is None


def test_batch_self_times_add_up_to_the_batch():
    tracer = Tracer()
    tracer.add("take", -1.0, 0.0, 0, "cj")
    tracer.add("parse", 0.0, 1.0, 0, "cj")
    invoke = tracer.add("invoke", 1.5, 4.0, 0, "cj")
    snap = tracer.add("snapshot", 2.0, 3.0, 0, "cj")
    snap.parent = invoke.id
    tracer.add("push", 4.0, 4.5, 0, "cj")
    tracer.add("sink", 4.2, 4.4, 0, "storage")      # another thread
    add_batch_roots(tracer, "cj", skip=("take",))
    sums = batch_self_sums(tracer.spans, "cj", skip=("take",))[0]
    assert sums == pytest.approx({"parse": 1.0, "invoke": 1.5,
                                  "snapshot": 1.0, "push": 0.5,
                                  "pipeline.batch": 0.5})
    assert sum(sums.values()) == pytest.approx(4.5)


# -- markers: matching stored values to upserts ---------------------------------

def _log():
    log = MarkerLog()
    log.add(Upsert(0.0, 0.01, 0.02, [("A", "m1"), ("B", "m2")]))
    log.add(Upsert(1.0, 1.0, 1.1, [("A", "m3")]))
    return log


BASE = {"A": "x", "B": "y"}


def test_row_ok_accepts_base_or_earlier_marker_for_the_key():
    log = _log()
    w = (0.03, 0.5)
    assert row_ok(log, BASE, "A", "m1", w)
    assert not row_ok(log, BASE, "A", "m3", w)      # issued after the job
    assert not row_ok(log, BASE, "A", "m2", w)      # another key's marker
    assert not row_ok(log, BASE, "A", "zzz", w)     # nobody wrote it
    assert row_ok(log, BASE, "C", "", w)            # absent key enriches empty
    assert row_ok(log, BASE, "B", "y", (0.0, 0.005))  # before any upsert


def test_row_ok_rejects_values_older_than_the_job_start():
    log = _log()
    assert not row_ok(log, BASE, "A", "x", (0.5, 0.6))
    assert row_ok(log, BASE, "A", "m1", (0.5, 0.6))
    # m3's upsert overlaps the window: either value may be served
    assert row_ok(log, BASE, "A", "m1", (1.05, 1.2))
    assert row_ok(log, BASE, "A", "m3", (1.05, 1.2))
    # m3 had returned before this job began
    assert not row_ok(log, BASE, "A", "m1", (1.2, 1.3))
    # an upsert that began after the job ended cannot be seen
    assert not row_ok(log, BASE, "A", "m3", (0.5, 0.9))


def test_gate_fails_a_program_that_caches_one_snapshot():
    """A program that snapshots the store once, at deploy, and serves
    that copy to every batch fails the gate; one that snapshots inside
    each computing job passes."""
    log, store = MarkerLog(), dict(BASE)
    cached = dict(store)                      # the stale program's snapshot
    fresh_ok, stale_ok = [], []
    for k in range(3):
        t = 10.0 * k
        for key in BASE:                      # returns before the job starts
            marker = f"{key}{k}"
            store[key] = marker
            log.add(Upsert(t, t, t + 0.1, [(key, marker)]))
        window = (t + 1.0, t + 2.0)
        snapshot = dict(store)                # the fresh program's snapshot
        fresh_ok.append([row_ok(log, BASE, key, snapshot[key], window)
                         for key in BASE])
        stale_ok.append([row_ok(log, BASE, key, cached[key], window)
                         for key in BASE])
    assert all(all(batch) for batch in fresh_ok)
    assert not any(any(batch) for batch in stale_ok)


def test_visibility_counts_seen_superseded_and_unseen():
    log = _log()
    log.add(Upsert(2.0, 2.0, 2.05, [("B", "m4")]))
    vis = visibility(log, [(0.5, ["m1", "x"]), (1.5, ["m1", "m3"])])
    assert sorted(vis.latencies) == pytest.approx([0.5, 0.5])
    assert (vis.sent, vis.seen, vis.superseded, vis.unseen) == (4, 2, 1, 1)


# -- correctness gate -----------------------------------------------------------

def test_check_run_counts_each_failed_record_once():
    fed = pd.DataFrame({"id": range(5), "country": list("abcde"),
                        "latitude": 1.0, "longitude": 2.0})
    stored = fed[fed["id"] != 4].copy()
    stored = pd.concat([stored, stored[stored["id"] == 2]])       # duplicate
    stored = pd.concat([stored, pd.DataFrame(
        {"id": [9], "country": ["z"], "latitude": [1.0],
         "longitude": [2.0]})])                                    # never fed
    stored["rating"] = stored["country"].str.upper()
    stored.loc[stored["id"] == 3, "country"] = "q"                 # altered
    expected = fed[["id"]].assign(rating=fed["country"].str.upper())
    expected.loc[expected["id"] == 1, "rating"] = "wrong"
    result = check_run(stored, fed, ("rating",), expected)
    # ids 2 and 4 not stored once, 3 altered, 1 differs, 9 extra
    assert (result.fed, result.failed) == (5, 5)
    clean = check_run(fed.assign(rating=fed["country"].str.upper()), fed,
                      ("rating",), fed[["id"]].assign(
                          rating=fed["country"].str.upper()))
    assert (clean.failed, clean.notes) == (0, [])
