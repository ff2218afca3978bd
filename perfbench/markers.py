"""Open-loop reference-update client and marker bookkeeping.

The client upserts rows whose value column holds a *marker* — a string
no other write uses — on a fixed schedule that does not slow when the
system slows. Each marker is logged with the time its upsert was due,
began and returned, so a stored enriched record that carries a marker
can be traced to the exact update it saw:

* **visibility** — from when an upsert was due to the storage write of
  the first enriched record carrying its marker;
* **gate** — a stored value must be the key's base value or a marker
  for that key whose upsert began before the batch's computing job
  ended, and no older than the newest update to the key that had
  returned before that job began (record-level consistency: a batch
  sees every update made before its snapshot).
"""
import bisect
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import pandas as pd


@dataclass
class Upsert:
    due: float
    start: float
    end: float
    pairs: list = field(default_factory=list)   # [(key, marker)]


class MarkerLog:
    """Every upsert the client made, by marker and by key (in issue order)."""

    def __init__(self):
        self.upserts: list[Upsert] = []
        self._by_value: dict = {}
        self._by_key: dict = defaultdict(list)
        self._ends: dict = defaultdict(list)

    def add(self, u: Upsert) -> None:
        """Log one upsert; upserts arrive in issue order, one at a time."""
        self.upserts.append(u)
        for key, value in u.pairs:
            self._by_value[value] = (key, u)
            self._by_key[key].append(u)
            self._ends[key].append(u.end)

    def marker(self, value):
        """``(key, upsert)`` that wrote ``value``, or ``None``."""
        return self._by_value.get(value)

    def history(self, key) -> list:
        return self._by_key.get(key, [])

    def newest_completed(self, key, t: float):
        """Last upsert to ``key`` that returned before ``t``, or ``None``."""
        i = bisect.bisect_left(self._ends.get(key, []), t)
        return self._by_key[key][i - 1] if i else None

    @property
    def n_markers(self) -> int:
        return len(self._by_value)


#: Share of each tick's keys drawn from the keys the feed carries.
FEED_SHARE = 0.9


def row_ok(log: MarkerLog, base: dict, key, value, window: tuple) -> bool:
    """Whether a stored ``value`` for ``key`` is one the store could
    legitimately have served to a computing job that ran over
    ``window = (start, end)``. ``base`` maps keys to their bulk-loaded
    value; a key absent from it enriches as ``""``."""
    ws, we = window
    hit = log.marker(value)
    if hit is None:
        if value != base.get(key, ""):
            return False
        mine = None
    else:
        mkey, mine = hit
        if mkey != key or mine.start >= we:
            return False        # another key's, or began after the job
    floor = log.newest_completed(key, ws)
    if floor is None:
        return True
    return mine is not None and mine.start >= floor.start


@dataclass
class Visibility:
    latencies: list       # seconds, due -> first storage write, per seen marker
    sent: int
    seen: int
    superseded: int       # never seen, and a later update to its key was issued
    unseen: int           # never seen, still the key's newest value at the end


def visibility(log: MarkerLog, batches) -> Visibility:
    """Match markers to stored batches ``[(t_stored, values), ...]``."""
    first: dict = {}
    for t_stored, values in batches:
        for v in set(values):
            if v not in first or t_stored < first[v]:
                first[v] = t_stored
    latencies, superseded, unseen = [], 0, 0
    for u in log.upserts:
        for key, value in u.pairs:
            if value in first:
                latencies.append(first[value] - u.due)
            elif log.history(key)[-1] is not u:
                superseded += 1
            else:
                unseen += 1
    return Visibility(latencies, log.n_markers, len(latencies), superseded,
                      unseen)


class UpdateClient:
    """Upserts ``per_tick`` marker rows into ``store`` every ``tick_s``.

    Open loop: tick ``i`` is due at ``t0 + i * tick_s`` whatever the
    system does; a late tick runs at once and its lateness is logged.
    A share ``FEED_SHARE`` of each tick's keys is drawn, without
    replacement, from ``feed_keys`` weighted by ``feed_weights`` (the
    keys the feed carries, as often as it carries them); the rest are
    drawn uniformly from ``other_keys``.
    """

    def __init__(self, store, key_col: str, value_col: str, feed_keys,
                 feed_weights, other_keys, *, rate: float, tick_s: float,
                 seed: int):
        self.store = store
        self.key_col = key_col
        self.value_col = value_col
        self.feed_keys = np.asarray(feed_keys)
        self.feed_weights = np.asarray(feed_weights, dtype=float)
        self.feed_weights = self.feed_weights / self.feed_weights.sum()
        self.other_keys = np.asarray(other_keys)
        self.per_tick = max(1, round(rate * tick_s))
        self.n_feed = round(self.per_tick * FEED_SHARE)
        self.tick_s = tick_s
        self.seed = seed
        self.log = MarkerLog()
        self.lags: list[float] = []
        self._rng = np.random.default_rng(seed)
        self._seq = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="update-client",
                                        daemon=True)
        self.error: BaseException | None = None

    def _keys(self) -> list:
        g = self._rng
        feed = g.choice(self.feed_keys, self.n_feed, replace=False,
                        p=self.feed_weights)
        other = g.choice(self.other_keys, self.per_tick - self.n_feed,
                         replace=False)
        return [*feed.tolist(), *other.tolist()]

    def _run(self) -> None:
        t0 = time.perf_counter()
        i = 0
        try:
            while not self._stop.is_set():
                due = t0 + i * self.tick_s
                wait = due - time.perf_counter()
                if wait > 0 and self._stop.wait(wait):
                    return
                keys = self._keys()
                values = [f"m{self.seed}_{self._seq + j}" for j in range(len(keys))]
                self._seq += len(keys)
                pdf = pd.DataFrame({self.key_col: keys, self.value_col: values})
                start = time.perf_counter()
                self.lags.append(start - due)
                self.store.upsert(pdf)
                self.log.add(Upsert(due, start, time.perf_counter(),
                                    list(zip(keys, values))))
                i += 1
        except BaseException as e:   # reported by stop()
            self.error = e

    def start(self) -> "UpdateClient":
        self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self._stop.set()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("update client did not stop")
        if self.error is not None:
            raise RuntimeError("update client failed") from self.error
