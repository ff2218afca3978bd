"""Partition holders — bounded queues that let frames cross job boundaries.

Hyracks data exchanges are scoped to one job; the paper adds *partition
holder* operators (§ 5.3) so the long-running intake job, the per-batch
computing jobs, and the long-running storage job can hand frames to each
other through in-memory structures:

* a **passive** holder queues frames from its upstream operator and
  waits for another job to **pull** them (tail of the intake job);
* an **active** holder receives frames **pushed** from another job and
  forwards them to its downstream operator (head of the storage job).

Each holder registers with a :class:`PartitionHolderManager` under a
``(holder_id, partition)`` key so jobs can locate their peer's holders,
as in the paper. Queues are bounded: a full intake holder back-pressures
the adapter, a full storage holder back-pressures computing jobs.
"""
import queue
import threading

#: Sentinel appended by the intake job when the feed stops (§ 6.1): a
#: computing job that sees it finishes with a partial batch.
EOF = object()


class PassivePartitionHolder:
    """Pull-side holder: upstream ``put``s frames, another job ``take``s."""

    def __init__(self, holder_id: str, partition: int = 0, capacity: int = 64):
        self.holder_id = holder_id
        self.partition = partition
        self._q: queue.Queue = queue.Queue(maxsize=capacity)
        self._closed = threading.Event()

    def put(self, frame, timeout: float | None = None) -> None:
        if self._closed.is_set():
            raise RuntimeError(f"holder {self.holder_id} is closed")
        self._q.put(frame, timeout=timeout)

    def take(self, timeout: float | None = None):
        """Next frame, ``EOF`` once the feed has stopped and drained."""
        try:
            return self._q.get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self) -> None:
        """Feed stop: append the EOF record after all data (§ 6.1)."""
        if not self._closed.is_set():
            self._closed.set()
            self._q.put(EOF)

    def cancel(self) -> None:
        """Consumer failed: close without EOF and drop queued frames, so a
        producer blocked in :meth:`put` returns and its next put raises."""
        self._closed.set()
        while True:
            try:
                self._q.get_nowait()
            except queue.Empty:
                return

    @property
    def depth(self) -> int:
        return self._q.qsize()


class ActivePartitionHolder:
    """Push-side holder: other jobs ``push`` frames, a consumer thread
    forwards them to ``downstream`` (the storage job's pipeline)."""

    def __init__(self, holder_id: str, downstream, partition: int = 0,
                 capacity: int = 64):
        self.holder_id = holder_id
        self.partition = partition
        self.downstream = downstream
        self._q: queue.Queue = queue.Queue(maxsize=capacity)
        self._error: BaseException | None = None
        self.forwarded = 0
        self._thread = threading.Thread(
            target=self._run, name=f"active-holder-{holder_id}", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        # After a downstream failure keep taking (and dropping) frames
        # until EOF, so neither push nor close_and_join blocks on a full
        # queue that nobody drains.
        while (frame := self._q.get()) is not EOF:
            if self._error is not None:
                continue
            try:
                self.downstream(frame)
                self.forwarded += 1
            except Exception as e:  # surfaced on push and close_and_join
                self._error = e

    def push(self, frame, timeout: float | None = None) -> None:
        if self._error is not None:
            raise RuntimeError("downstream failed") from self._error
        self._q.put(frame, timeout=timeout)

    def close_and_join(self, timeout: float = 30.0) -> None:
        """Append EOF and wait, at most ``timeout`` s per step, for the
        consumer to forward what is queued; raise if it failed or hung."""
        try:
            self._q.put(EOF, timeout=timeout)
        except queue.Full:
            raise TimeoutError(
                f"holder {self.holder_id}: downstream did not drain") from None
        self._thread.join(timeout=timeout)
        if self._error is not None:
            raise RuntimeError("downstream failed") from self._error
        if self._thread.is_alive():
            raise TimeoutError(f"holder {self.holder_id}: downstream hung")

    @property
    def depth(self) -> int:
        return self._q.qsize()


class PartitionHolderManager:
    """Per-node registry mapping holder ids to live holders (§ 5.3)."""

    def __init__(self):
        self._holders: dict = {}
        self._lock = threading.Lock()

    def register(self, holder) -> None:
        with self._lock:
            key = (holder.holder_id, holder.partition)
            if key in self._holders:
                raise ValueError(f"holder {key} already registered")
            self._holders[key] = holder

    def lookup(self, holder_id: str, partition: int = 0):
        with self._lock:
            try:
                return self._holders[(holder_id, partition)]
            except KeyError:
                raise KeyError(f"no holder ({holder_id}, {partition})") from None

    def unregister(self, holder_id: str, partition: int = 0) -> None:
        with self._lock:
            self._holders.pop((holder_id, partition), None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._holders)
