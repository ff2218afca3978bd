"""Hooks at the pipeline's layer boundaries.

The benchmark hands :class:`repro.core.pipeline.DecoupledPipeline` its
stores and sink as constructor arguments, so those two are subclasses;
the sink records each storage write's time and rows on every run.

For the duration of a run the classes the pipeline builds internally
are replaced by subclasses. On every run the adapter records when the
feed started, and the parser and storage holder record each computing
job's window: from the start of its parse to the push of its output,
the interval in which it must have read the reference store. The traced
run also swaps the holders' and predeployed job's classes and opens a
span around each call into a layer. Every subclass calls straight
through; nothing here changes what a layer does.

Batch ids: the k-th frame the adapter produces, the k-th parse, the
computing job that follows it, its push and the k-th storage write all
carry batch ``k``.
"""
import contextlib
import dataclasses
import threading
import time

from repro.core import feed as feed_mod
from repro.core import pipeline as pipeline_mod
from repro.core.feed import TweetAdapter, TweetParser
from repro.core.partition_holder import (
    ActivePartitionHolder, PassivePartitionHolder,
)
from repro.core.predeploy import PredeployedJob
from repro.storage.lsm_store import LsmStore
from repro.storage.sink import StorageSink


def _span(tracer, name: str, batch: int | None = None):
    return tracer.span(name, batch) if tracer else contextlib.nullcontext()


class RecordingStore(LsmStore):
    """An LSM store that, with a tracer, opens a span around each call.

    It also tags each snapshot span with the buffered-update count and
    whether the store was written since the previous snapshot
    (``changed``), which is when per-batch state must be rebuilt.
    """

    def __init__(self, path: str, key: str):
        super().__init__(path, key)
        self.tracer = None
        self.upserts = 0
        self._upserts_seen = 0

    def upsert(self, pdf) -> None:
        with _span(self.tracer, "lsm_store.upsert"):
            super().upsert(pdf)
        self.upserts += 1

    def snapshot(self, spark):
        with _span(self.tracer, "lsm_store.snapshot") as s:
            df = super().snapshot(spark)
            if s is not None:
                upserts = self.upserts
                s.tags["changed"] = upserts != self._upserts_seen
                s.tags["buffered_updates"] = self.buffered_updates
                self._upserts_seen = upserts
        return df

    def snapshot_pdf(self, spark):
        with _span(self.tracer, "lsm_store.snapshot_pdf"):
            return super().snapshot_pdf(spark)


class RecordingSink(StorageSink):
    """A storage sink that records each write's end time and rows.

    ``writes`` holds ``(t_written, ids, values)`` per write, in order;
    ``values`` is the ``value_col`` column when one is named.
    """

    def __init__(self, spark, path: str, key: str, *, value_col: str = "",
                 tracer=None):
        super().__init__(spark, path, key)
        self.value_col = value_col
        self.tracer = tracer
        self.writes: list = []

    def append_pdf_local(self, pdf) -> int:
        with _span(self.tracer, "sink.append", len(self.writes)):
            n = super().append_pdf_local(pdf)
        values = pdf[self.value_col].to_numpy() if self.value_col else None
        self.writes.append((time.perf_counter(), pdf[self.key].to_numpy(),
                            values))
        return n


@contextlib.contextmanager
def patched(module, **attrs):
    """Set module attributes for the duration of the block."""
    old = {name: getattr(module, name) for name in attrs}
    for name, value in attrs.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in old.items():
            setattr(module, name, value)


class Probe:
    """What one pipeline run's hooks observed."""

    def __init__(self, tracer, spark, job_group: str):
        self.tracer = tracer
        self.spark = spark
        self.job_group = job_group
        self.feed_start: float | None = None
        self.batch = -1                 # batch on the computing thread
        self.compute_thread = ""
        #: Per computing job: when its parse began and when it pushed
        #: its output to the storage holder.
        self.job_starts: list[float] = []
        self.job_ends: list[float] = []
        self.intake_depth: list[int] = []
        self.storage_depth: list[int] = []

    def group(self, batch: int) -> str:
        return f"{self.job_group}-{batch}"


@contextlib.contextmanager
def pipeline_hooks(probe: Probe):
    """Swap the pipeline's internal classes for recording subclasses
    while one run executes."""
    tracer = probe.tracer

    class Adapter(TweetAdapter):
        def frames(self, n_records, frame_size=feed_mod.BATCH_1X):
            if probe.feed_start is None:
                probe.feed_start = time.perf_counter()
            frames = super().frames(n_records, frame_size)
            if tracer is None:
                yield from frames
                return
            k = 0
            while True:
                with tracer.span("feed.adapter_frame", k) as s:
                    frame = next(frames, None)
                if frame is None:
                    tracer.discard(s)   # the generator's end, not a frame
                    return
                yield frame
                k += 1

    class Parser(TweetParser):
        def parse(self, frame):
            probe.job_starts.append(time.perf_counter())
            probe.batch += 1
            if tracer is None:
                return super().parse(frame)
            probe.compute_thread = threading.current_thread().name
            tracer.set_batch(probe.batch)
            probe.spark.sparkContext.setJobGroup(
                probe.group(probe.batch), "perfbench computing job")
            with tracer.span("feed.parse", probe.batch):
                return super().parse(frame)

    class Storage(ActivePartitionHolder):
        def push(self, frame, timeout=None):
            probe.job_ends.append(time.perf_counter())
            if tracer is None:
                return super().push(frame, timeout)
            probe.storage_depth.append(self.depth)
            with tracer.span("partition_holder.storage_push", probe.batch):
                super().push(frame, timeout)

    if tracer is None:
        with patched(pipeline_mod, TweetAdapter=Adapter, TweetParser=Parser,
                     ActivePartitionHolder=Storage):
            yield
        return

    serialize = feed_mod.serialize

    def traced_serialize(pdf):
        with tracer.span("feed.serialize"):
            return serialize(pdf)

    class Intake(PassivePartitionHolder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._puts = 0

        def put(self, frame, timeout=None):
            with tracer.span("partition_holder.intake_put", self._puts):
                super().put(frame, timeout)
            self._puts += 1

        def take(self, timeout=None):
            probe.intake_depth.append(self.depth)
            with tracer.span("partition_holder.intake_take", probe.batch + 1):
                return super().take(timeout)

    class Job(PredeployedJob):
        def deploy(self):
            with tracer.span("predeploy.deploy"):
                super().deploy()

        def invoke(self, batch_pdf):
            with tracer.span("predeploy.invoke"):
                return super().invoke(batch_pdf)

    with patched(feed_mod, serialize=traced_serialize), patched(
        pipeline_mod, TweetAdapter=Adapter, TweetParser=Parser,
        PassivePartitionHolder=Intake, ActivePartitionHolder=Storage,
        PredeployedJob=Job,
    ):
        yield


def traced_udf(udf, tracer):
    """The UDF with spans around its entry points (SQL++ or Java)."""
    if tracer is None:
        return udf
    if dataclasses.is_dataclass(udf):
        transform = udf.transform

        def traced_transform(spark, batch, refs):
            with tracer.span("udfs.transform"):
                return transform(spark, batch, refs)

        return dataclasses.replace(udf, transform=traced_transform)

    base = type(udf)

    class Traced(base):
        def initialize(self, resources):
            with tracer.span("java_udfs.initialize"):
                super().initialize(resources)

        def evaluate(self, batch):
            with tracer.span("java_udfs.evaluate"):
                return super().evaluate(batch)

    Traced.__name__ = f"Traced{base.__name__}"
    return Traced()


def spark_counts(spark, group: str) -> tuple[int, int, int]:
    """Spark jobs, stages and tasks launched under job group ``group``."""
    tracker = spark.sparkContext.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    stages = tasks = 0
    for job in jobs:
        info = tracker.getJobInfo(job)
        for stage in (info.stageIds if info else ()):
            stages += 1
            sinfo = tracker.getStageInfo(stage)
            tasks += sinfo.numTasks if sinfo else 0
    return len(jobs), stages, tasks
