"""The decoupled ingestion pipeline (§ 5.2, § 6, Fig 23).

Three concurrently running layers joined by partition holders:

* **intake job** (thread) — the adapter frames raw bytes and puts them
  into a *passive* partition holder; on feed stop it enqueues EOF after
  the last frame (§ 6.1). Note the parser is NOT here: the new framework
  moves parsing into the computing job, which is why dynamic ingestion
  escapes the old framework's single-node parse bottleneck (§ 7.1).
* **computing jobs** (repeatedly invoked) — pull a frame, parse it,
  evaluate the attached UDF against fresh reference snapshots, and push
  the enriched batch into the *active* partition holder. The Active Feed
  Manager role (invoke the next job when one finishes, § 6.1) is the
  driver loop here.
* **storage job** (active holder's consumer thread) — receives enriched
  frames and appends them to the sink.

Intake and storage run for the feed's lifetime; computing jobs are per
batch. Bounded holders give real back-pressure both ways.
"""
import contextlib
import threading
import time
from dataclasses import dataclass

from pyspark.sql import SparkSession

from repro.core.feed import BATCH_1X, TweetAdapter, TweetParser
from repro.core.ingest import IngestReport
from repro.core.partition_holder import (
    EOF, ActivePartitionHolder, PartitionHolderManager, PassivePartitionHolder,
)
from repro.core.predeploy import PredeployedJob
from repro.enrich.udfs import EnrichmentUdf
from repro.storage.sink import StorageSink


@dataclass
class PipelineStats:
    """Layer-level accounting on top of the ingest report."""

    report: IngestReport
    frames_intaken: int
    batches_computed: int
    batches_stored: int


class DecoupledPipeline:
    """Intake / computing / storage layers over partition holders."""

    def __init__(self, spark: SparkSession, udf, stores: dict,
                 sink: StorageSink, *, holder_capacity: int = 8,
                 seed: int = 7):
        self.spark = spark
        self.udf = udf
        self.stores = stores
        self.sink = sink
        self.holder_capacity = holder_capacity
        self.seed = seed
        self.manager = PartitionHolderManager()

    def run(self, n_records: int, batch_size: int = BATCH_1X) -> PipelineStats:
        adapter = TweetAdapter(seed=self.seed)
        parser = TweetParser()
        # predeploy the computing job before the feed starts (§ 6.1)
        invoke = self._computing_job()

        intake_holder = PassivePartitionHolder(
            "intake", capacity=self.holder_capacity
        )
        storage_holder = ActivePartitionHolder(
            "storage", downstream=self.sink.append_pdf_local,
            capacity=self.holder_capacity,
        )
        self.manager.register(intake_holder)
        self.manager.register(storage_holder)

        intake_error: list = []

        def intake_job():
            try:
                for frame in adapter.frames(n_records, frame_size=batch_size):
                    intake_holder.put(frame)
            except BaseException as e:  # surfaced after join
                intake_error.append(e)
            finally:
                intake_holder.close()

        intake = threading.Thread(target=intake_job, name="intake-job")

        times = []
        t0 = time.perf_counter()
        intake.start()
        try:
            # Active Feed Manager loop: one computing job at a time per feed
            while True:
                frame = intake_holder.take(timeout=1.0)
                if frame is None:
                    continue
                if frame is EOF:
                    break
                b0 = time.perf_counter()
                batch = parser.parse(frame)
                out = invoke(batch)
                storage_holder.push(out)
                times.append(time.perf_counter() - b0)
        except BaseException:
            # A failed computing job stops the feed: unblock the intake
            # job, let the storage job forward what it holds, then
            # surface the computing job's error, not the shutdown's.
            intake_holder.cancel()
            intake.join(timeout=30)
            with contextlib.suppress(RuntimeError, TimeoutError):
                storage_holder.close_and_join()
            raise
        else:
            intake.join(timeout=30)
            storage_holder.close_and_join()
            elapsed = time.perf_counter() - t0
        finally:
            self.manager.unregister("intake")
            self.manager.unregister("storage")
        if intake_error:
            raise RuntimeError("intake job failed") from intake_error[0]

        name = "none" if self.udf is None else self.udf.name
        report = IngestReport(
            "dynamic-decoupled", name, n_records, batch_size, elapsed, times
        )
        return PipelineStats(
            report=report,
            frames_intaken=adapter.records_emitted,
            batches_computed=len(times),
            batches_stored=storage_holder.forwarded,
        )

    def _computing_job(self):
        if self.udf is None:
            return lambda batch: batch
        if isinstance(self.udf, EnrichmentUdf):
            def provider():
                return {
                    name: self.stores[name].snapshot(self.spark)
                    for name in self.udf.refs
                }

            job = PredeployedJob(self.spark, self.udf, provider)
            job.deploy()
            return job.invoke
        udf = self.udf

        def invoke(batch):
            udf.initialize(
                {
                    name: self.stores[name].snapshot_pdf(self.spark)
                    for name in udf.refs
                }
            )
            return udf.evaluate(batch)

        return invoke
