"""LSM-style reference-data store.

AsterixDB keeps each dataset in an LSM tree: immutable on-disk
components plus one mutable in-memory component; readers merge all
components with newest-key-wins semantics (§ 7.3 cites [3]). The
paper's update experiment hinges on this: *any* update rate > 0
activates the in-memory component, adding merge/locking cost to every
reference-data read, which is why throughput drops the moment updates
start and degrades as the rate grows.

This store reproduces that mechanism honestly rather than modelling it:

* ``bulk_load`` writes an immutable on-disk component (parquet);
* ``upsert`` appends to the in-memory component (thread-safe — the
  update feeder runs concurrently with computing jobs);
* ``snapshot`` returns the merged view **as of now**. With an empty
  memory component it is a bare parquet scan; once updates exist it
  must union the components and deduplicate by key keeping the newest
  version — real extra work per computing job, growing with the number
  of buffered updates;
* ``flush`` migrates the memory component to a new disk component
  (LSM flush); with no compaction, reads still merge every component.

Record-level consistency matches the paper's footnote 4: a computing
job sees all updates applied before its ``snapshot`` call; later
updates are picked up by the next invocation.
"""
import itertools
import os
import threading

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.window import Window


class LsmStore:
    """One dataset: parquet disk components + a pandas memory component."""

    def __init__(self, path: str, key: str):
        self.path = path
        self.key = key
        self._lock = threading.Lock()
        self._mem: list = []          # list[pd.DataFrame], in arrival order
        self._disk: list = []         # component dirs, oldest first
        self._seq = itertools.count() # version stamp for newest-wins merge
        self._component_id = itertools.count()
        os.makedirs(path, exist_ok=True)

    # -- write path -----------------------------------------------------------

    def bulk_load(self, spark: SparkSession, pdf: pd.DataFrame) -> None:
        """Initial load into an immutable on-disk component."""
        if pdf[self.key].duplicated().any():
            raise ValueError(f"duplicate primary key in bulk load of {self.path}")
        self._write_component(spark, pdf.assign(_v=next(self._seq)))

    def upsert(self, pdf: pd.DataFrame) -> None:
        """Insert-or-replace by primary key into the memory component.

        Rows of one call share a version, so a key repeated within the
        call keeps its last row, as if the rows were upserted in order.
        """
        pdf = pdf.drop_duplicates(self.key, keep="last")
        with self._lock:
            self._mem.append(pdf.assign(_v=next(self._seq)))

    def flush(self, spark: SparkSession) -> None:
        """LSM flush: memory component becomes a new disk component.

        The flushed component holds each key once, its newest version.
        It is still one more component to merge on every read: this store
        has no compaction, so read amplification only grows.
        """
        with self._lock:
            mem, self._mem = self._mem, []
        if mem:
            merged = pd.concat(mem, ignore_index=True)
            self._write_component(
                spark, merged.drop_duplicates(self.key, keep="last"))

    def _write_component(self, spark: SparkSession, pdf: pd.DataFrame) -> None:
        comp = os.path.join(self.path, f"component-{next(self._component_id):05d}")
        spark.createDataFrame(pdf).write.mode("overwrite").parquet(comp)
        self._disk.append(comp)

    # -- read path ------------------------------------------------------------

    @property
    def memory_component_active(self) -> bool:
        with self._lock:
            return bool(self._mem)

    @property
    def buffered_updates(self) -> int:
        with self._lock:
            return sum(len(m) for m in self._mem)

    def snapshot(self, spark: SparkSession) -> DataFrame:
        """Merged, deduplicated view of all components as of this call.

        The newest-wins merge (window over ``_v``) only kicks in when a
        key can have more than one version — a quiescent store reads at
        plain scan cost, an updated one pays the merge's shuffle, which
        is the paper's § 7.3 effect.
        """
        with self._lock:
            mem = list(self._mem)
            disk = list(self._disk)
        if not disk and not mem:
            raise RuntimeError(f"store {self.path} is empty — bulk_load first")
        parts = [spark.read.parquet(c) for c in disk]
        if mem:
            parts.append(spark.createDataFrame(pd.concat(mem, ignore_index=True)))
        merged = parts[0]
        for p in parts[1:]:
            merged = merged.unionByName(p)
        # every component and every upsert holds a key at most once
        if len(disk) + len(mem) > 1:
            w = Window.partitionBy(self.key).orderBy(F.col("_v").desc())
            merged = (
                merged.withColumn("_rank", F.row_number().over(w))
                .where(F.col("_rank") == 1)
                .drop("_rank")
            )
        # No fixed output width. A quiescent store reads as its parquet
        # scan's 1–2 partitions; a merged one comes out of the window's
        # shuffle at ``spark.sql.shuffle.partitions`` (the session's task
        # slots), which AQE may coalesce. Forcing one width cost every
        # store an extra shuffle in every batch, and fanned Q7's
        # reference cross joins out to 16 × 16 tasks.
        return merged.drop("_v")

    def snapshot_pdf(self, spark: SparkSession) -> pd.DataFrame:
        """Pandas view of :meth:`snapshot` — the Java-UDF resource-file path."""
        return self.snapshot(spark).toPandas()


def build_stores(spark: SparkSession, base_path: str, datasets: dict,
                 keys: dict) -> dict:
    """Bulk-load a dict of ``name -> pandas frame`` into per-name stores."""
    stores = {}
    for name, pdf in datasets.items():
        store = LsmStore(os.path.join(base_path, name), keys[name])
        store.bulk_load(spark, pdf)
        stores[name] = store
    return stores
