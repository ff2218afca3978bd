"""The one SparkSession builder shared by the jobs, the tests and the benchmark.

Master and driver memory are launch settings: callers put them in
``PYSPARK_SUBMIT_ARGS`` before pyspark starts the JVM. The settings made
here are the physical-plan choices every computing job inherits
(DESIGN.md § 7):

* **shuffle partitions = the session's default parallelism** (its task
  slots: the core count under ``local[*]``). A computing job joins a
  batch of hundreds to thousands of tweets against reference tables of
  hundreds to tens of thousands of rows; a wider shuffle only adds
  per-task scheduling to the fixed cost every invocation pays.
  ``SPARK_SHUFFLE_PARTITIONS`` overrides it. Adaptive query execution
  stays on, as Spark's default.
* **broadcast joins off**: measured on the Q1 update benchmark with the
  shuffle width above, a 10 MB threshold raised CPU per record by ~40 %
  and process memory by ~180 MB (the JVM kept the broadcast relations
  on its heap).
* **Arrow** for pandas ↔ Spark conversions (batches, Java-UDF snapshots).
"""
import os

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    spark = (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    spark.conf.set(
        "spark.sql.shuffle.partitions",
        os.environ.get("SPARK_SHUFFLE_PARTITIONS")
        or spark.sparkContext.defaultParallelism,
    )
    return spark
