"""Shared wrapper for the per-table spark-submit entrypoints.

Each ``jobs/figNN_*.py`` builds (or reuses) a local SparkSession through
:func:`repro.session.get_spark`, the builder the test fixture also uses,
runs its table harness, prints the table, and saves
``results/<name>.{md,csv}``.
"""
import argparse
import os

# driver memory is read at JVM launch, so it must be in PYSPARK_SUBMIT_ARGS
# before pyspark is imported (same pattern as conftest.py). When launched
# via spark-submit these are ignored in favour of the submit arguments.
os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
    "--conf spark.driver.host=127.0.0.1 "
    "--conf spark.ui.enabled=false "
    "pyspark-shell",
)

# re-exported: the figure jobs and perfbench/run.py call _common.get_spark
from repro.session import get_spark  # noqa: E402,F401


def parse_args(description: str) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument(
        "--quick", action="store_true",
        help="reduced volumes (the pytest-benchmark configuration)",
    )
    return ap.parse_args()
