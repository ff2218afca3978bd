"""The benchmark's workloads.

Every feed is closed-loop: the adapter produces frames as fast as the
bounded intake holder accepts them, so throughput is the saturation
rate at the stated batch size. The update client of
``sqlpp_safety_1x_updates`` is open-loop at a fixed rate.
"""
from dataclasses import dataclass

BATCH_1X = 420
BATCH_16X = 6720
#: Reference data scale (1/10 of the paper's cardinalities).
REF_SCALE = 0.1
#: District-backed datasets at this scale: 50 districts (paper 500).
DISTRICT_SCALE = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    udf: str                 # UDF name in repro.enrich (SQL++ or Java)
    java: bool               # Java-UDF analogue instead of the SQL++ plan
    batch_size: int
    warmup_batches: int      # batches of the untimed warm-up run
    #: Computing-job time per batch on the reference machine; a measured
    #: run is ``--seconds / nominal_batch_s`` batches, so every run of a
    #: given length does the same work whatever the program's speed.
    nominal_batch_s: float
    update_rate: float = 0.0 # reference upserts per second (open loop)
    update_store: str = ""
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sqlpp_safety_1x", "safety_rating", False, BATCH_1X,
            warmup_batches=5, nominal_batch_s=0.72,
            why="Q1 SQL++ at 1X: work per batch is tiny, so the fixed Spark "
                "per-invocation floor dominates; plan changes show here",
        ),
        Workload(
            "sqlpp_context_16x", "tweet_context", False, BATCH_16X,
            warmup_batches=2, nominal_batch_s=5.0,
            why="Q7 SQL++ at 16X: the per-batch reference-side rebuild "
                "dominates and no reference data changes, so state caching "
                "shows here",
        ),
        Workload(
            "sqlpp_safety_1x_updates", "safety_rating", False, BATCH_1X,
            warmup_batches=6, nominal_batch_s=1.36,
            update_rate=400.0, update_store="safety_ratings",
            why="Q1 SQL++ at 1X with 400 upserts/s: every snapshot pays the "
                "memory-component merge; the only workload measuring freshness",
        ),
        Workload(
            "java_safety_16x", "safety_rating", True, BATCH_16X,
            warmup_batches=12, nominal_batch_s=0.55,
            why="Q1 Java-UDF analogue at 16X, re-initialized per batch: "
                "serialize, parse and storage carry a real share",
        ),
    )
}
