#!/usr/bin/env python3
"""Ingestion benchmark for the decoupled framework.

Runs one workload (see ``workloads.py``) through
:class:`repro.core.pipeline.DecoupledPipeline`, checks every stored
record, and prints the metrics; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload sqlpp_safety_1x --seed 1 \\
        --seconds 12 --trace 0

Run it from the root of a checkout; it builds nothing and writes only
under ``perfbench/.work`` (removed at exit) and, with ``--trace 1``,
``perfbench/out``. One run:

1. starts the Spark session the repository's jobs use (``jobs/_common.py``);
2. sets up the workload's reference stores and deploys its computing
   job ``SETUP_REPEATS`` times, each on fresh store directories;
3. warms up with one untimed pipeline run, reported on its own;
4. measures one pipeline run of about ``--seconds`` seconds with
   tracing off (``--trace 0`` reports its end-to-end metrics);
5. with ``--trace 1``, measures a second, traced run of the same size
   and reports per-layer metrics from its spans instead;
6. checks the records of every run (``checks.py``).

A run that raises or outlives its deadline counts all its records as
failed; what was measured still prints and the exit code is 1.
"""
import argparse
import contextlib
import importlib.util
import os
import platform
import shlex
import shutil
import subprocess
import sys
import threading
import time
import traceback
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DISTRICT_SCALE, REF_SCALE, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
#: The whole process finishes within this many seconds.
PROCESS_BUDGET_S = 170.0
#: Seconds kept back from the budget for checks, report and shutdown.
RESERVE_S = 25.0
#: Spark driver JVM heap limit, the default of ``jobs/_common.py``. The
#: JVM runs C1-only (-XX:TieredStopAtLevel=1), unlike the program's jobs:
#: with full tiered compilation batch times keep falling for 30+
#: invocations, longer than a run can afford to warm up.
DRIVER_MEMORY = "8g"
#: Partition-holder capacity (frames). A finite feed fills the holders
#: at its start and drains them at its end; with two frames those phases
#: last two batches, so the measured run is mostly steady state.
HOLDER_CAPACITY = 2
UPDATE_TICK_S = 0.05
#: Files a checkout must hold for the benchmark to run.
REQUIRED = ("src/repro/core/pipeline.py", "jobs/_common.py")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def configure_environment(work: str) -> None:
    """Keep Spark, the JVM and Python temp files inside ``work`` and fix
    the session's launch settings; must run before pyspark starts."""
    spark_dir = os.path.join(work, "spark")
    jvm_tmp = os.path.join(work, "jvm-tmp")
    for d in (spark_dir, jvm_tmp):
        os.makedirs(d)
    os.environ["TMPDIR"] = work
    os.environ["SPARK_LOCAL_DIRS"] = spark_dir
    os.environ["SPARK_MASTER"] = "local[*]"
    # spark-submit first runs a small launcher JVM to build the command
    os.environ["SPARK_LAUNCHER_OPTS"] = (
        f"-XX:-UsePerfData -Djava.io.tmpdir={jvm_tmp}")
    os.environ.pop("SPARK_SHUFFLE_PARTITIONS", None)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master", shlex.quote("local[*]"),
        "--driver-memory", DRIVER_MEMORY,
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "--conf", shlex.quote(f"spark.local.dir={spark_dir}"),
        "--driver-java-options",
        # -XX:-UsePerfData: the JVM would otherwise write /tmp/hsperfdata_*
        shlex.quote("-XX:TieredStopAtLevel=1 -XX:-UsePerfData "
                    f"-Djava.io.tmpdir={jvm_tmp}"),
        "pyspark-shell",
    ])
    import tempfile
    tempfile.tempdir = work


def load_jobs_common():
    """The repository's job session builder (``jobs/_common.py``)."""
    path = os.path.join(ROOT, "jobs", "_common.py")
    spec = importlib.util.spec_from_file_location("perfbench_jobs_common", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def rss_peak_mb(pid) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_ticks() -> list[int]:
    """Machine-wide CPU ticks by state (user ... steal) from /proc/stat."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def process_cpu_s(pid) -> float:
    """User plus system CPU seconds a process has used (all threads)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def fingerprint(spark) -> dict:
    import duckdb
    import pandas
    import pyarrow
    import pyspark

    sc = spark.sparkContext
    with open("/proc/meminfo") as f:
        mem_kb = int(next(l for l in f if l.startswith("MemTotal:")).split()[1])
    with open("/proc/cpuinfo") as f:
        cpu = next((l.split(":", 1)[1].strip() for l in f
                    if l.startswith("model name")), "")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "mem_total_gb": round(mem_kb / 2**20, 1),
        "python": platform.python_version(),
        "java": sc._jvm.java.lang.System.getProperty("java.version"),
        "pyspark": pyspark.__version__,
        "duckdb": duckdb.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "spark_master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "broadcast_threshold": spark.conf.get(
            "spark.sql.autoBroadcastJoinThreshold"),
        "arrow": spark.conf.get("spark.sql.execution.arrow.pyspark.enabled"),
    }


def sub_seed(seed: int, label: str) -> int:
    """A stable per-purpose seed derived from the benchmark seed."""
    return zlib.crc32(f"{label}/{seed}".encode()) % 1_000_000


class Bench:
    """One workload in one process: set-up, warm-up, measured runs."""

    def __init__(self, wl, seed: int, seconds: float, trace: bool, work: str,
                 t_process: float):
        from repro import synth_data
        from repro.enrich import java_udfs, udfs

        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.t_process = t_process
        self.sql_udf = udfs.BY_NAME[wl.udf]
        self.udf = java_udfs.JAVA_BY_NAME[wl.udf]() if wl.java else self.sql_udf
        self.refs = {}
        for name in self.udf.refs:
            gen, key = synth_data.REFERENCE_GENERATORS[name]
            scale = (DISTRICT_SCALE
                     if name in ("district_areas", "average_incomes")
                     else REF_SCALE)
            pdf = gen(ref_scale=scale, seed=sub_seed(seed, name))
            self.refs[name] = (pdf, key)
        self.spark = None
        self.session_s = None
        self.setups = []
        self.runs = {}          # tag -> Run
        self.fingerprint = {}
        self.memory = {}        # see read_memory
        self.tracer = None
        self.failure = ""       # traceback of an unexpected error
        self.phases = {}        # phase -> wall seconds, for the report

    def remaining(self) -> float:
        return PROCESS_BUDGET_S - (time.perf_counter() - self.t_process)

    # -- set-up ---------------------------------------------------------------

    def start_session(self, jobs_common) -> None:
        t0 = time.perf_counter()
        self.spark = jobs_common.get_spark("perfbench")
        self.session_s = time.perf_counter() - t0
        self.spark.sparkContext.setLogLevel("ERROR")

    def set_up(self, i: int):
        from hooks import RecordingStore
        from repro.core.predeploy import PredeployedJob

        t0 = time.perf_counter()
        stores = {}
        for name, (pdf, key) in self.refs.items():
            store = RecordingStore(os.path.join(self.work, f"setup-{i}", name),
                                   key)
            store.bulk_load(self.spark, pdf)
            stores[name] = store
        t1 = time.perf_counter()
        if not self.wl.java:
            spark = self.spark
            job = PredeployedJob(spark, self.udf, lambda: {
                n: stores[n].snapshot(spark) for n in self.udf.refs})
            job.deploy()
        t2 = time.perf_counter()
        self.setups.append(Setup(stores, t1 - t0, t2 - t1))

    # -- one pipeline run -----------------------------------------------------

    def updated_column(self) -> str:
        """The value column the update client writes ("" without one)."""
        if not self.wl.update_store:
            return ""
        pdf, key = self.refs[self.wl.update_store]
        return next(c for c in pdf.columns if c != key)

    def update_client(self, setup, seed: int):
        from markers import UpdateClient
        from repro import synth_data

        name = self.wl.update_store
        pdf, key = self.refs[name]
        value_col = self.updated_column()
        carried = synth_data.tweets_pdf(5000, seed=seed)["country"]
        freq = carried.value_counts()
        other = sorted(set(pdf[key]) - set(freq.index))
        return UpdateClient(
            setup.stores[name], key, value_col, freq.index.tolist(),
            freq.to_numpy(), other, rate=self.wl.update_rate,
            tick_s=UPDATE_TICK_S, seed=seed,
        )

    def run_pipeline(self, tag: str, setup, n_batches: int, deadline: float,
                     tracer=None):
        from hooks import Probe, RecordingSink, pipeline_hooks, traced_udf
        from repro.core.pipeline import DecoupledPipeline

        seed = sub_seed(self.seed, f"feed-{tag}")
        sink = RecordingSink(self.spark, os.path.join(self.work, f"sink-{tag}"),
                             key="id", value_col=self.updated_column(),
                             tracer=tracer)
        for store in setup.stores.values():
            store.tracer = tracer
        pipeline = DecoupledPipeline(self.spark, traced_udf(self.udf, tracer),
                                     setup.stores, sink, seed=seed,
                                     holder_capacity=HOLDER_CAPACITY)
        probe = Probe(tracer, self.spark, job_group=f"perfbench-{tag}")
        client = (self.update_client(setup, sub_seed(self.seed, f"upd-{tag}"))
                  if self.wl.update_rate else None)
        run = Run(tag, seed, n_batches * self.wl.batch_size, sink, probe,
                  client)
        outcome = {}

        def target():
            try:
                outcome["stats"] = pipeline.run(run.n_records,
                                                 self.wl.batch_size)
            except BaseException as e:  # reported with the run
                outcome["error"] = e

        thread = threading.Thread(target=target, name="computing-job",
                                  daemon=True)
        ticks = cpu_ticks()
        cpu0 = self.program_cpu_s()
        with pipeline_hooks(probe):
            if client is not None:
                client.start()
            thread.start()
            thread.join(max(1.0, deadline))
        run.cpu_s = self.program_cpu_s() - cpu0
        ticks = [b - a for a, b in zip(ticks, cpu_ticks())]
        run.steal_share = ticks[7] / sum(ticks) if sum(ticks) else 0.0
        if client is not None:
            client.stop()
        for store in setup.stores.values():
            store.tracer = None
        if thread.is_alive():
            run.error = f"pipeline run did not finish within {deadline:.0f} s"
            self.spark.sparkContext.cancelAllJobs()
        elif "error" in outcome:
            e = outcome["error"]
            run.error = "".join(traceback.format_exception_only(e)).strip()
        else:
            run.stats = outcome["stats"]
        self.runs[tag] = run
        return run

    # -- the whole benchmark --------------------------------------------------

    def phase(self, name: str, t0: float) -> float:
        now = time.perf_counter()
        self.phases[name] = now - t0
        return now

    def execute(self, jobs_common) -> None:
        t = time.perf_counter()
        self.start_session(jobs_common)
        self.fingerprint = fingerprint(self.spark)
        t = self.phase("session", t)
        for i in range(SETUP_REPEATS):
            self.set_up(i)
        t = self.phase("set-up", t)
        warm = self.run_pipeline(
            "warmup", self.setups[0], self.wl.warmup_batches,
            min(90.0, self.remaining() - RESERVE_S))
        t = self.phase("warm-up", t)
        if warm.error:
            return
        n_batches = max(2, round(self.seconds / self.wl.nominal_batch_s))
        budget = self.remaining() - RESERVE_S
        if self.trace:
            budget /= 2
        measured = self.run_pipeline(
            "measured", self.setups[1], n_batches,
            min(budget, 3 * n_batches * self.wl.nominal_batch_s + 30))
        self.memory = self.read_memory()
        t = self.phase("measured", t)
        if measured.error or not self.trace:
            return
        from spans import Tracer
        self.tracer = Tracer()
        self.run_pipeline("traced", self.setups[2], n_batches,
                          self.remaining() - RESERVE_S, tracer=self.tracer)
        self.phase("traced", t)

    def read_memory(self) -> dict:
        """Memory figures at the end of the measured run, in MB.

        ``memory_mb``, the end-to-end metric, is this process's peak
        resident size (the program's Python side: feed, batches, the LSM
        memory component) plus what the Spark JVM retains: heap in use
        after a full collection, plus non-heap in use (metaspace, code
        cache). The JVM's own peak resident size and heap pool peaks are
        reported beside it; they follow G1's heap sizing more than the
        program (1.4 to 1.9 GB over five seeds of one workload).
        """
        mf = self.spark.sparkContext._jvm.java.lang.management.ManagementFactory
        heap_peak = sum(pool.getPeakUsage().getUsed()
                        for pool in mf.getMemoryPoolMXBeans()
                        if pool.getType().toString() == "Heap memory")
        jvm_rss = rss_peak_mb(self.jvm_pid())
        mx = mf.getMemoryMXBean()
        mx.gc()
        retained = (mx.getHeapMemoryUsage().getUsed()
                    + mx.getNonHeapMemoryUsage().getUsed()) / 2**20
        python_rss = rss_peak_mb("self")
        return {
            "memory_mb": python_rss + retained,
            "python_peak_rss_mb": python_rss,
            "jvm_retained_mb": retained,
            "jvm_peak_rss_mb": jvm_rss,
            "jvm_heap_pool_peaks_mb": heap_peak / 2**20,
        }

    def jvm_pid(self) -> int:
        return self.spark.sparkContext._gateway.proc.pid

    def program_cpu_s(self) -> float:
        """CPU seconds used so far by this process and the Spark JVM."""
        return process_cpu_s("self") + process_cpu_s(self.jvm_pid())

    def shutdown(self) -> None:
        """Stop Spark and wait for its JVM to end."""
        if self.spark is None:
            return
        proc = self.spark.sparkContext._gateway.proc
        stopper = threading.Thread(target=self.spark.stop, daemon=True)
        stopper.start()
        stopper.join(10)
        proc.stdin.close()       # the gateway JVM exits when its stdin closes
        try:
            proc.wait(10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(10)


class Setup:
    def __init__(self, stores: dict, load_s: float, deploy_s: float):
        self.stores = stores
        self.load_s = load_s
        self.deploy_s = deploy_s


class Run:
    """One pipeline run and what was recorded about it."""

    def __init__(self, tag, seed, n_records, sink, probe, client):
        self.tag = tag
        self.seed = seed
        self.n_records = n_records
        self.sink = sink
        self.probe = probe
        self.client = client
        self.stats = None
        self.error = ""
        self.steal_share = 0.0   # CPU time the host took from this machine
        self.cpu_s = 0.0         # CPU time of this process and the JVM

    @property
    def batch_times(self) -> list:
        return self.stats.report.batch_times if self.stats else []

    @property
    def elapsed_s(self) -> float | None:
        """Feed start to the last storage write."""
        if not self.sink.writes or self.probe.feed_start is None:
            return None
        return self.sink.writes[-1][0] - self.probe.feed_start

    @property
    def stored(self) -> int:
        return sum(len(ids) for _, ids, _ in self.sink.writes)

    @property
    def throughput(self) -> float | None:
        el = self.elapsed_s
        return self.stored / el if el else None


def main(argv=None) -> int:
    args = parse_args(argv)
    t_process = time.perf_counter()
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: {ROOT} is not a checkout of the repository "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    work = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    os.makedirs(work)
    bench = None
    try:
        configure_environment(work)
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import repro
        if not os.path.abspath(repro.__file__).startswith(ROOT + os.sep):
            print(f"perfbench: imported repro from {repro.__file__}, not "
                  "from this checkout", file=sys.stderr)
            return 2
        jobs_common = load_jobs_common()
        from report import finish
        bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), work, t_process)
        try:
            bench.execute(jobs_common)
        except Exception:
            bench.failure = traceback.format_exc()
        code = finish(bench, args)
    finally:
        if bench is not None:
            bench.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):    # other runs may still use it
            os.rmdir(os.path.dirname(work))
    return code


if __name__ == "__main__":
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    # A hung computing job leaves a non-daemon pipeline thread behind;
    # exit without waiting for it.
    os._exit(code)
