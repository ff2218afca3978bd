"""Checks, metrics and the printed report of one benchmark process.

End-to-end metrics come from the untraced measured run:

* ``cpu_ms_per_record`` — CPU time (user + system) of this process and
  the Spark JVM during the pipeline run, per record stored;
* ``setup_s`` — Spark session start (once, cold) plus the median over
  the set-up repeats of bulk-loading the workload's stores and
  deploying its computing job;
* ``memory_mb`` — peak resident memory of this process plus the heap
  the Spark JVM retains after a full collection and its non-heap use,
  read at the end of the measured run (see ``Bench.read_memory``).

The report also prints what the contract's final JSON line leaves out:
the wall-clock ``throughput_rec_s`` (records stored / wall time from the
adapter's first frame to the last storage write) and
``refresh_period_p50_s`` (median computing-job time as the pipeline
itself measures it: parse + invoke + push, Fig 26), which follow the
host's CPU steal too closely to be bounded (see README), the
refresh-period tail (the highest percentile with at least ten
invocations beyond it, or why it is omitted), update visibility on the
update workload, the warm-up, the cold set-up and records_failed_ratio.

Per-layer metrics come from the traced run's spans (``--trace 1``).
``lsm_store.snapshot_s`` times building the *lazy* snapshot plan only:
the snapshot's scan and newest-wins merge execute later, inside
``predeploy.execute_s`` (SQL++) or ``lsm_store.snapshot_pdf_s`` (Java).
"""
import json
import os
import statistics
import time

import numpy as np
import pandas as pd

from checks import CheckResult, check_run, oracle, read_stored
from markers import row_ok, visibility
from spans import add_batch_roots, batch_self_sums, self_by_name
from stats import median, nearest_rank, tail_percentile

#: Span name -> per-layer metric base name (self time per call).
LAYER_SPANS = {
    "feed.adapter_frame": "feed.adapter_s",
    "feed.serialize": "feed.serialize_s",
    "feed.parse": "feed.parse_s",
    "partition_holder.intake_put": "partition_holder.intake_put_wait_s",
    "partition_holder.intake_take": "partition_holder.intake_take_wait_s",
    "partition_holder.storage_push": "partition_holder.storage_push_wait_s",
    "predeploy.invoke": "predeploy.execute_s",
    "udfs.transform": "udfs.transform_s",
    "java_udfs.initialize": "java_udfs.initialize_s",
    "java_udfs.evaluate": "java_udfs.evaluate_s",
    "lsm_store.snapshot": "lsm_store.snapshot_s",
    "lsm_store.snapshot_pdf": "lsm_store.snapshot_pdf_s",
    "lsm_store.upsert": "lsm_store.upsert_s",
    "sink.append": "sink.append_s",
    "pipeline.batch": "pipeline.loop_s",
}
END_TO_END = {
    "cpu_ms_per_record": "ms",
    "setup_s": "s",
    "memory_mb": "MB",
}
#: Waits before a batch starts: not part of its computing-job time.
PRE_BATCH = ("partition_holder.intake_take",)
#: The feed column Q1 joins to the updated store's key.
JOIN_COL = "country"


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for base in LAYER_SPANS.values():
        units[f"{base}.p50"] = "s"
        units[f"{base}.total"] = "s"
    units.update({
        "updates.generator_lag_s.p50": "s",
        "updates.generator_lag_s.max": "s",
        "pipeline.spark_jobs_per_batch": "count",
        "pipeline.spark_stages_per_batch": "count",
        "pipeline.spark_tasks_per_batch": "count",
        "lsm_store.rebuild_needed_ratio": "ratio",
        "lsm_store.buffered_updates": "count",
        "partition_holder.intake_depth": "count",
        "partition_holder.storage_depth": "count",
        "pipeline.trace_coverage": "ratio",
        "trace.overhead_rec_s": "rec/s",
    })
    return units


# -- checks -------------------------------------------------------------------

def fed_tweets(seed: int, n_records: int, batch_size: int) -> pd.DataFrame:
    """The tweets the adapter fed: one generator call per frame."""
    from repro import synth_data

    return pd.concat(
        [synth_data.tweets_pdf(min(batch_size, n_records - i), seed=seed,
                               start_id=i)
         for i in range(0, n_records, batch_size)],
        ignore_index=True,
    )


def update_rule(bench, run):
    """Per-row gate for a run with reference updates (see markers.row_ok):
    the row's value must fit the window of the computing job whose
    output the storage write holding the row came from."""
    name = bench.wl.update_store
    pdf, key = bench.refs[name]
    value_col = run.sink.value_col
    base = dict(zip(pdf[key], pdf[value_col]))
    windows = list(zip(run.probe.job_starts, run.probe.job_ends))
    batch_of = {}
    for k, (_, ids, _) in enumerate(run.sink.writes):
        for i in ids.tolist():
            batch_of[i] = k
    log = run.client.log

    def rule(merged: pd.DataFrame) -> np.ndarray:
        out = []
        for i, c, v in zip(merged["id"], merged[JOIN_COL], merged[value_col]):
            k = batch_of.get(i)
            out.append(k is not None and row_ok(log, base, c, v, windows[k]))
        return np.array(out, dtype=bool)

    return rule


def check(bench, run) -> CheckResult:
    if run.error:
        return CheckResult(run.n_records, run.n_records, [run.error])
    stored = read_stored(run.sink.path)
    fed = fed_tweets(run.seed, run.n_records, bench.wl.batch_size)
    cols = bench.sql_udf.enrich_cols
    if bench.wl.update_rate:
        starts, ends = run.probe.job_starts, run.probe.job_ends
        writes = len(run.sink.writes)
        if not len(starts) == len(ends) == writes:
            return CheckResult(run.n_records, run.n_records, [
                f"{len(starts)} computing jobs began and {len(ends)} pushed "
                f"output for {writes} storage writes, so rows cannot be "
                "matched to the job that read the store"])
        return check_run(stored, fed, cols, row_rule=update_rule(bench, run))
    tables = {"tweets": fed, **{n: pdf for n, (pdf, _) in bench.refs.items()}}
    expected = oracle(bench.sql_udf.oracle_sql, tables, bench.work)
    return check_run(stored, fed, cols, expected)


# -- metrics ------------------------------------------------------------------

def end_to_end(bench) -> dict:
    run = bench.runs.get("measured")
    setup = None
    if bench.setups and bench.session_s is not None:
        setup = bench.session_s + statistics.median(
            s.load_s + s.deploy_s for s in bench.setups)
    ok = run is not None and not run.error and run.stored
    return {
        "cpu_ms_per_record": 1000 * run.cpu_s / run.stored if ok else None,
        "setup_s": setup,
        "memory_mb": bench.memory.get("memory_mb"),
    }


def per_layer(bench) -> tuple[dict, dict]:
    """Per-layer metrics from the traced run, and per-batch self-time
    shares for the printed breakdown."""
    run = bench.runs.get("traced")
    out = dict.fromkeys(per_layer_units())
    if run is None or run.error:
        return out, {}
    tracer, probe = bench.tracer, run.probe
    add_batch_roots(tracer, probe.compute_thread, skip=PRE_BATCH)
    own = self_by_name(tracer.spans)
    for span_name, base in LAYER_SPANS.items():
        xs = own.get(span_name, [])
        out[f"{base}.p50"] = median(xs) or 0.0
        out[f"{base}.total"] = float(sum(xs))
    lags = run.client.lags if run.client else []
    out["updates.generator_lag_s.p50"] = median(lags) or 0.0
    out["updates.generator_lag_s.max"] = max(lags, default=0.0)

    from hooks import spark_counts
    counts = [spark_counts(bench.spark, probe.group(k))
              for k in range(len(run.batch_times))]
    for i, what in enumerate(("jobs", "stages", "tasks")):
        out[f"pipeline.spark_{what}_per_batch"] = median(
            c[i] for c in counts) or 0
    snaps = [s for s in tracer.spans
             if s.name == "lsm_store.snapshot" and s.batch is not None]
    out["lsm_store.rebuild_needed_ratio"] = (
        sum(s.tags["changed"] for s in snaps) / len(snaps) if snaps else 0.0)
    out["lsm_store.buffered_updates"] = median(
        s.tags["buffered_updates"] for s in snaps) or 0
    out["partition_holder.intake_depth"] = median(probe.intake_depth) or 0
    out["partition_holder.storage_depth"] = median(probe.storage_depth) or 0

    sums = batch_self_sums(tracer.spans, probe.compute_thread, skip=PRE_BATCH)
    coverage, shares = [], {}
    for k, t in enumerate(run.batch_times):
        layer = sums.get(k, {})
        coverage.append(sum(layer.values()) / t)
        for name, v in layer.items():
            shares.setdefault(name, []).append(v)
    out["pipeline.trace_coverage"] = median(coverage) or 0.0
    untraced = bench.runs["measured"].throughput
    out["trace.overhead_rec_s"] = run.throughput - untraced
    return out, {n: median(v) for n, v in shares.items()}


# -- output -------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return "n/a"
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _number(v):
    return None if v is None else float(v)


def finish(bench, args) -> int:
    """Check every run, print the report and the JSON line; exit code."""
    wl = bench.wl
    print(f"# perfbench workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {wl.why}")
    print(f"# machine: {json.dumps(bench.fingerprint, sort_keys=True)}")
    if bench.failure:
        print("# unexpected error:\n# " + bench.failure.replace("\n", "\n# "))

    t0 = time.perf_counter()
    results = {tag: check(bench, run) for tag, run in bench.runs.items()}
    bench.phases["checks"] = time.perf_counter() - t0
    print("# phases: " + ", ".join(f"{k} {v:.2f} s"
                                 for k, v in bench.phases.items()))
    attempted = sum(r.fed for r in results.values())
    failed = sum(r.failed for r in results.values())
    correct = bool(results) and failed == 0 and not bench.failure \
        and "measured" in results and (not args.trace or "traced" in results)

    if bench.setups:
        cold = bench.session_s + bench.setups[0].load_s + bench.setups[0].deploy_s
        repeats = ", ".join(f"{s.load_s + s.deploy_s:.3f}"
                            for s in bench.setups)
        print(f"# set-up: session {bench.session_s:.3f} s; load+deploy per "
              f"repeat {repeats} s; cold (first) set-up {cold:.3f} s")
    warm = bench.runs.get("warmup")
    if warm is not None and not warm.error:
        print(f"# warm-up: {warm.stored} records in {warm.elapsed_s:.3f} s = "
              f"{warm.throughput:.1f} rec/s; batch times "
              + ", ".join(f"{t:.3f}" for t in warm.batch_times))
    for tag, run in bench.runs.items():
        r = results[tag]
        print(f"# check {tag}: fed {r.fed}, failed {r.failed}, "
              f"records_failed_ratio {r.failed / r.fed if r.fed else 0:.6g}"
              + "".join(f"; {n}" for n in r.notes))

    e2e = end_to_end(bench)
    units = END_TO_END
    run = bench.runs.get("measured")
    if run is not None:
        print(f"# measured: {run.n_records} records in "
              f"{len(run.batch_times)} batches; batch times "
              + ", ".join(f"{t:.3f}" for t in run.batch_times)
              + f"; host steal {100 * run.steal_share:.1f} % of CPU time")
        print(f"{'cpu_ms_per_record':34s} "
              f"{_fmt(e2e['cpu_ms_per_record']):>14s} ms  "
              f"({run.cpu_s:.2f} CPU s for {run.stored} records)")
        wall = {"throughput_rec_s": (run.throughput, "rec/s"),
                "refresh_period_p50_s": (median(run.batch_times), "s")}
        for k, (v, unit) in wall.items():
            print(f"{k:34s} {_fmt(v):>14s} {unit}")
        tail = tail_percentile(run.batch_times)
        if tail is None:
            print(f"{'refresh_period_tail_s':34s} {'omitted':>14s} s  "
                  f"({len(run.batch_times)} invocations: no percentile has "
                  "10 beyond it)")
        else:
            p, v, n = tail
            print(f"{'refresh_period_tail_s':34s} {v:14.6g} s  (p{p:g} of {n})")
        if run.client is not None and not run.error:
            vis = visibility(run.client.log,
                             [(t, vals) for t, _, vals in run.sink.writes])
            lat = sorted(vis.latencies)
            for p in (50, 90):
                name = f"update_visible_p{p}_s"
                v = nearest_rank(lat, p)[1] if lat else None
                print(f"{name:34s} {_fmt(v):>14s} s")
            print(f"# markers: sent {vis.sent}, seen {vis.seen}, superseded "
                  f"before any tweet saw them {vis.superseded}, never seen "
                  f"{vis.unseen}")
    for k in ("setup_s", "memory_mb"):
        print(f"{k:34s} {_fmt(e2e[k]):>14s} {units[k]}")
    if bench.memory:
        print("# memory: " + ", ".join(f"{k} {v:.1f}"
                                       for k, v in bench.memory.items()))
    ratio = failed / attempted if attempted else 1.0
    print(f"{'records_failed_ratio':34s} {ratio:14.6g} ratio")

    if args.trace:
        metrics, shares = per_layer(bench)
        punits = per_layer_units()
        traced = bench.runs.get("traced")
        if shares and traced is not None:
            batch = median(traced.batch_times)
            print(f"# traced run: median self time per computing job "
                  f"(batch {batch:.4f} s)")
            for name, v in sorted(shares.items(), key=lambda kv: -kv[1]):
                print(f"#   {LAYER_SPANS.get(name, name):40s} {v:10.4f} s "
                      f"{100 * v / batch:5.1f} %")
            print("# lsm_store.snapshot_s builds the lazy snapshot plan; its "
                  "merge executes inside predeploy.execute_s or "
                  "lsm_store.snapshot_pdf_s")
            out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                   "out")
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"spans-{wl.name}-{args.seed}.jsonl")
            bench.tracer.write(path)
            print(f"# spans: {path}")
        for k, u in punits.items():
            print(f"{k:44s} {_fmt(metrics[k]):>14s} {u}")
        final = {k: {"value": _number(metrics[k]), "unit": punits[k]}
                 for k in punits}
    else:
        final = {k: {"value": _number(e2e[k]), "unit": units[k]}
                 for k in units}

    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": final}))
    return 0 if correct else 1
