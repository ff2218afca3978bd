"""Decoupled pipeline: intake/compute/storage layering end-to-end."""
import threading

import pytest

from repro.core import pipeline as pipeline_mod
from repro.core.pipeline import DecoupledPipeline
from repro.enrich import java_udfs, udfs
from repro.storage.lsm_store import LsmStore
from repro.storage.sink import StorageSink


@pytest.fixture()
def ratings_store(spark, tmp_path, ref_pdfs):
    store = LsmStore(str(tmp_path / "ratings"), key="country_code")
    store.bulk_load(spark, ref_pdfs["safety_ratings"])
    return store


def _sink(spark, tmp_path, name="out"):
    return StorageSink(spark, str(tmp_path / name), key="id")


def test_pipeline_no_udf_moves_all_records(spark, tmp_path):
    sink = _sink(spark, tmp_path)
    stats = DecoupledPipeline(spark, None, {}, sink).run(100, batch_size=30)
    assert stats.frames_intaken == 100
    assert stats.batches_computed == 4  # 30+30+30+10
    assert stats.batches_stored == 4
    ids = sorted(r.id for r in sink.read().select("id").collect())
    assert ids == list(range(100))


def test_pipeline_with_sqlpp_udf(spark, tmp_path, ratings_store):
    sink = _sink(spark, tmp_path)
    p = DecoupledPipeline(
        spark, udfs.SAFETY_RATING, {"safety_ratings": ratings_store}, sink
    )
    stats = p.run(60, batch_size=20)
    assert stats.report.framework == "dynamic-decoupled"
    back = sink.read().toPandas()
    assert len(back) == 60
    assert "safety_rating" in back.columns
    assert (back["safety_rating"] != "").all()


def test_pipeline_with_java_udf(spark, tmp_path, ratings_store):
    sink = _sink(spark, tmp_path)
    p = DecoupledPipeline(
        spark, java_udfs.SafetyRatingJava(),
        {"safety_ratings": ratings_store}, sink,
    )
    stats = p.run(40, batch_size=20)
    assert stats.batches_computed == 2
    assert sink.rows_written == 40


def test_pipeline_tiny_holder_capacity_backpressure(spark, tmp_path):
    """capacity=1 forces strict hand-over-hand flow; must still drain."""
    sink = _sink(spark, tmp_path)
    p = DecoupledPipeline(spark, None, {}, sink, holder_capacity=1)
    stats = p.run(80, batch_size=10)
    assert stats.batches_stored == 8
    assert sink.rows_written == 80


def test_pipeline_partial_last_batch(spark, tmp_path):
    sink = _sink(spark, tmp_path)
    stats = DecoupledPipeline(spark, None, {}, sink).run(25, batch_size=10)
    assert stats.batches_computed == 3
    assert sink.rows_written == 25


def test_pipeline_holders_unregistered_after_run(spark, tmp_path):
    sink = _sink(spark, tmp_path)
    p = DecoupledPipeline(spark, None, {}, sink)
    p.run(20, batch_size=10)
    assert len(p.manager) == 0


def test_pipeline_report_timings(spark, tmp_path):
    sink = _sink(spark, tmp_path)
    stats = DecoupledPipeline(spark, None, {}, sink).run(40, batch_size=10)
    r = stats.report
    assert r.n_records == 40
    assert len(r.batch_times) == 4
    assert r.throughput > 0
    assert r.refresh_rate > 0


class _Injected(Exception):
    pass


class _FailingJavaUdf:
    """A Java-style UDF whose third evaluation raises."""

    name = "failing"
    refs = ()

    def __init__(self):
        self.calls = 0

    def initialize(self, resources):
        pass

    def evaluate(self, batch):
        self.calls += 1
        if self.calls == 3:
            raise _Injected("udf")
        return batch


class _FailingSink(StorageSink):
    def append_pdf_local(self, pdf):
        raise _Injected("sink")


PIPELINE_THREADS = ("intake-job", "active-holder-storage")


@pytest.mark.parametrize("layer", ["parser", "udf", "sink"])
def test_pipeline_failure_surfaces_and_shuts_down(spark, tmp_path, monkeypatch,
                                                  layer):
    """A layer raising mid-feed, with both holders full, surfaces its error
    within 30 s and leaves no pipeline thread running."""
    udf = _FailingJavaUdf() if layer == "udf" else None
    sink = (_FailingSink if layer == "sink" else StorageSink)(
        spark, str(tmp_path / "out"), key="id")
    if layer == "parser":
        class FailingParser(pipeline_mod.TweetParser):
            parsed = 0

            def parse(self, frame):
                FailingParser.parsed += 1
                if FailingParser.parsed == 3:
                    raise _Injected("parser")
                return super().parse(frame)

        monkeypatch.setattr(pipeline_mod, "TweetParser", FailingParser)
    p = DecoupledPipeline(spark, udf, {}, sink, holder_capacity=1)
    before = set(threading.enumerate())
    outcome = []

    def target():
        try:
            p.run(5000, batch_size=10)
        except Exception as e:
            outcome.append(e)

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(30)
    assert not t.is_alive(), "pipeline did not shut down within 30 s"
    err = outcome[0]
    if layer == "sink":
        assert isinstance(err, RuntimeError)
        err = err.__cause__
    assert isinstance(err, _Injected) and str(err) == layer
    alive = [th.name for th in set(threading.enumerate()) - before
             if th.name in PIPELINE_THREADS]
    assert alive == []
    assert len(p.manager) == 0
