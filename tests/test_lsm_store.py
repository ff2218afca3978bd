"""LSM reference store: component life-cycle and merge semantics."""
import re

import numpy as np
import pandas as pd
import pytest

from repro.storage.lsm_store import LsmStore, build_stores


@pytest.fixture()
def base_pdf():
    return pd.DataFrame(
        {"k": ["a", "b", "c"], "val": ["1", "2", "3"]}
    )


def _snap(store, spark):
    return (
        store.snapshot(spark).toPandas().sort_values("k").reset_index(drop=True)
    )


def test_bulk_load_roundtrip(spark, tmp_path, base_pdf):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    got = _snap(store, spark)
    pd.testing.assert_frame_equal(got, base_pdf)


def test_bulk_load_rejects_duplicate_keys(spark, tmp_path):
    store = LsmStore(str(tmp_path / "s"), key="k")
    with pytest.raises(ValueError, match="duplicate"):
        store.bulk_load(spark, pd.DataFrame({"k": ["a", "a"], "val": ["1", "2"]}))


def test_empty_store_snapshot_raises(spark, tmp_path):
    store = LsmStore(str(tmp_path / "s"), key="k")
    with pytest.raises(RuntimeError, match="bulk_load"):
        store.snapshot(spark)


def test_upsert_replaces_by_key(spark, tmp_path, base_pdf):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    store.upsert(pd.DataFrame({"k": ["b"], "val": ["2x"]}))
    got = _snap(store, spark)
    assert list(got["val"]) == ["1", "2x", "3"]


def test_upsert_inserts_new_key(spark, tmp_path, base_pdf):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    store.upsert(pd.DataFrame({"k": ["d"], "val": ["4"]}))
    got = _snap(store, spark)
    assert list(got["k"]) == ["a", "b", "c", "d"]


def test_newest_wins_across_multiple_upserts(spark, tmp_path, base_pdf):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    for v in ["x", "y", "z"]:
        store.upsert(pd.DataFrame({"k": ["a"], "val": [v]}))
    got = _snap(store, spark)
    assert got.loc[got["k"] == "a", "val"].item() == "z"


def test_memory_component_activation(spark, tmp_path, base_pdf):
    """§ 7.3's mechanism: any update activates the in-memory component."""
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    assert not store.memory_component_active
    assert store.buffered_updates == 0
    store.upsert(pd.DataFrame({"k": ["a"], "val": ["x"]}))
    assert store.memory_component_active
    assert store.buffered_updates == 1


def test_flush_moves_memory_to_disk(spark, tmp_path, base_pdf):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    store.upsert(pd.DataFrame({"k": ["a"], "val": ["x"]}))
    store.flush(spark)
    assert not store.memory_component_active
    got = _snap(store, spark)
    assert got.loc[got["k"] == "a", "val"].item() == "x"


def test_flush_empty_memory_is_noop(spark, tmp_path, base_pdf):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    store.flush(spark)
    pd.testing.assert_frame_equal(_snap(store, spark), base_pdf)


def test_snapshot_is_point_in_time(spark, tmp_path, base_pdf):
    """Record-level consistency (footnote 4): a snapshot taken before an
    update keeps showing the pre-update state; the next snapshot sees it."""
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    snap_before = store.snapshot(spark)
    store.upsert(pd.DataFrame({"k": ["a"], "val": ["NEW"]}))
    before = snap_before.toPandas().sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(before, base_pdf)
    after = _snap(store, spark)
    assert after.loc[after["k"] == "a", "val"].item() == "NEW"


def test_quiescent_store_has_no_version_column(spark, tmp_path, base_pdf):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    assert set(store.snapshot(spark).columns) == {"k", "val"}
    store.upsert(pd.DataFrame({"k": ["a"], "val": ["x"]}))
    assert set(store.snapshot(spark).columns) == {"k", "val"}


def test_build_stores(spark, tmp_path):
    pdfs = {
        "t1": pd.DataFrame({"a": [1, 2], "v": ["x", "y"]}),
        "t2": pd.DataFrame({"b": [3], "w": ["z"]}),
    }
    stores = build_stores(spark, str(tmp_path), pdfs, {"t1": "a", "t2": "b"})
    assert set(stores) == {"t1", "t2"}
    assert stores["t1"].snapshot(spark).count() == 2
    assert stores["t2"].key == "b"


def _exchanges(df) -> list[str]:
    """Shuffle exchanges in the plan ``df`` executed (AQE's final plan)."""
    df.collect()
    plan = df._jdf.queryExecution().executedPlan()
    if plan.getClass().getSimpleName() == "AdaptiveSparkPlanExec":
        plan = plan.executedPlan()
    return re.findall(r"^[\s+\-:*|]*(Exchange .*)$", plan.toString(), re.M)


def test_snapshot_plan_single_component_has_no_shuffle(spark, tmp_path, base_pdf):
    """A quiescent store reads as a bare parquet scan: no fixed-width
    repartition on every reference read."""
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    assert _exchanges(store.snapshot(spark)) == []


def test_snapshot_plan_memory_component_has_one_shuffle(spark, tmp_path, base_pdf):
    """With a memory component the only shuffle is the newest-wins window's."""
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    store.upsert(pd.DataFrame({"k": ["a"], "val": ["x"]}))
    (exchange,) = _exchanges(store.snapshot(spark))
    assert exchange.startswith("Exchange hashpartitioning(k#")


def test_same_key_rows_in_one_upsert_last_wins(spark, tmp_path, base_pdf):
    store = LsmStore(str(tmp_path / "s"), key="k")
    store.bulk_load(spark, base_pdf)
    store.upsert(pd.DataFrame({"k": ["a", "b", "a"], "val": ["x", "y", "z"]}))
    assert store.buffered_updates == 2
    got = _snap(store, spark)
    assert list(got["val"]) == ["z", "y", "3"]


@pytest.mark.parametrize("bulk_load", [True, False])
def test_snapshot_matches_dict_model(spark, tmp_path, bulk_load):
    """Newest-wins against a plain dict across bulk load, upserts that
    repeat keys within and across calls, and flushes."""
    rng = np.random.default_rng(11)
    keys = [f"k{i:02d}" for i in range(10)]
    store = LsmStore(str(tmp_path / "s"), key="k")
    model = {}
    if bulk_load:
        base = pd.DataFrame({"k": keys[:6], "val": [f"b{i}" for i in range(6)]})
        store.bulk_load(spark, base)
        model.update(zip(base["k"], base["val"]))
    seq = 0
    for step in range(6):
        ks = [*rng.choice(keys, 5), keys[step]]    # keys[step] may repeat
        ks.append(ks[0])                           # ks[0] repeats for sure
        vals = [f"u{seq + j}" for j in range(len(ks))]
        seq += len(ks)
        store.upsert(pd.DataFrame({"k": ks, "val": vals}))
        model.update(zip(ks, vals))
        if step in (2, 4):
            store.flush(spark)
        got = store.snapshot(spark).toPandas()
        assert len(got) == len(model), f"duplicate keys after step {step}"
        assert dict(zip(got["k"], got["val"])) == model, f"step {step}"
