"""Correctness gate for one pipeline run.

A fed record passes when it is stored exactly once, its feed columns
arrived unchanged, and its enrichment columns are right: equal to the
UDF's DuckDB ``oracle_sql`` over the reference data when nothing
updates the reference data, or accepted by a per-row rule (see
:func:`markers.row_ok`) when an update client runs. Stored records that
were never fed count as failures too.
"""
import os
from dataclasses import dataclass, field

import duckdb
import numpy as np
import pandas as pd

#: Feed columns the UDFs read; they must survive the feed unchanged.
FEED_COLS = ("country", "latitude", "longitude")


@dataclass
class CheckResult:
    fed: int
    failed: int
    notes: list = field(default_factory=list)


def read_stored(path: str) -> pd.DataFrame:
    files = [f for f in os.listdir(path) if f.endswith(".parquet")]
    if not files:
        return pd.DataFrame(columns=["id"])
    return pd.read_parquet(path)


def oracle(sql: str, tables: dict, temp_dir: str) -> pd.DataFrame:
    con = duckdb.connect()
    try:
        con.execute(f"SET temp_directory = '{temp_dir}'")
        for name, pdf in tables.items():
            con.register(name, pdf)
        return con.execute(sql).fetchdf()
    finally:
        con.close()


def _equal(a: pd.Series, b: pd.Series) -> np.ndarray:
    if pd.api.types.is_float_dtype(a) or pd.api.types.is_float_dtype(b):
        return np.isclose(a.astype(float), b.astype(float), rtol=1e-9,
                          atol=1e-6)
    return (a.astype(str) == b.astype(str)).to_numpy()


def check_run(stored: pd.DataFrame, fed: pd.DataFrame, enrich_cols,
              expected: pd.DataFrame | None = None, row_rule=None
              ) -> CheckResult:
    """Gate one run's stored records against what was fed.

    ``expected`` holds ``id`` plus ``enrich_cols`` from the oracle;
    ``row_rule(stored_row_frame) -> bool array`` replaces it when the
    reference data changes during the run.
    """
    notes = []
    fed_ids = set(fed["id"].tolist())
    counts = stored["id"].value_counts()
    once = set(counts.index[counts == 1].tolist())
    bad = fed_ids - once
    if bad:
        notes.append(f"{len(bad)} fed records not stored exactly once")
    extra = set(counts.index.tolist()) - fed_ids
    if extra:
        notes.append(f"{len(extra)} stored records were never fed")

    got = stored[stored["id"].isin(once & fed_ids)]
    merged = fed.merge(got, on="id", suffixes=("_fed", ""))
    ok = np.ones(len(merged), dtype=bool)
    for col in FEED_COLS:
        ok &= _equal(merged[f"{col}_fed"], merged[col])
    if not ok.all():
        notes.append(f"{int((~ok).sum())} records changed in the feed")
    if expected is not None:
        merged = merged.merge(expected, on="id", how="left",
                              suffixes=("", "_oracle"))
        for col in enrich_cols:
            good = _equal(merged[col], merged[f"{col}_oracle"])
            if not good.all():
                notes.append(f"{int((~good).sum())} records differ from the "
                             f"oracle in {col}")
            ok &= good
    if row_rule is not None:
        good = row_rule(merged)
        if not good.all():
            notes.append(f"{int((~good).sum())} records carry a value the "
                         "store could not have served")
        ok &= good
    bad |= set(merged["id"][~ok].tolist())
    return CheckResult(len(fed_ids), len(bad) + len(extra), notes)
