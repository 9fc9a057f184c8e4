"""Local replica of the driver's verify loop.

Runs ``entry()`` as a smoke check, then every ``queries()`` entry at the
given sf_dir; entries with an ``oracle_sql()`` string are compared
against DuckDB on row-count, column names and an order-insensitive
value hash (columns sorted by name, rows sorted, floats as-is — the
queries themselves are responsible for rounding).

Usage: python tools/driver_check.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

import duckdb
import pandas as pd

# the checkout this file lives in, so a copy checks its own code
ROOT = Path(__file__).resolve().parents[1]
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(result, rd.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        df[c] = df[c].astype(str)
    rows = sorted(df.itertuples(index=False, name=None))
    h = hashlib.sha256()
    for r in rows:
        h.update("\x1f".join(r).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, str(ROOT))
    import __ray_entry__ as entrymod

    t0 = time.time()
    res = to_pandas(entrymod.entry())
    print(f"entry(): {len(res)} rows, schema={list(res.columns)}, "
          f"{time.time() - t0:.1f}s")

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    queries = entrymod.queries()
    oracles = entrymod.oracle_sql()
    n_fail = 0
    for name, fn in queries.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows={len(got)} (rows-only) {dt:.1f}s")
            continue
        exp = con.execute(oracles[name]).fetchdf()
        problems = []
        if len(got) != len(exp):
            problems.append(f"rows {len(got)} != {len(exp)}")
        if sorted(got.columns) != sorted(exp.columns):
            problems.append(f"cols {sorted(got.columns)} != {sorted(exp.columns)}")
        elif value_hash(got) != value_hash(exp):
            problems.append("value-hash mismatch")
        if problems:
            n_fail += 1
            print(f"FAIL {name}: {'; '.join(problems)} {dt:.1f}s")
            if "value-hash mismatch" in problems:
                g = got[sorted(got.columns)].sort_values(sorted(got.columns)).head(5)
                e = exp[sorted(exp.columns)].sort_values(sorted(exp.columns)).head(5)
                print("  got:\n", g.to_string(), "\n  exp:\n", e.to_string())
        else:
            print(f"ok   {name}: rows={len(got)} oracle-match {dt:.1f}s")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
