"""Shared plumbing for the table-reproduction jobs.

Each ``jobs/tableN.py`` exposes ``run(spark, ...) -> pandas.DataFrame``
(so tests can call it on the session fixture) plus a ``main()`` for
``spark-submit jobs/tableN.py``.
"""
from __future__ import annotations

import argparse
import os
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graph import edges as ged
from repro.graph import generators as gen

#: The paper's three evaluated decompositions with display labels.
DECOMPS: List[Tuple[str, int, int]] = [
    ("k-core", 1, 2),
    ("k-truss", 2, 3),
    ("(3,4)", 3, 4),
]


def build_session(app: str) -> SparkSession:
    """Session for standalone spark-submit runs (tests use the fixture)."""
    # PySpark reads PYSPARK_SUBMIT_ARGS when it launches the JVM, the only
    # point where the master and driver memory can still be set.
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "16")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )


def load_graph(spark: SparkSession, name: str, scale: str) -> DataFrame:
    """Suite graph as a canonical Spark edge DataFrame."""
    return ged.from_pandas(spark, gen.load(name, scale))


def graph_names(only: Optional[List[str]] = None) -> List[str]:
    names = list(gen.PAPER_NAMES)
    if only:
        unknown = set(only) - set(names)
        if unknown:
            raise ValueError(f"unknown graphs: {sorted(unknown)}")
        return [n for n in names if n in set(only)]
    return names


@contextmanager
def timed() -> Iterator[dict]:
    """``with timed() as t: ...`` then ``t['s']`` is elapsed seconds."""
    box = {}
    t0 = time.perf_counter()
    yield box
    box["s"] = time.perf_counter() - t0


def print_table(df: pd.DataFrame, title: str) -> None:
    print(f"\n== {title} ==")
    with pd.option_context("display.width", 200, "display.max_columns", 50):
        print(df.to_string(index=False))


def std_parser(desc: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=desc)
    p.add_argument("--scale", default="bench", choices=["unit", "bench"])
    p.add_argument("--graphs", nargs="*", default=None,
                   help="suite graph names (default: all)")
    return p
