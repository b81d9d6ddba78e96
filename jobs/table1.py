"""Table 1 reproduction: (3,4) runtime, peeling vs local, three graphs.

Table 1 is the headline subset of Table 5 — the (3,4) nucleus
decomposition on twitter, web-NotreDame and wikipedia-200611, which map
to ``tw-lite``, ``wnd-lite`` and ``wiki-lite`` in the suite.
"""
from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):  # spark-submit / plain-python execution
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pandas as pd
from pyspark.sql import SparkSession

from jobs import table5
from jobs.common import build_session, print_table, std_parser

GRAPHS = ["tw-lite", "wnd-lite", "wiki-lite"]


def run(spark: SparkSession, scale: str = "bench") -> pd.DataFrame:
    return table5.run(
        spark, scale=scale, graphs=GRAPHS, decomps=[("(3,4)", 3, 4)]
    )


def main() -> None:
    args = std_parser(__doc__).parse_args()
    spark = build_session("table1")
    df = run(spark, scale=args.scale)
    print_table(df, f"Table 1 ((3,4) runtime, scale={args.scale})")
    spark.stop()


if __name__ == "__main__":
    main()
