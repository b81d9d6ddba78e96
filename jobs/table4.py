"""Table 4 reproduction: iterations to convergence.

For every graph × {k-core, k-truss, (3,4)} we report

* ``levels``   — the degree-levels upper bound (Definition 6 / §3.1),
* ``snd``      — iterations of the synchronous algorithm (Algorithm 2),
* ``and``      — iterations of the asynchronous algorithm (Algorithm 3)
                 in the natural (ascending-id) processing order, as in
                 the paper's sequential Table-4 runs.

Clique enumeration runs on Spark; the iteration counting itself is
machine-independent so it runs on the collected structure (the Spark
SND's counts are test-verified equal to the sequential SND's).
"""
from __future__ import annotations

import sys
from math import comb
from pathlib import Path

if __package__ in (None, ""):  # spark-submit / plain-python execution
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pandas as pd
from pyspark.sql import SparkSession

from jobs.common import (
    DECOMPS, build_session, graph_names, load_graph, print_table, std_parser,
)
from repro.core import seq
from repro.graph.cliques import membership


def nucleus_for(spark: SparkSession, E, r: int, s: int):
    """Collected Nucleus built from the Spark membership tables."""
    import numpy as np

    mem = membership(E, r, s)
    rid_keys = mem.rdf.select("rid").toPandas()["rid"].to_numpy("int64")
    rid_keys.sort()
    nuc, keys = seq.nucleus_from_pandas_membership(
        rid_keys, mem.mdf.toPandas(), comb(s, r)
    )
    return nuc, keys, mem


def run(spark: SparkSession, scale: str = "bench", graphs=None) -> pd.DataFrame:
    rows = []
    for name in graph_names(graphs):
        E = load_graph(spark, name, scale)
        for label, r, s in DECOMPS:
            nuc, _, _ = nucleus_for(spark, E, r, s)
            levels = seq.degree_levels(nuc)
            _, snd_iters, _ = seq.snd_seq(nuc)
            _, and_iters, _, _ = seq.and_seq(nuc)
            rows.append(
                {
                    "graph": name,
                    "decomposition": label,
                    "degree_levels": levels,
                    "snd_iters": snd_iters,
                    "and_iters": and_iters,
                }
            )
    return pd.DataFrame(rows)


def main() -> None:
    args = std_parser(__doc__).parse_args()
    spark = build_session("table4")
    df = run(spark, scale=args.scale, graphs=args.graphs)
    print_table(df, f"Table 4 (iterations & bound, scale={args.scale})")
    spark.stop()


if __name__ == "__main__":
    main()
