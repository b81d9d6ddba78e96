"""Table 3 reproduction: dataset statistics |V|, |E|, |△|, |K4|.

The paper reports these for its 10 SNAP/NetworkRepository graphs; we
report them for the synthetic analogue suite (DESIGN.md §3). Counts are
computed with the distributed enumeration in ``repro.graph.cliques``.
"""
from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):  # spark-submit / plain-python execution
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pandas as pd
from pyspark.sql import SparkSession

from jobs.common import build_session, graph_names, load_graph, print_table, std_parser
from repro.graph import generators as gen
from repro.graph.cliques import graph_counts


def run(spark: SparkSession, scale: str = "bench", graphs=None) -> pd.DataFrame:
    rows = []
    for name in graph_names(graphs):
        E = load_graph(spark, name, scale)
        c = graph_counts(E)
        rows.append(
            {
                "graph": name,
                "paper_graph": gen.PAPER_NAMES[name],
                "V": c["V"],
                "E": c["E"],
                "triangles": c["tri"],
                "K4": c["K4"],
            }
        )
    return pd.DataFrame(rows)


def main() -> None:
    args = std_parser(__doc__).parse_args()
    spark = build_session("table3")
    df = run(spark, scale=args.scale, graphs=args.graphs)
    print_table(df, f"Table 3 (dataset statistics, scale={args.scale})")
    spark.stop()


if __name__ == "__main__":
    main()
