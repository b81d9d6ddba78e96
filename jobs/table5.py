"""Table 5 reproduction: runtime, peeling vs the local algorithm.

Per graph × {k-core, k-truss, (3,4)} we report two complementary views:

**Measured wall-clock** (both sides end-to-end, enumeration included):

* ``peel_s``  — the paper-style peeling baseline: Spark-parallel clique
  enumeration + sequential driver peel (the authors likewise
  parallelize only the counting phase);
* ``local_s`` — the local algorithm: the same Spark enumeration +
  block-asynchronous AND iterations on Spark (Algorithm 3);
* ``speedup`` = peel_s / local_s, the paper's Table-5 metric.

**Dataflow round counts** (machine-independent, what the paper's
"peeling needs global information at every step" argument is about):

* ``peel_rounds`` — synchronized removal waves a distributed bulk peel
  needs (simulated exactly, see ``repro.core.seq.bulk_peel_rounds``);
* ``local_iters`` — outer iterations the local algorithm needs: Spark
  rounds that changed a τ, each a block-local fixpoint.

Absolute times are not comparable with the paper's C++/OpenMP testbed;
see EXPERIMENTS.md for the paper-vs-ours discussion of both views.
"""
from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):  # spark-submit / plain-python execution
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pandas as pd
from pyspark.sql import SparkSession

from jobs.common import (
    DECOMPS, build_session, graph_names, load_graph, print_table, std_parser, timed,
)
from jobs.table4 import nucleus_for
from repro.core import seq
from repro.core.and_spark import and_block
from repro.core.peel_spark import peel_baseline
from repro.graph.cliques import membership


def run(
    spark: SparkSession,
    scale: str = "bench",
    graphs=None,
    decomps=None,
    progress_csv=None,
) -> pd.DataFrame:
    rows = []
    for name in graph_names(graphs):
        E = load_graph(spark, name, scale).localCheckpoint(eager=True)
        for label, r, s in decomps or DECOMPS:
            print(f"[table5] {name} {label} ...", file=sys.stderr, flush=True)
            with timed() as t_peel:
                mem = membership(E, r, s)
                base = peel_baseline(spark, E, r, s, mem=mem)
            with timed() as t_local:
                mem2 = membership(E, r, s)
                res = and_block(spark, E, r, s, mem=mem2)
                res.kappa.count()  # materialize the result
            nuc, _, _ = nucleus_for(spark, E, r, s)
            rows.append(
                {
                    "graph": name,
                    "decomposition": label,
                    "peel_s": round(t_peel["s"], 3),
                    "local_s": round(t_local["s"], 3),
                    "speedup": round(t_peel["s"] / t_local["s"], 4),
                    "peel_rounds": seq.bulk_peel_rounds(nuc),
                    "local_iters": len(res.changed),
                    "n_r": len(base),
                }
            )
            print(f"[table5] {name} {label}: {rows[-1]}", file=sys.stderr, flush=True)
            if progress_csv:
                pd.DataFrame(rows).to_csv(progress_csv, index=False)
    return pd.DataFrame(rows)


def main() -> None:
    args = std_parser(__doc__).parse_args()
    spark = build_session("table5")
    df = run(spark, scale=args.scale, graphs=args.graphs,
             progress_csv="results/table5_partial.csv")
    print_table(df, f"Table 5 (runtime peeling vs local, scale={args.scale})")
    spark.stop()


if __name__ == "__main__":
    main()
