"""Convergence-quality experiment (paper §5.2, Figures 1/6/7 machinery).

For each graph × decomposition, runs SND with τ-history and reports the
strict Kendall-Tau similarity and accuracy of τ_i against κ_s per
iteration, plus the iterations needed to reach 90% / 99% similarity.
Figures are out of scope; this harness produces the numbers behind the
paper's §5.2 claims (90% similarity within a handful of iterations).
"""
from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):  # spark-submit / plain-python execution
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pandas as pd
from pyspark.sql import SparkSession

from jobs.common import DECOMPS, build_session, graph_names, load_graph, print_table, std_parser
from jobs.table4 import nucleus_for
from repro.core import seq
from repro.core.convergence import accuracy, kendall_tau_strict


def run(spark: SparkSession, scale: str = "bench", graphs=None) -> pd.DataFrame:
    rows = []
    for name in graph_names(graphs):
        E = load_graph(spark, name, scale)
        for label, r, s in DECOMPS:
            nuc, _, _ = nucleus_for(spark, E, r, s)
            kappa = seq.peel(nuc)
            _, iters, hist = seq.snd_seq(nuc, track_history=True)
            kt = [kendall_tau_strict(t, kappa) for t in hist]
            acc = [accuracy(t, kappa) for t in hist]
            first90 = next((i for i, v in enumerate(kt) if v >= 0.90), iters)
            first99 = next((i for i, v in enumerate(kt) if v >= 0.99), iters)
            rows.append(
                {
                    "graph": name,
                    "decomposition": label,
                    "iters_total": iters,
                    "kt_iter0": round(kt[0], 3),
                    "kt_iter1": round(kt[min(1, len(kt) - 1)], 3),
                    "kt_iter5": round(kt[min(5, len(kt) - 1)], 3),
                    "acc_iter5": round(acc[min(5, len(acc) - 1)], 3),
                    "iters_to_90pct": first90,
                    "iters_to_99pct": first99,
                }
            )
    return pd.DataFrame(rows)


def main() -> None:
    args = std_parser(__doc__).parse_args()
    spark = build_session("convergence")
    df = run(spark, scale=args.scale, graphs=args.graphs)
    print_table(df, f"Convergence quality (scale={args.scale})")
    spark.stop()


if __name__ == "__main__":
    main()
