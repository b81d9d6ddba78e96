"""Spark SND — the synchronous update operator 𝒰 as Catalyst dataflow.

Each iteration of Algorithm 2 is one plain sweep of 𝒰 over every r-clique:

1. ``membership ⋈ τ``           — attach current τ to every (s-clique, member) row;
2. per s-clique, the two smallest member τs (``sort_array(collect_list)``,
   member count is C(s, r) <= 6) give ρ(S, R) = min-over-others without a UDF:
   ρ = arr[0] if τ(R) > arr[0] else arr[1];
3. per r-clique, H({ρ}) = max(least(row_number_desc, ρ)) via a window.

:func:`_fixpoint` is the driver loop shared with Spark AND
(``repro.core.and_spark``): it diffs each sweep's output against τ, merges
the changed rows, and repeats until a sweep changes nothing. Skipping
converged r-cliques is AND's job (its block kernel), not SND's.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from repro.graph.cliques import Membership, membership, s_degree_df


@dataclass
class DecompResult:
    """Outcome of a Spark decomposition run."""

    kappa: DataFrame  # columns: rid, v1..vr, kappa
    iterations: int

    def to_pandas(self) -> pd.DataFrame:
        return self.kappa.toPandas()


def _fixpoint(
    mem: Membership,
    sweep: Callable[[DataFrame], DataFrame],
    max_iter: Optional[int],
) -> DecompResult:
    """Iterate ``sweep`` (τ -> (rid, new_tau)) from the S-degrees to a fixpoint.

    ``iterations`` counts the sweeps that changed >= 1 τ; ``max_iter``
    stops early with the current τ, an upper bound on κ.
    """
    tau = s_degree_df(mem).select("rid", F.col("deg").cast("long").alias("tau"))
    tau = tau.localCheckpoint(eager=True)
    iters = 0
    while max_iter is None or iters < max_iter:
        updates = (
            sweep(tau).join(tau, "rid")
            .where(F.col("new_tau") != F.col("tau"))
            .select("rid", "new_tau")
            .localCheckpoint(eager=True)
        )
        if updates.count() == 0:
            updates.unpersist(False)
            break
        prev_tau = tau
        tau = tau.join(updates, "rid", "left").select(
            "rid", F.coalesce(F.col("new_tau"), F.col("tau")).alias("tau")
        ).localCheckpoint(eager=True)
        # The new τ is materialized; superseded checkpoint blocks can go
        # (without this, long runs leak the whole iteration history).
        prev_tau.unpersist(False)
        updates.unpersist(False)
        iters += 1

    vcols = [f"v{i + 1}" for i in range(mem.r)]
    kappa = mem.rdf.join(tau, "rid").select(
        "rid", *vcols, F.col("tau").alias("kappa")
    )
    return DecompResult(kappa=kappa, iterations=iters)


def _sweep(mdf: DataFrame, tau: DataFrame) -> DataFrame:
    """One 𝒰 application over every r-clique; returns (rid, new_tau)."""
    j = mdf.join(tau, "rid")
    arrs = j.groupBy("sid").agg(F.sort_array(F.collect_list("tau")).alias("arr"))
    rho_rows = j.join(arrs, "sid").select(
        "rid",
        F.when(F.col("tau") > F.col("arr")[0], F.col("arr")[0])
        .otherwise(F.col("arr")[1])
        .alias("rho"),
    )
    w = Window.partitionBy("rid").orderBy(F.desc("rho"))
    ranked = rho_rows.select(
        "rid", "rho", F.row_number().over(w).alias("rn")
    )
    return ranked.groupBy("rid").agg(
        F.max(F.least(F.col("rn"), F.col("rho"))).alias("new_tau")
    )


def snd(
    spark: SparkSession,
    edges: DataFrame,
    r: int,
    s: int,
    max_iter: Optional[int] = None,
    mem: Optional[Membership] = None,
) -> DecompResult:
    """Synchronous nucleus decomposition (Algorithm 2) on Spark.

    ``mem`` lets callers reuse a prebuilt membership (benchmarks time
    the iteration phase separately from clique enumeration).
    """
    mem = mem or membership(edges, r, s)
    mdf = mem.mdf.localCheckpoint(eager=True)
    return _fixpoint(mem, lambda tau: _sweep(mdf, tau), max_iter)
