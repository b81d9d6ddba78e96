"""Spark SND — the synchronous update operator 𝒰 as Catalyst dataflow.

Each iteration of Algorithm 2 is one plain sweep of 𝒰 over every r-clique
(:func:`_sweep`, four shuffles):

1. ``membership ⋈ τ``, then per s-clique one sorted
   ``collect_list(struct(τ, rid))`` (member count is C(s, r) <= 6);
2. exploding that list gives every (r-clique, s-clique) pair its
   ρ(S, R) = min over the other members' τ from the two smallest τs, without
   a UDF or a join back on ``sid``: ρ = arr[0] if τ(R) > arr[0] else arr[1];
3. per r-clique, H({ρ}) = the length of the prefix of the descending ρs
   with ρ_i >= i, i from 1 (:func:`h_index_col`, a higher-order array filter).

:func:`_fixpoint` is the driver loop shared with Spark AND
(``repro.core.and_spark``): each sweep's output is left-joined onto τ once,
the joined (rid, τ, changed) table is the one checkpoint of the sweep, and
the loop stops when a sweep changes nothing. Skipping converged r-cliques
is AND's job (its block kernel), not SND's.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graph.cliques import Membership, membership, s_degree_df, unpack_exprs


def release(checkpoint: DataFrame) -> None:
    """Drop a ``localCheckpoint``'s cached blocks now.

    ``DataFrame.unpersist`` does not reach a local checkpoint: its blocks
    belong to the RDD under the checkpoint's plan and would stay until a
    JVM GC lets the ContextCleaner drop them. Call this on the checkpointed
    DataFrame itself, not on a projection of it.
    """
    checkpoint._jdf.queryExecution().analyzed().rdd().unpersist(False)


@dataclass
class DecompResult:
    """Outcome of a Spark decomposition run."""

    kappa: DataFrame  # columns: rid, v1..vr, kappa
    iterations: int

    def to_pandas(self) -> pd.DataFrame:
        return self.kappa.toPandas()


def _fixpoint(
    mem: Membership,
    mdf: DataFrame,
    sweep: Callable[[DataFrame], DataFrame],
    max_iter: Optional[int],
) -> DecompResult:
    """Iterate ``sweep`` (τ -> (rid, new_tau)) from the S-degrees to a fixpoint.

    ``mdf`` is the engine's checkpoint of ``mem.mdf``; the S-degrees are
    counted on it, so s-cliques are not enumerated again, and κ's vertex
    columns are unpacked from the rid, so r-cliques are enumerated once.
    ``iterations`` counts the sweeps that changed >= 1 τ; ``max_iter``
    stops early with the current τ, an upper bound on κ.
    """
    tau = s_degree_df(replace(mem, mdf=mdf)).select(
        "rid", F.col("deg").cast("long").alias("tau")
    ).localCheckpoint(eager=True)
    iters = 0
    while max_iter is None or iters < max_iter:
        # r-cliques in no s-clique are missing from the sweep output: they
        # keep their τ through the coalesce, and ``changed`` is null.
        prev, cur = tau, tau.select("rid", "tau")
        tau = (
            cur.join(sweep(cur), "rid", "left")
            .select(
                "rid",
                F.coalesce(F.col("new_tau"), F.col("tau")).alias("tau"),
                (F.col("new_tau") != F.col("tau")).alias("changed"),
            )
            .localCheckpoint(eager=True)
        )
        release(prev)
        if tau.where("changed").isEmpty():
            break
        iters += 1

    vcols = unpack_exprs(F.col("rid"), mem.width, mem.r)
    kappa = tau.select(
        "rid",
        *[c.alias(f"v{i + 1}") for i, c in enumerate(vcols)],
        F.col("tau").alias("kappa"),
    )
    return DecompResult(kappa=kappa, iterations=iters)


def h_index_col(values: Column) -> Column:
    """H of an array column: the number of leading descending values
    v_i (0-based i) with v_i >= i + 1."""
    desc = F.sort_array(values, asc=False)
    return F.size(F.filter(desc, lambda v, i: v >= i + 1)).cast("long")


def _sweep(mdf: DataFrame, tau: DataFrame) -> DataFrame:
    """One 𝒰 application over every r-clique; returns (rid, new_tau)."""
    members = mdf.join(tau, "rid").groupBy("sid").agg(
        F.sort_array(F.collect_list(F.struct("tau", "rid"))).alias("m")
    )
    lo, hi = F.col("m")[0]["tau"], F.col("m")[1]["tau"]
    rho = members.select(
        lo.alias("lo"), hi.alias("hi"), F.explode("m").alias("x")
    ).select(
        F.col("x.rid").alias("rid"),
        F.when(F.col("x.tau") > F.col("lo"), F.col("lo"))
        .otherwise(F.col("hi"))
        .alias("rho"),
    )
    return rho.groupBy("rid").agg(
        h_index_col(F.collect_list("rho")).alias("new_tau")
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
    res = _fixpoint(mem, mdf, lambda tau: _sweep(mdf, tau), max_iter)
    release(mdf)
    return res
