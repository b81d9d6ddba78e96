"""Spark SND — the synchronous update operator 𝒰 as Catalyst dataflow.

The iterated state is one table ``(rid, tau, sids)``: each r-clique's τ
and the ids of its s-cliques. 𝒰 is local — τ(R) is updated from R's own
s-cliques and nothing else — so the incidence travels with τ, as a
vertex-centric system keeps each vertex's edges with its value (Pregel),
and a sweep reads the state alone, with no join. One sweep of Algorithm 2
(:func:`_sweep`) is two shuffles:

1. explode ``sids`` and, per s-clique, build one sorted
   ``collect_list(struct(tau, rid))`` (member count is C(s, r) <= 6;
   :data:`MEMBERS_SQL`, shared with Spark AND);
2. exploding that list gives every (r-clique, s-clique) pair its
   ρ(S, R) = min over the other members' τ from the two smallest τs:
   ρ = m[0] if τ(R) > m[0] else m[1]; per r-clique, H({ρ}) is the length
   of the prefix of the descending ρs with ρ_i >= i, i from 1 (a
   higher-order array filter), and the sids are collected back.

:func:`_fixpoint` is the driver loop shared with Spark AND
(``repro.core.and_spark``): the sweep output, plus the r-cliques in no
s-clique, coalesced to τ₀'s partition count, is the one checkpoint of the
sweep, and the rows it changed are counted by an ``Observation`` on that
checkpoint's own job; the loop stops when a sweep changes nothing. The
sweeps are built from SQL text, which Spark analyses once, instead of
DataFrame calls that each cost py4j round trips and a re-analysis.
Skipping converged r-cliques is AND's job (its block kernel), not SND's.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import pandas as pd
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F

from repro.graph.cliques import Membership, membership, s_degree_df, unpack_exprs


def _rdd(checkpoint: DataFrame):
    """The JVM RDD that holds a ``localCheckpoint``'s blocks."""
    return checkpoint._jdf.queryExecution().analyzed().rdd()


def release(checkpoint: DataFrame) -> None:
    """Drop a ``localCheckpoint``'s cached blocks now.

    ``DataFrame.unpersist`` does not reach a local checkpoint: its blocks
    belong to the RDD under the checkpoint's plan and would stay until a
    JVM GC lets the ContextCleaner drop them. Call this on the checkpointed
    DataFrame itself, not on a projection of it. The blocks are dropped
    through the SparkContext because ``RDD.unpersist`` logs a WARN for
    every locally checkpointed RDD.
    """
    rdd = _rdd(checkpoint)
    rdd.sparkContext().unpersistRDD(rdd.id(), False)


@dataclass
class DecompResult:
    """Outcome of a Spark decomposition run."""

    kappa: DataFrame  # columns: rid, v1..vr, kappa
    iterations: int
    changed: List[int]  # rows changed by each Spark round that changed >= 1 τ

    def to_pandas(self) -> pd.DataFrame:
        return self.kappa.toPandas()


# Shuffle 1 of every sweep: each s-clique's members, sorted by (τ, rid).
MEMBERS_SQL = """
SELECT sid, sort_array(collect_list(struct(tau, rid))) AS m
FROM (SELECT rid, tau, explode(sids) AS sid FROM {state})
GROUP BY sid
"""

# The sweep rows plus the r-cliques in no s-clique, which no sweep touches.
# The union has the partitions of both inputs; coalescing keeps the state
# from gaining the sweep output's partitions on every sweep.
_NEXT_SQL = """
SELECT /*+ COALESCE({parts}) */ * FROM (
  SELECT rid, tau, sids, changed FROM {out}
  UNION ALL
  SELECT rid, tau, sids, 0 AS changed FROM {state} WHERE size(sids) = 0
)
"""


def tau0(mem: Membership) -> DataFrame:
    """The checkpointed state before the first sweep: (rid, tau, sids)
    with τ the S-degree, from one query over ``mem``'s two tables."""
    return (
        s_degree_df(mem)
        .select("rid", F.col("deg").alias("tau"), "sids")
        .localCheckpoint(eager=True)
    )


def _fixpoint(
    mem: Membership,
    sweep: Callable[[DataFrame, Optional[int]], DataFrame],
    max_iter: Optional[int],
) -> DecompResult:
    """Iterate ``sweep`` from the S-degrees to a fixpoint.

    ``sweep(state, budget)`` is one Spark round. It maps the state (rid,
    tau, sids) to (rid, tau, sids, changed) for every r-clique in >= 1
    s-clique, where ``changed`` is the number of the last of its at most
    ``budget`` sweeps (None: no limit) that changed τ, 0 if none; SND's
    round is one sweep. ``iterations`` sums the largest ``changed`` of
    every round, and ``changed`` lists the rows each round changed; the
    loop stops at a round that changes nothing. ``max_iter`` caps
    ``iterations`` and stops early with the current τ, an upper bound on
    κ. κ's vertex columns are unpacked from the rid, so r-cliques are
    enumerated once.
    """
    spark = mem.rdf.sparkSession
    state = tau0(mem)
    parts = _rdd(state).getNumPartitions()
    changed: List[int] = []
    iterations = 0
    while max_iter is None or iterations < max_iter:
        budget = None if max_iter is None else max_iter - iterations
        prev, obs = state, Observation()
        state = (
            spark.sql(_NEXT_SQL, out=sweep(prev, budget), state=prev, parts=parts)
            .observe(
                obs,
                F.count_if(F.col("changed") > 0).alias("n"),
                F.max("changed").alias("sweeps"),
            )
            .localCheckpoint(eager=True)
        )
        release(prev)
        seen = obs.get
        if seen["n"] == 0:
            break
        changed.append(seen["n"])
        iterations += seen["sweeps"]

    vcols = unpack_exprs(F.col("rid"), mem.width, mem.r)
    kappa = state.select(
        "rid",
        *[c.alias(f"v{i + 1}") for i, c in enumerate(vcols)],
        F.col("tau").alias("kappa"),
    )
    return DecompResult(kappa=kappa, iterations=iterations, changed=changed)


def h_index_sql(values: str) -> str:
    """H of an array SQL expression: the number of leading descending
    values v_i (0-based i) with v_i >= i + 1."""
    return f"CAST(size(filter(sort_array({values}, false), (v, i) -> v >= i + 1)) AS BIGINT)"


_SWEEP_SQL = f"""
SELECT rid, tau, sids, CAST(tau != old AS INT) AS changed FROM (
  SELECT x.rid AS rid, {h_index_sql("collect_list(rho)")} AS tau,
         min(x.tau) AS old, collect_list(sid) AS sids
  FROM (
    SELECT sid, x, IF(x.tau > m[0].tau, m[0].tau, m[1].tau) AS rho
    FROM ({MEMBERS_SQL}) LATERAL VIEW explode(m) ex AS x
  )
  GROUP BY x.rid
)
"""


def _sweep(state: DataFrame) -> DataFrame:
    """One 𝒰 application over every r-clique in >= 1 s-clique."""
    return state.sparkSession.sql(_SWEEP_SQL, state=state)


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
    return _fixpoint(
        mem or membership(edges, r, s), lambda state, _budget: _sweep(state), max_iter
    )
