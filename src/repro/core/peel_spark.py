"""Peeling baselines (Algorithm 1) against which the local algorithms run.

Two variants:

* :func:`peel_baseline` — the paper-faithful baseline. The authors
  parallelize only the S-degree/clique counting and run the peel itself
  sequentially (§5.3: "Rest of the peeling computation is sequential as
  it cannot be parallelized"). Here: Spark clique enumeration + driver
  bucket peel (:func:`repro.core.seq.peel`).

* :func:`peel_distributed` — a fully distributed bulk peel: phase k
  repeatedly deletes every r-clique whose current S-degree <= k
  (assigning κ = k) until none remain, then advances k to the new
  minimum. Exact, but each deletion round is a Spark job, so it is the
  slow baseline the paper argues against (global-state dependence).
"""
from __future__ import annotations

from math import comb
from typing import Optional

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import seq
from repro.core.snd import release
from repro.graph.cliques import Membership, incidence_rows, membership


def peel_baseline(
    spark: SparkSession,
    edges: DataFrame,
    r: int,
    s: int,
    mem: Optional[Membership] = None,
) -> pd.DataFrame:
    """Parallel clique counting + sequential driver peel. Returns a pandas
    frame with columns ``rid`` (packed key) and ``kappa``, sorted by rid."""
    mem = mem or membership(edges, r, s)
    rows = incidence_rows(mem).toPandas()
    member = rows["member"].to_numpy(bool)
    rid_keys = np.sort(rows["rid"].to_numpy(np.int64)[~member])
    mpdf = rows.loc[member, ["sid", "rid"]]
    nuc, keys = seq.nucleus_from_pandas_membership(rid_keys, mpdf, comb(s, r))
    kappa = seq.peel(nuc)
    return pd.DataFrame({"rid": keys, "kappa": kappa}).sort_values("rid").reset_index(drop=True)


def peel_distributed(
    spark: SparkSession,
    edges: DataFrame,
    r: int,
    s: int,
    mem: Optional[Membership] = None,
    with_rounds: bool = False,
):
    """Fully distributed bulk peeling; same output contract as
    :func:`peel_baseline` (pandas rid/kappa, collected at the end).
    With ``with_rounds`` also returns the number of removal waves —
    each wave is a synchronized distributed round (cross-check for
    :func:`repro.core.seq.bulk_peel_rounds`)."""
    mem = mem or membership(edges, r, s)
    alive_r = mem.rdf.select("rid").localCheckpoint(eager=True)
    mdf = mem.mdf.localCheckpoint(eager=True)
    out_frames = []
    rounds = 0
    k = 0
    while alive_r.count() > 0:
        deg = (
            alive_r.join(
                mdf.groupBy("rid").agg(F.count("*").alias("deg")), "rid", "left"
            )
            .select("rid", F.coalesce("deg", F.lit(0)).alias("deg"))
        )
        m = deg.agg(F.min("deg").alias("m")).collect()[0]["m"]
        k = max(k, int(m))
        while True:
            frontier = deg.where(F.col("deg") <= k).select("rid").localCheckpoint(eager=True)
            n = frontier.count()
            if n == 0:
                release(frontier)
                break
            rounds += 1
            out_frames.append(
                frontier.withColumn("kappa", F.lit(k)).toPandas()
            )
            dead_sids = mdf.join(frontier, "rid").select("sid").distinct()
            prev_mdf, prev_alive = mdf, alive_r
            mdf = mdf.join(dead_sids, "sid", "left_anti").localCheckpoint(eager=True)
            alive_r = alive_r.join(frontier, "rid", "left_anti").localCheckpoint(eager=True)
            release(prev_mdf)  # superseded checkpoint blocks
            release(prev_alive)
            release(frontier)
            deg = (
                alive_r.join(
                    mdf.groupBy("rid").agg(F.count("*").alias("deg")), "rid", "left"
                )
                .select("rid", F.coalesce("deg", F.lit(0)).alias("deg"))
            )
    release(mdf)
    release(alive_r)
    if not out_frames:
        out = pd.DataFrame(
            {"rid": pd.Series(dtype=np.int64), "kappa": pd.Series(dtype=np.int64)}
        )
    else:
        out = pd.concat(out_frames, ignore_index=True)
        out = out.sort_values("rid").reset_index(drop=True)
    return (out, rounds) if with_rounds else out
