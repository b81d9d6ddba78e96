"""Spark AND — block-asynchronous Gauss–Seidel (Algorithm 3, §4.2).

The paper's AND updates r-cliques in place with whatever τ values are
freshest; its parallel version degenerates to SND in the worst case
(§4.2.1). The distributed-dataflow equivalent is *block* asynchrony:
r-cliques are hash-partitioned into blocks, each outer iteration ships
every block its rows (r-clique, s-clique, peer, stale peer τ), and the
block worker (``applyInPandas``) runs latest-value sweeps locally —
in-block updates are visible immediately, cross-block values are stale
until the next outer iteration. One block ≡ the paper's sequential
AND; |R| blocks ≡ SND. Outer-iteration counts therefore land between
the paper's AND and SND columns of Table 4.
"""
from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.hindex import h_index
from repro.core.snd import DecompResult, _fixpoint, release
from repro.graph.cliques import Membership, membership

_OUT_SCHEMA = "rid long, new_tau long"


def _block_sweep(pdf: pd.DataFrame) -> pd.DataFrame:
    """Gauss–Seidel sweep over one block's r-cliques (latest local values).

    Input rows: rid, sid, peer, peer_tau, tau (own). Produces the new τ
    for every local rid (changed or not — the caller diffs).
    """
    tau_local: dict = {}
    for rid, t in zip(pdf["rid"].to_numpy(), pdf["tau"].to_numpy()):
        tau_local[rid] = t
    out_rid, out_tau = [], []
    for rid, grp in pdf.groupby("rid", sort=True):
        peers = grp["peer"].to_numpy()
        stale = grp["peer_tau"].to_numpy()
        sids = grp["sid"].to_numpy()
        # Freshest value: local block value if the peer lives here.
        vals = np.array(
            [tau_local.get(p, st) for p, st in zip(peers, stale)], dtype=np.int64
        )
        # ρ per s-clique = min over that s-clique's peers.
        order = np.argsort(sids, kind="stable")
        sv = sids[order]
        vv = vals[order]
        bounds = np.r_[0, np.flatnonzero(sv[1:] != sv[:-1]) + 1, sv.size]
        rho = np.minimum.reduceat(vv, bounds[:-1])
        h = h_index(rho)
        tau_local[rid] = h
        out_rid.append(rid)
        out_tau.append(h)
    return pd.DataFrame({"rid": out_rid, "new_tau": np.asarray(out_tau, dtype=np.int64)})


def and_block(
    spark: SparkSession,
    edges: DataFrame,
    r: int,
    s: int,
    n_blocks: Optional[int] = None,
    max_iter: Optional[int] = None,
    mem: Optional[Membership] = None,
) -> DecompResult:
    """Block-asynchronous nucleus decomposition on Spark.

    ``n_blocks`` defaults to ``sparkContext.defaultParallelism`` (the core
    count, N under a ``local[N]`` master). Returns the same
    :class:`DecompResult` as :func:`repro.core.snd.snd`, with
    ``iterations`` = outer sweeps that changed >= 1 τ.
    """
    mem = mem or membership(edges, r, s)
    if n_blocks is None:
        n_blocks = spark.sparkContext.defaultParallelism
    mdf = mem.mdf.localCheckpoint(eager=True)
    # Static peer-exploded incidence: (rid, sid, peer != rid).
    peers = (
        mdf.join(
            mdf.select(F.col("sid"), F.col("rid").alias("peer")), "sid"
        )
        .where(F.col("rid") != F.col("peer"))
        .localCheckpoint(eager=True)
    )

    def block_sweep(tau: DataFrame) -> DataFrame:
        withvals = (
            peers.join(
                tau.select(F.col("rid").alias("peer"), F.col("tau").alias("peer_tau")),
                "peer",
            )
            .join(tau, "rid")
            .withColumn("block", F.pmod(F.hash("rid"), F.lit(n_blocks)))
        )
        return withvals.groupBy("block").applyInPandas(
            _block_sweep_keyed, schema=_OUT_SCHEMA
        )

    res = _fixpoint(mem, mdf, block_sweep, max_iter)
    release(peers)
    release(mdf)
    return res


def _block_sweep_keyed(pdf):
    """applyInPandas adapter; untyped so Spark uses the default eval type."""
    return _block_sweep(pdf)
