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

The sweep reads the same join-free state as Spark SND,
``(rid, tau, sids)``: the per-s-clique member lists of
``repro.core.snd.MEMBERS_SQL`` (shuffle 1), exploded twice, are the
block rows, and the blocks meet in ``applyInPandas`` (shuffle 2), whose
kernel hands back each r-clique's new τ, its sids and whether τ changed.
"""
from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.hindex import h_index
from repro.core.snd import MEMBERS_SQL, DecompResult, _fixpoint
from repro.graph.cliques import Membership, membership

_OUT_SCHEMA = "rid long, tau long, sids array<long>, changed boolean"

# Every (r-clique, s-clique, peer) triple with the stale τs, and the
# r-clique's block, from the members of each s-clique (no join).
_ROWS_SQL = f"""
SELECT x.rid AS rid, sid, y.rid AS peer, y.tau AS peer_tau, x.tau AS tau,
       pmod(hash(x.rid), {{n_blocks}}) AS block
FROM ({MEMBERS_SQL}) LATERAL VIEW explode(m) ex AS x LATERAL VIEW explode(m) ey AS y
WHERE x.rid != y.rid
"""


def _block_sweep(pdf: pd.DataFrame) -> pd.DataFrame:
    """Gauss–Seidel sweep over one block's r-clique rows (latest local values).

    Input rows: rid, sid, peer, peer_tau, tau (own). Produces the new τ,
    the s-clique ids and whether τ changed, for every local rid.
    """
    tau_local: dict = {}
    for rid, t in zip(pdf["rid"].to_numpy(), pdf["tau"].to_numpy()):
        tau_local[rid] = t
    out_rid, out_tau, out_sids, out_changed = [], [], [], []
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
        starts = np.r_[0, np.flatnonzero(sv[1:] != sv[:-1]) + 1]
        rho = np.minimum.reduceat(vv, starts)
        h = h_index(rho)
        out_changed.append(h != tau_local[rid])
        tau_local[rid] = h
        out_rid.append(rid)
        out_tau.append(h)
        out_sids.append(sv[starts])
    return pd.DataFrame(
        {
            "rid": out_rid,
            "tau": np.asarray(out_tau, dtype=np.int64),
            "sids": out_sids,
            "changed": np.asarray(out_changed, dtype=bool),
        }
    )


def _sweep(state: DataFrame, n_blocks: int) -> DataFrame:
    """One outer sweep: every block runs :func:`_block_sweep` on its rows."""
    rows = state.sparkSession.sql(_ROWS_SQL, state=state, n_blocks=int(n_blocks))
    return rows.groupBy("block").applyInPandas(_block_sweep_keyed, schema=_OUT_SCHEMA)


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
    return _fixpoint(mem, lambda state: _sweep(state, n_blocks), max_iter)


def _block_sweep_keyed(pdf):
    """applyInPandas adapter; untyped so Spark uses the default eval type."""
    return _block_sweep(pdf)
