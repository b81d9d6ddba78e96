"""Spark AND — block-asynchronous Gauss–Seidel (Algorithm 3, §4.2).

The paper's AND updates r-cliques in place with whatever τ values are
freshest; its parallel version degenerates to SND in the worst case
(§4.2.1). The distributed-dataflow equivalent is *block* asynchrony:
r-cliques are split into blocks, each Spark round ships every block its
rows (r-clique, s-clique, peer, stale peer τ), and the block worker
(``applyInPandas``) runs ascending-rid Gauss–Seidel sweeps to a *local
fixpoint* — in-block updates are visible immediately, cross-block
values stay stale until the next round. Every update keeps τ >= κ
(Thm. 1) and a fixpoint of 𝒰 at or above κ is κ, so κ is exact however
long each block iterates alone; only the schedule changes (asynchronous
iteration, Frommer & Szyld 2000). One block ≡ the paper's sequential
AND, in one round.

Blocks are contiguous ranges of the packed rid space: r-cliques that
share vertices, and so s-cliques, tend to share a block, and the block
id is one integer division (``rid DIV span``, span = ⌈2^(r·width) /
n_blocks⌉; r·width < 63, so nothing overflows).

``iterations`` sums, over rounds, the largest number of in-block sweeps
that changed a τ, so with one block it is the sequential AND's count;
``DecompResult.changed`` keeps one entry per Spark round.

The sweep reads the same join-free state as Spark SND,
``(rid, tau, sids)``: the per-s-clique member lists of
``repro.core.snd.MEMBERS_SQL`` (shuffle 1), exploded twice, are the
block rows, and the blocks meet in ``applyInPandas`` (shuffle 2), whose
kernel hands back each r-clique's new τ, its sids and the number of the
last in-block sweep that changed it.
"""
from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.hindex import h_index
from repro.core.snd import MEMBERS_SQL, DecompResult, _fixpoint
from repro.graph.cliques import Membership, membership

_OUT_SCHEMA = "rid long, tau long, sids array<long>, changed int"

# Every (r-clique, s-clique, peer) triple with the stale τs, and the
# r-clique's block, from the members of each s-clique (no join).
_ROWS_SQL = f"""
SELECT x.rid AS rid, sid, y.rid AS peer, y.tau AS peer_tau, x.tau AS tau,
       x.rid DIV {{span}} AS block
FROM ({MEMBERS_SQL}) LATERAL VIEW explode(m) ex AS x LATERAL VIEW explode(m) ey AS y
WHERE x.rid != y.rid
"""


def _block_sweep(pdf: pd.DataFrame, max_sweeps: Optional[int] = None) -> pd.DataFrame:
    """Gauss–Seidel sweeps over one block's r-cliques to a local fixpoint.

    Input rows: rid, sid, peer, peer_tau, tau (own), one per (r-clique,
    s-clique, other member). A peer outside the block keeps its stale τ
    for the whole call; a peer inside it is read fresh. Sweeps run in
    ascending rid order until one changes nothing or ``max_sweeps`` have
    run. A sweep recomputes only the r-cliques with an in-block peer that
    changed since their last computation: the others would get the same
    τ back. Output per rid: the new τ, its sids and ``changed``, the
    number of the last sweep that changed its τ (0 if none).
    """
    order = np.lexsort((pdf["sid"].to_numpy(), pdf["rid"].to_numpy()))
    rid = pdf["rid"].to_numpy()[order]
    sid = pdf["sid"].to_numpy()[order]
    peer = pdf["peer"].to_numpy()[order]
    rids, row_ptr = np.unique(rid, return_index=True)
    n = rids.size
    tau = pdf["tau"].to_numpy()[order][row_ptr].astype(np.int64)
    row_ptr = np.r_[row_ptr, rid.size]
    owner = np.repeat(np.arange(n), np.diff(row_ptr))
    # Peer values per row, stale until an in-block peer changes.
    val = pdf["peer_tau"].to_numpy()[order].astype(np.int64)
    pos = np.minimum(np.searchsorted(rids, peer), n - 1)
    local = np.flatnonzero(rids[pos] == peer)
    by_peer = local[np.argsort(pos[local], kind="stable")]
    peer_ptr = np.searchsorted(pos[by_peer], np.arange(n + 1))
    peer_rows = np.split(by_peer, peer_ptr[1:-1])  # rows whose peer is rid i
    readers = np.split(owner[by_peer], peer_ptr[1:-1])  # their r-cliques
    # First row of each (rid, sid) run, relative to the rid's first row.
    seg = np.flatnonzero(np.r_[True, (rid[1:] != rid[:-1]) | (sid[1:] != sid[:-1])])
    seg_ptr = np.searchsorted(seg, row_ptr)
    starts = np.split(seg - row_ptr[owner[seg]], seg_ptr[1:-1])

    last = np.zeros(n, dtype=np.int32)
    dirty = np.ones(n, dtype=bool)
    sweep = 0
    while dirty.any() and (max_sweeps is None or sweep < max_sweeps):
        sweep += 1
        for i in range(n):
            if not dirty[i]:
                continue
            dirty[i] = False
            # ρ per s-clique = min over that s-clique's peers.
            h = h_index(np.minimum.reduceat(val[row_ptr[i]: row_ptr[i + 1]], starts[i]))
            if h != tau[i]:
                tau[i] = h
                last[i] = sweep
                val[peer_rows[i]] = h
                dirty[readers[i]] = True
    return pd.DataFrame(
        {
            "rid": rids,
            "tau": tau,
            "sids": np.split(sid[seg], seg_ptr[1:-1]),
            "changed": last,
        }
    )


def _sweep(state: DataFrame, span: int, budget: Optional[int] = None) -> DataFrame:
    """One Spark round: every block of ``span`` consecutive rids runs
    :func:`_block_sweep` on its rows, for at most ``budget`` sweeps."""
    rows = state.sparkSession.sql(_ROWS_SQL, state=state, span=int(span))
    return rows.groupBy("block").applyInPandas(
        lambda pdf: _block_sweep(pdf, budget), schema=_OUT_SCHEMA
    )


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
    ``iterations`` = the sum over Spark rounds of the most in-block sweeps
    that changed a τ (at most ``max_iter``), and ``changed`` = the rows
    each round changed.
    """
    mem = mem or membership(edges, r, s)
    if n_blocks is None:
        n_blocks = spark.sparkContext.defaultParallelism
    span = -(-(1 << (mem.r * mem.width)) // n_blocks)
    return _fixpoint(mem, lambda state, budget: _sweep(state, span, budget), max_iter)
