"""Distributed clique enumeration and (r, s) membership tables.

Enumeration uses the standard degree-ordered orientation: each
undirected edge points from its lower (degree, id) endpoint to the
higher, which bounds out-degrees by O(sqrt(|E|)) on real graphs and
makes every k-clique appear exactly once (as its rank-ordered tuple).

Cliques are keyed by packing their ascending-id vertex tuple into one
63-bit long (``pack_expr``); ``arity * width <= 63`` is enforced, where
``width`` is the bit width of the largest vertex id. All ids stay
joinable longs — no strings, no structs — so the iterated h-index
dataflow in :mod:`repro.core.snd` is pure Catalyst.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Sequence

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.graph.edges import SRC, DST, degrees, max_vertex_id, num_edges, num_vertices


def pack_width(max_id: int) -> int:
    """Bit width needed to store vertex ids up to ``max_id``."""
    return max(1, int(max_id).bit_length())


def pack_expr(cols: Sequence[Column], width: int) -> Column:
    """Pack ascending-sorted vertex id columns into a single long key."""
    out = cols[0].cast("long")
    for c in cols[1:]:
        out = F.shiftleft(out, width) + c.cast("long")
    return out


def unpack_exprs(col: Column, width: int, arity: int) -> List[Column]:
    """Inverse of :func:`pack_expr`: the ``arity`` vertex id columns."""
    mask = (1 << width) - 1
    return [
        F.shiftrightunsigned(col, width * (arity - 1 - i)).bitwiseAND(mask)
        for i in range(arity)
    ]


def _edge_width(edges: DataFrame) -> int:
    """Packing width of ``edges``' vertex ids (one driver ``collect``)."""
    return pack_width(max(0, max_vertex_id(edges)))


def _ranked_oriented(edges: DataFrame, width: Optional[int] = None) -> DataFrame:
    """Degree-ordered orientation with rank keys.

    Output columns ``u``, ``v``, ``rku``, ``rkv`` where the edge points
    u → v and rk = deg * 2^width + id is the total-order key
    (rku < rkv). Original vertex ids are preserved. ``width`` defaults
    to the edges' packing width.
    """
    if width is None:
        width = _edge_width(edges)
    deg = degrees(edges)
    rk = pack_expr([F.col("deg"), F.col("v")], width)
    dk = deg.select(F.col("v"), rk.alias("rk"))
    e = (
        edges.join(dk.withColumnRenamed("v", SRC).withColumnRenamed("rk", "rks"), SRC)
        .join(dk.withColumnRenamed("v", DST).withColumnRenamed("rk", "rkd"), DST)
    )
    fwd = F.col("rks") < F.col("rkd")
    return e.select(
        F.when(fwd, F.col(SRC)).otherwise(F.col(DST)).alias("u"),
        F.when(fwd, F.col(DST)).otherwise(F.col(SRC)).alias("v"),
        F.when(fwd, F.col("rks")).otherwise(F.col("rkd")).alias("rku"),
        F.when(fwd, F.col("rkd")).otherwise(F.col("rks")).alias("rkv"),
    )


def triangles(edges: DataFrame, width: Optional[int] = None) -> DataFrame:
    """All triangles, columns ``v1 < v2 < v3`` (ascending original ids)."""
    o = _ranked_oriented(edges, width)
    w1 = o.select(F.col("u").alias("a"), F.col("v").alias("b"), F.col("rkv").alias("rkb"))
    w2 = o.select(F.col("u").alias("a"), F.col("v").alias("c"), F.col("rkv").alias("rkc"))
    wedges = w1.join(w2, "a").where(F.col("rkb") < F.col("rkc"))
    closing = o.select(F.col("u").alias("b"), F.col("v").alias("c"))
    tri = wedges.join(closing, ["b", "c"])
    arr = F.array_sort(F.array("a", "b", "c"))
    return tri.select(
        arr[0].alias("v1"), arr[1].alias("v2"), arr[2].alias("v3")
    )


def four_cliques(edges: DataFrame, width: Optional[int] = None) -> DataFrame:
    """All 4-cliques, columns ``v1 < v2 < v3 < v4`` (ascending ids)."""
    o = _ranked_oriented(edges, width)
    # Rank-ordered triangles (a -> b -> c in rank order).
    w1 = o.select(F.col("u").alias("a"), F.col("v").alias("b"), F.col("rkv").alias("rkb"))
    w2 = o.select(F.col("u").alias("a"), F.col("v").alias("c"), F.col("rkv").alias("rkc"))
    wedges = w1.join(w2, "a").where(F.col("rkb") < F.col("rkc"))
    closing = o.select(F.col("u").alias("b"), F.col("v").alias("c"))
    tri = wedges.join(closing, ["b", "c"]).select("a", "b", "c")
    # Extend by a common out-neighbor x of c (rank above c), checking
    # edges (a, x) and (b, x) exist in the orientation.
    ext = o.select(F.col("u").alias("c"), F.col("v").alias("x"))
    cand = tri.join(ext, "c")
    ea = o.select(F.col("u").alias("a"), F.col("v").alias("x"))
    eb = o.select(F.col("u").alias("b"), F.col("v").alias("x"))
    quad = cand.join(ea, ["a", "x"]).join(eb, ["b", "x"])
    arr = F.array_sort(F.array("a", "b", "c", "x"))
    return quad.select(
        arr[0].alias("v1"), arr[1].alias("v2"), arr[2].alias("v3"), arr[3].alias("v4")
    )


def k_clique_df(edges: DataFrame, k: int, width: Optional[int] = None) -> DataFrame:
    """k-cliques for k in 1..4 with columns ``v1..vk`` (ascending ids).

    ``width`` (the edges' packing width, computed when omitted) keys the
    degree order of the k >= 3 enumerations."""
    if k == 1:
        return (
            edges.select(F.col(SRC).alias("v1"))
            .union(edges.select(F.col(DST).alias("v1")))
            .distinct()
        )
    if k == 2:
        return edges.select(F.col(SRC).alias("v1"), F.col(DST).alias("v2"))
    if k == 3:
        return triangles(edges, width)
    if k == 4:
        return four_cliques(edges, width)
    raise ValueError("k_clique_df supports k in 1..4")


@dataclass
class Membership:
    """The (r, s) incidence structure driving the update operator 𝒰.

    Attributes:
        rdf: every r-clique — columns ``rid`` (packed key) and ``v1..vr``.
        mdf: one row per (s-clique, member r-clique) — columns ``sid``, ``rid``.
        width: bit width used for packing (shared by rid and sid).
        r, s: the decomposition orders.
    """

    rdf: DataFrame
    mdf: DataFrame
    width: int
    r: int
    s: int


def membership(edges: DataFrame, r: int, s: int) -> Membership:
    """Build the (r, s) membership tables for any 1 <= r < s <= 4."""
    if not (1 <= r < s <= 4):
        raise ValueError("membership supports 1 <= r < s <= 4")
    width = _edge_width(edges)
    if s * width > 63:
        raise ValueError(
            f"vertex ids too wide to pack s={s} cliques: width={width}"
        )
    rcols = [f"v{i + 1}" for i in range(r)]
    rdf_raw = k_clique_df(edges, r, width)
    rdf = rdf_raw.select(
        pack_expr([F.col(c) for c in rcols], width).alias("rid"), *rcols
    )
    scols = [f"v{i + 1}" for i in range(s)]
    sdf = k_clique_df(edges, s, width)
    sid = pack_expr([F.col(c) for c in scols], width).alias("sid")
    subset_keys = [
        pack_expr([F.col(c) for c in combo], width)
        for combo in combinations(scols, r)
    ]
    mdf = sdf.select(sid, F.explode(F.array(*subset_keys)).alias("rid"))
    return Membership(rdf=rdf, mdf=mdf, width=width, r=r, s=s)


def s_degree_df(mem: Membership) -> DataFrame:
    """S-degrees of *all* r-cliques (0 for those in no s-clique).

    The engines call it once per request (never per sweep) for τ₀, on a
    membership whose ``mdf`` is their checkpoint, so s-cliques are not
    enumerated again.
    """
    cnt = mem.mdf.groupBy("rid").agg(F.count("*").alias("deg"))
    return (
        mem.rdf.select("rid")
        .join(cnt, "rid", "left")
        .select("rid", F.coalesce(F.col("deg"), F.lit(0)).alias("deg"))
    )


def graph_counts(edges: DataFrame) -> dict:
    """|V|, |E|, |triangles|, |K4| — the paper's Table 3 statistics."""
    return {
        "V": num_vertices(edges),
        "E": num_edges(edges),
        "tri": triangles(edges).count(),
        "K4": four_cliques(edges).count(),
    }
