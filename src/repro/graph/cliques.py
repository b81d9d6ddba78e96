"""Distributed clique enumeration and (r, s) membership tables.

Enumeration uses the standard degree-ordered orientation: each
undirected edge points from its lower (degree, id) endpoint to the
higher, which bounds out-degrees by O(sqrt(|E|)) on real graphs and
makes every k-clique appear exactly once (as its rank-ordered tuple).
One routine lists k-cliques for every k >= 3 (ordered-adjacency listing,
Chiba & Nishizeki 1985; kClist, Danisch et al. 2018): the out-neighbour
array N⁺(u) of every vertex is built once, and a rank-ordered prefix is
extended by intersecting its candidate array with N⁺ of the new vertex.

Cliques are keyed by packing their ascending-id vertex tuple into one
63-bit long (``pack_expr``); ``arity * width <= 63`` is enforced, where
``width`` is the bit width of the largest vertex id. All ids stay
joinable longs — no strings, no structs — so the iterated h-index
dataflow in :mod:`repro.core.snd` is pure Catalyst.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Sequence

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.graph.edges import SRC, DST, max_vertex_id, num_edges, num_vertices


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


def _oriented_adjacency(edges: DataFrame) -> DataFrame:
    """Out-neighbour arrays N⁺(u) of the degree-ordered orientation.

    Columns ``u`` and ``n`` (ids above ``u`` in (degree, id) order);
    vertices with no out-neighbour have no row.
    """
    nb = (
        edges.select(F.col(SRC).alias("u"), F.col(DST).alias("v"))
        .union(edges.select(F.col(DST).alias("u"), F.col(SRC).alias("v")))
        .groupBy("u")
        .agg(F.collect_list("v").alias("nb"))
    )
    # Structs compare field by field: the (degree, id) order.
    rank = F.struct(F.size("nb").alias("deg"), F.col("u").alias("id"))
    out = nb.select("u", rank.alias("ku"), F.explode("nb").alias("v"))
    head = nb.select(F.col("u").alias("v"), rank.alias("kv"))
    return (
        out.join(head, "v")
        .where(F.col("ku") < F.col("kv"))
        .groupBy("u")
        .agg(F.collect_list("v").alias("n"))
    )


def k_clique_df(edges: DataFrame, k: int) -> DataFrame:
    """k-cliques for k >= 1 with columns ``v1..vk`` (ascending ids).

    For k >= 3 a clique grows from its rank-ordered prefix ``p``: ``c``
    holds the common out-neighbours of ``p``, and each extension by
    x ∈ c intersects ``c`` with N⁺(x).
    """
    if k < 1:
        raise ValueError("k_clique_df needs k >= 1")
    if k == 1:
        return (
            edges.select(F.col(SRC).alias("v1"))
            .union(edges.select(F.col(DST).alias("v1")))
            .distinct()
        )
    if k == 2:
        return edges.select(F.col(SRC).alias("v1"), F.col(DST).alias("v2"))
    adj = _oriented_adjacency(edges)
    grow = adj.select(F.array("u").alias("p"), F.col("n").alias("c"))
    for _ in range(k - 2):
        grow = (
            grow.select("p", "c", F.explode("c").alias("u"))
            .join(adj, "u")
            .select(
                F.concat("p", F.array("u")).alias("p"),
                F.array_intersect("c", "n").alias("c"),
            )
        )
    q = F.array_sort(F.concat("p", F.array("x")))
    cl = grow.select("p", F.explode("c").alias("x")).select(q.alias("q"))
    return cl.select(*[F.col("q")[i].alias(f"v{i + 1}") for i in range(k)])


def triangles(edges: DataFrame) -> DataFrame:
    """All triangles, columns ``v1 < v2 < v3`` (ascending original ids)."""
    return k_clique_df(edges, 3)


def four_cliques(edges: DataFrame) -> DataFrame:
    """All 4-cliques, columns ``v1 < v2 < v3 < v4`` (ascending ids)."""
    return k_clique_df(edges, 4)


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
    width = pack_width(max(0, max_vertex_id(edges)))
    if s * width > 63:
        raise ValueError(
            f"vertex ids too wide to pack s={s} cliques: width={width}"
        )
    rcols = [f"v{i + 1}" for i in range(r)]
    rdf_raw = k_clique_df(edges, r)
    rdf = rdf_raw.select(
        pack_expr([F.col(c) for c in rcols], width).alias("rid"), *rcols
    )
    scols = [f"v{i + 1}" for i in range(s)]
    sdf = k_clique_df(edges, s)
    sid = pack_expr([F.col(c) for c in scols], width).alias("sid")
    subset_keys = [
        pack_expr([F.col(c) for c in combo], width)
        for combo in combinations(scols, r)
    ]
    mdf = sdf.select(sid, F.explode(F.array(*subset_keys)).alias("rid"))
    return Membership(rdf=rdf, mdf=mdf, width=width, r=r, s=s)


def incidence_rows(mem: Membership) -> DataFrame:
    """``rdf`` and ``mdf`` as one table, so one query plans the clique
    enumeration behind both once.

    Columns ``rid``, ``sid``, ``member``: one row per (s-clique, member
    r-clique) pair with ``member`` true, and one row per r-clique with
    ``member`` false and ``sid`` = rid. No column holds a null, so a
    ``toPandas`` keeps the 63-bit keys exact.
    """
    return mem.rdf.select(
        "rid", F.col("rid").alias("sid"), F.lit(False).alias("member")
    ).unionByName(mem.mdf.select("rid", "sid", F.lit(True).alias("member")))


def s_degree_df(mem: Membership) -> DataFrame:
    """Every r-clique's s-clique ids and S-degree: columns ``rid``,
    ``sids`` (empty for r-cliques in no s-clique) and ``deg``.

    One aggregation of :func:`incidence_rows`; the engines' τ₀ reads it.
    """
    sid = F.when(F.col("member"), F.col("sid"))
    return incidence_rows(mem).groupBy("rid").agg(
        F.collect_list(sid).alias("sids"), F.count(sid).alias("deg")
    )


def graph_counts(edges: DataFrame) -> dict:
    """|V|, |E|, |triangles|, |K4| — the paper's Table 3 statistics."""
    return {
        "V": num_vertices(edges),
        "E": num_edges(edges),
        "tri": triangles(edges).count(),
        "K4": four_cliques(edges).count(),
    }
