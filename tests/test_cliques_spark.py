"""Distributed clique enumeration vs the pure-Python reference + DuckDB."""
import re
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.graph import cliques as gc
from repro.graph import edges as ged
from repro.graph import generators as gen
from repro.graph import local as gl
from repro.oracle import assert_equivalent
from tests.helpers import SMALL_GRAPHS

PACK_GRAPHS = ["fig3", "k6", "c6", "gnp15", "gnp20", "ws20", "ba20", "planted"]


def _spark_edges(spark, name):
    return ged.from_pandas(spark, SMALL_GRAPHS[name])


class TestPacking:
    def test_width(self):
        assert gc.pack_width(0) == 1
        assert gc.pack_width(1) == 1
        assert gc.pack_width(2) == 2
        assert gc.pack_width(255) == 8
        assert gc.pack_width(256) == 9

    def test_roundtrip(self, spark):
        df = spark.range(1).select(
            F.lit(3).alias("a"), F.lit(7).alias("b"), F.lit(200).alias("c")
        )
        w = 8
        packed = df.select(
            gc.pack_expr([F.col("a"), F.col("b"), F.col("c")], w).alias("k")
        )
        back = packed.select(
            *[e.alias(f"x{i}") for i, e in enumerate(gc.unpack_exprs(F.col("k"), w, 3))]
        ).collect()[0]
        assert (back["x0"], back["x1"], back["x2"]) == (3, 7, 200)

    def test_membership_computes_width_once(self, spark, monkeypatch):
        E = _spark_edges(spark, "gnp15")
        calls = []
        max_id = gc.max_vertex_id
        monkeypatch.setattr(gc, "max_vertex_id", lambda e: calls.append(1) or max_id(e))
        mem = gc.membership(E, 3, 4)
        assert len(calls) == 1
        assert mem.mdf.count() == 4 * len(gl.k_cliques(SMALL_GRAPHS["gnp15"], 4))

    def test_packed_keys_distinct(self, spark):
        E = _spark_edges(spark, "gnp20")
        mem = gc.membership(E, 2, 3)
        n = mem.rdf.count()
        assert mem.rdf.select("rid").distinct().count() == n


@pytest.mark.parametrize("name", PACK_GRAPHS)
class TestEnumeration:
    def test_triangles_match_reference(self, spark, name):
        E = _spark_edges(spark, name)
        got = sorted(
            tuple(r) for r in gc.triangles(E).select("v1", "v2", "v3").collect()
        )
        assert got == gl.k_cliques(SMALL_GRAPHS[name], 3)

    def test_four_cliques_match_reference(self, spark, name):
        E = _spark_edges(spark, name)
        got = sorted(
            tuple(r)
            for r in gc.four_cliques(E).select("v1", "v2", "v3", "v4").collect()
        )
        assert got == gl.k_cliques(SMALL_GRAPHS[name], 4)


@st.composite
def sparse_gnp(draw):
    """G(n, p) relabelled onto sparse, non-contiguous ids in shuffled
    order, up to 2^40 (wider than ``membership`` can pack)."""
    n = draw(st.integers(4, 12))
    p = draw(st.floats(0.3, 0.9))
    seed = draw(st.integers(0, 2**16))
    ids = np.asarray(
        draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n, unique=True))
    )
    pdf = gen.gnp(n, p, seed=seed)
    return gen.from_edge_list(zip(ids[pdf["src"]], ids[pdf["dst"]]))


class TestOrientedEnumeration:
    @given(sparse_gnp())
    @settings(max_examples=12, deadline=None)
    def test_k_clique_df_matches_reference(self, spark, pdf):
        assume(len(pdf) > 0)
        E = ged.from_pandas(spark, pdf)
        for k in (3, 4):
            cols = [f"v{i + 1}" for i in range(k)]
            got = sorted(tuple(r) for r in gc.k_clique_df(E, k).select(*cols).collect())
            assert got == gl.k_cliques(pdf, k), k

    @pytest.mark.parametrize("k,most", [(3, 9), (4, 14)])
    def test_plan_shuffles(self, spark, k, most):
        # Checkpointed edges: the count is the enumerator's own shuffles,
        # not the edges' ``distinct`` repeated at every read of them.
        E = _spark_edges(spark, "gnp15").localCheckpoint(eager=True)
        plan = gc.k_clique_df(E, k)._jdf.queryExecution().executedPlan().toString()
        assert len(re.findall(r"\bExchange\b", plan)) <= most, plan

    def test_no_width_collect(self, spark, monkeypatch):
        E = _spark_edges(spark, "gnp15")
        calls = []
        max_id = gc.max_vertex_id
        monkeypatch.setattr(gc, "max_vertex_id", lambda e: calls.append(1) or max_id(e))
        monkeypatch.setattr(ged, "max_vertex_id", lambda e: calls.append(1) or max_id(e))
        assert gc.triangles(E).count() == len(gl.k_cliques(SMALL_GRAPHS["gnp15"], 3))
        assert gc.four_cliques(E).count() == len(gl.k_cliques(SMALL_GRAPHS["gnp15"], 4))
        assert calls == []


class TestTrianglesOracle:
    def test_triangle_count_matches_duckdb_sql(self, spark):
        E = _spark_edges(spark, "gnp20")
        got = gc.triangles(E).agg(F.count("*").alias("n"))
        assert_equivalent(
            got,
            """
            SELECT count(*) AS n
            FROM e e1 JOIN e e2 ON e1.dst = e2.src
                      JOIN e e3 ON e3.src = e1.src AND e3.dst = e2.dst
            """,
            e=E,
        )

    def test_edge_triangle_counts_match_duckdb(self, spark):
        """S-degrees for the truss case (r=2, s=3) against a relational
        triangle-incidence query — catches wrong membership explosion."""
        E = _spark_edges(spark, "gnp20")
        mem = gc.membership(E, 2, 3)
        got = (
            gc.s_degree_df(mem)
            .join(mem.rdf, "rid")
            .select("v1", "v2", "deg")
        )
        assert_equivalent(
            got,
            """
            WITH tri AS (
                SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
                FROM e e1 JOIN e e2 ON e1.dst = e2.src
                          JOIN e e3 ON e3.src = e1.src AND e3.dst = e2.dst
            ), inc AS (
                SELECT a AS v1, b AS v2 FROM tri
                UNION ALL SELECT a, c FROM tri
                UNION ALL SELECT b, c FROM tri
            )
            SELECT e.src AS v1, e.dst AS v2, count(inc.v1) AS deg
            FROM e LEFT JOIN inc ON e.src = inc.v1 AND e.dst = inc.v2
            GROUP BY e.src, e.dst
            """,
            e=E,
        )


class TestMembership:
    @pytest.mark.parametrize("r,s", [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4)])
    def test_row_counts(self, spark, r, s):
        E = _spark_edges(spark, "gnp15")
        mem = gc.membership(E, r, s)
        n_s = len(gl.k_cliques(SMALL_GRAPHS["gnp15"], s))
        n_r = len(gl.k_cliques(SMALL_GRAPHS["gnp15"], r))
        assert mem.rdf.count() == n_r
        assert mem.mdf.count() == n_s * comb(s, r)

    def test_each_sclique_has_csr_members(self, spark):
        E = _spark_edges(spark, "gnp15")
        mem = gc.membership(E, 2, 3)
        per_sid = mem.mdf.groupBy("sid").count().select("count").distinct().collect()
        assert [r["count"] for r in per_sid] == [3]

    def test_invalid_rs(self, spark):
        E = _spark_edges(spark, "fig3")
        with pytest.raises(ValueError):
            gc.membership(E, 2, 2)
        with pytest.raises(ValueError):
            gc.membership(E, 0, 2)

    def test_s_degree_includes_zero_degree_cliques(self, spark):
        # Edge (2,3) of this graph is in no triangle -> deg 0 row present.
        pdf = gen.from_edge_list([(0, 1), (1, 2), (0, 2), (2, 3)])
        E = ged.from_pandas(spark, pdf)
        mem = gc.membership(E, 2, 3)
        degs = {
            (r["v1"], r["v2"]): r["deg"]
            for r in gc.s_degree_df(mem).join(mem.rdf, "rid").collect()
        }
        assert degs[(2, 3)] == 0
        assert degs[(0, 1)] == 1


class TestGraphCounts:
    def test_k5(self, spark):
        E = _spark_edges(spark, "k5")
        assert gc.graph_counts(E) == {"V": 5, "E": 10, "tri": 10, "K4": 5}

    def test_triangle_free(self, spark):
        E = _spark_edges(spark, "c6")
        c = gc.graph_counts(E)
        assert c["tri"] == 0 and c["K4"] == 0
