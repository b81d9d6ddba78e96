"""Spark SND (the paper's core as Catalyst dataflow) — correctness tests."""
import re

import numpy as np
import pytest

from repro.core import and_spark, seq
from repro.core.and_spark import and_block
from repro.core.hindex import h_index_naive
from repro.core.snd import _sweep, h_index_sql, snd, tau0
from repro.graph import cliques as gc
from repro.graph import edges as ged
from repro.graph import generators as gen
from tests.helpers import RS_MAIN, SMALL_GRAPHS

GRAPHS = ["fig3", "k6", "gnp15", "gnp20", "ws20", "planted"]


def _gold(name, r, s):
    nuc, rids = seq.Nucleus.from_edges(SMALL_GRAPHS[name], r, s)
    kappa = seq.peel(nuc)
    return {rv: int(k) for rv, k in zip(rids, kappa)}, nuc


def _collected(res, r):
    vcols = [f"v{i + 1}" for i in range(r)]
    pdf = res.to_pandas()
    return {
        tuple(int(row[c]) for c in vcols): int(row["kappa"])
        for _, row in pdf.iterrows()
    }


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("r,s", RS_MAIN)
class TestSndMatchesPeel:
    def test_kappa(self, spark, name, r, s):
        E = ged.from_pandas(spark, SMALL_GRAPHS[name])
        gold, _ = _gold(name, r, s)
        res = snd(spark, E, r, s)
        assert _collected(res, r) == gold


class TestIterationParity:
    @pytest.mark.parametrize("name", ["fig3", "gnp15", "ws20"])
    @pytest.mark.parametrize("r,s", [(1, 2), (2, 3)])
    def test_matches_sequential_snd_iterations(self, spark, name, r, s):
        E = ged.from_pandas(spark, SMALL_GRAPHS[name])
        nuc, _ = seq.Nucleus.from_edges(SMALL_GRAPHS[name], r, s)
        _, seq_iters, _ = seq.snd_seq(nuc)
        res = snd(spark, E, r, s)
        assert res.iterations == seq_iters

    def test_fig3_two_iterations(self, spark):
        E = ged.from_pandas(spark, SMALL_GRAPHS["fig3"])
        assert snd(spark, E, 1, 2).iterations == 2


class TestApproximation:
    def test_max_iter_gives_upper_bound(self, spark):
        name = "gnp20"
        E = ged.from_pandas(spark, SMALL_GRAPHS[name])
        gold, _ = _gold(name, 2, 3)
        res = snd(spark, E, 2, 3, max_iter=1)
        approx = _collected(res, 2)
        assert set(approx) == set(gold)
        assert all(approx[k] >= gold[k] for k in gold)

    @pytest.mark.parametrize("name,r,s", [("ws20", 1, 2), ("gnp15", 2, 3)])
    def test_max_iter_follows_sequential_trajectory(self, spark, name, r, s):
        """Stopping after t sweeps yields exactly the sequential τ_t."""
        E = ged.from_pandas(spark, SMALL_GRAPHS[name])
        mem = gc.membership(E, r, s)
        nuc, rids = seq.Nucleus.from_edges(SMALL_GRAPHS[name], r, s)
        _, _, history = seq.snd_seq(nuc, track_history=True)
        for t, tau in enumerate(history):
            res = snd(spark, E, r, s, max_iter=t, mem=mem)
            assert res.iterations == t
            assert _collected(res, r) == dict(zip(rids, tau.tolist())), t
        degrees = dict(zip(rids, nuc.degrees().tolist()))
        assert _collected(and_block(spark, E, r, s, max_iter=0, mem=mem), r) == degrees

    def test_membership_reuse(self, spark):
        E = ged.from_pandas(spark, SMALL_GRAPHS["gnp15"])
        mem = gc.membership(E, 2, 3)
        res = snd(spark, E, 2, 3, mem=mem)
        gold, _ = _gold("gnp15", 2, 3)
        assert _collected(res, 2) == gold


class TestGeneralizedRs:
    @pytest.mark.parametrize("r,s", [(1, 3), (2, 4)])
    def test_nonstandard_pairs(self, spark, r, s):
        name = "gnp15"
        E = ged.from_pandas(spark, SMALL_GRAPHS[name])
        gold, _ = _gold(name, r, s)
        res = snd(spark, E, r, s)
        assert _collected(res, r) == gold


class TestSweep:
    def test_h_index_sql_matches_naive(self, spark):
        rng = np.random.default_rng(7)
        arrays = [[], [0, 0, 0], [4] * 4, [3] * 7, [50, 60, 70], [100], [5, 1, 3, 3, 2]]
        arrays += [
            rng.integers(0, 12, rng.integers(1, 15)).tolist() for _ in range(60)
        ]
        df = spark.createDataFrame(list(enumerate(arrays)), "i int, a array<long>")
        got = dict(df.selectExpr("i", f"{h_index_sql('a')} AS h").collect())
        assert got == {i: h_index_naive(a) for i, a in enumerate(arrays)}

    @pytest.mark.parametrize(
        "sweep", [_sweep, lambda st: and_spark._sweep(st, 4)], ids=["snd", "and"]
    )
    def test_sweep_plan_has_two_shuffles_and_no_join(self, spark, sweep):
        E = ged.from_pandas(spark, SMALL_GRAPHS["gnp15"])
        state = tau0(gc.membership(E, 2, 3))
        plan = sweep(state)._jdf.queryExecution().executedPlan().toString()
        assert len(re.findall(r"\bExchange\b", plan)) <= 2, plan
        assert "Join" not in plan, plan


class TestSparkWork:
    def _cached_rdds(self, spark):
        return len(spark.sparkContext._jsc.sc().getRDDStorageInfo())

    @pytest.mark.parametrize(
        "engine",
        [lambda sp, E: snd(sp, E, 1, 2), lambda sp, E: and_block(sp, E, 1, 2, n_blocks=4)],
        ids=["snd", "and"],
    )
    def test_checkpoints_released(self, spark, engine):
        """Only the τ behind ``kappa`` stays cached after a request."""
        E = ged.from_pandas(spark, SMALL_GRAPHS["ws20"])
        before = self._cached_rdds(spark)
        res = engine(spark, E)
        res.to_pandas()
        assert res.iterations >= 2
        assert self._cached_rdds(spark) - before <= 1

    def test_one_checkpoint_per_sweep(self, spark, monkeypatch):
        E = ged.from_pandas(spark, SMALL_GRAPHS["ws20"])
        calls = []
        cls = type(E)  # the classic DataFrame class, not the pyspark.sql facade
        checkpoint = cls.localCheckpoint

        def counted(self, *a, **k):
            calls.append(1)
            return checkpoint(self, *a, **k)

        monkeypatch.setattr(cls, "localCheckpoint", counted)
        res = snd(spark, E, 1, 2)
        # τ₀ + one per sweep, the unchanged last sweep included.
        assert len(calls) == 1 + res.iterations + 1

    def test_size_estimate_stays_bounded(self, spark, monkeypatch):
        """AND's state checkpoints do not carry a size estimate that grows
        with every sweep (a join's estimate is the product of its inputs')."""
        E = ged.from_pandas(spark, gen.path_graph(12))
        digits = []
        cls = type(E)
        checkpoint = cls.localCheckpoint

        def measured(self, *a, **k):
            out = checkpoint(self, *a, **k)
            stats = out._jdf.queryExecution().optimizedPlan().stats()
            digits.append(len(str(stats.sizeInBytes())))
            return out

        monkeypatch.setattr(cls, "localCheckpoint", measured)
        res = and_block(spark, E, 1, 2, n_blocks=12)
        assert res.iterations >= 4
        assert max(digits) <= 40, digits

    @pytest.mark.parametrize(
        "engine",
        [lambda sp, E: snd(sp, E, 1, 2), lambda sp, E: and_block(sp, E, 1, 2, n_blocks=12)],
        ids=["snd", "and"],
    )
    def test_state_partitions_do_not_grow(self, spark, monkeypatch, engine):
        """Each sweep's checkpoint has no more partitions than τ₀'s: the
        union with the r-cliques in no s-clique must not add the previous
        state's partitions to the sweep output's on every sweep."""
        E = ged.from_pandas(spark, gen.path_graph(12))
        parts = []
        cls = type(E)
        checkpoint = cls.localCheckpoint

        def counted(self, *a, **k):
            out = checkpoint(self, *a, **k)
            parts.append(out.rdd.getNumPartitions())
            return out

        monkeypatch.setattr(cls, "localCheckpoint", counted)
        engine(spark, E)
        assert len(parts) >= 4
        assert max(parts[1:]) <= parts[0], parts

    @pytest.mark.parametrize("name,r,s", [("ws20", 1, 2), ("gnp15", 2, 3)])
    def test_changed_counts_sequential_updates(self, spark, name, r, s):
        E = ged.from_pandas(spark, SMALL_GRAPHS[name])
        nuc, _ = seq.Nucleus.from_edges(SMALL_GRAPHS[name], r, s)
        _, _, history = seq.snd_seq(nuc, track_history=True)
        expected = [int((a != b).sum()) for a, b in zip(history, history[1:])]
        assert snd(spark, E, r, s).changed == expected

    def test_kappa_reads_only_tau(self, spark):
        """κ's vertex columns come from the rid, not another r-clique join."""
        E = ged.from_pandas(spark, SMALL_GRAPHS["gnp15"])
        plan = snd(spark, E, 2, 3).kappa._jdf.queryExecution().optimizedPlan().toString()
        assert "Join" not in plan, plan
