"""Spark SND (the paper's core as Catalyst dataflow) — correctness tests."""
import numpy as np
import pytest

from repro.core import seq
from repro.core.and_spark import and_block
from repro.core.snd import snd
from repro.graph import cliques as gc
from repro.graph import edges as ged
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
