"""Spark block-asynchronous AND — correctness and iteration behaviour."""
import numpy as np
import pytest

from repro.core import seq
from repro.core.and_spark import and_block
from repro.core.snd import snd
from repro.graph import cliques as gc
from repro.graph import edges as ged
from repro.graph import generators as gen
from tests.helpers import RS_MAIN, SMALL_GRAPHS

GRAPHS = ["fig3", "gnp15", "gnp20", "ws20"]


def _gold(name, r, s):
    nuc, rids = seq.Nucleus.from_edges(SMALL_GRAPHS[name], r, s)
    kappa = seq.peel(nuc)
    return {rv: int(k) for rv, k in zip(rids, kappa)}


def _collected(res, r):
    vcols = [f"v{i + 1}" for i in range(r)]
    return {
        tuple(int(row[c]) for c in vcols): int(row["kappa"])
        for _, row in res.to_pandas().iterrows()
    }


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("r,s", RS_MAIN)
class TestAndMatchesPeel:
    def test_kappa(self, spark, name, r, s):
        E = ged.from_pandas(spark, SMALL_GRAPHS[name])
        res = and_block(spark, E, r, s, n_blocks=4)
        assert _collected(res, r) == _gold(name, r, s)


class TestBlockAsynchrony:
    def test_single_block_is_sequential_and(self, spark):
        """One block == the paper's sequential AND in ascending-rid
        order: iteration counts must agree."""
        for name in ("fig3", "gnp15", "ws20"):
            E = ged.from_pandas(spark, SMALL_GRAPHS[name])
            res = and_block(spark, E, 1, 2, n_blocks=1)
            nuc, _ = seq.Nucleus.from_edges(SMALL_GRAPHS[name], 1, 2)
            _, seq_iters, _, _ = seq.and_seq(nuc)
            assert res.iterations == seq_iters, name

    @pytest.mark.parametrize("name", ["gnp20", "ws20"])
    def test_iterations_at_most_snd(self, spark, name):
        """Block-AND sits between sequential AND and SND (§4.2)."""
        E = ged.from_pandas(spark, SMALL_GRAPHS[name])
        snd_iters = snd(spark, E, 2, 3).iterations
        and_iters = and_block(spark, E, 2, 3, n_blocks=4).iterations
        assert and_iters <= snd_iters

    @pytest.mark.parametrize("name,r,s", [("fig3", 1, 2), ("ba20", 1, 2), ("gnp15", 2, 3)])
    def test_single_block_max_iter_is_sequential_and(self, spark, name, r, s):
        """One block stopped after t in-block sweeps holds the sequential
        AND's τ after t sweeps, and counts at most t iterations."""
        E = ged.from_pandas(spark, SMALL_GRAPHS[name])
        mem = gc.membership(E, r, s)
        nuc, rids = seq.Nucleus.from_edges(SMALL_GRAPHS[name], r, s)
        _, seq_iters, _, _ = seq.and_seq(nuc)
        for t in range(seq_iters + 2):
            res = and_block(spark, E, r, s, n_blocks=1, max_iter=t, mem=mem)
            tau, _, _, _ = seq.and_seq(nuc, max_iter=t)
            assert _collected(res, r) == dict(zip(rids, tau.tolist())), t
            assert res.iterations <= t
        assert res.iterations == seq_iters

    @pytest.mark.parametrize("name,r,s", [("fig3", 1, 2), ("ws20", 1, 2), ("gnp20", 2, 3)])
    def test_single_block_converges_in_one_round(self, spark, name, r, s):
        """One block iterates to its fixpoint inside the first Spark round."""
        nuc, _ = seq.Nucleus.from_edges(SMALL_GRAPHS[name], r, s)
        assert seq.and_seq(nuc)[1] >= 1
        E = ged.from_pandas(spark, SMALL_GRAPHS[name])
        assert len(and_block(spark, E, r, s, n_blocks=1).changed) == 1

    @pytest.mark.parametrize("n_blocks", [3, 4])
    def test_sparse_ids_near_2_20(self, spark, n_blocks):
        """(2,3) κ stays exact when rids fill the top of a 42-bit range, so
        the rid-range blocks are split by a span near 2^40."""
        pdf = SMALL_GRAPHS["gnp15"]
        ids = (1 << 20) - 40 + 7 * np.arange(15)  # straddles 2^20: width 21
        sparse = gen.from_edge_list(
            zip(ids[pdf["src"].to_numpy()].tolist(), ids[pdf["dst"].to_numpy()].tolist())
        )
        nuc, rids = seq.Nucleus.from_edges(sparse, 2, 3)
        gold = dict(zip(rids, seq.peel(nuc).tolist()))
        res = and_block(spark, ged.from_pandas(spark, sparse), 2, 3, n_blocks=n_blocks)
        assert _collected(res, 2) == gold

    def test_many_blocks_still_correct(self, spark):
        E = ged.from_pandas(spark, SMALL_GRAPHS["gnp15"])
        res = and_block(spark, E, 2, 3, n_blocks=64)
        assert _collected(res, 2) == _gold("gnp15", 2, 3)

    def test_max_iter_upper_bound(self, spark):
        name = "gnp20"
        E = ged.from_pandas(spark, SMALL_GRAPHS[name])
        gold = _gold(name, 1, 2)
        approx = _collected(and_block(spark, E, 1, 2, n_blocks=4, max_iter=1), 1)
        assert all(approx[k] >= gold[k] for k in gold)
