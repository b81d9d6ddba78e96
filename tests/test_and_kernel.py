"""Block-AND's pandas kernel against a plain Gauss–Seidel reference (no Spark)."""
import numpy as np
import pandas as pd
import pytest

from repro.core import seq
from repro.core.and_spark import _block_sweep
from repro.core.hindex import h_index_naive
from tests.helpers import SMALL_GRAPHS


def _rows(nuc, tau, block):
    """The kernel's input for ``block``: one row per (r-clique, s-clique,
    other member) with the current τs, in a shuffled order."""
    rows = [
        (rid, sid, peer, tau[peer], tau[rid])
        for rid in block
        for sid in nuc.incident(rid)
        for peer in nuc.scl[sid]
        if peer != rid
    ]
    pdf = pd.DataFrame(rows, columns=["rid", "sid", "peer", "peer_tau", "tau"])
    return pdf.sample(frac=1.0, random_state=0).reset_index(drop=True)


def _reference(nuc, tau, block, max_sweeps=None):
    """Full ascending-rid Gauss–Seidel sweeps over ``block`` until one
    changes nothing; τ outside the block stays fixed. Returns τ and the
    number of the last sweep that changed each r-clique."""
    tau = tau.copy()
    last = {rid: 0 for rid in block}
    sweep = 0
    while max_sweeps is None or sweep < max_sweeps:
        sweep += 1
        any_change = False
        for rid in sorted(block):
            rho = [
                min(tau[p] for p in nuc.scl[sid] if p != rid)
                for sid in nuc.incident(rid)
            ]
            h = h_index_naive(rho)
            if h != tau[rid]:
                tau[rid], last[rid], any_change = h, sweep, True
        if not any_change:
            break
    return tau, last


def _check(nuc, tau, block, max_sweeps=None):
    out = _block_sweep(_rows(nuc, tau, block), max_sweeps)
    want_tau, want_last = _reference(nuc, tau, block, max_sweeps)
    assert out["rid"].tolist() == sorted(block)
    assert out["tau"].tolist() == [want_tau[r] for r in sorted(block)]
    assert out["changed"].tolist() == [want_last[r] for r in sorted(block)]
    for rid, sids in zip(out["rid"], out["sids"]):
        assert sids.tolist() == sorted(nuc.incident(rid).tolist())
    return out


@pytest.mark.parametrize("name", ["fig3", "gnp15", "ws20", "ba20"])
@pytest.mark.parametrize("r,s", [(1, 2), (2, 3)])
def test_matches_gauss_seidel_reference(name, r, s):
    nuc, _ = seq.Nucleus.from_edges(SMALL_GRAPHS[name], r, s)
    tau = nuc.degrees().astype(np.int64)
    ids = [i for i in range(nuc.n_r) if nuc.incident(i).size]
    rng = np.random.default_rng(11)
    for block in (ids, ids[: len(ids) // 2], sorted(rng.choice(ids, len(ids) // 3, replace=False))):
        _check(nuc, tau, block)
        _check(nuc, tau, block, max_sweeps=1)
        _check(nuc, tau, block, max_sweeps=2)


def test_peers_all_outside_the_block():
    """Star K1,3 (k-core): the centre's peers are all leaves outside its
    block, so their stale τ = 1 sets its new τ in one sweep."""
    nuc = seq.Nucleus(n_r=4, scl=np.array([[0, 1], [0, 2], [0, 3]]))
    tau = nuc.degrees().astype(np.int64)  # centre 3, leaves 1
    out = _check(nuc, tau, [0])
    assert out["tau"].tolist() == [1] and out["changed"].tolist() == [1]


def test_block_at_its_fixpoint_does_not_change():
    nuc, _ = seq.Nucleus.from_edges(SMALL_GRAPHS["gnp15"], 2, 3)
    kappa = seq.peel(nuc).astype(np.int64)
    block = [i for i in range(nuc.n_r) if nuc.incident(i).size]
    out = _check(nuc, kappa, block)
    assert (out["changed"] == 0).all()
    assert out["tau"].tolist() == kappa[block].tolist()


def test_single_block_is_sequential_and():
    """One block holding every r-clique runs the sequential AND."""
    nuc, _ = seq.Nucleus.from_edges(SMALL_GRAPHS["ba20"], 1, 2)
    tau0 = nuc.degrees().astype(np.int64)
    out = _block_sweep(_rows(nuc, tau0, list(range(nuc.n_r))))
    kappa, iters, _, _ = seq.and_seq(nuc)
    assert out["tau"].tolist() == kappa.tolist()
    assert out["changed"].max() == iters
