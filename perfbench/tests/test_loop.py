import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
import spec
from repro.graph import generators as gen


FAKE = [sys.executable, str(Path(__file__).resolve().parent / "fake_worker.py")]


@pytest.fixture
def fig3_gold():
    # k-core of the paper's Figure 3 toy graph
    return spec.gold(gen.fig3_graph(), 1, 2)


def test_gold_matches_paper_figure_3(fig3_gold):
    assert fig3_gold.rid.tolist() == [0, 1, 2, 3, 4, 5]
    assert fig3_gold.kappa.tolist() == [1, 2, 2, 2, 1, 1]


def test_wrong_kappa_counts_as_failed(fig3_gold):
    good = {"ok": True, "s": 1.5, "rid": fig3_gold.rid, "kappa": fig3_gold.kappa, "sweeps": 2}
    bad = dict(good, kappa=fig3_gold.kappa + np.eye(6, dtype=np.int64)[0])
    records = [
        {"engine": "snd", "cycle": 0, **run.classify(good, "snd", fig3_gold)},
        {"engine": "snd", "cycle": 0, **run.classify(bad, "snd", fig3_gold)},
        {"engine": "peel", "cycle": 0,
         **run.classify({"ok": False, "error": "boom"}, "peel", fig3_gold)},
    ]
    assert [r["ok"] for r in records] == [True, False, False]
    assert records[1]["reason"] == "wrong_kappa"
    assert run.failure_counts(records) == {"error": 1, "deadline": 0, "wrong_kappa": 1}
    # failed requests are charged the deadline
    assert run.engine_medians(records)["snd_s"] == pytest.approx((1.5 + spec.DEADLINE_S) / 2)


def test_approx_needs_ninety_percent(fig3_gold):
    k = fig3_gold.kappa.copy()
    assert spec.check(fig3_gold, "snd_approx", fig3_gold.rid, k) == ""
    k[0] += 1  # 5/6 correct
    assert spec.check(fig3_gold, "snd_approx", fig3_gold.rid, k)
    assert spec.check(fig3_gold, "snd", fig3_gold.rid[:-1], fig3_gold.kappa[:-1])


def _gone(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def test_deadline_kills_worker_group_and_run_goes_on(fig3_gold, monkeypatch):
    monkeypatch.setattr(spec, "DEADLINE_S", 2.0)
    hang = run.WorkerHandle(FAKE + ["hang"])
    loop = run.Loop(hang, fig3_gold, time.monotonic())
    t0 = time.monotonic()
    rec = loop.request(0, "snd")
    assert time.monotonic() - t0 < 30
    assert rec["reason"] == "deadline" and not rec["ok"] and rec["s"] == 2.0
    assert not hang.alive
    child = loop.setups[0]["child"]
    deadline = time.monotonic() + 10
    while not _gone(child) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert _gone(child), "the worker's child process outlived the deadline kill"

    # The next request starts a fresh worker and succeeds.
    loop.handle = run.WorkerHandle(FAKE + ["ok"])
    rec = loop.request(0, "peel")
    assert rec["ok"]
    assert len(loop.setups) == 2
    loop.handle.finish(10)
    assert not loop.handle.alive
    assert run.failure_counts(loop.records)["deadline"] == 1


def test_wrong_worker_answer_is_recorded(fig3_gold):
    loop = run.Loop(run.WorkerHandle(FAKE + ["wrong"]), fig3_gold, time.monotonic())
    try:
        loop.cycle(0)
    finally:
        loop.handle.stop()
    assert [r["reason"] for r in loop.records] == ["wrong_kappa"] * len(spec.ENGINES)


def test_seed_shuffles_rows_of_the_same_graph():
    a, b = spec.make_edges("deep-core", 1), spec.make_edges("deep-core", 2)
    assert not a.equals(b)
    assert spec.make_edges("deep-core", 1).equals(a)
    canon = lambda e: gen.from_edge_list(e.to_numpy())  # noqa: E731
    assert canon(a).equals(canon(b))
    assert canon(a).equals(spec.WORKLOADS["deep-core"].make())
    assert (a["src"] > a["dst"]).any()  # some edges arrive reversed
    ga, gb = (spec.gold(e, 1, 2) for e in (a, b))
    assert np.array_equal(ga.rid, gb.rid) and np.array_equal(ga.kappa, gb.kappa)
    assert ga.approx_sweeps == gb.approx_sweeps


def test_warmup_requests_are_not_measured(fig3_gold):
    ok = {"ok": True, "s": 1.0, "rid": fig3_gold.rid, "kappa": fig3_gold.kappa, "sweeps": 2}
    records = [
        {"engine": "and", "cycle": "warmup", **run.classify(dict(ok, s=9.0), "and", fig3_gold)},
        {"engine": "and", "cycle": 0, **run.classify(ok, "and", fig3_gold)},
    ]
    assert run.engine_medians(records) == {"and_s": 1.0}


def test_wedges_counts_oriented_pairs():
    # K4: degree-ordered orientation gives out-degrees 3, 2, 1, 0
    assert spec.wedges(gen.complete_graph(4)) == 3 + 1
    assert spec.wedges(gen.star_graph(5)) == 0  # every leaf points at the hub


def test_tree_rss_includes_self():
    assert run.tree_rss_mb(os.getpid()) > 1
