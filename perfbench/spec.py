"""Workloads, fixed Spark settings, input generation and gold answers.

Each workload is one graph from a suite generator family plus one
(r, s) decomposition, run through every engine. The graph is fixed per
workload (generator, parameters and generator seed below); ``--seed``
shuffles the order of its edge rows and the direction of each edge in
the raw list handed to ``edges.from_pandas``, which canonicalises it.
The program therefore sees a different raw input per seed while the
amount of work stays the same: vertex ids, packed clique keys, AND's
hash blocks and every engine's sweep count are those of the fixed
graph, so the spread between seeds measures the program rather than
the input. (A random vertex relabelling moves AND's block assignment,
and with it AND's sweep count by up to 20 %.)
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np
import pandas as pd

from repro.core import seq
from repro.graph import generators as gen
from repro.graph.cliques import pack_width

#: Spark settings, fixed for every run and recorded in the output. The
#: driver heap is DRIVER_MEMORY from the start and touched at JVM launch
#: (-Xms = -Xmx, AlwaysPreTouch): a heap that grows on demand grows by an
#: amount that depends on GC timing, and peak_rss_mb then differs by up to
#: 25 % between runs.
MASTER = "local[2]"
SHUFFLE_PARTITIONS = 4
AQE = True
DRIVER_MEMORY = "2g"

#: A request that takes longer than this is killed and counts as failed.
DEADLINE_S = 60.0
#: No request or worker restart starts once it could end past this point.
RUN_BUDGET_S = 150.0
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

ENGINES = ("snd", "snd_approx", "and", "peel")
#: Engines of the untimed warm-up cycle that runs before the measured
#: ones: the first request of an engine in a fresh JVM takes up to twice
#: as long as later ones (class loading, codegen, JIT), and how much
#: longer depends on the host's load. AND's request runs the
#: enumeration, joins and checkpoints that the other engines run, and
#: starts the Python workers of its ``applyInPandas`` sweep; peel's
#: first request (collect, driver peel) is twice as slow as later ones.
WARMUP_ENGINES = ("and", "peel")
#: snd_approx stops at the first sweep where this share of r-cliques
#: already holds its exact κ.
APPROX_ACCURACY = 0.9


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # suite entry whose generator the graph uses
    make: Callable[[], pd.DataFrame]
    r: int
    s: int
    why: str
    peel_repeats: int  # peel requests per measured cycle, ~2.5 s of them

    @property
    def cycle(self) -> Tuple[str, ...]:
        """One measured cycle. Requests keep getting faster as the JVM
        warms up, so the snd-family requests, whose plans the warm-up runs
        least, come after AND's, and the short peel request repeats at the
        end, where its samples are all equally warm. The repeat count is
        fixed, not timed, so a slow stretch of the host does not also
        change how many samples the median takes."""
        return ("and", "snd_approx", "snd") + ("peel",) * self.peel_repeats


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "shallow-k4", "fb-lite",
            lambda: gen.watts_strogatz(80, 10, 0.05, seed=12), 3, 4,
            "(3,4) on a clustered small world: 2 sweeps, so clique enumeration "
            "and the fixed per-sweep shuffle cost dominate", 2,
        ),
        Workload(
            "deep-core", "slj-lite",
            lambda: gen.barabasi_albert(50, 2, seed=13, closure=0.6), 1, 2,
            "k-core on preferential attachment with closure: 6 sweeps, where "
            "driver-side planning grows with every sweep", 10,
        ),
    )
}


def shuffle_rows(pdf: pd.DataFrame, seed: int) -> pd.DataFrame:
    """The same edges in a ``seed``-drawn row order, each edge's direction
    drawn by ``seed`` too."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pdf))
    src, dst = pdf["src"].to_numpy()[order], pdf["dst"].to_numpy()[order]
    flip = rng.random(len(pdf)) < 0.5
    return pd.DataFrame({"src": np.where(flip, dst, src), "dst": np.where(flip, src, dst)})


def make_edges(workload: str, seed: int) -> pd.DataFrame:
    """The workload's raw input edge list for ``seed`` (pandas, not
    canonical: ``edges.from_pandas`` orients and deduplicates it)."""
    return shuffle_rows(WORKLOADS[workload].make(), seed)


def pack_keys(cliques: List[Tuple[int, ...]], width: int) -> np.ndarray:
    """Packed rid keys, matching ``repro.graph.cliques.pack_expr``."""
    arr = np.asarray(cliques, dtype=np.int64).reshape(len(cliques), -1)
    out = np.zeros(len(cliques), dtype=np.int64)
    for col in arr.T:
        out = (out << width) + col
    return out


@dataclass
class Gold:
    """Exact κ per packed r-clique key, sorted by key."""

    rid: np.ndarray
    kappa: np.ndarray
    approx_sweeps: int  # max_iter given to snd_approx


def gold(pdf: pd.DataFrame, r: int, s: int) -> Gold:
    """Gold κ by brute-force local enumeration and the sequential peel,
    independent of every Spark code path. ``pdf`` may be a raw edge list;
    it is canonicalised here, apart from ``edges.normalize_edges``."""
    pdf = gen.from_edge_list(pdf[["src", "dst"]].to_numpy())
    nuc, cliques = seq.Nucleus.from_edges(pdf, r, s)
    kappa = seq.peel(nuc)
    width = pack_width(int(max(pdf["src"].max(), pdf["dst"].max())))
    keys = pack_keys(cliques, width)
    _, _, history = seq.snd_seq(nuc, track_history=True)
    approx = next(t for t, tau in enumerate(history)
                  if np.mean(tau == kappa) >= APPROX_ACCURACY)
    order = np.argsort(keys)
    return Gold(keys[order], kappa[order], approx)


def accuracy(g: Gold, rid: np.ndarray, kappa: np.ndarray) -> float:
    """Share of gold r-cliques whose returned κ equals the gold κ
    (0 when the returned key set differs from the gold one)."""
    order = np.argsort(rid)
    rid, kappa = np.asarray(rid)[order], np.asarray(kappa)[order]
    if rid.shape != g.rid.shape or not np.array_equal(rid, g.rid):
        return 0.0
    return float(np.mean(kappa == g.kappa)) if g.rid.size else 1.0


def check(g: Gold, engine: str, rid: np.ndarray, kappa: np.ndarray) -> str:
    """Empty string when the engine's answer is acceptable, else why not."""
    acc = accuracy(g, rid, kappa)
    need = APPROX_ACCURACY if engine == "snd_approx" else 1.0
    if acc < need:
        return f"wrong kappa: accuracy {acc:.4f} < {need}"
    return ""


def wedges(pdf: pd.DataFrame) -> int:
    """Wedges the degree-ordered enumeration visits: sum over vertices of
    C(out-degree, 2) in the (degree, id) orientation."""
    src, dst = pdf["src"].to_numpy(), pdf["dst"].to_numpy()
    deg = np.bincount(np.concatenate([src, dst]))
    fwd = (deg[src] < deg[dst]) | ((deg[src] == deg[dst]) & (src < dst))
    out = np.bincount(np.where(fwd, src, dst), minlength=deg.size)
    return int((out * (out - 1) // 2).sum())
