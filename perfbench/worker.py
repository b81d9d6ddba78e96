"""Spark side of the benchmark: one SparkSession per worker process.

The client starts a worker per workload run (and again after a missed
deadline) in a session of its own, sends it requests over a socket and
kills its whole process group — Python, the driver JVM and its Python workers — when a request
misses its deadline: Catalyst planning runs on the driver thread and
cannot be stopped with ``cancelAllJobs``.

A traced worker additionally writes the Spark event log, records spans
around every call into a layer and tags each Spark job with the id of
the span that submitted it.
"""
from __future__ import annotations

import argparse
import glob
import os
import shutil
import statistics
import sys
import traceback
from multiprocessing.connection import Connection
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402
from spans import SPAN_PROPERTY, Tracer, parse_event_log  # noqa: E402

#: Traced span name of each engine's layer.
LAYER = {"snd": "snd", "snd_approx": "snd", "and": "and", "peel": "peel"}


def _environment() -> None:
    """Process environment read at JVM launch; keeps every scratch file
    inside the checkout."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # Python workers of applyInPandas import repro from the checkout.
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {spec.MASTER} --driver-memory {spec.DRIVER_MEMORY} "
        f"--conf 'spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp} "
        f"-Xms{spec.DRIVER_MEMORY} -XX:+AlwaysPreTouch' "
        "pyspark-shell"
    )


class Worker:
    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.w = spec.WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.tracer = Tracer(on_enter=self._tag if trace else None)
        self.spark = None
        self.edges = None
        self.nucleus = None  # captured from the traced peel request
        self.event_dir = OUT / "eventlog" / str(os.getpid())

    def _tag(self, span_id) -> None:
        if self.spark is not None:
            self.spark.sparkContext.setLocalProperty(
                SPAN_PROPERTY, None if span_id is None else str(span_id)
            )

    def _session(self):
        from pyspark.sql import SparkSession

        b = (
            SparkSession.builder.appName(f"perfbench-{self.w.name}")
            .config("spark.sql.shuffle.partitions", str(spec.SHUFFLE_PARTITIONS))
            .config("spark.sql.adaptive.enabled", str(spec.AQE).lower())
            .config("spark.sql.autoBroadcastJoinThreshold", "-1")
            .config("spark.driver.host", "127.0.0.1")
            .config("spark.ui.enabled", "false")
            .config("spark.ui.showConsoleProgress", "false")
            .config("spark.sql.warehouse.dir", str(OUT / "warehouse"))
        )
        if self.trace:
            self.event_dir.mkdir(parents=True, exist_ok=True)
            b = (
                b.config("spark.eventLog.enabled", "true")
                .config("spark.eventLog.dir", self.event_dir.as_uri())
                .config("spark.eventLog.compress", "false")
                .config("spark.eventLog.rolling.enabled", "false")
            )
        spark = b.getOrCreate()
        spark.sparkContext.setLogLevel("ERROR")
        return spark

    def setup(self, repeats: int) -> dict:
        """Session start + graph generation + edges.from_pandas +
        checkpoint, ``repeats`` times; the last set-up is kept."""
        from repro.graph import edges as ged

        parts = {"session": [], "generators": [], "edges": []}
        totals = []
        for _ in range(repeats):
            if self.spark is not None:
                self.spark.stop()
                self.spark = None
            with self.tracer.span("setup", request="setup") as root:
                with self.tracer.span("session") as sp:
                    self.spark = self._session()
                parts["session"].append(sp.duration)
                with self.tracer.span("generators") as sp:
                    pdf = spec.make_edges(self.w.name, self.seed)
                parts["generators"].append(sp.duration)
                with self.tracer.span("edges") as sp:
                    self.edges = ged.from_pandas(self.spark, pdf).localCheckpoint(eager=True)
                parts["edges"].append(sp.duration)
            totals.append(root.duration)
        out = {f"{k}.s": statistics.median(v) for k, v in parts.items()}
        out["setup_s"] = statistics.median(totals)
        out["edges.rows"] = self.edges.count()
        out["cliques.wedges"] = spec.wedges(pdf)
        return out

    # -- requests ----------------------------------------------------------

    def request(self, label: str, engine: str, approx_sweeps: int) -> dict:
        try:
            with self.tracer.span("request", request=label) as root:
                if self.trace:
                    rid, kappa, sweeps = self._traced(engine, approx_sweeps)
                else:
                    rid, kappa, sweeps = self._call(engine, approx_sweeps, None)
        except Exception:  # reported to the client as a failed request
            return {"ok": False, "error": traceback.format_exc(limit=3)}
        return {"ok": True, "s": root.duration, "rid": rid, "kappa": kappa, "sweeps": sweeps}

    def _call(self, engine: str, approx_sweeps: int, mem):
        """edges -> engine -> κ collected on the driver."""
        from repro.core.and_spark import and_block
        from repro.core.peel_spark import peel_baseline
        from repro.core.snd import snd

        r, s = self.w.r, self.w.s
        if engine == "peel":
            pdf = peel_baseline(self.spark, self.edges, r, s, mem=mem)
            return pdf["rid"].to_numpy(), pdf["kappa"].to_numpy(), 0
        if engine == "and":
            res = and_block(self.spark, self.edges, r, s, mem=mem)
        else:
            max_iter = approx_sweeps if engine == "snd_approx" else None
            res = snd(self.spark, self.edges, r, s, max_iter=max_iter, mem=mem)
        pdf = res.to_pandas()
        return pdf["rid"].to_numpy(), pdf["kappa"].to_numpy(), res.iterations

    def _traced(self, engine: str, approx_sweeps: int):
        """Membership materialised first, so enumeration is charged to
        ``cliques`` and not recomputed inside the engine span."""
        from repro.graph.cliques import Membership, membership

        t = self.tracer
        with t.span("cliques") as sp:
            m = membership(self.edges, self.w.r, self.w.s)
            mem = Membership(
                rdf=m.rdf.localCheckpoint(eager=True),
                mdf=m.mdf.localCheckpoint(eager=True),
                width=m.width, r=m.r, s=m.s,
            )
            sp.counts = {"n_r": mem.rdf.count(), "mdf_rows": mem.mdf.count()}
        with t.span(LAYER[engine]) as sp:
            rid, kappa, sweeps = self._call(engine, approx_sweeps, mem)
            sp.counts = {"sweeps": sweeps}
        mem.rdf.unpersist(False)
        mem.mdf.unpersist(False)
        return rid, kappa, sweeps

    # -- traced run only ---------------------------------------------------

    def instrument(self) -> None:
        """Spans around the sequential engine calls made inside
        ``core.peel_spark.peel_baseline``."""
        from repro.core import seq

        build, peel = seq.nucleus_from_pandas_membership, seq.peel

        def traced_build(*a, **k):
            with self.tracer.span("seq.nucleus"):
                nuc, keys = build(*a, **k)
            self.nucleus = nuc
            return nuc, keys

        def traced_peel(*a, **k):
            with self.tracer.span("seq.peel"):
                return peel(*a, **k)

        seq.nucleus_from_pandas_membership = traced_build
        seq.peel = traced_peel

    def reference(self) -> None:
        """The single-threaded reference engines on the peel's nucleus."""
        from repro.core import seq

        nuc, t = self.nucleus, self.tracer
        if nuc is None:
            return
        with t.span("seq.snd_seq", request="reference") as sp:
            sp.counts = {"sweeps": seq.snd_seq(nuc)[1]}
        with t.span("seq.and_seq", request="reference") as sp:
            _, iters, comps, _ = seq.and_seq(nuc)
            sp.counts = {"sweeps": iters, "computations": comps}
        with t.span("seq.degree_levels", request="reference") as sp:
            sp.counts = {"levels": seq.degree_levels(nuc)}
        with t.span("seq.bulk_peel_rounds", request="reference") as sp:
            sp.counts = {"rounds": seq.bulk_peel_rounds(nuc)}

    def finish(self) -> dict:
        """Stop the session; in a traced worker, return spans and the
        parsed event log of the last session."""
        out = {}
        app = self.spark.sparkContext.applicationId if self.spark else None
        if self.spark is not None:
            self.spark.stop()
            self.spark = None
        if self.trace:
            out["spans"] = self.tracer.dump()
            lines = []
            for path in sorted(glob.glob(str(self.event_dir / f"{app}*"))):
                with open(path) as fh:
                    lines.extend(fh)
            shutil.rmtree(self.event_dir, ignore_errors=True)
            jobs, stages = parse_event_log(lines)
            out["jobs"] = [vars(j) for j in jobs]
            out["stages"] = [vars(s) for s in stages]
        return out


def serve(conn, workload: str, seed: int, trace: bool, setups: int) -> None:
    """Set up, answer the set-up message, then serve requests."""
    _environment()
    worker = Worker(workload, seed, trace)
    if trace:
        worker.instrument()
    try:
        conn.send({"ok": True, **worker.setup(setups)})
    except Exception:
        conn.send({"ok": False, "error": traceback.format_exc()})
        return
    while True:
        msg = conn.recv()
        if msg[0] == "request":
            conn.send(worker.request(*msg[1:]))
        elif msg[0] == "finish":
            if trace:
                worker.reference()
            conn.send(worker.finish())
            return


if __name__ == "__main__":
    p = argparse.ArgumentParser(description="benchmark worker (started by run.py)")
    p.add_argument("--fd", type=int, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, required=True)
    p.add_argument("--setups", type=int, required=True)
    a = p.parse_args()
    serve(Connection(a.fd), a.workload, a.seed, bool(a.trace), a.setups)
