"""Decomposition benchmark: exact κ wall time per engine.

    python3 perfbench/run.py --workload shallow-k4 --seed 1 --seconds 20 --trace 0

One client sends requests one after another (a closed loop, one
client). A request is one exact nucleus decomposition of the workload's
graph through one engine — edges -> membership -> engine -> κ collected
on the driver — run in a separate worker process (``worker.py``) with
its own SparkSession. Every answer is checked against gold κ computed
here, outside every timed region, by brute-force enumeration and the
sequential peel.

After set-up, an untimed warm-up cycle runs ``spec.WARMUP_ENGINES`` once
each. The measured loop then runs whole cycles for ``--seconds``,
starting another only while the last one's length still fits; a cycle
(``Workload.cycle``) runs every engine, the short peel request several
times. Each engine's metric is its median measured request time. With
``--trace 1`` the run instead makes one untraced and one traced cycle
and prints per-layer metrics from spans and the Spark event log. The
last line of standard output is the JSON result.

The benchmark's own tests: ``python3 -m pytest perfbench/tests``.
"""
from __future__ import annotations

import argparse
import json
import multiprocessing as mp
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from math import comb
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import spec  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

END_TO_END = {
    "snd": "snd_s", "snd_approx": "snd_approx_s", "and": "and_s", "peel": "peel_s",
}


# ---------------------------------------------------------------------------
# Process tree
# ---------------------------------------------------------------------------

def _proc_table() -> Dict[int, tuple]:
    """pid -> (ppid, pgrp) for every live process."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        out[int(d)] = (int(fields[1]), int(fields[2]))
    return out


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_rss_mb(root: int) -> float:
    """Summed RSS of ``root`` and all its descendants, in MB."""
    table = _proc_table()
    kids: Dict[int, List[int]] = {}
    for pid, (ppid, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        total += _rss_kb(pid)
        todo.extend(kids.get(pid, []))
    return total * 1024 / 1e6


class RssSampler(threading.Thread):
    """Samples the benchmark's process tree RSS until stopped."""

    def __init__(self, period: float = 0.5) -> None:
        super().__init__(daemon=True)
        self.period = period
        self.peak = 0.0
        self._stop_evt = threading.Event()

    def run(self) -> None:
        while not self._stop_evt.is_set():
            self.peak = max(self.peak, tree_rss_mb(os.getpid()))
            self._stop_evt.wait(self.period)

    def stop(self) -> float:
        self._stop_evt.set()
        self.join()
        return self.peak


# ---------------------------------------------------------------------------
# Worker handle: one process group per worker, killed on a missed deadline
# ---------------------------------------------------------------------------

class WorkerHandle:
    """A worker process started as ``argv --fd N`` in a new session, so
    that killing its process group also kills the driver JVM and the
    Python workers it started. Messages go over a socket pair."""

    def __init__(self, argv: List[str]) -> None:
        self.argv = argv
        self.proc: Optional[subprocess.Popen] = None
        self.conn = None

    @property
    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def start(self, timeout: float) -> dict:
        """Start the worker; returns its set-up reply."""
        self.conn, child = mp.Pipe()
        fd = child.fileno()
        self.proc = subprocess.Popen(self.argv + ["--fd", str(fd)], pass_fds=(fd,),
                                     start_new_session=True)
        child.close()
        return self._reply(timeout)

    def call(self, msg: tuple, timeout: float) -> dict:
        self.conn.send(msg)
        return self._reply(timeout)

    def _reply(self, timeout: float) -> dict:
        try:
            if self.conn.poll(timeout):
                return self.conn.recv()
        except (EOFError, OSError):
            self.stop()
            return {"ok": False, "error": "worker exited"}
        self.stop()
        return {"ok": False, "deadline": True, "error": f"no reply within {timeout:.0f} s"}

    def stop(self) -> None:
        """Kill the worker's process group and wait until it is gone."""
        if self.proc is None:
            return
        pgid = self.proc.pid
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=30)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and any(
            g == pgid for _, g in _proc_table().values()
        ):
            time.sleep(0.1)
        self.conn.close()
        self.proc = None

    def finish(self, timeout: float) -> dict:
        """Ask the worker to wrap up, then stop it."""
        reply = self.call(("finish",), timeout) if self.alive else {}
        self.stop()
        return reply


def worker_argv(workload: str, seed: int, trace: bool, setups: int) -> List[str]:
    return [sys.executable, str(Path(worker.__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(trace)), "--setups", str(setups)]


# ---------------------------------------------------------------------------
# Closed loop
# ---------------------------------------------------------------------------

class Loop:
    """Sends the workload's requests one after another, restarting the
    worker after a failure, and classifies every outcome."""

    def __init__(self, handle: WorkerHandle, gold: spec.Gold, t0: float) -> None:
        self.handle, self.gold, self.t0 = handle, gold, t0
        self.records: List[dict] = []
        self.setups: List[dict] = []

    def _left(self) -> float:
        return spec.RUN_BUDGET_S - (time.monotonic() - self.t0)

    def ensure_worker(self) -> bool:
        if self.handle.alive:
            return True
        if self._left() < 5:
            return False
        reply = self.handle.start(self._left())
        if not reply.get("ok"):
            self.handle.stop()
            print(f"worker set-up failed: {reply.get('error')}", file=sys.stderr)
            return False
        self.setups.append(reply)
        return True

    def request(self, cycle, engine: str) -> dict:
        """One request; ``cycle`` is a number, or ``"warmup"``."""
        label = f"c{cycle}-{engine}" if isinstance(cycle, int) else f"{cycle}-{engine}"
        rec = {"request": label, "engine": engine, "cycle": cycle}
        if not self.ensure_worker():
            rec.update(ok=False, reason="error", detail="no worker", s=spec.DEADLINE_S)
        elif self._left() < 5:
            rec.update(ok=False, reason="deadline", detail="run budget spent", s=spec.DEADLINE_S)
        else:
            timeout = min(spec.DEADLINE_S, self._left())
            reply = self.handle.call(("request", label, engine, self.gold.approx_sweeps), timeout)
            rec.update(classify(reply, engine, self.gold))
        self.records.append(rec)
        print(json.dumps({k: rec[k] for k in ("request", "ok", "reason", "s", "sweeps") if k in rec}),
              flush=True)
        return rec

    def cycle(self, cycle, engines=spec.ENGINES) -> None:
        """One request per listed engine, in order."""
        for engine in engines:
            self.request(cycle, engine)


def classify(reply: dict, engine: str, gold: spec.Gold) -> dict:
    """Outcome of one request: ok, or failed by error, deadline or wrong κ.
    A failed request is charged the full deadline."""
    if reply.get("deadline"):
        return {"ok": False, "reason": "deadline", "detail": reply["error"], "s": spec.DEADLINE_S}
    if not reply.get("ok"):
        return {"ok": False, "reason": "error", "detail": reply.get("error", ""),
                "s": spec.DEADLINE_S}
    why = spec.check(gold, engine, reply["rid"], reply["kappa"])
    if why:
        return {"ok": False, "reason": "wrong_kappa", "detail": why, "s": spec.DEADLINE_S}
    return {"ok": True, "s": reply["s"], "sweeps": reply["sweeps"]}


def engine_medians(records: List[dict]) -> Dict[str, float]:
    """Median measured request time per engine (failed requests at the
    deadline; warm-up requests left out)."""
    out = {}
    for engine, name in END_TO_END.items():
        times = [r["s"] for r in records
                 if r["engine"] == engine and r["cycle"] != "warmup"]
        if times:
            out[name] = statistics.median(times)
    return out


def failure_counts(records: List[dict]) -> Dict[str, int]:
    counts = {"error": 0, "deadline": 0, "wrong_kappa": 0}
    for r in records:
        if not r["ok"]:
            counts[r["reason"]] += 1
    return counts


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced cycle
# ---------------------------------------------------------------------------

SPARK_KEYS = {
    "cliques": ("stages", "tasks", "shuffle_write_mb", "driver_s", "gc_s"),
    "snd": ("driver_s", "driver_frac", "jobs", "stages", "tasks", "executor_s",
            "parallelism", "shuffle_write_mb", "gc_s"),
    "and": ("driver_s", "udf_stage_s", "stages", "tasks", "parallelism",
            "shuffle_write_mb", "gc_s"),
}


def per_layer(traced: dict, setup: dict, r: int, s: int) -> Dict[str, float]:
    sp = [spans.Span(**d) for d in traced["spans"]]
    jobs = [spans.Job(**d) for d in traced["jobs"]]
    stages = [spans.Stage(**d) for d in traced["stages"]]
    spans.attribute_untagged(jobs, stages, sp)
    selft = spans.self_times(sp)

    def named(name):
        return [x for x in sp if x.name == name]

    def total(name, key=None):
        return sum(x.counts[key] if key else x.duration for x in named(name))

    m: Dict[str, float] = {k: setup[k] for k in ("session.s", "generators.s", "edges.s",
                                                   "edges.rows")}
    cl = named("cliques")
    m["cliques.s"] = total("cliques")
    m["cliques.n_r"] = cl[0].counts["n_r"]
    m["cliques.mdf_rows"] = cl[0].counts["mdf_rows"]
    m["cliques.wedges"] = setup["cliques.wedges"]
    m["cliques.yield"] = m["cliques.mdf_rows"] / comb(s, r) / max(1, setup["cliques.wedges"])
    for layer, keys in SPARK_KEYS.items():
        lm = spans.layer_metrics(layer, sp, jobs, stages)
        m.update({f"{layer}.{k}": lm[f"{layer}.{k}"] for k in keys})
    for layer in ("snd", "and"):
        m[f"{layer}.s"] = total(layer)
        m[f"{layer}.sweeps"] = total(layer, "sweeps")
        m[f"{layer}.s_per_sweep"] = m[f"{layer}.s"] / max(1, m[f"{layer}.sweeps"])
    m["peel.s"] = total("peel")
    m["peel.collect_s"] = sum(selft[x.id] for x in named("peel"))
    peel_requests = {x.request for x in named("peel")}
    m["peel.collect_rows"] = sum(x.counts["n_r"] + x.counts["mdf_rows"]
                                 for x in cl if x.request in peel_requests)
    m["seq.nucleus_s"] = total("seq.nucleus")
    m["seq.peel_s"] = total("seq.peel")
    m["seq.snd_seq_s"] = total("seq.snd_seq")
    m["seq.and_seq_s"] = total("seq.and_seq")
    m["seq.snd_sweeps"] = total("seq.snd_seq", "sweeps")
    m["seq.and_sweeps"] = total("seq.and_seq", "sweeps")
    m["seq.and_computations"] = total("seq.and_seq", "computations")
    m["seq.degree_levels"] = total("seq.degree_levels", "levels")
    m["seq.bulk_peel_rounds"] = total("seq.bulk_peel_rounds", "rounds")
    roots = named("request")
    wall = sum(x.duration for x in roots)
    m["trace.uncovered_frac"] = sum(selft[x.id] for x in roots) / wall if wall else 0.0
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def environment(args) -> dict:
    import pyspark

    w = spec.WORKLOADS[args.workload]
    return {
        "workload": args.workload, "family": w.family, "r": w.r, "s": w.s,
        "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "spark_master": spec.MASTER,
        "shuffle_partitions": spec.SHUFFLE_PARTITIONS, "aqe": spec.AQE,
        "driver_memory": spec.DRIVER_MEMORY, "driver_heap": "fixed, pre-touched",
        "warmup": spec.WARMUP_ENGINES, "cycle": w.cycle, "spark": pyspark.__version__,
        "python": platform.python_version(), "deadline_s": spec.DEADLINE_S,
        "setups": spec.SETUPS, "closed_loop_clients": 1,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> dict:
    t0 = time.monotonic()
    w = spec.WORKLOADS[args.workload]
    gold = spec.gold(spec.make_edges(w.name, args.seed), w.r, w.s)
    print(json.dumps({"env": environment(args), "approx_sweeps": gold.approx_sweeps,
                      "r_cliques": int(gold.rid.size)}), flush=True)

    phases = {"gold": time.monotonic() - t0}
    sampler = RssSampler()
    sampler.start()
    setups = 1 if args.trace else spec.SETUPS
    loop = Loop(WorkerHandle(worker_argv(w.name, args.seed, False, setups)), gold, t0)
    traced = Loop(WorkerHandle(worker_argv(w.name, args.seed, True, 1)), gold, t0)
    try:
        if args.trace:
            loop.cycle(0)
            loop.handle.finish(20)
            base = engine_medians(loop.records)
            traced.cycle(0)
            dump = traced.handle.finish(20)
            records = loop.records + traced.records
        else:
            loop.ensure_worker()
            phases["ready"] = time.monotonic() - t0
            loop.cycle("warmup", spec.WARMUP_ENGINES)
            start = time.monotonic()
            phases["warmup"] = start - t0 - phases["ready"]
            cycle, last = 0, 0.0
            while cycle == 0 or time.monotonic() - start + last <= args.seconds:
                began = time.monotonic()
                loop.cycle(cycle, w.cycle)
                last = time.monotonic() - began
                cycle += 1
            phases["requests"] = time.monotonic() - start
            loop.handle.finish(20)
            records = loop.records
    finally:
        loop.handle.stop()
        traced.handle.stop()
        peak = sampler.stop()
    phases["total"] = time.monotonic() - t0

    counts = failure_counts(records)
    failed = sum(counts.values())
    summary = {"failed_frac": failed / len(records), **counts,
               "setups": (loop.setups + traced.setups)[:1],
               "phases_s": phases, "failures": [r for r in records if not r["ok"]]}
    metrics: Dict[str, dict] = {}
    if args.trace:
        if not traced.setups or "spans" not in dump:
            summary["trace_error"] = "traced worker did not finish"
        else:
            per = per_layer(dump, traced.setups[0], w.r, w.s)
            cur = engine_medians(traced.records)
            per["trace.overhead_frac"] = sum(cur.values()) / sum(base.values()) - 1
            metrics = {k: metric(v, UNITS.get(k.rsplit(".", 1)[-1], "count"))
                       for k, v in per.items()}
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            path = OUT / "traces" / f"{w.name}-{args.seed}.json"
            path.write_text(json.dumps(dump))
            summary["trace_file"] = str(path.relative_to(ROOT))
    else:
        times = engine_medians(records)
        metrics = {name: metric(v, "s") for name, v in times.items()}
        if loop.setups:
            metrics["setup_s"] = metric(loop.setups[0]["setup_s"], "s")
        metrics["peak_rss_mb"] = metric(peak, "MB")
        if "peel_s" in times and "and_s" in times:
            summary["table5_peel_over_and"] = times["peel_s"] / times["and_s"]
    print(json.dumps({"summary": summary}), flush=True)
    return {
        "correct": counts["wrong_kappa"] == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


#: Unit by the last part of a per-layer metric name.
UNITS = {
    "s": "s", "driver_s": "s", "executor_s": "s", "gc_s": "s", "udf_stage_s": "s",
    "collect_s": "s", "nucleus_s": "s", "peel_s": "s", "snd_seq_s": "s",
    "and_seq_s": "s", "s_per_sweep": "s", "shuffle_write_mb": "MB",
    "driver_frac": "ratio", "parallelism": "ratio", "yield": "ratio",
    "overhead_frac": "ratio", "uncovered_frac": "ratio",
}


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
