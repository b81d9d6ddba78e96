"""In-memory spans, interval arithmetic and Spark event-log attribution.

A span is one timed call into a layer (name, start, end, parent, request
id). Times are wall-clock epoch seconds so they line up with the
millisecond timestamps Spark writes to its event log. Spark jobs carry
the id of the span that submitted them as a local property
(``SPAN_PROPERTY``), which is how stages are attributed to layers.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

SPAN_PROPERTY = "perfbench.span"

Interval = Tuple[float, float]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: str
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``on_enter(span_id)`` lets the caller tag
    work started inside a span (the worker sets a Spark local property)."""

    def __init__(self, on_enter=None) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._on_enter = on_enter or (lambda span_id: None)

    @contextmanager
    def span(self, name: str, request: str = "") -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            id=len(self.spans), name=name, start=time.time(), end=0.0,
            parent=parent.id if parent else None,
            request=request or (parent.request if parent else ""),
        )
        self.spans.append(sp)
        self._stack.append(sp)
        self._on_enter(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.time()
            self._stack.pop()
            self._on_enter(self._stack[-1].id if self._stack else None)

    def dump(self) -> List[dict]:
        return [asdict(s) for s in self.spans]


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def clip(intervals: Iterable[Interval], lo: float, hi: float) -> List[Interval]:
    """Intervals cut to the window [lo, hi]; empty pieces dropped."""
    return [(max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)]


def covered(window: Interval, intervals: Iterable[Interval]) -> float:
    """How much of ``window`` the union of ``intervals`` covers."""
    return union_length(clip(intervals, *window))


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part covered by its child spans."""
    kids: Dict[int, List[Interval]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered((s.start, s.end), kids.get(s.id, [])) for s in spans}


# ---------------------------------------------------------------------------
# Spark event log
# ---------------------------------------------------------------------------

#: RDD scope of the stages that run an ``applyInPandas`` function.
UDF_SCOPE = "FlatMapGroupsInPandas"


@dataclass
class Stage:
    id: int
    job: int
    span: Optional[int]
    start: float
    end: float
    tasks: int = 0
    executor_s: float = 0.0
    gc_s: float = 0.0
    shuffle_write_bytes: float = 0.0
    udf: bool = False


@dataclass
class Job:
    id: int
    span: Optional[int]
    start: float
    end: float = 0.0


def parse_event_log(lines: Iterable[str]) -> Tuple[List[Job], List[Stage]]:
    """Jobs and completed stages (with summed task metrics) from the JSON
    lines of one Spark application's event log."""
    jobs: Dict[int, Job] = {}
    stage_job: Dict[int, int] = {}
    stages: Dict[Tuple[int, int], Stage] = {}
    task_acc: Dict[Tuple[int, int], List[float]] = {}
    for line in lines:
        ev = json.loads(line)
        kind = ev.get("Event")
        if kind == "SparkListenerJobStart":
            props = ev.get("Properties") or {}
            raw = props.get(SPAN_PROPERTY)
            job = Job(ev["Job ID"], int(raw) if raw not in (None, "") else None,
                      ev["Submission Time"] / 1e3)
            jobs[job.id] = job
            for sid in ev.get("Stage IDs", []):
                stage_job[sid] = job.id
        elif kind == "SparkListenerJobEnd":
            if ev["Job ID"] in jobs:
                jobs[ev["Job ID"]].end = ev["Completion Time"] / 1e3
        elif kind == "SparkListenerTaskEnd":
            key = (ev["Stage ID"], ev["Stage Attempt ID"])
            m = ev.get("Task Metrics") or {}
            acc = task_acc.setdefault(key, [0, 0.0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += m.get("Executor Run Time", 0) / 1e3
            acc[2] += m.get("JVM GC Time", 0) / 1e3
            acc[3] += (m.get("Shuffle Write Metrics") or {}).get("Shuffle Bytes Written", 0)
        elif kind == "SparkListenerStageCompleted":
            info = ev["Stage Info"]
            if "Submission Time" not in info or "Completion Time" not in info:
                continue
            sid = info["Stage ID"]
            job_id = stage_job.get(sid, -1)
            job = jobs.get(job_id)
            blob = json.dumps(info.get("RDD Info", []))
            stages[(sid, info["Stage Attempt ID"])] = Stage(
                id=sid, job=job_id, span=job.span if job else None,
                start=info["Submission Time"] / 1e3, end=info["Completion Time"] / 1e3,
                udf=UDF_SCOPE in blob,
            )
    for key, st in stages.items():
        n, ex, gc, sw = task_acc.get(key, [0, 0.0, 0.0, 0.0])
        st.tasks, st.executor_s, st.gc_s, st.shuffle_write_bytes = int(n), ex, gc, sw
    return list(jobs.values()), list(stages.values())


def attribute_untagged(jobs: List[Job], stages: List[Stage], spans: Sequence[Span]) -> None:
    """Give jobs without a span tag the innermost span open at submission."""
    by_job = {}
    for job in jobs:
        if job.span is None:
            inside = [s for s in spans if s.start <= job.start <= s.end]
            if inside:
                job.span = max(inside, key=lambda s: s.start).id
        by_job[job.id] = job.span
    for st in stages:
        if st.span is None:
            st.span = by_job.get(st.job)


def layer_metrics(layer: str, spans: Sequence[Span], jobs: Sequence[Job],
                  stages: Sequence[Stage]) -> Dict[str, float]:
    """Spark-side counters and driver time for the spans named ``layer``.

    A layer's driver time is its span time not covered by the union of
    its Spark stage intervals; parallelism is executor run time divided
    by the stage-covered wall time.
    """
    mine = [s for s in spans if s.name == layer]
    ids = {s.id for s in mine}
    my_stages = [st for st in stages if st.span in ids]
    total = sum(s.duration for s in mine)
    stage_cov = 0.0
    udf_cov = 0.0
    for s in mine:
        win = (s.start, s.end)
        stage_cov += covered(win, [(st.start, st.end) for st in my_stages if st.span == s.id])
        udf_cov += covered(win, [(st.start, st.end) for st in my_stages
                                 if st.span == s.id and st.udf])
    executor_s = sum(st.executor_s for st in my_stages)
    return {
        f"{layer}.s": total,
        f"{layer}.driver_s": total - stage_cov,
        f"{layer}.driver_frac": (total - stage_cov) / total if total > 0 else 0.0,
        f"{layer}.jobs": sum(1 for j in jobs if j.span in ids),
        f"{layer}.stages": len(my_stages),
        f"{layer}.tasks": sum(st.tasks for st in my_stages),
        f"{layer}.executor_s": executor_s,
        f"{layer}.parallelism": executor_s / stage_cov if stage_cov > 0 else 0.0,
        f"{layer}.shuffle_write_mb": sum(st.shuffle_write_bytes for st in my_stages) / 1e6,
        f"{layer}.gc_s": sum(st.gc_s for st in my_stages),
        f"{layer}.udf_stage_s": udf_cov,
    }
