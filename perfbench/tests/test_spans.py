import json

import pytest

import spans
from spans import Span, Stage, Job


def span(id, name, start, end, parent=None, request="r", **counts):
    return Span(id=id, name=name, start=start, end=end, parent=parent,
                request=request, counts=counts)


def test_union_length_merges_overlaps_and_gaps():
    assert spans.union_length([]) == 0
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4)
    assert spans.union_length([(5, 6), (0, 10)]) == pytest.approx(10)
    assert spans.union_length([(0, 1), (1, 2)]) == pytest.approx(2)
    assert spans.union_length([(3, 3), (4, 2)]) == 0


def test_covered_clips_to_window():
    assert spans.covered((2, 8), [(0, 3), (7, 20)]) == pytest.approx(2)
    assert spans.covered((2, 8), [(9, 10)]) == 0


def test_self_time_subtracts_union_of_children():
    sp = [
        span(0, "request", 0, 10),
        span(1, "cliques", 1, 4, parent=0),
        span(2, "snd", 3, 9, parent=0),  # overlaps its sibling: counted once
        span(3, "seq.peel", 5, 6, parent=2),
    ]
    st = spans.self_times(sp)
    assert st[0] == pytest.approx(2)  # 10 - |[1, 9]|
    assert st[1] == pytest.approx(3)
    assert st[2] == pytest.approx(5)
    assert st[3] == pytest.approx(1)


def test_self_times_account_for_request_wall_time():
    sp = [
        span(0, "request", 0, 10),
        span(1, "cliques", 1, 4, parent=0),
        span(2, "peel", 4, 9.5, parent=0),
        span(3, "seq.nucleus", 5, 6, parent=2),
        span(4, "seq.peel", 6, 8, parent=2),
    ]
    assert sum(spans.self_times(sp).values()) == pytest.approx(10)


def test_tracer_nests_and_tags():
    tags = []
    t = spans.Tracer(on_enter=tags.append)
    with t.span("request", request="c0-snd") as root:
        with t.span("snd") as inner:
            pass
    assert inner.parent == root.id and inner.request == "c0-snd"
    assert root.start <= inner.start <= inner.end <= root.end
    assert tags == [0, 1, 0, None]


def test_driver_time_is_span_time_outside_stages():
    sp = [span(0, "snd", 100, 110), span(1, "snd", 200, 204), span(2, "and", 300, 310)]
    jobs = [Job(0, 0, 100), Job(1, 1, 200), Job(2, 2, 300)]
    stages = [
        Stage(0, 0, 0, 101, 103, tasks=2, executor_s=3.0, gc_s=0.5, shuffle_write_bytes=2e6),
        Stage(1, 0, 0, 102, 104, tasks=1, executor_s=1.0),
        Stage(2, 0, 0, 109, 115, tasks=1, executor_s=1.0),  # runs past the span
        Stage(3, 1, 1, 200, 204, tasks=4, executor_s=8.0),
        Stage(4, 2, 2, 301, 302, tasks=1, executor_s=1.0, udf=True),
    ]
    m = spans.layer_metrics("snd", sp, jobs, stages)
    # covered: [101, 104] + [109, 110] in span 0, all of span 1
    assert m["snd.s"] == pytest.approx(14)
    assert m["snd.driver_s"] == pytest.approx(14 - 4 - 4)
    assert m["snd.driver_frac"] == pytest.approx(6 / 14)
    assert m["snd.jobs"] == 2 and m["snd.stages"] == 4 and m["snd.tasks"] == 8
    assert m["snd.executor_s"] == pytest.approx(13)
    assert m["snd.parallelism"] == pytest.approx(13 / 8)
    assert m["snd.shuffle_write_mb"] == pytest.approx(2)
    assert m["snd.gc_s"] == pytest.approx(0.5)
    assert m["snd.udf_stage_s"] == 0
    a = spans.layer_metrics("and", sp, jobs, stages)
    assert a["and.udf_stage_s"] == pytest.approx(1)
    assert a["and.driver_s"] == pytest.approx(9)


def _events():
    rdd = [{"Name": "MapPartitionsRDD",
            "Scope": json.dumps({"id": "7", "name": "FlatMapGroupsInPandas"})}]
    return [
        {"Event": "SparkListenerJobStart", "Job ID": 0, "Submission Time": 1000,
         "Stage IDs": [0, 1], "Properties": {spans.SPAN_PROPERTY: "3"}},
        {"Event": "SparkListenerTaskEnd", "Stage ID": 0, "Stage Attempt ID": 0,
         "Task Metrics": {"Executor Run Time": 400, "JVM GC Time": 20,
                          "Shuffle Write Metrics": {"Shuffle Bytes Written": 1000}}},
        {"Event": "SparkListenerTaskEnd", "Stage ID": 0, "Stage Attempt ID": 0,
         "Task Metrics": {"Executor Run Time": 600, "JVM GC Time": 0,
                          "Shuffle Write Metrics": {"Shuffle Bytes Written": 500}}},
        {"Event": "SparkListenerStageCompleted", "Stage Info": {
            "Stage ID": 0, "Stage Attempt ID": 0, "Submission Time": 1000,
            "Completion Time": 1500, "RDD Info": rdd}},
        # Stage 1 was skipped: never submitted, never counted.
        {"Event": "SparkListenerStageCompleted", "Stage Info": {
            "Stage ID": 1, "Stage Attempt ID": 0, "RDD Info": []}},
        {"Event": "SparkListenerJobEnd", "Job ID": 0, "Completion Time": 1600},
        {"Event": "SparkListenerJobStart", "Job ID": 1, "Submission Time": 2000,
         "Stage IDs": [2], "Properties": {}},
        {"Event": "SparkListenerStageCompleted", "Stage Info": {
            "Stage ID": 2, "Stage Attempt ID": 0, "Submission Time": 2000,
            "Completion Time": 2100, "RDD Info": []}},
    ]


def test_parse_event_log_sums_task_metrics():
    jobs, stages = spans.parse_event_log(json.dumps(e) for e in _events())
    assert [(j.id, j.span, j.start, j.end) for j in jobs] == [(0, 3, 1.0, 1.6), (1, None, 2.0, 0.0)]
    st = {s.id: s for s in stages}
    assert set(st) == {0, 2}
    s0 = st[0]
    assert (s0.span, s0.start, s0.end, s0.tasks) == (3, 1.0, 1.5, 2)
    assert s0.executor_s == pytest.approx(1.0) and s0.gc_s == pytest.approx(0.02)
    assert s0.shuffle_write_bytes == 1500 and s0.udf
    assert not st[2].udf


def test_untagged_jobs_go_to_innermost_open_span():
    jobs, stages = spans.parse_event_log(json.dumps(e) for e in _events())
    sp = [span(0, "request", 1.5, 3), span(5, "and", 1.9, 2.5, parent=0)]
    spans.attribute_untagged(jobs, stages, sp)
    assert jobs[1].span == 5
    assert {s.id: s.span for s in stages}[2] == 5
