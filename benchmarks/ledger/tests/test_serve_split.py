"""The latency-parts rule of the traced ``serve_jobs`` pass, and which
jobs of the stream give a latency sample at all."""

import statistics

import pytest

from servebench import lateness, split_latency


def synthetic(n=48, spacing=0.33, poll=0.2, run=0.14, queue=0.001):
    """A server that claims and settles on its poll ticks only."""
    schedule, trace, docs = [], {"submitted": {}, "claimed": {}, "settled": {}}, {}
    for i in range(n):
        job_id, due = f"j{i}", i * spacing
        claimed = -(-due // poll) * poll                  # next tick at or after due
        finished = claimed + queue + run
        settled = -(-finished // poll) * poll + 0.004     # next tick, seen 4 ms later
        schedule.append((job_id, due))
        trace["submitted"][job_id] = (due, due + 0.002)
        trace["claimed"][job_id] = claimed
        trace["settled"][job_id] = settled
        docs[job_id] = {"engine": {"queue_wait_seconds": queue, "run_seconds": run}}
    return schedule, trace, docs


def test_the_four_parts_of_a_job_sum_to_its_latency():
    schedule, trace, docs = synthetic()
    parts, spans = split_latency(schedule, trace, docs)
    assert {len(v) for v in parts.values()} == {48}
    for i, (job_id, due) in enumerate(schedule):
        total = sum(parts[k][i] for k in parts)
        assert total == pytest.approx(trace["settled"][job_id] - due)
    assert len([s for s in spans if s["name"] == "job"]) == 48


def test_medians_of_the_parts_sum_to_the_median_latency_within_ten_percent():
    schedule, trace, docs = synthetic()
    parts, _ = split_latency(schedule, trace, docs)
    latency = [trace["settled"][j] - due for j, due in schedule]
    ratio = sum(statistics.median(v) for v in parts.values()) / statistics.median(latency)
    assert 0.9 < ratio < 1.1


def test_a_job_never_seen_in_claimed_is_left_out_not_guessed():
    schedule, trace, docs = synthetic(n=6)
    del trace["claimed"]["j3"]
    parts, spans = split_latency(schedule, trace, docs)
    assert len(parts["claim"]) == 5
    assert "j3" not in {s["id"] for s in spans}


def test_a_job_submitted_late_gives_no_latency_sample():
    schedule, trace, _ = synthetic(n=6)
    start, end = trace["submitted"]["j2"]
    trace["submitted"]["j2"] = (start + 0.061, end + 0.061)  # the generator lost its core
    late, on_time = lateness(schedule, trace)
    assert late == pytest.approx([0, 0, 0.061, 0, 0, 0])
    assert [job_id for job_id, _ in on_time] == ["j0", "j1", "j3", "j4", "j5"]
