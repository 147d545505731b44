"""Post-hoc cluster-workdir replay: membership log + rank streams."""

import json
from pathlib import Path

from repro.analysis.invariants import (
    COLLECTIVE_AGREEMENT,
    FENCE_DISCIPLINE,
    GENERATION_MONOTONIC,
    INCARNATION_BUMP,
)
from repro.analysis.protocol import verify_cluster_workdir


def _write_membership(workdir, events, torn_tail=False):
    lines = [json.dumps(event) for event in events]
    text = "\n".join(lines) + "\n"
    if torn_tail:
        text += '{"type": "generation_for'  # SIGKILL mid-write
    (Path(workdir) / "membership_events.jsonl").write_text(text)


def _write_stream(workdir, source, spans, role="rank"):
    directory = Path(workdir) / "telemetry"
    directory.mkdir(parents=True, exist_ok=True)
    events = [{"kind": "meta", "version": 1, "source": source, "role": role}]
    events += spans
    (directory / f"{source}.jsonl").write_text(
        "\n".join(json.dumps(event) for event in events) + "\n"
    )


def _step_spans(generation, step, ops, base=0.0, rank=0):
    """One step span plus its contained collective spans."""
    spans = [{
        "kind": "span", "name": f"step{step}", "track": "train",
        "start": base, "end": base + 1.0, "depth": 0,
        "args": {"step": step, "generation": generation, "rank": rank},
    }]
    for index, (name, nbytes) in enumerate(ops):
        start = base + 0.1 * (index + 1)
        spans.append({
            "kind": "span", "name": name, "track": "train",
            "start": start, "end": start + 0.05, "depth": 1,
            "args": {"nbytes": nbytes},
        })
    return spans


GOOD_EVENTS = [
    {"type": "join", "generation": 0, "worker": "w0i0", "slot": 0,
     "incarnation": 0},
    {"type": "join", "generation": 0, "worker": "w1i0", "slot": 1,
     "incarnation": 0},
    {"type": "generation_formed", "generation": 1, "world": 2,
     "members": {"w0i0": 0, "w1i0": 1}},
    {"type": "evicted", "generation": 1, "worker": "w1i0",
     "reason": "control connection lost"},
    {"type": "fenced", "generation": 1, "reason": "w1i0 evicted"},
    {"type": "generation_formed", "generation": 2, "world": 2,
     "members": {"w0i0": 0, "w1i1": 1}},
    {"type": "complete", "generation": 2, "world": 2},
]


class TestMembershipReplay:
    def test_clean_log(self, tmp_path):
        _write_membership(tmp_path, GOOD_EVENTS)
        result = verify_cluster_workdir(str(tmp_path))
        assert result.ok
        assert result.kind == "cluster"
        assert result.stats["membership_events"] == len(GOOD_EVENTS)

    def test_reform_without_fence(self, tmp_path):
        events = [e for e in GOOD_EVENTS if e["type"] != "fenced"]
        _write_membership(tmp_path, events)
        result = verify_cluster_workdir(str(tmp_path))
        assert not result.ok
        assert {v.invariant for v in result.violations} == {
            FENCE_DISCIPLINE
        }

    def test_generation_going_backwards(self, tmp_path):
        events = list(GOOD_EVENTS[:5]) + [
            {"type": "generation_formed", "generation": 1, "world": 1,
             "members": {"w0i0": 0}},
        ]
        _write_membership(tmp_path, events)
        result = verify_cluster_workdir(str(tmp_path))
        assert any(
            v.invariant == GENERATION_MONOTONIC for v in result.violations
        )

    def test_readmission_without_incarnation_bump(self, tmp_path):
        events = list(GOOD_EVENTS)
        events[5] = {"type": "generation_formed", "generation": 2,
                     "world": 2, "members": {"w0i0": 0, "w1i0": 1}}
        _write_membership(tmp_path, events)
        result = verify_cluster_workdir(str(tmp_path))
        assert any(
            v.invariant == INCARNATION_BUMP for v in result.violations
        )

    def test_torn_tail_is_tolerated(self, tmp_path):
        _write_membership(tmp_path, GOOD_EVENTS, torn_tail=True)
        result = verify_cluster_workdir(str(tmp_path))
        assert result.ok

    def test_empty_workdir_is_vacuously_ok(self, tmp_path):
        result = verify_cluster_workdir(str(tmp_path))
        assert result.ok
        assert result.stats["membership_events"] == 0


STEP_OPS = [("reduce_scatter", 4000), ("all_gather", 2000)]


class TestCollectiveReplay:
    def test_agreeing_ranks(self, tmp_path):
        _write_membership(tmp_path, GOOD_EVENTS)
        for source, rank in (("w0i0", 0), ("w1i0", 1)):
            _write_stream(tmp_path, source, _step_spans(
                2, 0, STEP_OPS, rank=rank
            ))
        result = verify_cluster_workdir(str(tmp_path))
        assert result.ok
        assert result.stats["rank_streams"] == 2
        assert result.stats["collectives_observed"] == 4

    def test_disagreeing_nbytes(self, tmp_path):
        _write_membership(tmp_path, GOOD_EVENTS)
        _write_stream(tmp_path, "w0i0", _step_spans(2, 0, STEP_OPS))
        _write_stream(tmp_path, "w1i0", _step_spans(
            2, 0, [("reduce_scatter", 4000), ("all_gather", 9999)], rank=1
        ))
        result = verify_cluster_workdir(str(tmp_path))
        assert not result.ok
        assert result.violations[0].invariant == COLLECTIVE_AGREEMENT
        assert "9999" in result.violations[0].message

    def test_killed_rank_prefix_is_legal(self, tmp_path):
        _write_membership(tmp_path, GOOD_EVENTS)
        _write_stream(tmp_path, "w0i0", _step_spans(2, 0, STEP_OPS))
        # w1 was SIGKILLed after the reduce_scatter: a strict prefix.
        _write_stream(tmp_path, "w1i0", _step_spans(
            2, 0, STEP_OPS[:1], rank=1
        ))
        result = verify_cluster_workdir(str(tmp_path))
        assert result.ok

    def test_diverging_prefix_is_not(self, tmp_path):
        _write_membership(tmp_path, GOOD_EVENTS)
        _write_stream(tmp_path, "w0i0", _step_spans(2, 0, STEP_OPS))
        _write_stream(tmp_path, "w1i0", _step_spans(
            2, 0, [("all_gather", 2000)], rank=1
        ))
        result = verify_cluster_workdir(str(tmp_path))
        assert not result.ok
        assert result.violations[0].invariant == COLLECTIVE_AGREEMENT

    def test_missing_nbytes_is_tolerated(self, tmp_path):
        # Streams from before the spans carried nbytes (or with
        # telemetry partially disabled) still verify on op order.
        _write_membership(tmp_path, GOOD_EVENTS)
        _write_stream(tmp_path, "w0i0", _step_spans(2, 0, STEP_OPS))
        _write_stream(tmp_path, "w1i0", _step_spans(
            2, 0, [("reduce_scatter", None), ("all_gather", None)], rank=1
        ))
        result = verify_cluster_workdir(str(tmp_path))
        assert result.ok

    def test_supervisor_streams_are_ignored(self, tmp_path):
        _write_membership(tmp_path, GOOD_EVENTS)
        _write_stream(tmp_path, "w0i0", _step_spans(2, 0, STEP_OPS))
        _write_stream(tmp_path, "supervisor", _step_spans(
            2, 0, [("all_gather", 1)]
        ), role="supervisor")
        result = verify_cluster_workdir(str(tmp_path))
        assert result.ok
        assert result.stats["rank_streams"] == 1
