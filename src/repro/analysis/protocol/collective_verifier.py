"""Post-hoc replay of a finished cluster run (``repro check --cluster``).

:func:`verify_cluster_workdir` replays a real run's
``membership_events.jsonl`` and per-rank telemetry streams and verifies
the fencing discipline actually held — generations monotonic and
fenced-never-patched, ranks dense and slot-unique, evicted lives only
readmitted with a bumped incarnation, and every rank of a generation
having executed byte-identical collective sequences per step (prefixes
allowed: a fenced or killed rank stops mid-sequence). ZeRO collectives
match purely by call order, so two ranks that disagree there deadlock
the group or reduce the wrong bytes.
"""

from __future__ import annotations

import re

from repro.analysis.invariants import (
    CLUSTER_REPLAY_INVARIANTS,
    COLLECTIVE_AGREEMENT,
    COMPLETE_IMPLIES_DONE,
    FENCE_DISCIPLINE,
    GENERATION_MONOTONIC,
    INCARNATION_BUMP,
    UNIQUE_RANK_PER_SLOT,
    VerificationResult,
    Violation,
)

__all__ = ["verify_cluster_workdir"]

_WORKER_ID = re.compile(r"^w(\d+)i(\d+)$")

#: Span names that are collectives in the worker's step loop.
_COLLECTIVE_SPANS = frozenset(("reduce_scatter", "all_gather"))


def _parse_worker(worker: str) -> tuple | None:
    match = _WORKER_ID.match(worker)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2))


def _replay_membership(events: list) -> list:
    """Replay the membership log against the fencing discipline."""
    violations: list[Violation] = []
    current_generation = 0
    fenced_generations: set[int] = set()
    admitted: dict[int, int] = {}   # slot -> highest admitted incarnation
    evicted_lives: set[tuple] = set()
    eviction_generations: set[int] = set()

    for index, event in enumerate(events):
        etype = event.get("type")
        generation = int(event.get("generation", 0))
        if etype == "generation_formed":
            if generation <= current_generation:
                violations.append(Violation(
                    invariant=GENERATION_MONOTONIC,
                    trigger_id=index,
                    message=(
                        f"event {index}: generation {generation} formed "
                        f"after generation {current_generation}"
                    ),
                ))
            if (current_generation > 0
                    and current_generation not in fenced_generations):
                violations.append(Violation(
                    invariant=FENCE_DISCIPLINE,
                    trigger_id=index,
                    message=(
                        f"event {index}: generation {generation} formed "
                        f"while generation {current_generation} was never "
                        f"fenced — membership was patched, not fenced"
                    ),
                ))
            members = event.get("members", {})
            parsed = {w: _parse_worker(w) for w in members}
            slots = [p[0] for p in parsed.values() if p is not None]
            ranks = sorted(int(r) for r in members.values())
            if len(set(slots)) != len(slots) or ranks != list(range(len(ranks))):
                violations.append(Violation(
                    invariant=UNIQUE_RANK_PER_SLOT,
                    trigger_id=index,
                    message=(
                        f"event {index}: generation {generation} members "
                        f"{members} do not form a unique slot / dense rank "
                        f"assignment"
                    ),
                ))
            for worker, parsed_id in parsed.items():
                if parsed_id is None:
                    continue
                slot, incarnation = parsed_id
                if (slot, incarnation) in evicted_lives:
                    violations.append(Violation(
                        invariant=INCARNATION_BUMP,
                        trigger_id=index,
                        message=(
                            f"event {index}: {worker} rejoined generation "
                            f"{generation} with the same incarnation it "
                            f"was evicted with — respawns must bump the "
                            f"incarnation"
                        ),
                    ))
                previous = admitted.get(slot)
                if previous is not None and incarnation < previous:
                    violations.append(Violation(
                        invariant=INCARNATION_BUMP,
                        trigger_id=index,
                        message=(
                            f"event {index}: slot {slot} admitted at "
                            f"incarnation {incarnation} after already "
                            f"reaching {previous}"
                        ),
                    ))
                admitted[slot] = max(incarnation, admitted.get(slot, 0))
            current_generation = max(current_generation, generation)
        elif etype == "fenced":
            fenced_generations.add(generation)
        elif etype == "evicted":
            parsed_id = _parse_worker(event.get("worker", ""))
            if parsed_id is not None:
                evicted_lives.add(parsed_id)
            eviction_generations.add(generation)
        elif etype == "complete":
            if generation in fenced_generations:
                violations.append(Violation(
                    invariant=COMPLETE_IMPLIES_DONE,
                    trigger_id=index,
                    message=(
                        f"event {index}: the run completed in generation "
                        f"{generation} after that generation was fenced"
                    ),
                ))
    # Every eviction must have fenced its generation by end of log.
    unfenced = sorted(eviction_generations - fenced_generations)
    if unfenced:
        violations.append(Violation(
            invariant=FENCE_DISCIPLINE,
            trigger_id=len(events),
            message=(
                f"generations {unfenced} evicted a member but were never "
                f"fenced — survivors could complete collectives with a "
                f"stale world"
            ),
        ))
    return violations


def _executed_collectives(stream) -> dict:
    """Per (generation, step): the ordered collectives one rank ran."""
    steps = [
        span for span in stream.spans
        if str(span.get("name", "")).startswith("step")
        and isinstance(span.get("args"), dict)
        and "generation" in span["args"]
    ]
    out: dict = {}
    for step_span in steps:
        args = step_span["args"]
        key = (int(args["generation"]), int(args["step"]))
        inner = sorted(
            (
                span for span in stream.spans
                if span.get("name") in _COLLECTIVE_SPANS
                and span.get("start", 0.0) >= step_span.get("start", 0.0)
                and span.get("end", 0.0) <= step_span.get("end", 0.0)
            ),
            key=lambda span: span.get("start", 0.0),
        )
        out[key] = [
            (span["name"], (span.get("args") or {}).get("nbytes"))
            for span in inner
        ]
    return out


def _agreement_violations(sequences: dict) -> list:
    """Prefix-compatibility of executed collectives across ranks.

    ``sequences`` maps (generation, step) -> {source: [(kind, nbytes)]}.
    A killed or fenced rank legally stops mid-sequence, so shorter
    sequences must be prefixes of longer ones — any divergence before
    the shorter one ends means two ranks matched different collectives.
    """
    violations: list[Violation] = []
    for key in sorted(sequences):
        by_source = sequences[key]
        if len(by_source) < 2:
            continue
        generation, step = key
        reference_source = max(by_source, key=lambda s: len(by_source[s]))
        reference = by_source[reference_source]
        for source in sorted(by_source):
            if source == reference_source:
                continue
            sequence = by_source[source]
            for i, (kind, nbytes) in enumerate(sequence):
                ref_kind, ref_nbytes = reference[i]
                same_bytes = (
                    nbytes is None or ref_nbytes is None
                    or nbytes == ref_nbytes
                )
                if kind == ref_kind and same_bytes:
                    continue
                violations.append(Violation(
                    invariant=COLLECTIVE_AGREEMENT,
                    trigger_id=step,
                    message=(
                        f"generation {generation} step {step}, collective "
                        f"#{i}: {source} executed {kind}"
                        f"({nbytes} bytes) but {reference_source} executed "
                        f"{ref_kind}({ref_nbytes} bytes)"
                    ),
                ))
                break
            else:
                continue
            break
    return violations


def verify_cluster_workdir(workdir: str) -> VerificationResult:
    """Replay a real run's membership log + rank streams post-hoc."""
    from repro.telemetry.collect import load_membership, load_streams

    events = load_membership(workdir)
    violations = _replay_membership(events)

    streams = [s for s in load_streams(workdir) if s.role == "rank"]
    sequences: dict = {}
    executed = 0
    for stream in streams:
        for key, ops in _executed_collectives(stream).items():
            sequences.setdefault(key, {})[stream.source] = ops
            executed += len(ops)
    violations.extend(_agreement_violations(sequences))

    return VerificationResult(
        model_name=f"cluster-workdir/{workdir}",
        kind="cluster",
        violations=violations,
        invariants_checked=CLUSTER_REPLAY_INVARIANTS,
        stats={
            "membership_events": len(events),
            "rank_streams": len(streams),
            "steps_observed": len(sequences),
            "collectives_observed": executed,
        },
    )
