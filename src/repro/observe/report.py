"""The run-report layer: one readable verdict per profiling run.

``repro report build`` merges a ``BENCH_telemetry.json`` payload (and,
when present, the Chrome trace and the alert log embedded in it) into one
self-contained markdown — optionally HTML — document: a summary table, a
per-tier **memory waterfall**, the **tier-traffic table**, the static
**verification verdict** (from :mod:`repro.analysis`), the watchdog's
**anomaly section**, and the span breakdown. Timing comparisons between
two trees belong to ``python3 -m bench compare``, which carries spread.
"""

from __future__ import annotations

import html as _html
import json
from pathlib import Path

from repro.units import GiB, KiB, MiB

_BAR_WIDTH = 30


def load_payload(path) -> dict:
    return json.loads(Path(path).read_text())


def _fmt_bytes(nbytes: float) -> str:
    if nbytes >= GiB:
        return f"{nbytes / GiB:.2f} GiB"
    if nbytes >= MiB:
        return f"{nbytes / MiB:.2f} MiB"
    if nbytes >= KiB:
        return f"{nbytes / KiB:.1f} KiB"
    return f"{nbytes:.0f} B"


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = round(fraction * width)
    return "#" * filled + "." * (width - filled)


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def _summary_section(bench: dict) -> list[str]:
    rows = []
    train = bench.get("train", {})
    sim = bench.get("simulated", {})
    if train:
        rows.append(("steps", f"{train.get('steps', '?')}"))
        if train.get("elapsed_seconds") is not None:
            rows.append(("elapsed", f"{train['elapsed_seconds']:.3f} s"))
        if train.get("steps_per_second") is not None:
            rows.append(("throughput", f"{train['steps_per_second']:.2f} steps/s"))
        if train.get("final_loss") is not None:
            rows.append(("final loss", f"{train['final_loss']:.4f}"))
    if sim:
        rows.append((
            "simulated",
            f"{sim.get('model', '?')} -> "
            f"{sim.get('samples_per_second', 0):.2f} samples/s",
        ))
    lines = ["## Summary", "", "| metric | value |", "|---|---|"]
    lines += [f"| {name} | {value} |" for name, value in rows]
    return lines + [""]


def _waterfall_section(bench: dict) -> list[str]:
    """Per-tier residency bars over the sampled step timeline."""
    timeline = bench.get("memory_timeline") or []
    lines = ["## Memory waterfall", ""]
    if not timeline:
        return lines + ["_No residency timeline in this payload._", ""]
    tiers = sorted({tier for sample in timeline for tier in sample["tiers"]})
    # Downsample to at most 20 rows so long runs stay readable.
    stride = max(1, len(timeline) // 20)
    sampled = timeline[::stride]
    if sampled[-1] is not timeline[-1]:
        sampled.append(timeline[-1])
    for tier in tiers:
        stats = [s for s in sampled if tier in s["tiers"]]
        if not stats:
            continue
        capacity = max(
            s["tiers"][tier].get("used_bytes", 0)
            + s["tiers"][tier].get("free_bytes", 0)
            for s in stats
        )
        lines.append(f"### {tier} (capacity {_fmt_bytes(capacity)})")
        lines.append("")
        lines.append("```")
        for sample in stats:
            t = sample["tiers"][tier]
            used = t.get("used_bytes", 0)
            fraction = used / capacity if capacity else 0.0
            lines.append(
                f"step {sample['step']:>4}  {_bar(fraction)} "
                f"{fraction:>5.0%}  {_fmt_bytes(used)}"
            )
        lines.append("```")
        lines.append("")
    return lines


def _traffic_section(bench: dict) -> list[str]:
    """Bytes and page-move counts per (src, dst) tier edge."""
    edges = bench.get("per_tier_edge_bytes") or {}
    counters = (
        bench.get("telemetry", {}).get("metrics", {}).get("counters", {})
    )
    lines = ["## Tier traffic", ""]
    if not edges:
        return lines + ["_No page traffic recorded._", ""]
    lines += ["| edge | moved | page moves |", "|---|---|---|"]
    for key in sorted(edges):
        labels = key[key.index("{"):] if "{" in key else ""
        moves = counters.get(f"pages.moves{labels}", "?")
        lines.append(f"| `{key}` | {_fmt_bytes(edges[key])} | {moves} |")
    return lines + [""]


def _verification_section(bench: dict) -> list[str]:
    """Static schedule-verification verdict (see repro.analysis)."""
    verification = bench.get("verification")
    lines = ["## Verification", ""]
    if not verification:
        return lines + ["_No schedule verification in this payload._", ""]
    invariants = verification.get("invariants", [])
    violations = verification.get("violations", [])
    if verification.get("ok"):
        lines.append(
            f"schedule verified: {len(invariants)} invariants, 0 violations "
            f"(model `{verification.get('model', '?')}`)"
        )
        lines.append("")
    else:
        lines.append(
            f"**schedule INVALID**: {len(violations)} violation(s) on "
            f"model `{verification.get('model', '?')}`"
        )
        lines += ["", "| invariant | trigger | layer | page | message |",
                  "|---|---|---|---|---|"]
        for v in violations:
            lines.append(
                f"| `{v.get('invariant')}` | {v.get('trigger_id')} "
                f"| {v.get('layer_index')} | {v.get('page_id')} "
                f"| {v.get('message', '')} |"
            )
        lines.append("")
    checked = ", ".join(f"`{i.get('name')}`" for i in invariants)
    if checked:
        lines.append(f"Invariants checked: {checked}.")
        lines.append("")
    stats = verification.get("stats") or {}
    if stats.get("peak_live_bytes") is not None:
        budget = stats.get("gpu_budget_bytes") or 0
        peak = stats["peak_live_bytes"]
        headroom = (
            f" ({peak / budget:.1%} of the {_fmt_bytes(budget)} budget)"
            if budget else ""
        )
        lines.append(
            f"Replayed peak live bytes: {_fmt_bytes(peak)}{headroom}."
        )
        lines.append("")
    lines += _protocol_subsection(bench)
    return lines


def _protocol_subsection(bench: dict) -> list[str]:
    """Coordinator-protocol model-checking verdict, if the payload has one."""
    protocol = bench.get("protocol_verification")
    if not protocol:
        return []
    invariants = protocol.get("invariants", [])
    violations = protocol.get("violations", [])
    stats = protocol.get("stats") or {}
    lines: list[str] = []
    if protocol.get("ok"):
        lines.append(
            f"protocol verified: {len(invariants)} membership invariants, "
            f"0 violations over {stats.get('states', '?')} states / "
            f"{stats.get('transitions', '?')} transitions "
            f"(model `{protocol.get('model', '?')}`)"
        )
        lines.append("")
    else:
        lines.append(
            f"**protocol INVALID**: {len(violations)} violation(s) on "
            f"model `{protocol.get('model', '?')}`"
        )
        lines.append("")
        for v in violations:
            lines.append(
                f"- `{v.get('invariant')}`: {v.get('message', '')}"
            )
            trace = [event for _t, event in v.get("provenance", [])]
            if trace:
                lines.append(f"  counterexample: `{' -> '.join(trace)}`")
        lines.append("")
    return lines


def _rank_timeline_section(bench: dict) -> list[str]:
    """Per-rank view of the merged telemetry rollup.

    Renders for any payload carrying a collected ``rollup`` (the
    ``repro cluster --report`` payload): one row per event stream — every
    rank *incarnation* gets its own row, so a killed-and-respawned
    worker shows both lives — with how its clock was aligned and how
    many truncated lines the collector skipped.
    """
    rollup = bench.get("rollup") or {}
    per_source = rollup.get("per_source") or {}
    if not per_source:
        return []
    lines = ["## Per-rank timeline", "",
             "| stream | role | tenant | last step | clock | "
             "skipped lines |",
             "|---|---|---|---|---|---|"]
    for source, info in sorted(per_source.items()):
        lines.append(
            f"| `{source}` | {info.get('role', '?')} "
            f"| {info.get('tenant') or '-'} "
            f"| {info.get('last_step') if info.get('last_step') is not None else '-'} "
            f"| {info.get('alignment', '?')} "
            f"| {info.get('skipped_lines', 0)} |"
        )
    lines.append("")
    lanes = bench.get("rank_lanes") or []
    if lanes:
        listed = ", ".join(f"`{lane}`" for lane in lanes)
        lines.append(f"Rank lanes in the merged trace: {listed}.")
        lines.append("")
    return lines


def _anomaly_section(bench: dict) -> list[str]:
    alerts = bench.get("alerts") or []
    lines = ["## Anomalies", ""]
    if not alerts:
        return lines + ["No watchdog alerts fired.", ""]
    order = {"CRITICAL": 0, "WARNING": 1, "INFO": 2}
    ranked = sorted(
        alerts, key=lambda a: (order.get(a.get("severity"), 3), a.get("step", 0))
    )
    lines += ["| step | severity | rule | message |", "|---|---|---|---|"]
    for alert in ranked:
        lines.append(
            f"| {alert.get('step', '?')} | {alert.get('severity', '?')} "
            f"| `{alert.get('rule', '?')}` | {alert.get('message', '')} |"
        )
    lines.append("")
    for alert in ranked:
        evidence = alert.get("evidence") or {}
        if not evidence:
            continue
        detail = ", ".join(f"{k}={v}" for k, v in sorted(evidence.items()))
        lines.append(f"- `{alert.get('rule')}` @ step {alert.get('step')}: {detail}")
    return lines + [""]


def _pipeline_section(bench: dict) -> list[str]:
    """The profiled run's own overlap accounting
    (``AngelModel.pipeline_report()``); absent for a synchronous run."""
    pipeline = bench.get("pipeline") or {}
    if not pipeline.get("enabled"):
        return []
    prefetch = pipeline.get("prefetch") or {}
    writeback = pipeline.get("writeback") or {}
    return [
        "## Pipelined runtime",
        "",
        f"- awaited prefetch for "
        f"{pipeline.get('stall_seconds', 0.0) * 1e3:.1f} ms; demand "
        f"fetches took {pipeline.get('demand_fetch_seconds', 0.0) * 1e3:.1f} ms",
        f"- {prefetch.get('prefetched_groups', 0)} move groups staged in "
        f"the background ({prefetch.get('prefetched_bytes', 0) / MiB:.1f} MiB), "
        f"{prefetch.get('abandoned', 0)} abandoned to the demand path, "
        f"{prefetch.get('deferred', 0)} deferred until their trigger was due",
        f"- {pipeline.get('cached_layers_live', 0)} layers' FP32 states "
        f"GPU-cache-resident; {writeback.get('flushed', 0)} state flushes "
        f"ran asynchronously",
        "",
    ]


def _span_section(bench: dict, top: int = 10) -> list[str]:
    spans = bench.get("telemetry", {}).get("spans", {})
    lines = ["## Span breakdown", ""]
    if not spans:
        return lines + ["_No spans recorded._", ""]
    ranked = sorted(
        spans.items(), key=lambda item: -item[1].get("total_seconds", 0.0)
    )[:top]
    lines += ["| span | count | total | max |", "|---|---|---|---|"]
    for name, stats in ranked:
        lines.append(
            f"| `{name}` | {stats.get('count', 0):.0f} "
            f"| {stats.get('total_seconds', 0.0):.4f} s "
            f"| {stats.get('max_seconds', 0.0):.4f} s |"
        )
    return lines + [""]


def _trace_section(trace: dict | None) -> list[str]:
    if not trace:
        return []
    events = trace.get("traceEvents", [])
    tracks = [
        e["args"]["name"] for e in events if e.get("ph") == "M"
    ]
    slices = sum(1 for e in events if e.get("ph") == "X")
    return [
        "## Trace",
        "",
        f"{slices} slices across {len(tracks)} tracks "
        f"({', '.join(f'`{t}`' for t in tracks)}); open the trace JSON in "
        "Perfetto / chrome://tracing for the timeline view.",
        "",
    ]


def render_markdown(bench: dict, trace: dict | None = None) -> str:
    """Assemble the full markdown run report from one BENCH payload."""
    lines = ["# Run report", ""]
    benchmark = bench.get("benchmark")
    if benchmark:
        lines.append(f"Benchmark: `{benchmark}`")
        lines.append("")
    lines += _summary_section(bench)
    lines += _waterfall_section(bench)
    lines += _traffic_section(bench)
    lines += _rank_timeline_section(bench)
    lines += _pipeline_section(bench)
    lines += _verification_section(bench)
    lines += _anomaly_section(bench)
    lines += _span_section(bench)
    lines += _trace_section(trace)
    return "\n".join(lines).rstrip() + "\n"


# ----------------------------------------------------------------------
# Minimal markdown -> HTML (no external deps; tables/headers/code only)
# ----------------------------------------------------------------------
def render_html(markdown: str) -> str:
    out = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>Run report</title>",
        "<style>body{font-family:sans-serif;max-width:60em;margin:2em auto}"
        "table{border-collapse:collapse}td,th{border:1px solid #999;"
        "padding:.25em .6em}pre{background:#f4f4f4;padding:.6em}</style>",
        "</head><body>",
    ]
    in_code = False
    in_table = False
    for line in markdown.splitlines():
        if line.startswith("```"):
            out.append("</pre>" if in_code else "<pre>")
            in_code = not in_code
            continue
        if in_code:
            out.append(_html.escape(line))
            continue
        is_table = line.startswith("|")
        if in_table and not is_table:
            out.append("</table>")
            in_table = False
        if is_table:
            cells = [c.strip() for c in line.strip("|").split("|")]
            if all(set(c) <= {"-", ":", " "} and c for c in cells):
                continue  # separator row
            if not in_table:
                out.append("<table>")
                in_table = True
                out.append(
                    "<tr>" + "".join(f"<th>{_html.escape(c)}</th>" for c in cells)
                    + "</tr>"
                )
            else:
                out.append(
                    "<tr>" + "".join(f"<td>{_html.escape(c)}</td>" for c in cells)
                    + "</tr>"
                )
            continue
        if line.startswith("#"):
            level = len(line) - len(line.lstrip("#"))
            text = _html.escape(line.lstrip("#").strip())
            out.append(f"<h{level}>{text}</h{level}>")
        elif line.startswith("- "):
            out.append(f"<p>&bull; {_html.escape(line[2:])}</p>")
        elif line.strip():
            out.append(f"<p>{_html.escape(line)}</p>")
    if in_table:
        out.append("</table>")
    if in_code:
        out.append("</pre>")
    out.append("</body></html>")
    return "\n".join(out)


def write_report(
    bench: dict,
    out_path,
    trace: dict | None = None,
    html: bool = False,
) -> list[str]:
    """Write the markdown (and optionally HTML) report; returns paths."""
    out_path = Path(out_path)
    markdown = render_markdown(bench, trace=trace)
    out_path.write_text(markdown)
    written = [str(out_path)]
    if html:
        html_path = out_path.with_suffix(".html")
        html_path.write_text(render_html(markdown))
        written.append(str(html_path))
    return written
