"""The run-report layer: one readable document per run.

``repro report build`` renders one of the two run artifacts into a
self-contained markdown — optionally HTML — document:

- a ``python3 -m bench run`` ``result.json``: per workload, the oracle
  verdict, the end-to-end medians with their quartiles and, from a
  ``--traced`` run, the per-layer table and the exact counts;
- a ``repro cluster --report`` JSON: the **per-rank timeline** of the
  merged telemetry and the watchdog's **anomaly section**.

Either may come with a Chrome trace (a bench traced pass's or the
collected cluster trace), summarised by its tracks. Timing comparisons
between two trees belong to ``python3 -m bench compare``, which carries
spread.
"""

from __future__ import annotations

import html as _html
import json
from pathlib import Path


def load_payload(path) -> dict:
    return json.loads(Path(path).read_text())


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def _workloads_section(result: dict) -> list[str]:
    """One ``python3 -m bench run`` result: per workload, its oracle
    verdict, the end-to-end medians with their quartiles and, from a
    ``--traced`` run, the per-layer table and the exact counts."""
    header = result.get("header") or {}
    lines = ["## Workloads", ""]
    if header:
        lines += [
            f"{header.get('repeats', '?')} repeat(s) of "
            f"{header.get('seconds', '?')} s per workload on "
            f"{header.get('nproc', '?')} CPU(s), Python "
            f"{header.get('python', '?')}, numpy {header.get('numpy', '?')}, "
            f"commit `{header.get('git_commit') or '-'}`.",
            "",
        ]
    for name, entry in result["workloads"].items():
        lines += [
            f"### {name}", "",
            f"correct: {str(entry.get('correct')).lower()}, failed_frac: "
            f"{entry.get('failed_frac', '?')}", "",
            "| metric | median | [q1, q3] | n | unit |", "|---|---|---|---|---|",
        ]
        for metric, stats in entry.get("end_to_end", {}).items():
            lines.append(
                f"| {metric} | {stats['median']:.4g} "
                f"| [{stats['q1']:.4g}, {stats['q3']:.4g}] "
                f"| {stats['n']} | {stats['unit']} |"
            )
        lines.append("")
        measured = {metric: value for metric, value
                    in (entry.get("per_layer") or {}).items() if value["value"]}
        if measured:
            lines += ["Per-layer (traced pass, nonzero values):", "",
                      "| metric | value | unit |", "|---|---|---|"]
            lines += [f"| {metric} | {value['value']:.4g} | {value['unit']} |"
                      for metric, value in measured.items()]
            lines.append("")
        exact = entry.get("exact") or {}
        if exact:
            lines += ["Exact counts:", "", "| count | value |", "|---|---|"]
            lines += [f"| {count} | {value} |" for count, value in exact.items()]
            lines.append("")
    return lines


def _rank_timeline_section(bench: dict) -> list[str]:
    """Per-rank view of the merged telemetry rollup.

    Renders for any payload carrying a collected ``rollup`` (the
    ``repro cluster --report`` payload): one row per event stream — every
    rank *incarnation* gets its own row, so a killed-and-respawned
    worker shows both lives — with how many truncated lines the
    collector skipped.
    """
    rollup = bench.get("rollup") or {}
    per_source = rollup.get("per_source") or {}
    if not per_source:
        return []
    lines = ["## Per-rank timeline", "",
             "| stream | role | tenant | last step | skipped lines |",
             "|---|---|---|---|---|"]
    for source, info in sorted(per_source.items()):
        lines.append(
            f"| `{source}` | {info.get('role', '?')} "
            f"| {info.get('tenant') or '-'} "
            f"| {info.get('last_step') if info.get('last_step') is not None else '-'} "
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


def render_markdown(payload: dict, trace: dict | None = None) -> str:
    """Assemble the markdown run report from a bench result or a cluster
    report."""
    lines = ["# Run report", ""]
    if "workloads" in payload:
        lines += _workloads_section(payload)
    else:
        lines += _rank_timeline_section(payload)
        lines += _anomaly_section(payload)
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
    payload: dict,
    out_path,
    trace: dict | None = None,
    html: bool = False,
) -> list[str]:
    """Write the markdown (and optionally HTML) report; returns paths."""
    out_path = Path(out_path)
    markdown = render_markdown(payload, trace=trace)
    out_path.write_text(markdown)
    written = [str(out_path)]
    if html:
        html_path = out_path.with_suffix(".html")
        html_path.write_text(render_html(markdown))
        written.append(str(html_path))
    return written
