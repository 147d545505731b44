"""Append one benchmarked commit to the committed ``BENCH_history.jsonl``.

    python3 -m bench run --repeats 5 --traced --out DIR
    python3 benchmarks/history.py LABEL DIR/result.json

One JSON line per call: label, the header's commit and core count, and per
workload each end-to-end metric's ``{median, q1, q3, n}`` and the exact counts.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def history_line(label: str, document: dict) -> dict:
    return {
        "label": label,
        "git_commit": document["header"].get("git_commit"),
        "nproc": document["header"].get("nproc"),
        "workloads": {
            name: {
                "end_to_end": {
                    metric: {key: stats[key] for key in ("median", "q1", "q3", "n")}
                    for metric, stats in entry["end_to_end"].items()
                },
                "exact": entry.get("exact", {}),
            }
            for name, entry in document["workloads"].items()
        },
    }


if __name__ == "__main__":
    label, path = sys.argv[1:]
    with open(path, encoding="utf-8") as handle:
        line = history_line(label, json.load(handle))
    with open(os.path.join(ROOT, "BENCH_history.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
