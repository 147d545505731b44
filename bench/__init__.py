"""The repo's benchmark: six workloads, end to end and layer by layer.

Everything here measures ``src/repro`` from outside, by timing calls into
its public functions; nothing under ``src/`` knows the benchmark exists.
``BENCHMARK.json`` at the repo root names the workloads, metrics, units and
regression bounds; ``bench/README.md`` says how to read them.

Entry points:

- ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1`` —
  one pass of one workload; the last stdout line is the result object.
- ``python3 -m bench run`` — every workload, repeated, in fresh
  subprocesses; writes one result file with medians and quartiles.
- ``python3 -m bench compare A.json B.json`` — noise-aware comparison of
  two result files using the bounds in ``BENCHMARK.json``.
"""
