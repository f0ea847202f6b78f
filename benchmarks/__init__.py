"""Benchmark suite: paper-figure reproductions.

``bench_fig*.py`` / ``bench_table*.py`` / ``bench_ablation_*.py`` are
pytest-benchmark files that regenerate one table or figure of the paper's
evaluation (§3) each, print it as an aligned text table, and archive a
copy under ``benchmarks/results/`` (quoted by ``EXPERIMENTS.md``).  Run
with ``pytest benchmarks/ --benchmark-only -s``; the sweep is controlled
by ``REPRO_RADICES`` and ``REPRO_SEEDS``.

The implementation itself is checked elsewhere: ``perfbench/run.py``
times a change against its parent commit end to end and per layer, and
``python -m repro obs baseline record`` / ``obs check`` record and gate
schedule quality (``BENCH_obs.json``).
"""
