"""Paper-pipeline benchmark for the Libra reproduction.

Runs seeded job sets through the public ``repro`` API (``Job.run``,
``repro.parallel.run_jobs`` and ``ResultCache``), checks every result
against committed metric fingerprints, and reports end-to-end host-time
metrics, or per-layer numbers from a separately traced run.  See
``perfbench/README.md`` and ``python3 perfbench/run.py --help``.
"""
