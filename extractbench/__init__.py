"""Extraction benchmark: three workloads over the public engine API, checked
against the single-process oracle, plus a traced per-layer run.

Entry point: ``python3 extractbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.
"""
