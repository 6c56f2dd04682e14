"""Benchmark for hexar: grid throughput, per-answer latency, modelled cost.

Run ``python3 hexbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``BENCHMARK.json`` lists the
workloads and metrics. The program under test is imported unmodified from
``src/``; every span is recorded by this package around calls into hexar's
public entry points.
"""
