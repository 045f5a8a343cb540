"""Benchmark for canonform: `norm` and `validate` end to end, plus a traced run per layer.

Run `python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>`
from the repository root.  See `perfbench/run.py` for the workloads and metrics.
"""
