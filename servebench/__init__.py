"""Closed-loop serving benchmark for the continual-release service.

Run ``python3 servebench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``README.md`` in this
directory for the workloads, metrics and the noise findings behind them.
"""
