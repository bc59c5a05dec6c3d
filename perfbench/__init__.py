"""The repository benchmark: simulator host cost and Homa's simulated
tail on four workloads, with an outside-in per-layer trace.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  README.md in
this directory describes the workloads, the metrics and the checks.
"""
