"""Repository benchmark: end-to-end and per-layer host-time measurements.

``python3 perfbench/run.py --workload {profile,native,serve} --seed N
--seconds S --trace {0,1}`` runs one workload and prints its metrics; see
``perfbench/README.md`` for the workloads, the metrics and the
layer-to-metric map.
"""
