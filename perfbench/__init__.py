"""The repository benchmark: workloads, layer fold and outside readers.

Run it with ``python3 perfbench/run.py``; see ``perfbench/README.md``.
"""
