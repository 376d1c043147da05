"""Pipeline benchmark: the paper's workloads through ``repro watch --once``.

Run from the repository root with ``python3 -m bench run``; see
``bench/README.md``.
"""
