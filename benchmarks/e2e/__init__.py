"""End-to-end benchmark with a layer budget (see README.md in this directory).

One command, ``python3 benchmarks/e2e/run.py`` (or ``python -m
benchmarks.e2e``), runs five named workloads through the public entry
points with their default arguments, checks every output against an
independent oracle, and prints every metric by name with its unit.
"""
