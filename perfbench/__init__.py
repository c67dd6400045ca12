"""Benchmark of the leavitt library; run ``python3 perfbench/run.py --help``."""
