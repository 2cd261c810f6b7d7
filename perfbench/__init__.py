"""Closed-loop serving benchmark for pace; run it with ``python3 perfbench/run.py``."""
