"""Benchmark harness for peergrade; run it with ``python3 perfbench/run.py``."""
