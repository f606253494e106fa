"""Benchmark of the skrates CLI: input generation, checks, tracing and the timed loop."""
