"""Benchmark of the repository: see README.md in this directory."""
