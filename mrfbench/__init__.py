"""Benchmark for mrfmap; see README.md."""
