"""Seeded, output-checked benchmark for the extraction engine (see run.py)."""
