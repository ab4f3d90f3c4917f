"""Sequence substrate: alphabet, encodings, k-mers, minimizers, I/O, simulation."""
