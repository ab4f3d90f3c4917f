"""Utilities: text tables, timing, measurement."""
