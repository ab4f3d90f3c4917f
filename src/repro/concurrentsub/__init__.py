"""Concurrency substrate: atomics, hash mixing, work-stealing queues."""
