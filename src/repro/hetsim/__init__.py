"""Heterogeneous-processor simulation: devices, disks, pipeline, model."""
