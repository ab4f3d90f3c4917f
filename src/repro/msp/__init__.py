"""Step 1: Minimum Substring Partitioning with adjacency extensions."""
