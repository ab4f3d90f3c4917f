"""De Bruijn graph structures, reference construction, merging, validation."""
