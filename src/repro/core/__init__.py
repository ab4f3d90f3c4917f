"""ParaHash core: estimator, concurrent hash table, subgraph construction, driver."""
