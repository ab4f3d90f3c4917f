"""Baselines: SOAP-style, plain sort-merge and bcalm2-style construction."""
