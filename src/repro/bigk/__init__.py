"""Names kept from the former two-word (33..63) package.

Every layer now handles any key width through the ``(W, n)`` key planes
of :mod:`repro.dna.kmer`.  The submodules hold only aliases of the
unified functions (``construct``, ``serialize``, ``table``) and the
pure-Python reference builder (``store.build_reference_bigk_slow``).
"""
