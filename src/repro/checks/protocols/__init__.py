"""Abstract protocol models for :mod:`repro.checks.model`.

One protocol, with a fixed (verified) build and a corpus of
deliberately broken variants the checker must refute:

* :class:`~repro.checks.protocols.cas_insert.InsertProtocol` — the
  §III-C3 state-transfer insert (CAS EMPTY→LOCKED, write key, publish
  OCCUPIED) as run by ``ConcurrentHashTable.insert_one_threadsafe``.

:mod:`~repro.checks.protocols.corpus` builds the model by name and
lists the seeded-bug corpus.
"""
