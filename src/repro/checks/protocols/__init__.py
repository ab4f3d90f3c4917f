"""Abstract protocol models for :mod:`repro.checks.model`.

Two protocols, each with a fixed (verified) build and a corpus of
deliberately broken variants the checker must refute:

* :class:`~repro.checks.protocols.cas_insert.InsertProtocol` — the
  §III-C3 state-transfer insert (CAS EMPTY→LOCKED, write key, publish
  OCCUPIED) as run by ``ConcurrentHashTable.insert_one_threadsafe``.
* :class:`~repro.checks.protocols.workqueue.WorkQueueProtocol` — the
  §III-E srv/cns publish/claim discipline shared by
  ``concurrentsub.workqueue`` and the process backend's
  ``ProcessWorkQueue``, including crash transitions and the parent
  merger's abort containment.

:mod:`~repro.checks.protocols.corpus` builds either model by name and
lists the seeded-bug corpus.
"""
