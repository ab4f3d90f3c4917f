"""Concurrency correctness tooling for the state-transfer protocol.

The ~80% lock-reduction claim of ParaHash §III-C3 rests on every access
to shared slot state obeying the EMPTY→LOCKED→OCCUPIED discipline.
This package verifies that discipline mechanically, in two layers:

* **Static** (:mod:`repro.checks.lint`): an AST-based linter with
  repo-specific rules R1–R5 over ``src/repro`` — unguarded shared-array
  access on the threaded path, non-atomic read-modify-writes on shared
  objects, ``raw()`` escapes, bare ``acquire``/``release``, and
  signed/unsigned numpy dtype mixing on key arithmetic.

* **Dynamic** (:mod:`repro.checks.lockset`,
  :mod:`repro.checks.schedule`): an Eraser-style lockset race detector
  fed by the instrumentation hooks in
  :mod:`repro.concurrentsub.atomics` and the access-recording shim in
  :mod:`repro.core.hashtable`, plus a deterministic interleaving
  scheduler that replays ``insert_one_threadsafe`` under adversarial
  schedules (writer paused between LOCKED and OCCUPIED, CAS-loser
  storms) to turn candidate races into reproducible failures.

Run ``python -m repro.checks lint src/`` and
``python -m repro.checks races`` from the command line, or
``pytest --repro-race-detect`` to run the whole test suite under the
lockset detector.
"""
