"""The job service: a daemonized, checkpointed, multi-tenant builder.

Everything above the one-shot pipeline: durable job directories
(:mod:`jobstore`), stage manifests that make kills resumable
(:mod:`manifest`, :mod:`runner`), the shared weighted process pool
serving many jobs at once (:mod:`pool`), and the asyncio HTTP front end
plus CLI (:mod:`server`, :mod:`cli`).
"""
