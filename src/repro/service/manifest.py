"""Stage manifests: the durable evidence a pipeline stage finished.

The job service turns the one-shot build into a checkpointed stage
graph.  Each stage (and, in Step 2, each *partition*) records a
manifest when it completes: the parameters it ran with, the content
digests of its inputs, and the artifacts it produced.  A later run —
the resume after a crash — re-validates the manifest instead of
re-doing the work:

* parameters changed            -> stale, re-run;
* any input digest changed      -> stale, re-run (a new reads file or a
  rewritten spill file invalidates everything downstream of it);
* any output missing or resized -> stale, re-run.

Manifests are plain JSON written atomically (temp file + ``os.replace``
in the same directory), so a parent killed mid-write can never leave a
truncated manifest that validates.  A manifest that fails to parse is
treated exactly like a missing one: the stage re-runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

MANIFEST_VERSION = 1

#: Read size for streaming digests (1 MiB keeps memory flat on the
#: 92 GB-class inputs the checkpointing exists for).
_CHUNK = 1 << 20


def file_digest(path: str | os.PathLike) -> str:
    """Streaming SHA-256 of a file, as ``sha256:<hex>``."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(_CHUNK)
            if not block:
                break
            h.update(block)
    return f"sha256:{h.hexdigest()}"


def write_json_atomic(path: str | os.PathLike, obj) -> None:
    """Write JSON so readers see the old file or the new one, never a
    torn mix: temp file in the same directory, fsync, ``os.replace``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp",
                               dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:  # pragma: no cover - replace won
            pass
        raise


def read_json(path: str | os.PathLike):
    """Parse a JSON file; ``None`` when missing or corrupt (both mean
    "no checkpoint here" to the stage runner)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
        return None


@dataclass(frozen=True)
class Artifact:
    """One output file a stage produced, with its recorded identity."""

    path: str  # relative to the job directory
    n_bytes: int
    digest: str | None = None

    def to_dict(self) -> dict:
        return {"path": self.path, "bytes": self.n_bytes,
                "digest": self.digest}

    @classmethod
    def from_dict(cls, d: dict) -> "Artifact":
        return cls(path=d["path"], n_bytes=int(d["bytes"]),
                   digest=d.get("digest"))

    @classmethod
    def of(cls, path: str | os.PathLike, base: str | os.PathLike,
           digest: bool = False) -> "Artifact":
        """Describe an existing file, path stored relative to ``base``."""
        p = Path(path)
        rel = os.path.relpath(p, base)
        return cls(path=rel, n_bytes=p.stat().st_size,
                   digest=file_digest(p) if digest else None)


@dataclass(frozen=True)
class StageManifest:
    """Everything needed to decide a finished stage can be skipped."""

    stage: str
    params: dict
    inputs: dict  # name -> content digest
    outputs: tuple[Artifact, ...] = ()
    stats: dict = field(default_factory=dict)
    created: float = 0.0

    def to_dict(self) -> dict:
        return {
            "version": MANIFEST_VERSION,
            "stage": self.stage,
            "params": self.params,
            "inputs": self.inputs,
            "outputs": [a.to_dict() for a in self.outputs],
            "stats": self.stats,
            "created": self.created,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StageManifest":
        return cls(
            stage=d["stage"],
            params=d["params"],
            inputs=d["inputs"],
            outputs=tuple(Artifact.from_dict(a) for a in d["outputs"]),
            stats=d.get("stats", {}),
            created=float(d.get("created", 0.0)),
        )

    def save(self, path: str | os.PathLike) -> None:
        write_json_atomic(path, self.to_dict())

    @classmethod
    def load(cls, path: str | os.PathLike) -> "StageManifest | None":
        d = read_json(path)
        if not isinstance(d, dict) or d.get("version") != MANIFEST_VERSION:
            return None
        try:
            return cls.from_dict(d)
        except (KeyError, TypeError, ValueError):
            return None

    # -- validation --------------------------------------------------------------

    def validate(self, params: dict, inputs: dict,
                 base: str | os.PathLike) -> tuple[bool, str]:
        """Is this checkpoint still good for (``params``, ``inputs``)?

        Returns ``(ok, reason)``; ``reason`` names the first mismatch so
        job status can say *why* a stage re-ran.  Output files are
        checked for existence and size (digests are recorded for
        provenance; torn writes are already excluded by the atomic
        write discipline, so size is the cheap sufficient check).
        """
        if self.params != params:
            return False, f"params changed (was {self.params}, now {params})"
        if self.inputs != inputs:
            stale = sorted(
                name for name in set(self.inputs) | set(inputs)
                if self.inputs.get(name) != inputs.get(name)
            )
            return False, f"input digests changed: {', '.join(stale)}"
        base = Path(base)
        for artifact in self.outputs:
            p = base / artifact.path
            if not p.is_file():
                return False, f"output missing: {artifact.path}"
            if p.stat().st_size != artifact.n_bytes:
                return False, f"output resized: {artifact.path}"
        return True, "valid"


def fresh_manifest(stage: str, params: dict, inputs: dict,
                   outputs: tuple[Artifact, ...] = (),
                   stats: dict | None = None) -> StageManifest:
    """A manifest stamped with the current wall-clock time."""
    return StageManifest(stage=stage, params=params, inputs=inputs,
                         outputs=outputs, stats=stats or {},
                         created=time.time())
