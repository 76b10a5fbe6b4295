"""Content-addressed on-disk store for experiment results.

Each cached cell lives at ``<root>/<spec-hash>.json`` — the SHA-256 of
the spec's canonical JSON (see
:meth:`~repro.bench.engine.ExperimentSpec.spec_hash`) names the file, so
a result can only ever be found by the exact spec that produced it.
Entries embed the full spec alongside the result, making every cached
cell a self-describing, diffable reproduction artifact; lookups verify
the embedded spec to rule out hash collisions and schema drift.

Writes are atomic (temp file + ``os.replace``) and **first-write-wins**:
because entries are content-addressed, any two valid writers of the same
hash are writing identical bytes, so a writer that finds a valid entry
already in place simply skips its own write.  Concurrent sweep workers,
scheduler threads, and interrupted runs never leave a truncated entry
behind; temp files orphaned by a killed writer are swept on store open.

Entries additionally embed a **substrate fingerprint** — a hash over the
spec schema and the source of every package a cell executes (``sim``,
``machine``, ``mpi``, ``pfs``, ``io``, ``core``, ``strategies``,
``scenario``, ``obs``, ``stap``, ``trace``) plus ``bench/engine.py``,
which builds the executor from a spec.  A cached result is only a hit
while the code that produced it is byte-identical to the code running
now; editing any of those files turns every old entry into a miss
instead of silently serving stale results.  Editing the service, the
analyzer or the CLI does not.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from pathlib import Path
from typing import List, Optional, Union

from repro.bench import DEFAULT_CACHE_DIR
from repro.core.executor import PipelineResult
from repro.errors import ConfigurationError

__all__ = ["ResultStore", "DEFAULT_CACHE_DIR", "substrate_fingerprint"]


#: On-disk entry schema; bump on incompatible layout changes.
#: 2: entries carry a substrate fingerprint (stale-simulator detection).
STORE_SCHEMA = 2

#: Packages a cell executes; any change to them (or to ``bench/engine.py``,
#: which builds the executor from a spec) invalidates cached results.
_SUBSTRATE_PACKAGES = (
    "sim", "machine", "mpi", "pfs", "io", "core", "strategies",
    "scenario", "obs", "stap", "trace",
)

_fingerprint_cache: Optional[str] = None


def _substrate_files(pkg_root: Path) -> List[Path]:
    """The source files the fingerprint covers, under package root
    ``pkg_root`` (the directory of ``repro/__init__.py``)."""
    files: List[Path] = []
    for pkg in _SUBSTRATE_PACKAGES:
        files.extend((pkg_root / pkg).glob("*.py"))
    files.append(pkg_root / "bench" / "engine.py")
    return files


def _compute_fingerprint(files: List[Path], spec_schema: int) -> str:
    """Hash ``package/name`` + content of ``files`` (sorted by that key)
    with the schema."""
    h = hashlib.sha256()
    h.update(f"spec_schema={spec_schema}".encode("utf-8"))
    named = sorted((f"{p.parent.name}/{p.name}", p) for p in files)
    for name, path in named:
        h.update(name.encode("utf-8"))
        h.update(b"\0")
        try:
            h.update(path.read_bytes())
        except OSError:
            h.update(b"<unreadable>")
        h.update(b"\0")
    return h.hexdigest()


def substrate_fingerprint() -> str:
    """Fingerprint of the currently-imported simulation substrate.

    Covers every file of :func:`_substrate_files` plus ``SPEC_SCHEMA``.
    Memoized per process — the source cannot change under a running
    interpreter.
    """
    global _fingerprint_cache
    if _fingerprint_cache is None:
        from repro.bench.engine import SPEC_SCHEMA
        import repro

        files = _substrate_files(Path(repro.__file__).parent)
        _fingerprint_cache = _compute_fingerprint(files, SPEC_SCHEMA)
    return _fingerprint_cache


#: A ``*.tmp`` older than this on store open belongs to a dead writer.
_ORPHAN_TMP_AGE = 60.0

#: Distinguishes temp files of concurrent writers in one process (the
#: scheduler's dispatcher and a client thread may both write).
_tmp_seq = itertools.count(1)


def _nodes(result: dict) -> Optional[int]:
    tasks = result.get("spec", {}).get("tasks")
    return tasks and sum(t["n_nodes"] for t in tasks)


def _listing_fields(spec: dict, result: dict) -> dict:
    """Pipeline, file system, nodes, CPIs, throughput and latency of one
    stored result.  A scenario lists its tenant mix and total nodes and
    leaves per-tenant throughput and latency to ``results show``."""
    if spec.get("kind") != "scenario":
        meas = result.get("measurement", {})
        return {"pipeline": spec.get("pipeline"), "fs": result.get("fs_label"),
                "nodes": _nodes(result),
                "n_cpis": spec.get("cfg", {}).get("n_cpis"),
                "throughput": meas.get("throughput"),
                "latency": meas.get("latency")}
    tenants = spec.get("tenants", [])
    results = list(result.get("tenants", {}).values()) or [{}]
    cpis = dict.fromkeys(str(t.get("cfg", {}).get("n_cpis")) for t in tenants)
    return {"pipeline": "+".join(t.get("pipeline", "?") for t in tenants),
            "fs": results[0].get("fs_label"),
            "nodes": sum(_nodes(r) or 0 for r in results),
            "n_cpis": "/".join(cpis), "throughput": None, "latency": None}


class ResultStore:
    """A directory of ``<spec-hash>.json`` experiment results."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.sweep_orphans()

    def sweep_orphans(self, max_age: float = _ORPHAN_TMP_AGE) -> int:
        """Remove temp files abandoned by killed writers.

        Only temp files older than ``max_age`` seconds go — a younger
        one may belong to a live writer about to rename it into place.
        Returns the number removed.
        """
        if not self.root.is_dir():
            return 0
        removed = 0
        cutoff = time.time() - max_age
        for tmp in self.root.glob(".*.tmp"):
            try:
                if tmp.stat().st_mtime <= cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:
                pass
        return removed

    def path_for(self, spec_hash: str) -> Path:
        """File that does / would hold the given spec hash's result."""
        return self.root / f"{spec_hash}.json"

    def __contains__(self, spec) -> bool:
        return self.load(spec.spec_hash()) is not None

    def __len__(self) -> int:
        return len(self.hashes())

    def hashes(self) -> List[str]:
        """Spec hashes present, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))

    def load(self, spec_hash: str) -> Optional[dict]:
        """Raw entry payload for a hash, or None if absent/corrupt."""
        path = self.path_for(spec_hash)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("schema") != STORE_SCHEMA:
            return None
        return payload

    def get_dict(self, spec) -> Optional[dict]:
        """The stored *raw result dict* of ``spec``, or None on a miss.

        The embedded spec must match exactly — a hash collision or a
        serialization-schema drift reads as a miss, never as a wrong
        result.  Likewise the entry's substrate fingerprint: a result
        simulated by a since-modified simulator reads as a miss.

        This is the service-tier lookup: the scheduler streams raw
        payload dicts and only the final consumer rehydrates them.
        """
        payload = self.load(spec.spec_hash())
        if payload is None or payload.get("spec") != spec.to_dict():
            return None
        if payload.get("substrate") != substrate_fingerprint():
            return None
        result = payload.get("result")
        return result if isinstance(result, dict) else None

    def get(self, spec) -> Optional[PipelineResult]:
        """The stored result of ``spec`` (a ``type(spec).RESULT``), or
        None on a miss.  An entry that does not decode, e.g. with an
        unknown or missing result key, is a miss."""
        result = self.get_dict(spec)
        if result is None:
            return None
        try:
            return type(spec).RESULT.from_dict(result)
        except (ConfigurationError, KeyError, TypeError, ValueError):
            return None

    def put_dict(self, spec, result) -> Path:
        """Store a raw result dict under ``spec``'s hash (atomically).

        ``result`` may also be a service
        :class:`~repro.service.model.ResultPayload`: its JSON text is
        spliced into the entry as it is, so a result a process worker
        encoded is written without being decoded or encoded again.  The
        file's bytes are ``json.dumps`` of the entry either way.

        First write wins: the store is content-addressed, so any two
        valid writers of one hash carry identical results, and a writer
        that finds a valid current entry in place skips rewriting it —
        the only cross-writer race left is ``os.replace`` against
        identical bytes, which is safe in either order.  A present but
        stale entry (old substrate, corrupt JSON) *is* overwritten.

        The one asymmetric exception is surrogate predictions
        (``result["source"] == "predicted"``, see
        :mod:`repro.bench.surrogate`): a simulated result always
        *upgrades* a stored prediction for the same spec, while a
        prediction never overwrites any existing valid entry — the store
        can only ever get more authoritative.
        """
        plain = isinstance(result, dict)
        source = result.get("source") if plain else result.source
        self.root.mkdir(parents=True, exist_ok=True)
        spec_hash = spec.spec_hash()
        target = self.path_for(spec_hash)
        existing = self.get_dict(spec)
        if existing is not None and (
            source == "predicted" or existing.get("source") != "predicted"
        ):
            return target
        head = json.dumps({
            "schema": STORE_SCHEMA,
            "substrate": substrate_fingerprint(),
            "spec_hash": spec_hash,
            "spec": spec.to_dict(),
        })
        tmp = target.with_name(
            f".{target.name}.{os.getpid()}.{next(_tmp_seq)}.tmp"
        )
        text = json.dumps(result) if plain else result.text
        tmp.write_text(f'{head[:-1]}, "result": {text}}}', encoding="utf-8")
        tmp.replace(target)
        return target

    def put(self, spec, result: PipelineResult) -> Path:
        """Store ``result`` under ``spec``'s hash (atomically)."""
        return self.put_dict(spec, result.to_dict())

    def entries(self) -> List[dict]:
        """One summary dict per stored cell (for listings)."""
        out = []
        for spec_hash in self.hashes():
            payload = self.load(spec_hash)
            if payload is None:
                continue
            spec = payload.get("spec", {})
            result = payload.get("result", {})
            try:
                st = self.path_for(spec_hash).stat()
                size_bytes, mtime = st.st_size, st.st_mtime
            except OSError:
                size_bytes, mtime = 0, 0.0
            out.append(
                {
                    "hash": spec_hash,
                    "size_bytes": size_bytes,
                    "mtime": mtime,
                    "machine": spec.get("machine"),
                    "seed": spec.get("seed"),
                    "source": result.get("source", "simulated"),
                    **_listing_fields(spec, result),
                }
            )
        return out

    def summary(self) -> dict:
        """Store-level totals for listing footers: entry count, total
        bytes on disk, and the on-disk schema version."""
        total = 0
        count = 0
        for spec_hash in self.hashes():
            count += 1
            try:
                total += self.path_for(spec_hash).stat().st_size
            except OSError:
                pass
        return {"entries": count, "total_bytes": total, "schema": STORE_SCHEMA}

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for spec_hash in self.hashes():
            try:
                self.path_for(spec_hash).unlink()
                removed += 1
            except OSError:
                pass
        return removed
