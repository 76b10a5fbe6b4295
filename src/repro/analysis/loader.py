"""One artifact resolver for every read-side entry point.

Before this module, each consumer had its own resolution convention:
``repro metrics show`` did path-vs-hash sniffing inline, gantt rendering
wanted a live ``PipelineResult``, and the result store only answered to
exact spec hashes.  :func:`load` is the single front door — it accepts

* a :class:`~repro.core.executor.PipelineResult` or
  :class:`~repro.scenario.spec.ScenarioResult` instance,
* a raw result / store-entry / export-envelope / metrics dict,
* a path to a ``.metrics.json`` / ``.trace.json`` / result JSON file,
* a :class:`~repro.bench.store.ResultStore` hash (full or unique
  prefix),

and returns a :class:`LoadedResult` that normalizes all of them: the
rehydrated result object when one exists, the metrics artifact when one
was recorded, chrome-trace events when that is all the file holds, and
provenance (origin, source) either way.  Schema drift is an explicit
:class:`~repro.errors.AnalysisError`, never a silently-wrong answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Union

from repro.errors import AnalysisError

__all__ = ["LoadedResult", "load"]


@dataclass
class LoadedResult:
    """A normalized view of one loaded artifact, whatever its source.

    ``kind`` says what the artifact fundamentally is:

    * ``"pipeline"`` — a single-pipeline result (``result`` is a
      :class:`~repro.core.executor.PipelineResult`);
    * ``"scenario"`` — a multi-tenant result (``result`` is a
      :class:`~repro.scenario.spec.ScenarioResult`);
    * ``"metrics"`` — a bare metrics artifact with no surrounding
      result (``metrics`` only);
    * ``"trace"`` — a chrome-trace event list (``trace_events`` only).
    """

    kind: str
    result: Optional[Any] = None
    metrics: Optional[dict] = None
    trace_events: Optional[List[dict]] = None
    #: The producing spec's dict form, when the artifact embeds one
    #: (store entries always do; bare files usually don't).
    spec: Optional[dict] = None
    spec_hash: Optional[str] = None
    #: Where this came from: a path, a store hash, or ``"<object>"`` /
    #: ``"<dict>"`` for in-memory sources.
    origin: str = "<object>"
    #: ``"simulated"`` | ``"predicted"`` | ``"unknown"``.
    source: str = "unknown"
    #: Extra notes accumulated while resolving (degraded fields, ...).
    notes: List[str] = field(default_factory=list)

    @property
    def has_metrics(self) -> bool:
        return self.metrics is not None

    def label(self) -> str:
        """Short display label for listings."""
        if self.result is not None:
            lab = getattr(self.result, "fs_label", None)
            if lab is None:
                spec = getattr(self.result, "spec", None)
                lab = getattr(spec, "label", lambda: None)()
            if lab:
                return str(lab)
        if self.spec_hash:
            return self.spec_hash[:12]
        return self.origin


def _wrap_result(result, origin: str) -> LoadedResult:
    """Wrap a live PipelineResult / ScenarioResult instance."""
    from repro.core.executor import PipelineResult
    from repro.scenario.spec import ScenarioResult

    if isinstance(result, ScenarioResult):
        return LoadedResult(
            kind="scenario",
            result=result,
            metrics=result.metrics,
            origin=origin,
            source=result.source,
            spec=result.spec.to_dict(),
            spec_hash=result.spec.spec_hash(),
        )
    if isinstance(result, PipelineResult):
        return LoadedResult(
            kind="pipeline",
            result=result,
            metrics=result.metrics,
            origin=origin,
            source=result.source,
        )
    raise AnalysisError(
        f"cannot load a {type(result).__name__}; expected PipelineResult, "
        "ScenarioResult, dict, path, or store hash"
    )


def _from_result_dict(d: dict, origin: str) -> LoadedResult:
    """Rehydrate a raw result dict as its spec class's ``RESULT``."""
    from repro.bench.engine import spec_class
    from repro.errors import ConfigurationError

    try:
        result = spec_class(d).RESULT.from_dict(d)
    except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
        raise AnalysisError(
            f"dict from {origin} is not a loadable result ({exc}) and not "
            "a recognized artifact (metrics artifact, schema envelope)"
        ) from exc
    return _wrap_result(result, origin)


def _from_dict(d: dict, origin: str) -> LoadedResult:
    """Dispatch a dict by shape: store entry, export envelope, bare
    metrics artifact, or raw result dict."""
    from repro.bench.store import STORE_SCHEMA
    from repro.trace.export import RESULT_SCHEMA

    if "schema" in d:
        schema = d.get("schema")
        if "result" in d and "spec_hash" in d:  # ResultStore entry
            if schema != STORE_SCHEMA:
                raise AnalysisError(
                    f"stale store entry from {origin}: schema {schema!r}, "
                    f"this build reads schema {STORE_SCHEMA} (re-run the "
                    "sweep to refresh the cache)"
                )
            loaded = _from_result_dict(d["result"], origin)
            loaded.spec = d.get("spec")
            loaded.spec_hash = d.get("spec_hash")
            return loaded
        if "data" in d and "kind" in d:  # to_result_json envelope
            if schema != RESULT_SCHEMA:
                raise AnalysisError(
                    f"stale result artifact from {origin}: schema "
                    f"{schema!r}, this build reads schema {RESULT_SCHEMA}"
                )
            data = d["data"]
            if not isinstance(data, dict):
                raise AnalysisError(
                    f"result envelope from {origin} has non-dict data"
                )
            if "counters" in data and "measurement" not in data:
                return LoadedResult(
                    kind="metrics", metrics=data, origin=origin
                )
            return _from_result_dict(data, origin)
    if "counters" in d and "measurement" not in d:  # bare metrics
        return LoadedResult(kind="metrics", metrics=d, origin=origin)
    return _from_result_dict(d, origin)


def _from_path(path: Path) -> LoadedResult:
    origin = str(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise AnalysisError(f"cannot read {origin}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise AnalysisError(f"{origin} is not valid JSON: {exc}") from exc
    if isinstance(payload, list):  # chrome-trace event array
        return LoadedResult(
            kind="trace", trace_events=payload, origin=origin
        )
    if isinstance(payload, dict):
        return _from_dict(payload, origin)
    raise AnalysisError(
        f"{origin} holds a {type(payload).__name__}, not an artifact"
    )


def _looks_like_hash(text: str) -> bool:
    return (
        4 <= len(text) <= 64
        and all(c in "0123456789abcdef" for c in text.lower())
    )


def _from_store_hash(
    text: str, store, cache_dir: Optional[Union[str, Path]]
) -> LoadedResult:
    from repro.bench.store import ResultStore

    if store is None:
        store = ResultStore(cache_dir) if cache_dir else ResultStore()
    matches = [h for h in store.hashes() if h.startswith(text.lower())]
    if not matches:
        raise AnalysisError(
            f"no cached result matches {text!r} — it is neither an "
            f"existing file nor a stored result hash (store: {store.root})"
        )
    if len(matches) > 1:
        raise AnalysisError(
            f"hash prefix {text!r} is ambiguous: "
            f"{', '.join(h[:12] for h in matches[:6])}"
        )
    payload = store.load(matches[0])
    if payload is None:
        raise AnalysisError(
            f"store entry {matches[0][:12]} is stale or corrupt "
            "(wrong schema); re-run the sweep to refresh it"
        )
    return _from_dict(payload, f"store:{matches[0][:12]}")


def load(
    source,
    *,
    store=None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> LoadedResult:
    """Resolve any artifact reference to a :class:`LoadedResult`.

    ``source`` may be a result object, a dict (raw result, store entry,
    export envelope, or bare metrics artifact), a chrome-trace event
    list, a path to a JSON artifact, or a (prefix of a) result-store
    hash.  ``store`` / ``cache_dir`` configure which
    :class:`~repro.bench.store.ResultStore` hash lookups consult
    (default: the default cache directory).

    Raises :class:`~repro.errors.AnalysisError` on anything that cannot
    be resolved — unknown shape, missing file/hash, ambiguous prefix, or
    an artifact written under a different schema version.
    """
    if isinstance(source, dict):
        return _from_dict(source, "<dict>")
    if isinstance(source, list):
        return LoadedResult(
            kind="trace", trace_events=source, origin="<list>"
        )
    if isinstance(source, Path):
        if not source.exists():
            raise AnalysisError(f"no such file: {source}")
        return _from_path(source)
    if isinstance(source, str):
        path = Path(source)
        if path.exists():
            return _from_path(path)
        if _looks_like_hash(source):
            return _from_store_hash(source, store, cache_dir)
        raise AnalysisError(
            f"{source!r} is neither an existing file nor a store hash"
        )
    return _wrap_result(source, "<object>")
