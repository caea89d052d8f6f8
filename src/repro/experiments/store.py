"""JSON-lines result store: content-addressed sweep points, resumable suites.

Every sweep point — one ``(scheme, proxy-cache fraction)`` simulation
under one fully resolved :class:`~repro.core.config.SimulationConfig` —
is keyed by a SHA-256 hash of its *content*: the config (which embeds the
workload and network parameters and therefore the scale), the scheme
name, the fraction, the explicit trace seed, and (when one is active)
the fault plan.  Two invocations that would simulate the same thing
produce the same key, whatever order they run in and whatever process
computes them, so

* re-running a finished suite touches no simulator code at all;
* an interrupted suite resumes from the completed prefix (the store is
  append-only JSON lines — a half-written trailing line from a killed
  run is detected and ignored on reload, and the next row starts a new
  line after it);
* unrelated suites can share one store file (keys never collide across
  different configs/scales — or fault plans).

The stored record is the full serialized
:class:`~repro.core.metrics.SchemeResult`, so replaying from the store
is byte-identical to re-simulating: latency gains are recomputed from the
exact same numbers.

Layout of one line (``"schema"`` is the row format version; rows written
before it existed load as schema 1, rows from a *newer* format are
skipped with a warning instead of crashing the load)::

    {"schema": 2, "key": "<sha256 hex>", "label": "<human hint>",
     "result": {...SchemeResult fields...}, "meta": {"wall_time": ...}}

A row that does not parse — torn, not UTF-8, not JSON, a ``key`` that
is not a string, a ``result`` that is missing or malformed — is skipped
and counted in :attr:`ResultStore.skipped_lines`; its point re-runs on
the next resume.  That includes the ``"failed"`` rows older builds wrote
for quarantined points (they carry no ``"result"``).  Later rows win
over earlier ones for the same key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
from pathlib import Path
from typing import Any

from ..core.config import SimulationConfig
from ..core.metrics import SchemeResult

__all__ = ["ROW_SCHEMA", "STORE_VERSION", "point_key", "ResultStore"]

#: Bump to invalidate every stored result (semantic changes to what a
#: point *means*).  Part of the key, not the row.
STORE_VERSION = 1

#: Version of the on-disk row format.  1 = the original implicit format
#: (no ``schema`` field); 2 adds the field itself (and, in older builds,
#: failure records, which this build skips).
ROW_SCHEMA = 2


def _config_fingerprint(config: SimulationConfig) -> dict[str, Any]:
    """JSON-safe nested dict of every config field (workload + network)."""
    return dataclasses.asdict(config)


def point_key(
    config: SimulationConfig,
    scheme: str,
    fraction: float,
    seed: int,
    faults: dict[str, Any] | None = None,
) -> str:
    """Content hash identifying one sweep point.

    The hash covers everything the simulation result depends on: the
    base configuration (including the workload — and hence the scale —
    and the network model), the scheme, the proxy-cache fraction, the
    explicit trace seed and, when given, the fault plan (as a plain
    dict).  Pass ``faults`` only for a plan that actually does
    something: omitting it for zero plans keeps the key identical to the
    pre-fault-subsystem key, so old stores keep resuming.  Canonical
    JSON (sorted keys, no whitespace) keeps the digest stable across
    processes and Python versions.
    """
    payload = {
        "v": STORE_VERSION,
        "config": _config_fingerprint(config),
        "scheme": scheme,
        "fraction": float(fraction),
        "seed": int(seed),
    }
    if faults:
        payload["faults"] = faults
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def serialize_result(result: SchemeResult) -> dict[str, Any]:
    """``SchemeResult`` -> JSON-safe dict (exact float round-trip)."""
    return dataclasses.asdict(result)


def deserialize_result(payload: dict[str, Any]) -> SchemeResult:
    """Inverse of :func:`serialize_result`."""
    return SchemeResult(
        scheme=payload["scheme"],
        n_requests=payload["n_requests"],
        total_latency=payload["total_latency"],
        tier_counts={k: int(v) for k, v in payload.get("tier_counts", {}).items()},
        messages={k: int(v) for k, v in payload.get("messages", {}).items()},
        extras={k: float(v) for k, v in payload.get("extras", {}).items()},
    )


class ResultStore:
    """Append-only JSONL store of completed sweep points.

    Records live in memory as ``key -> line dict``; :meth:`put` appends
    to the backing file immediately (flushed per record) so a killed run
    loses at most the line being written — which the loader skips.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._records: dict[str, dict[str, Any]] = {}
        self._skipped_lines = 0
        #: The file ends in a torn line: the next row must start a new one.
        self._torn_tail = False
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        data = self.path.read_bytes()
        self._torn_tail = not data.endswith(b"\n") and bool(data)
        for raw in data.splitlines():
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                entry = json.loads(line)
                key = entry["key"]
            except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
                self._skipped_lines += 1  # torn write from an interrupted run
                continue
            if not isinstance(key, str):
                self._skipped_lines += 1
                continue
            schema = entry.get("schema", 1)  # pre-schema rows are version 1
            if not isinstance(schema, int) or schema > ROW_SCHEMA:
                warnings.warn(
                    f"{self.path}: skipping row with unknown schema "
                    f"{schema!r} of type {type(schema).__name__} (this build "
                    f"reads int <= {ROW_SCHEMA}); written by a newer version?",
                    stacklevel=2,
                )
                self._skipped_lines += 1
                continue
            try:
                deserialize_result(entry["result"])
            except (KeyError, TypeError, ValueError, AttributeError, OverflowError):
                self._skipped_lines += 1  # no result, or one that does not parse
                continue
            self._records[key] = entry

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    @property
    def skipped_lines(self) -> int:
        """Corrupt/torn/unknown-schema/unparsable-result lines ignored on load."""
        return self._skipped_lines

    @property
    def trace_dir(self) -> Path:
        """Where wire-level exchange traces for this store's points land.

        A sibling directory of the store file (``repro_store.jsonl`` ->
        ``repro_store_traces/``), so recordings travel with the results
        they belong to.  Trace files are content-addressed by
        :func:`repro.protocol.trace.trace_key`; this property only names
        the directory.
        """
        return self.path.with_name(self.path.stem + "_traces")

    def get(self, key: str) -> SchemeResult | None:
        """Stored result for ``key``, or ``None`` if not yet computed."""
        entry = self._records.get(key)
        if entry is None:
            return None
        return deserialize_result(entry["result"])

    def put(
        self,
        key: str,
        result: SchemeResult,
        label: str = "",
        meta: dict[str, Any] | None = None,
    ) -> None:
        """Record a completed point and append it to the backing file."""
        entry = {
            "schema": ROW_SCHEMA,
            "key": key,
            "label": label,
            "result": serialize_result(result),
            "meta": meta or {},
        }
        self._records[key] = entry
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry, sort_keys=True) + "\n"
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write("\n" + line if self._torn_tail else line)
            fh.flush()
        self._torn_tail = False
