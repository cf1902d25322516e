"""Session registry: one analyst, one dataframe, one config overlay.

A :class:`Session` is the unit of isolation in the recommendation service.
It owns a :class:`~repro.core.frame.LuxDataFrame` (with its history and
intent), a *frozen* per-session config overlay applied around every pass
through :func:`~repro.core.config.config_overlay` — ending the era of
sessions clobbering the module-level singleton — and a version handle
``(data_version, intent_epoch)`` that keys everything derived from the
frame's current state.

Reads go store-first: :meth:`Session.recommendations` returns straight
from the :class:`~repro.service.store.ResultStore` when the background
precompute engine already ran a pass at the current version (a dictionary
lookup — zero executor work), and falls back to a synchronous foreground
pass that back-fills the store otherwise.

:class:`SessionManager` wires the three service pieces together (registry,
store, precompute engine) and is what the HTTP API holds.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from ..core import telemetry
from ..core.config import config, thread_overlay
from ..core.errors import LuxWarning
from ..core.frame import LuxDataFrame
from ..dataframe import DataFrame
from ..vis.vegalite import spec_payload
from .provenance import Provenance
from .store import MANIFEST

if TYPE_CHECKING:  # pragma: no cover
    from .persist import SnapshotStore
    from .precompute import PrecomputeEngine
    from .store import ResultStore

__all__ = ["Session", "SessionManager", "serialize_recommendations"]


def serialize_recommendations(recs: Any) -> dict[str, Any]:
    """RecommendationSet -> per-action JSON payloads (the wire format).

    Shared by the foreground read path and the precompute engine so a
    store entry is byte-identical no matter which path produced it.
    """
    payloads: dict[str, Any] = {}
    for name in recs.keys():
        vislist = recs[name]
        payloads[name] = {
            "count": len(vislist),
            "specs": [
                spec_payload(vis.spec, vis.score)
                for vis in vislist
                if vis.spec is not None
            ],
        }
    return payloads


class Session:
    """One analyst's live context inside the service."""

    def __init__(
        self,
        session_id: str,
        frame: LuxDataFrame,
        overrides: Mapping[str, Any] | None = None,
        store: "ResultStore | None" = None,
    ) -> None:
        self.id = session_id
        self.frame = frame
        #: Frozen at creation; every pass for this session runs under it.
        self.overrides: dict[str, Any] = config.validate_overrides(
            overrides or {}
        )
        self.store = store
        self.created_at = time.time()
        #: Serializes this session's passes (foreground vs background) so
        #: two passes never interleave writes to the frame's memoized
        #: metadata/recommendation state.
        self.lock = threading.RLock()
        #: Lazily-rehydrated snapshot results: ``(path, version)`` set by
        #: a snapshot restore, consumed by the first read.
        self._pending_results: "tuple[Any, tuple[int, int]] | None" = None  # guarded-by: lock

    # ------------------------------------------------------------------
    @property
    def version(self) -> tuple[int, int]:
        """The state everything derived from this session is keyed on."""
        return (
            getattr(self.frame, "_data_version", 0),
            getattr(self.frame, "_intent_epoch", 0),
        )

    def overlay(self, **extra: Any):
        """This session's config scope (overrides + pass-time settings).

        Streaming is forced off inside service passes: the service's
        always-on path *is* the background mechanism, and a pass must be
        complete when it lands in the store.

        Built on :func:`thread_overlay`, not :func:`config_overlay`:
        session passes run concurrently on worker threads and never
        mutate base config, so the global snapshot/restore half of
        ``config_overlay`` would only add a hazard (a pass exiting could
        revert a base mutation another thread made mid-pass).  The
        overrides were validated at session creation.
        """
        merged = dict(self.overrides)
        merged["streaming"] = False
        merged.update(extra)
        return thread_overlay(merged)

    # ------------------------------------------------------------------
    def set_intent(self, intent: Any) -> None:
        """Set (or clear with None/[]) the frame's intent, session-scoped."""
        with self.lock, self.overlay():
            if intent:
                self.frame.intent = intent
            else:
                self.frame.clear_intent()

    @property
    def intent(self) -> list[Any]:
        return self.frame.intent

    # ------------------------------------------------------------------
    def mutate(self, column: str, values: Any = None) -> None:
        """Apply one column-level mutation, session-scoped.

        ``values=None`` *touches* ``column`` (rewrites it to itself — a
        content no-op that still bumps the data version and arms the
        precompute engine; the load harness's write op).  With ``values``
        the column is assigned (or created) from the given sequence.
        Emits the same column-level delta any in-process mutation would,
        so incremental precompute scopes the rerun correctly.
        """
        with self.lock, self.overlay():
            frame = self.frame
            if values is None:
                if column not in frame.columns:
                    raise KeyError(f"no such column: {column!r}")
                frame[column] = frame[column]
            else:
                if len(values) != len(frame):
                    raise ValueError(
                        f"values length {len(values)} != frame rows {len(frame)}"
                    )
                frame[column] = values

    # ------------------------------------------------------------------
    def recommendations(
        self,
        action: str | None = None,
        compute: bool = True,
        v1: bool = False,
    ) -> dict[str, Any] | None:
        """Recommendations at the frame's current version, store-first.

        Returns a response dict with per-action payloads and the typed
        ``provenance`` envelope.  When the store holds a complete pass at
        the current version the call performs no executor work at all;
        otherwise (and only when ``compute`` is True) a foreground pass
        runs under this session's overlay and back-fills the store.
        ``action`` narrows the response to one action (``KeyError`` when
        no such action exists for this frame); ``compute=False`` returns
        None on a store miss (the probe the benchmarks and tests use).
        ``v1`` is accepted and ignored, so callers that still pass the
        retired wire-shape flag keep working: every response carries
        ``provenance``.
        """
        with telemetry.span("session.read", session=self.id) as read_span:
            response = self._recommendations_inner(action, compute)
            if response is not None:
                read_span.attrs["origin"] = response["provenance"]["origin"]
            return response

    def _recommendations_inner(
        self, action: str | None, compute: bool
    ) -> dict[str, Any] | None:
        self._hydrate_results()
        version = self.version
        if action is not None:
            # A completed pass knows its action set: reject unknown names
            # without burning a foreground recomputation per request.
            manifest = (
                self.store.get(self.id, version, MANIFEST)
                if self.store is not None
                else None
            )
            if manifest is not None and action not in manifest["payload"]:
                raise KeyError(f"no such action: {action!r}")
        stored = self._read_store(version, action)
        if stored is not None:
            return stored
        if not compute:
            return None
        self._compute_foreground(version)
        stored = self._read_store(self.version, action)
        if stored is not None:
            return stored
        # Store rejected the payload (budget) or the frame mutated while
        # computing: respond from the freshly memoized pass directly.
        payloads = self._serialize_current()
        if action is not None:
            if action not in payloads:
                raise KeyError(f"no such action: {action!r}")
            payloads = {action: payloads[action]}
        return self._respond(self.version, payloads, origin="foreground")

    def _hydrate_results(self) -> None:
        """Load snapshotted pass results into the store, exactly once.

        A restored session carries ``(results_path, version)``; the first
        read at that version re-inserts the saved records (original
        origins and ``computed_at``) so warm recovery serves store hits,
        not foreground passes.  A session that mutated before its first
        read skips rehydration — the saved pass no longer matches the
        current version and a fresh pass is already scheduled.
        """
        with self.lock:
            marker = self._pending_results
            if marker is None:
                return
            self._pending_results = None
            path, version = marker
            if self.store is None or self.version != version:
                return
            try:
                saved = json.loads(Path(path).read_text("utf-8"))
                self.store.restore_pass(
                    self.id, version, saved["records"], saved.get("manifest")
                )
            except Exception as exc:
                telemetry.get_logger("session").warning(
                    "rehydration_failed", session=self.id, error=str(exc)
                )
                warnings.warn(
                    f"result rehydration failed for {self.id}: {exc}", LuxWarning
                )

    def _read_store(
        self, version: tuple[int, int], action: str | None
    ) -> dict[str, Any] | None:
        if self.store is None:
            return None
        if action is not None:
            record = self.store.get(self.id, version, action)
            if record is None:
                return None
            records = {action: record}
        else:
            records = self.store.get_pass(self.id, version)
            if records is None:
                return None
        origins = {name: r["origin"] for name, r in records.items()}
        distinct = set(origins.values())
        # An incremental pass mixes recomputed ("precompute") and
        # carried-forward ("carried") actions; the overall origin reports
        # "mixed" and the per-action map tells the two apart.
        origin = distinct.pop() if len(distinct) == 1 else "mixed"
        payloads = {name: r["payload"] for name, r in records.items()}
        oldest = min(r["computed_at"] for r in records.values())
        vis_origins = {
            name: r["vis_origins"]
            for name, r in records.items()
            if r.get("vis_origins")
        }
        return self._respond(
            version,
            payloads,
            origin=origin,
            computed_at=oldest,
            origins=origins,
            vis_origins=vis_origins or None,
        )

    def _respond(
        self,
        version: tuple[int, int],
        payloads: dict[str, Any],
        origin: str,
        computed_at: float | None = None,
        origins: dict[str, str] | None = None,
        vis_origins: "dict[str, dict[str, str]] | None" = None,
    ) -> dict[str, Any]:
        provenance = Provenance.build(
            version,
            payloads,
            origin,
            computed_at=computed_at,
            origins=origins,
            vis_origins=vis_origins,
        )
        return {
            "session": self.id,
            "data_version": list(version),
            "actions": payloads,
            "provenance": provenance.to_payload(),
        }

    # ------------------------------------------------------------------
    def _compute_foreground(self, version: tuple[int, int]) -> None:
        """Synchronous pass under the session overlay; back-fills the store."""
        with telemetry.span(
            "session.foreground_pass", session=self.id
        ), self.lock, self.overlay():
            # The property path memoizes on the frame and carries the
            # repr's failproofing (a broken action yields an empty tab).
            self.frame.recommendations
            payloads = self._serialize_current()
            if self.store is not None and self.version == version:
                self.store.put_pass(
                    self.id, version, payloads, origin="foreground"
                )

    def _serialize_current(self) -> dict[str, Any]:
        """Serialize the frame's memoized recommendation set per action."""
        return serialize_recommendations(self.frame.recommendations)

    # ------------------------------------------------------------------
    def info(self) -> dict[str, Any]:
        return {
            "session": self.id,
            "rows": len(self.frame),
            "columns": self.frame.columns,
            "data_version": list(self.version),
            "intent": [repr(c) for c in self.frame.intent],
            "overrides": dict(self.overrides),
            "created_at": self.created_at,
            "history_length": len(self.frame.history),
        }

    def __repr__(self) -> str:
        return (
            f"<Session {self.id} rows={len(self.frame)} "
            f"version={self.version} overrides={self.overrides}>"
        )


class SessionManager:
    """The service's root object: registry + store + precompute engine."""

    def __init__(
        self,
        store: "ResultStore | None" = None,
        engine: "PrecomputeEngine | None" = None,
        snapshots: "SnapshotStore | None" = None,
    ) -> None:
        from .persist import SnapshotStore
        from .precompute import PrecomputeEngine
        from .store import ResultStore

        self.store = store if store is not None else ResultStore()
        if snapshots is None and config.service_snapshot_dir:
            snapshots = SnapshotStore(config.service_snapshot_dir)
        self.snapshots = snapshots
        self.engine = (
            engine
            if engine is not None
            else PrecomputeEngine(self.store, snapshots=self.snapshots)
        )
        self._sessions: dict[str, Session] = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def create(
        self,
        data: DataFrame | LuxDataFrame,
        overrides: Mapping[str, Any] | None = None,
        intent: Any = None,
        session_id: str | None = None,
    ) -> Session:
        """Register a new session; schedules its first always-on pass.

        Plain frames are wrapped into :class:`LuxDataFrame` (copying —
        sessions own their data); LuxDataFrames are adopted as-is so an
        in-process caller keeps a live handle for mutations.
        """
        if not isinstance(data, LuxDataFrame):
            frame = LuxDataFrame({name: data[name] for name in data.columns})
        else:
            frame = data
        session = Session(
            session_id or uuid.uuid4().hex[:12],
            frame,
            overrides=overrides,
            store=self.store,
        )
        with self._lock:
            if session.id in self._sessions:
                raise ValueError(f"session id {session.id!r} already exists")
            self._sessions[session.id] = session
        if intent:
            session.set_intent(intent)
        # Always-on: start computing before the analyst first looks.
        self.engine.watch(session)
        if config.precompute:
            self.engine.schedule(session, immediate=True)
        return session

    def restore_sessions(
        self, shard: int | None = None, n_shards: int | None = None
    ) -> list[str]:
        """Adopt every snapshotted session (optionally one shard's slice).

        The restored frame arrives at its saved version with its saved
        intent/history; the stored pass rehydrates lazily on first read.
        No pass is scheduled here — the state on disk *is* the last
        completed pass, so scheduling one would only burn a cold pass per
        restored session at startup.  Sessions already live (or belonging
        to another shard) are skipped.
        """
        if self.snapshots is None:
            return []
        from .shard import shard_for

        restored: list[str] = []
        for session_id in self.snapshots.ids():
            if (
                shard is not None
                and n_shards
                and shard_for(session_id, n_shards) != shard
            ):
                continue
            with self._lock:
                if session_id in self._sessions:
                    continue
            session = self.snapshots.restore_session(session_id, store=self.store)
            if session is None:
                continue
            with self._lock:
                if session_id in self._sessions:  # pragma: no cover - race
                    continue
                self._sessions[session_id] = session
            self.engine.watch(session)
            restored.append(session_id)
        return restored

    def get(self, session_id: str) -> Session:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise KeyError(f"no such session: {session_id!r}")
        return session

    def close(self, session_id: str, drop_snapshot: bool = True) -> bool:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            return False
        self.engine.unwatch(session)
        self.store.drop_session(session_id)
        if drop_snapshot and self.snapshots is not None:
            # An explicitly closed session is gone for good; only a
            # shutdown flush keeps snapshots (drop_snapshot=False) so the
            # next process can recover them.
            self.snapshots.drop(session_id)
        return True

    def ids(self) -> list[str]:
        with self._lock:
            return list(self._sessions)

    def sessions(self) -> list[Session]:
        with self._lock:
            return list(self._sessions.values())

    def shutdown(self) -> None:
        """Flush snapshots, close every session, stop the engine's timers.

        The flush is forced (rate limit bypassed) and captures the
        *current* frame state — possibly newer than the last published
        pass, in which case the snapshot is frame-only at that version
        and the restored session's first read runs one foreground pass.
        Snapshots are kept (``drop_snapshot=False``): surviving a
        shutdown is their entire point.
        """
        for session in self.sessions():
            if self.snapshots is not None:
                self.snapshots.save(session, force=True)
            self.close(session.id, drop_snapshot=False)
        self.engine.close()

    def stats(self) -> dict[str, Any]:
        out = {
            "sessions": len(self.ids()),
            "store": self.store.stats(),
            "precompute": self.engine.stats(),
        }
        if self.snapshots is not None:
            out["snapshots"] = self.snapshots.stats()
        return out
