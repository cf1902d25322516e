"""Supervisor for the sharded multi-process service tier.

The parent half of the shard architecture (the worker half lives in
:mod:`repro.service.shard`): spawns N worker processes, routes every
session-scoped request to the worker that owns the session's shard
(:func:`~repro.service.shard.shard_for` on the session id), and restarts
crashed workers — which then recover their shard warm from the snapshot
directory.

Transport is one duplex ``multiprocessing`` pipe per worker carrying
length-prefixed JSON frames (``send_bytes``/``recv_bytes``).  Each
:class:`WorkerHandle` multiplexes concurrent HTTP handler threads over
its single pipe: requests carry an id, a daemon reader thread matches
responses back to waiting threads, and a send lock keeps frames whole.
A worker that does not answer within ``config.service_rpc_timeout_s``
(or whose pipe reports EOF) surfaces as
:class:`~repro.service.shard.WorkerUnreachable` — never a hang — which
the HTTP layer maps to 503.  ``/healthz`` probes every worker under a
short cap (``min(2.0, config.service_rpc_timeout_s)``) so one dead
worker delays the whole aggregation by at most that cap and is reported
as a ``worker_unreachable`` stanza instead of an error.

Workers are spawned (never forked): the supervisor process carries pool
threads and precompute timers that must not be duplicated into children.
Each worker starts from the supervisor's config snapshot with
``action_pool_workers`` divided across workers so N action pools do not
oversubscribe the host.

The supervisor deliberately does *not* hold any session state: the
session id is assigned here (before routing — the id determines the
shard) and everything else lives in the owning worker, so a supervisor
restart loses nothing that the workers' snapshot directories cannot
restore.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
import uuid
from typing import Any

from ..core import telemetry
from ..core.config import config
from . import metrics as service_metrics
from .shard import (
    WorkerUnreachable,
    decode_frame,
    raise_error,
    shard_for,
    worker_main,
)

__all__ = ["Supervisor", "WorkerHandle"]


class _Waiter:
    __slots__ = ("event", "response")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.response: dict[str, Any] | None = None


class WorkerHandle:
    """One worker process plus the RPC multiplexer over its pipe."""

    def __init__(
        self, shard: int, process: "multiprocessing.process.BaseProcess", conn: Any
    ) -> None:
        self.shard = shard
        self.process = process
        self.conn = conn
        self._lock = threading.Lock()
        self._pending: dict[int, _Waiter] = {}  # guarded-by: _lock
        self._next_id = 0  # guarded-by: _lock
        self._dead = False  # guarded-by: _lock
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"lux-shard-{shard}-reader",
            daemon=True,
        )
        self._reader.start()

    # ------------------------------------------------------------------
    def request(
        self,
        method: str,
        params: dict[str, Any] | None = None,
        timeout: float | None = None,
    ) -> Any:
        """Send one RPC and wait for its matched response.

        Raises :class:`WorkerUnreachable` when the worker is dead or the
        timeout (default ``config.service_rpc_timeout_s``) elapses —
        callers never block indefinitely on a crashed worker.  Encoded
        worker errors are re-raised as their original exception types
        (see :func:`~repro.service.shard.raise_error`).
        """
        if timeout is None:
            timeout = float(config.service_rpc_timeout_s)
        waiter = _Waiter()
        started = time.perf_counter()
        with telemetry.span(
            "rpc.request", method=method, shard=self.shard
        ) as rpc_span:
            if params and params.get("session"):
                rpc_span.attrs["session"] = str(params["session"])
            request: dict[str, Any] = {
                "id": 0,
                "method": method,
                "params": params or {},
                # Propagated inside the frame so worker-side spans stitch
                # to this request's trace.
                "trace": {
                    "id": rpc_span.trace_id,
                    "span": rpc_span.span_id,
                    "sampled": rpc_span.sampled,
                },
            }
            with self._lock:
                if self._dead:
                    raise WorkerUnreachable(f"shard {self.shard} worker is down")
                self._next_id += 1
                request_id = self._next_id
                request["id"] = request_id
                self._pending[request_id] = waiter
                frame = json.dumps(request, separators=(",", ":")).encode("utf-8")
                try:
                    # Under the same lock as the id allocation: pipe frames
                    # from concurrent handler threads must not interleave.
                    self.conn.send_bytes(frame)
                except (OSError, ValueError):
                    self._pending.pop(request_id, None)
                    self._dead = True
                    raise WorkerUnreachable(
                        f"shard {self.shard} worker pipe is closed"
                    ) from None
            try:
                answered = waiter.event.wait(timeout)
            finally:
                telemetry.histogram(
                    "lux_rpc_client_seconds",
                    "supervisor-side RPC round trip by method and shard",
                    ("method", "shard"),
                ).observe(time.perf_counter() - started, (method, self.shard))
            if not answered:
                with self._lock:
                    self._pending.pop(request_id, None)
                telemetry.counter(
                    "lux_rpc_errors_total",
                    "RPCs that failed or timed out, by shard",
                    ("shard",),
                ).inc(labels=(self.shard,))
                raise WorkerUnreachable(
                    f"shard {self.shard} did not answer {method!r} "
                    f"within {timeout:.1f}s"
                )
            response = waiter.response or {}
            if response.get("ok"):
                return response.get("result")
            telemetry.counter(
                "lux_rpc_errors_total",
                "RPCs that failed or timed out, by shard",
                ("shard",),
            ).inc(labels=(self.shard,))
            raise_error(response.get("error") or {})

    def _read_loop(self) -> None:
        while True:
            try:
                raw = self.conn.recv_bytes()
            except (EOFError, OSError):
                break  # worker exited (or was killed)
            try:
                response = decode_frame(raw)
            except ValueError:
                continue
            with self._lock:
                waiter = self._pending.pop(response.get("id"), None)
            if waiter is not None:
                waiter.response = response
                waiter.event.set()
        self._mark_dead()

    def _mark_dead(self) -> None:
        """Fail every in-flight request instead of leaving threads hung."""
        with self._lock:
            self._dead = True
            pending = list(self._pending.values())
            self._pending.clear()
        for waiter in pending:
            waiter.response = {
                "ok": False,
                "error": {
                    "kind": "unreachable",
                    "message": f"shard {self.shard} worker died mid-request",
                },
            }
            waiter.event.set()

    # ------------------------------------------------------------------
    def alive(self) -> bool:
        with self._lock:
            dead = self._dead
        return not dead and self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL the worker (fault injection: no flush, no goodbye)."""
        self.process.kill()
        self.process.join(timeout=10)
        self._close()

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: the worker flushes snapshots before exit."""
        try:
            self.request("shutdown", timeout=timeout)
        except (WorkerUnreachable, RuntimeError):
            pass  # already dead (or wedged — terminate below)
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=10)
        self._close()

    def _close(self) -> None:
        self._mark_dead()
        try:
            self.conn.close()
        except OSError:
            pass


class Supervisor:
    """Routes sessions across N spawned workers; restarts the crashed."""

    def __init__(
        self,
        n_workers: int | None = None,
        snapshot_dir: str | None = None,
    ) -> None:
        if n_workers is None:
            n_workers = int(config.service_shards) or 2
        self.n_workers = max(1, int(n_workers))
        if snapshot_dir is None:
            snapshot_dir = str(config.service_snapshot_dir) or None
        self.snapshot_dir = snapshot_dir
        self._ctx = multiprocessing.get_context("spawn")
        base = config.snapshot()
        # Divide the host's cores across the workers' action pools: N
        # workers each sizing their pool to the full host would
        # oversubscribe it N-fold.
        base["action_pool_workers"] = max(
            2, (os.cpu_count() or 1) // self.n_workers
        )
        base["service_shards"] = 0  # workers are single-process inside
        base["service_snapshot_dir"] = snapshot_dir or ""
        self._base_config = base
        self._lock = threading.Lock()
        self._workers: list[WorkerHandle] = [  # guarded-by: _lock
            self._spawn(i) for i in range(self.n_workers)
        ]

    # ------------------------------------------------------------------
    def _spawn(self, shard: int) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(
                child_conn,
                shard,
                self.n_workers,
                self._base_config,
                self.snapshot_dir,
            ),
            name=f"lux-shard-{shard}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the child holds its own copy
        return WorkerHandle(shard, process, parent_conn)

    def _worker_for(self, session_id: str) -> WorkerHandle:
        with self._lock:
            return self._workers[shard_for(session_id, self.n_workers)]

    def _handles(self) -> list[WorkerHandle]:
        with self._lock:
            return list(self._workers)

    def worker(self, shard: int) -> WorkerHandle:
        with self._lock:
            return self._workers[shard]

    # ------------------------------------------------------------------
    # Session API (mirrors the single-process backend)
    # ------------------------------------------------------------------
    def create_session(self, body: dict[str, Any]) -> dict[str, Any]:
        # The id is assigned here, before routing: it determines the
        # shard, so the worker must not invent its own.
        body = dict(body)
        if not body.get("session_id"):
            body["session_id"] = uuid.uuid4().hex[:12]
        return self._worker_for(body["session_id"]).request("create", body)

    def session_ids(self) -> list[str]:
        ids: list[str] = []
        for handle in self._handles():
            try:
                ids.extend(handle.request("list")["sessions"])
            except WorkerUnreachable:
                continue  # degraded listing beats a 503 on /sessions
        return sorted(ids)

    def info(self, session_id: str) -> dict[str, Any]:
        return self._worker_for(session_id).request(
            "info", {"session": session_id}
        )

    def close_session(self, session_id: str) -> dict[str, Any]:
        return self._worker_for(session_id).request(
            "close", {"session": session_id}
        )

    def set_intent(self, session_id: str, intent: Any) -> dict[str, Any]:
        return self._worker_for(session_id).request(
            "intent", {"session": session_id, "intent": intent}
        )

    def mutate(self, session_id: str, body: dict[str, Any]) -> dict[str, Any]:
        params = {**body, "session": session_id}
        return self._worker_for(session_id).request("mutate", params)

    def recommendations(
        self, session_id: str, action: str | None = None
    ) -> str:
        """The recommendation payload as a pre-serialized JSON string.

        The worker builds the provenance envelope itself and the
        supervisor forwards the bytes untouched, so the wire shape is
        identical in-process and behind the shard tier.
        """
        result = self._worker_for(session_id).request(
            "recommendations", {"session": session_id, "action": action}
        )
        return result["payload_json"]

    def wait_idle(self, timeout: float = 30.0) -> bool:
        return all(
            handle.request("wait_idle", {"timeout": timeout}, timeout=timeout + 5.0)[
                "idle"
            ]
            for handle in self._handles()
        )

    # ------------------------------------------------------------------
    def healthz(self) -> dict[str, Any]:
        """Aggregate liveness without ever blocking on a dead worker.

        Each worker is probed under a short timeout; one that does not
        answer contributes a ``worker_unreachable`` stanza and flips the
        aggregate status to ``degraded``.  The top-level ``precompute``
        / ``store`` / ``pool.queues`` / ``sessions`` aggregates keep the
        shape the load harness's monitor (and operators' dashboards)
        already read on single-process deployments.
        """
        cap = min(2.0, float(config.service_rpc_timeout_s))
        status = "ok"
        workers: list[dict[str, Any]] = []
        backlog = 0
        store_bytes = 0
        sessions = 0
        queues: dict[str, dict[str, int]] = {}
        for handle in self._handles():
            try:
                stanza = handle.request("healthz", timeout=cap)
            except (WorkerUnreachable, RuntimeError) as exc:
                status = "degraded"
                workers.append(
                    {
                        "status": "worker_unreachable",
                        "shard": handle.shard,
                        "error": str(exc),
                    }
                )
                continue
            workers.append(stanza)
            backlog += stanza.get("precompute", {}).get("backlog_depth", 0)
            store_bytes += stanza.get("store", {}).get("bytes", 0)
            sessions += stanza.get("sessions", 0)
            for band, tags in (stanza.get("pool", {}).get("queues") or {}).items():
                merged = queues.setdefault(band, {})
                for tag, depth in (tags or {}).items():
                    merged[tag] = merged.get(tag, 0) + int(depth)
        return {
            "status": status,
            "shards": self.n_workers,
            "sessions": sessions,
            "pool": {"queues": queues},
            "precompute": {"backlog_depth": backlog},
            "store": {"bytes": store_bytes},
            "workers": workers,
            # Router-side latency view only (per-worker breakdowns live in
            # each worker stanza's own "telemetry" key).
            "telemetry": service_metrics.summaries(),
        }

    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, Any]:
        """Merged metrics snapshot: every worker plus the supervisor.

        Mirrors :meth:`healthz`'s probe discipline — a bounded per-worker
        timeout, dead shards reported (``lux_worker_up`` 0) instead of
        failing the scrape.  The merge is exact bucket-wise addition
        because all processes share histogram bounds (same base config).
        """
        cap = min(2.0, float(config.service_rpc_timeout_s))
        snapshots: list[dict[str, Any]] = [service_metrics.collect_process()]
        up: dict[tuple[str, ...], float] = {}
        for handle in self._handles():
            try:
                result = handle.request("metrics", timeout=cap)
            except (WorkerUnreachable, RuntimeError):
                up[(str(handle.shard),)] = 0.0
                continue
            up[(str(handle.shard),)] = 1.0
            snapshots.append(result.get("snapshot") or {})
        merged = service_metrics.merge_snapshots(snapshots)
        merged["lux_worker_up"] = service_metrics.static_gauge(
            ("shard",), up, help="worker liveness as seen by the supervisor"
        )
        return merged

    def trace(self, session_id: str, limit: int = 100) -> dict[str, Any]:
        """Recent spans for one session: owning worker + router-side spans.

        The worker validates the session exists (404 otherwise); the
        supervisor contributes its own HTTP/RPC spans tagged with the
        session id, sorted into one timeline with the worker's.
        """
        result = self._worker_for(session_id).request(
            "trace", {"session": session_id, "limit": limit}
        )
        spans = list(result.get("spans") or [])
        spans.extend(telemetry.spans(session_id=session_id, limit=limit))
        spans.sort(key=lambda s: s.get("start", 0.0))
        if limit >= 0:
            spans = spans[-limit:]
        return {"session": session_id, "spans": spans}

    # ------------------------------------------------------------------
    # Lifecycle / fault injection
    # ------------------------------------------------------------------
    def kill_worker(self, shard: int) -> None:
        """SIGKILL one worker mid-flight (the load harness's fault hook)."""
        self.worker(shard).kill()

    def restart_worker(self, shard: int) -> WorkerHandle:
        """Replace a (dead or live) worker; the new one restores its shard
        warm from the snapshot directory before serving."""
        with self._lock:
            old = self._workers[shard]
        if old.process.is_alive():
            old.kill()
        else:
            old._close()
        handle = self._spawn(shard)
        with self._lock:
            self._workers[shard] = handle
        return handle

    def stop(self) -> None:
        """Graceful top-down shutdown: every worker flushes and exits."""
        for handle in self._handles():
            handle.stop()

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.stop()
