"""Backpressure: the bounded precompute backlog, end to end.

The contract under test (``config.precompute_queue_limit``):

- the backlog (armed debounce timers + live passes) never exceeds the
  bound — excess triggers are deferred FIFO and resumed as passes
  complete;
- :meth:`PrecomputeEngine.admit` rejects mutation-facing writes at
  saturation with a sane ``Retry-After``, and the HTTP layer maps that
  to 429 + a ``Retry-After`` header with **no side effects**;
- the check-then-enqueue race is closed: a slot freed (shed) between
  "is it full?" and "enqueue" is used, not spuriously rejected;
- once the backlog drains, nothing was lost — retried writes succeed
  and reads serve complete passes.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import LuxDataFrame, config, register_action, remove_action
from repro.core.vislist import VisList
from repro.service import QueueSaturated, SessionManager, make_server


def make_frame(n: int = 400, seed: int = 0) -> LuxDataFrame:
    rng = np.random.default_rng(seed)
    return LuxDataFrame(
        {
            "q0": np.round(rng.normal(0, 1, n), 6),
            "q1": np.round(rng.lognormal(1, 0.4, n), 6),
            "d0": rng.choice(["a", "b", "c"], n).tolist(),
        }
    )


@pytest.fixture
def manager():
    config.precompute_debounce_s = 0.0
    m = SessionManager()
    yield m
    m.shutdown()


class TestSessionMutate:
    def test_touch_bumps_version_not_content(self, manager):
        config.precompute = False
        session = manager.create(make_frame())
        before = session.version
        values = list(session.frame["q0"].values)
        session.mutate("q0")
        assert session.version != before
        assert list(session.frame["q0"].values) == values

    def test_values_assign_and_create(self, manager):
        config.precompute = False
        session = manager.create(make_frame(n=5))
        session.mutate("q0", [1, 2, 3, 4, 5])
        assert [int(v) for v in session.frame["q0"].values] == [1, 2, 3, 4, 5]
        session.mutate("fresh", [0, 0, 1, 1, 2])
        assert "fresh" in session.frame.columns

    def test_touch_unknown_column_raises(self, manager):
        config.precompute = False
        session = manager.create(make_frame())
        with pytest.raises(KeyError):
            session.mutate("nope")

    def test_values_length_mismatch_raises(self, manager):
        config.precompute = False
        session = manager.create(make_frame(n=5))
        with pytest.raises(ValueError):
            session.mutate("q0", [1, 2])


class TestAdmission:
    def test_admit_rejects_at_limit_and_recovers(self, manager):
        config.precompute = False  # manual scheduling only
        sessions = [manager.create(make_frame(seed=i)) for i in range(2)]
        config.precompute_queue_limit = 2
        config.precompute_debounce_s = 30.0  # keep timers armed
        for session in sessions:
            manager.engine.schedule(session)
        assert manager.engine.backlog_depth() == 2
        with pytest.raises(QueueSaturated) as excinfo:
            manager.engine.admit()
        assert 1 <= excinfo.value.retry_after_s <= 60
        assert manager.engine.stats()["rejected"] == 1

        # Drain: re-arm immediately (pops the long timers), run dry.
        for session in sessions:
            manager.engine.schedule(session, immediate=True)
        assert manager.engine.wait_idle(60)
        manager.engine.admit()  # no raise: recovery after drain
        assert manager.engine.stats()["rejected"] == 1

    def test_admit_noop_when_unbounded(self, manager):
        config.precompute_queue_limit = 0
        manager.engine.admit()  # never raises

    def test_race_slot_freed_under_lock_is_used(self, manager):
        """A stale in-flight pass fills the queue; admit() must shed it
        inside its own lock hold and admit — the TOCTOU the design
        closes — instead of rejecting against a doomed slot."""
        config.precompute = False
        config.precompute_queue_limit = 1
        started = threading.Event()
        gate = threading.Event()

        def blocking_action(ldf):
            started.set()
            gate.wait(15)
            return VisList(visualizations=[])

        register_action(
            "Blocker",
            blocking_action,
            condition=lambda ldf: "q0" in ldf.columns,
        )
        try:
            session = manager.create(make_frame())
            manager.engine.schedule(session, immediate=True)
            assert started.wait(30)
            assert manager.engine.backlog_depth() == 1
            # The frame moves on: the blocked pass is now stale.  With
            # precompute off nothing reschedules, so the stale pass still
            # occupies the only slot when admit() runs.
            session.frame["extra"] = session.frame["q0"]
            manager.engine.admit()  # sheds the stale pass; must NOT raise
            stats = manager.engine.stats()
            assert stats["shed_stale"] >= 1
            assert stats["rejected"] == 0
            assert manager.engine.backlog_depth() == 0
        finally:
            gate.set()
            remove_action("Blocker")
            assert manager.engine.wait_idle(60)

    def test_backlog_bounded_and_deferred_resume_fifo(self, manager):
        """Five sessions, bound of three: the backlog never exceeds the
        limit, the overflow defers, and every deferred session's pass
        still lands after the drain (deferral is not loss)."""
        config.precompute = False
        config.precompute_queue_limit = 3
        started = threading.Event()
        gate = threading.Event()

        def blocking_action(ldf):
            started.set()
            gate.wait(20)
            return VisList(visualizations=[])

        register_action(
            "Blocker",
            blocking_action,
            condition=lambda ldf: "q0" in ldf.columns,
        )
        try:
            sessions = [manager.create(make_frame(seed=i)) for i in range(5)]
            for session in sessions:
                manager.engine.schedule(session, immediate=True)
            assert started.wait(30)
            stats = manager.engine.stats()
            assert stats["backlog_depth"] <= 3
            assert stats["deferred_pending"] == 2
            gate.set()
            assert manager.engine.wait_idle(120), manager.engine.stats()
            stats = manager.engine.stats()
            assert stats["resumed"] == 2
            assert stats["deferred_pending"] == 0
            # Every session — deferred or not — has a complete pass.
            for session in sessions:
                assert session.recommendations(compute=False) is not None
        finally:
            gate.set()
            remove_action("Blocker")
            assert manager.engine.wait_idle(120)

    def test_unwatch_drops_deferred_session(self, manager):
        config.precompute = False
        config.precompute_queue_limit = 1
        config.precompute_debounce_s = 30.0
        holder = manager.create(make_frame(seed=0))
        parked = manager.create(make_frame(seed=1))
        manager.engine.schedule(holder)  # long timer occupies the slot
        manager.engine.schedule(parked)  # saturated -> deferred
        assert manager.engine.stats()["deferred_pending"] == 1
        manager.close(parked.id)
        assert manager.engine.stats()["deferred_pending"] == 0


# ----------------------------------------------------------------------
# HTTP layer (real server: slow, left to the full matrix)
# ----------------------------------------------------------------------

CSV = "a,b,c\n" + "\n".join(f"{i % 7},{i * 1.5},g{i % 3}" for i in range(120))


def call(server, method: str, path: str, body=None):
    """One request -> (status, headers, parsed body)."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        server.address + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), json.loads(exc.read())


@pytest.mark.slow
class TestHTTPBackpressure:
    @pytest.fixture
    def server(self):
        config.precompute_debounce_s = 0.0
        srv = make_server().serve_background()
        yield srv
        srv.manager.shutdown()
        srv.stop()

    def test_mutate_endpoint(self, server):
        status, _, info = call(server, "POST", "/v1/sessions", {"csv": CSV})
        assert status == 201
        sid = info["session"]
        v0 = info["data_version"]

        status, _, info = call(
            server, "POST", f"/v1/sessions/{sid}/mutate", {"column": "a"}
        )
        assert status == 200
        assert info["data_version"] != v0

        status, _, info = call(
            server,
            "POST",
            f"/v1/sessions/{sid}/mutate",
            {"column": "derived", "values": [i % 3 for i in range(120)]},
        )
        assert status == 200
        assert "derived" in info["columns"]

        status, _, body = call(
            server, "POST", f"/v1/sessions/{sid}/mutate", {"column": "ghost"}
        )
        assert status == 404
        status, _, body = call(
            server,
            "POST",
            f"/v1/sessions/{sid}/mutate",
            {"column": "a", "values": [1, 2]},
        )
        assert status == 400
        status, _, body = call(
            server, "POST", f"/v1/sessions/{sid}/mutate", {}
        )
        assert status == 400

    def test_429_retry_after_and_drain(self, server):
        sids = []
        for _ in range(3):
            status, _, info = call(
                server, "POST", "/v1/sessions", {"csv": CSV}
            )
            assert status == 201
            sids.append(info["session"])
        assert server.manager.engine.wait_idle(60)

        # Tighten the bound *after* the creations settle; a wide
        # debounce keeps each write's timer armed (= a backlog slot).
        config.precompute_queue_limit = 2
        config.precompute_debounce_s = 2.0  # wide: three fast requests fit
        statuses = []
        retry_after = None
        for sid in sids:
            status, headers, body = call(
                server, "POST", f"/v1/sessions/{sid}/mutate", {"column": "a"}
            )
            statuses.append(status)
            if status == 429:
                retry_after = headers.get("Retry-After")
                assert body["retry_after_s"] == int(retry_after)
        assert statuses == [200, 200, 429]
        assert retry_after is not None and 1 <= int(retry_after) <= 60

        # The rejected write had no side effects: the session's version
        # is untouched and a post-drain retry succeeds.
        assert server.manager.engine.wait_idle(120)
        status, _, _ = call(
            server, "POST", f"/v1/sessions/{sids[-1]}/mutate", {"column": "a"}
        )
        assert status == 200
        assert server.manager.engine.wait_idle(120)
        status, _, recs = call(
            server, "GET", f"/v1/sessions/{sids[-1]}/recommendations"
        )
        assert status == 200 and recs["actions"]

    def test_healthz_exposes_backlog_and_queue_stats(self, server):
        status, _, health = call(server, "GET", "/v1/healthz")
        assert status == 200
        precompute = health["precompute"]
        assert {"backlog_depth", "queue_limit", "deferred_pending",
                "avg_pass_ms", "rejected", "shed_stale", "deferred",
                "resumed"} <= set(precompute)
        assert precompute["queue_limit"] == config.precompute_queue_limit
        queues = health["pool"]["queues"]
        assert set(queues) == {"interactive", "background"}
        assert isinstance(queues["interactive"], dict)
        assert "bytes_peak" in health["store"]
