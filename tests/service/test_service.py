"""The always-on service: store, sessions, precompute, concurrency.

The acceptance-critical properties from the service design:

- a mutation + idle period makes reads return from the store with **zero
  executor invocations** (the always-on promise);
- concurrent sessions with different config overlays produce
  per-session-correct results, bit-identical to serial computation;
- stale passes are cancelled / discarded when the data version moves;
- the store can never serve a payload recorded at an old data version.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import LuxDataFrame, config, config_overlay, register_action, remove_action
from repro.core.executor.df_exec import DataFrameExecutor
from repro.core.vislist import VisList
from repro.service import ResultStore, SessionManager
from repro.service.store import MANIFEST


def make_frame(n: int = 2_000, seed: int = 0) -> LuxDataFrame:
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


def serial_payloads(frame: LuxDataFrame, **overrides):
    """What a fresh, single-threaded pass produces for this frame/config."""
    from repro.service.session import serialize_recommendations

    with config_overlay(streaming=False, **overrides):
        return serialize_recommendations(frame.recommendations)


class TestResultStore:
    def test_get_put_versioned(self):
        store = ResultStore()
        store.put("s", (1, 0), "A", {"count": 1})
        assert store.get("s", (1, 0), "A")["payload"] == {"count": 1}
        assert store.get("s", (2, 0), "A") is None
        assert store.get("other", (1, 0), "A") is None

    def test_pass_roundtrip_and_manifest_gap(self):
        store = ResultStore()
        store.put_pass("s", (1, 0), {"A": {"count": 1}, "B": {"count": 2}})
        records = store.get_pass("s", (1, 0))
        assert set(records) == {"A", "B"}
        # Simulate eviction of one member: the pass read reports a gap.
        store._entries.pop(("s", (1, 0), "A"))
        assert store.get_pass("s", (1, 0)) is None

    def test_byte_budget_evicts_lru(self):
        store = ResultStore(budget_bytes=400)
        store.put("s", (1, 0), "A", {"blob": "x" * 150})
        store.put("s", (1, 0), "B", {"blob": "y" * 150})
        store.put("s", (1, 0), "C", {"blob": "z" * 150})  # evicts A
        assert store.get("s", (1, 0), "A") is None
        assert store.get("s", (1, 0), "C") is not None
        assert store.stats()["bytes"] <= 400
        assert store.stats()["evictions"] >= 1

    def test_oversized_entry_rejected(self):
        store = ResultStore(budget_bytes=100)
        assert store.put("s", (1, 0), "A", {"blob": "x" * 500}) is False
        assert store.stats()["entries"] == 0

    def test_drop_session(self):
        store = ResultStore()
        store.put_pass("s1", (1, 0), {"A": {}})
        store.put_pass("s2", (1, 0), {"A": {}})
        assert store.drop_session("s1") == 2  # entry + manifest
        assert store.get_pass("s1", (1, 0)) is None
        assert store.get_pass("s2", (1, 0)) is not None


class TestSession:
    def test_store_never_serves_old_version(self, manager):
        config.precompute = False  # manual control
        session = manager.create(make_frame())
        v0 = session.version
        manager.store.put_pass(session.id, v0, {"A": {"count": 1}})
        assert session.recommendations(compute=False) is not None
        session.frame["derived"] = session.frame["q0"]
        # Old entry still in the store but unreachable at the new version.
        assert manager.store.get(session.id, v0, MANIFEST) is not None
        assert session.recommendations(compute=False) is None

    def test_intent_change_invalidates_reads(self, manager):
        config.precompute = False
        session = manager.create(make_frame())
        session.recommendations()  # foreground back-fill
        assert session.recommendations(compute=False) is not None
        session.set_intent(["q0"])
        assert session.recommendations(compute=False) is None

    def test_foreground_backfills_store(self, manager):
        config.precompute = False
        session = manager.create(make_frame())
        first = session.recommendations()
        assert first["provenance"]["origin"] == "foreground"
        again = session.recommendations(compute=False)
        assert again is not None
        assert again["actions"] == first["actions"]

    def test_single_action_read(self, manager):
        config.precompute = False
        session = manager.create(make_frame())
        session.recommendations()
        one = session.recommendations(action="Correlation")
        assert list(one["actions"]) == ["Correlation"]

    def test_unknown_action_raises_not_full_pass(self, manager):
        config.precompute = False
        session = manager.create(make_frame())
        with pytest.raises(KeyError, match="Bogus"):
            session.recommendations(action="Bogus")
        # With a completed pass stored, the rejection is manifest-based:
        # no foreground recomputation happens per bad request.
        session.recommendations()
        memoized = session.frame._recs_cache
        with pytest.raises(KeyError, match="Bogus"):
            session.recommendations(action="Bogus")
        assert session.frame._recs_cache is memoized

    def test_overrides_validated(self, manager):
        with pytest.raises(ValueError, match="unknown config field"):
            manager.create(make_frame(), overrides={"nope": 1})

    def test_plain_frame_wrapped_into_lux(self, manager):
        from repro.dataframe import DataFrame

        config.precompute = False
        plain = DataFrame({"x": [1.0, 2.0, 3.0], "g": ["a", "b", "a"]})
        session = manager.create(plain)
        assert isinstance(session.frame, LuxDataFrame)
        assert session.frame.columns == ["x", "g"]
        assert session.recommendations()["actions"]

    def test_response_json_serializable(self, manager):
        config.precompute = False
        session = manager.create(make_frame())
        json.dumps(session.recommendations())

    def test_manager_registry(self, manager):
        config.precompute = False
        session = manager.create(make_frame())
        assert manager.get(session.id) is session
        assert session.id in manager.ids()
        assert manager.close(session.id) is True
        assert manager.close(session.id) is False
        with pytest.raises(KeyError):
            manager.get(session.id)


class TestAlwaysOn:
    def test_precomputed_read_runs_zero_executor_work(self, manager, monkeypatch):
        calls = {"n": 0}
        real_execute = DataFrameExecutor.execute
        real_many = DataFrameExecutor.execute_many

        def counting_execute(self, spec, frame):
            calls["n"] += 1
            return real_execute(self, spec, frame)

        def counting_many(self, specs, frame):
            calls["n"] += 1
            return real_many(self, specs, frame)

        monkeypatch.setattr(DataFrameExecutor, "execute", counting_execute)
        monkeypatch.setattr(DataFrameExecutor, "execute_many", counting_many)

        session = manager.create(make_frame())
        session.frame["derived"] = session.frame["q0"] * 2
        assert manager.engine.wait_idle(30)
        calls["n"] = 0
        response = session.recommendations()
        assert calls["n"] == 0, "store hit must not touch the executor"
        # "mixed" when the initial pass landed before the mutation (the
        # redo then carries the unaffected actions forward).
        assert response["provenance"]["origin"] in ("precompute", "mixed")
        # In-process prints are free too: the pass refreshed the frame's
        # memoized recommendation cache.
        assert session.frame._recs_fresh

    def test_foreground_fallback_when_precompute_off(self, manager):
        config.precompute = False
        session = manager.create(make_frame())
        session.frame["derived"] = session.frame["q0"] * 2
        response = session.recommendations()
        assert response["provenance"]["origin"] == "foreground"

    @pytest.mark.slow
    def test_concurrent_sessions_bit_identical_to_serial(self, manager):
        sessions = {
            k: manager.create(make_frame(seed=7), overrides={"top_k": k})
            for k in (3, 7)
        }

        def mutate(session):
            session.frame["derived"] = session.frame["q0"] * 2
            session.frame["flag"] = (session.frame["q1"] > 2).astype("int64")

        threads = [
            threading.Thread(target=mutate, args=(s,))
            for s in sessions.values()
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert manager.engine.wait_idle(60), manager.engine.stats()

        for k, session in sessions.items():
            response = session.recommendations()
            assert response["provenance"]["origin"] != "foreground"
            reference = make_frame(seed=7)
            reference["derived"] = reference["q0"] * 2
            reference["flag"] = (reference["q1"] > 2).astype("int64")
            expected = serial_payloads(reference, top_k=k)
            assert response["actions"] == expected, (
                f"session with top_k={k} diverged from serial computation"
            )

    def test_no_cross_session_result_bleed(self, manager):
        a = manager.create(make_frame(seed=1), overrides={"top_k": 2})
        b = manager.create(make_frame(seed=2), overrides={"top_k": 8})
        a.frame["only_in_a"] = a.frame["q0"]
        b.frame["only_in_b"] = b.frame["q1"]
        assert manager.engine.wait_idle(60)
        ra = a.recommendations()
        rb = b.recommendations()
        assert ra["session"] == a.id and rb["session"] == b.id
        flat_a = json.dumps(ra)
        flat_b = json.dumps(rb)
        assert "only_in_a" in flat_a and "only_in_a" not in flat_b
        assert "only_in_b" in flat_b and "only_in_b" not in flat_a
        for payload in ra["actions"].values():
            assert payload["count"] <= 2
        for payload in rb["actions"].values():
            assert payload["count"] <= 8
        # Overlay-shaped passes must not masquerade as the frames' plain
        # memoized recommendations: a direct read outside the service
        # recomputes under global config (top_k=15), not the overlay's 2.
        assert a.frame._recs_version != a.version or a.frame._recs_cache is None
        direct = a.frame.recommendations
        assert any(len(direct[name]) > 2 for name in direct.keys())


@pytest.mark.slow
class TestStaleCancellation:
    def test_stale_pass_never_stored_and_redone(self, manager):
        started = threading.Event()
        gate = threading.Event()

        def blocking_action(ldf):
            started.set()
            gate.wait(15)
            return VisList(visualizations=[])

        register_action(
            "Blocker",
            blocking_action,
            condition=lambda ldf: "blockme" in ldf.columns,
        )
        try:
            frame = make_frame()
            frame["blockme"] = frame["q0"]
            session = manager.create(frame)  # immediate pass, will block
            assert started.wait(30)
            v0 = session.version
            # Mutate mid-pass: the running pass is now stale.
            session.frame["derived"] = session.frame["q0"] * 3
            assert session.version != v0
            gate.set()
            assert manager.engine.wait_idle(60), manager.engine.stats()
            # Nothing was ever published for the superseded version...
            assert manager.store.get(session.id, v0, MANIFEST) is None
            # ...and the redo at the new version completed.
            response = session.recommendations(compute=False)
            assert response is not None
            assert response["data_version"] == list(session.version)
            stats = manager.engine.stats()
            assert stats["cancelled"] + stats["stale"] >= 1
        finally:
            gate.set()
            remove_action("Blocker")

    def test_inflight_dedup_same_version(self, manager):
        config.precompute = False  # manual scheduling only
        session = manager.create(make_frame())
        config.precompute = True
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
            manager.engine.schedule(session, immediate=True)
            assert started.wait(30)
            before = manager.engine.stats()["scheduled"]
            manager.engine.schedule(session, immediate=True)  # same version
            assert manager.engine.stats()["scheduled"] == before
        finally:
            gate.set()
            remove_action("Blocker")
            assert manager.engine.wait_idle(60)
