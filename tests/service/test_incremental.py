"""Incremental recommendation recomputation: partition, carry, identity.

The acceptance-critical properties of the column-level delta path:

- a single-column mutation reruns only the actions whose input footprint
  intersects the delta; everything else is carried forward with
  provenance ``carried`` and the response is bit-identical to a cold
  foreground pass of the same version;
- intent-only changes rerun only intent-reading actions and never mark
  data dirty;
- every escape hatch (row-set changes, evicted previous passes, the
  ``incremental_precompute`` ablation knob) degrades to a full pass,
  never to a wrong one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LuxDataFrame, config
from repro.service import ResultStore, SessionManager
from repro.service.store import MANIFEST


def make_frame(n: int = 2_000, seed: int = 0) -> LuxDataFrame:
    rng = np.random.default_rng(seed)
    return LuxDataFrame(
        {
            "q0": np.round(rng.normal(0, 1, n), 6),
            "q1": np.round(rng.lognormal(1, 0.4, n), 6),
            "d0": rng.choice(["a", "b", "c"], n).tolist(),
            "d1": rng.choice(["u", "v"], n).tolist(),
        }
    )


@pytest.fixture
def manager():
    config.precompute_debounce_s = 0.0
    m = SessionManager()
    yield m
    m.shutdown()


def settled_session(manager, frame=None, **kwargs):
    """A session whose initial full pass has already landed."""
    session = manager.create(frame if frame is not None else make_frame(), **kwargs)
    assert manager.engine.wait_idle(60), manager.engine.stats()
    return session


def origins_of(response):
    return {
        name: entry["origin"]
        for name, entry in response["provenance"]["actions"].items()
    }


class TestIncrementalPartition:
    def test_single_column_mutation_reruns_only_affected(self, manager):
        session = settled_session(manager)
        before = manager.engine.stats()
        session.frame["d0"] = session.frame["d0"].to_list()[::-1]
        assert manager.engine.wait_idle(60), manager.engine.stats()
        response = session.recommendations(compute=False)
        assert response is not None
        origins = origins_of(response)
        # d0 is nominal: only Occurrence reads it — and within Occurrence
        # only the d0 candidate reruns (the d1 vis is carried), so the
        # action lands with the candidate-level "mixed" origin.
        assert origins["Occurrence"] == "mixed"
        assert origins["Correlation"] == "carried"
        assert origins["Distribution"] == "carried"
        assert response["provenance"]["origin"] == "mixed"
        stats = manager.engine.stats()
        assert stats["actions_rerun"] - before["actions_rerun"] == 1
        assert stats["actions_carried"] - before["actions_carried"] == 2
        assert stats["candidates_rerun"] - before["candidates_rerun"] == 1
        assert stats["candidates_carried"] - before["candidates_carried"] == 1
        assert stats["incremental_passes"] >= 1

    def test_carried_response_identical_to_cold_pass(self, manager):
        session = settled_session(manager)
        session.frame["d0"] = session.frame["d0"].to_list()[::-1]
        assert manager.engine.wait_idle(60)
        incremental = session.recommendations(compute=False)
        assert incremental is not None
        # Drop everything reusable and force a cold foreground pass.
        manager.store.drop_session(session.id)
        session.frame.expire_recommendations()
        cold = session.recommendations()
        assert cold["provenance"]["origin"] == "foreground"
        assert cold["actions"] == incremental["actions"]

    def test_measure_mutation_reruns_measure_actions(self, manager):
        session = settled_session(manager)
        session.frame["q0"] = session.frame["q0"] * 2
        assert manager.engine.wait_idle(60)
        origins = origins_of(session.recommendations(compute=False))
        # Correlation's only pair (q0, q1) touches q0: fully recomputed.
        # Distribution reruns q0 but carries the q1 vis: mixed.
        assert origins["Correlation"] == "precompute"
        assert origins["Distribution"] == "mixed"
        assert origins["Occurrence"] == "carried"

    def test_intent_only_change_carries_data_actions(self, manager):
        session = settled_session(manager)
        data_version = session.frame._data_version
        session.set_intent(["q0"])
        assert session.frame._data_version == data_version  # data not dirty
        assert manager.engine.wait_idle(60)
        origins = origins_of(session.recommendations(compute=False))
        assert origins["Correlation"] == "carried"
        assert origins["Occurrence"] == "carried"
        assert origins["Distribution"] == "carried"
        # Intent-reading actions became applicable and were computed.
        assert origins["Current Vis"] == "precompute"
        assert origins["Enhance"] == "precompute"
        assert origins["Filter"] == "precompute"

    def test_burst_of_mutations_unions_deltas(self, manager):
        session = settled_session(manager)
        config.precompute = False  # accumulate without racing passes
        session.frame["q0"] = session.frame["q0"] * 2
        session.frame["d0"] = session.frame["d0"].to_list()[::-1]
        config.precompute = True
        manager.engine.schedule(session, immediate=True)
        assert manager.engine.wait_idle(60)
        origins = origins_of(session.recommendations(compute=False))
        # The union delta covers q0 and d0, so every action reruns —
        # Correlation wholesale (its only pair touches q0), Distribution
        # and Occurrence at candidate level (q1 resp. d1 vis carried).
        assert origins["Correlation"] == "precompute"
        assert origins["Distribution"] == "mixed"
        assert origins["Occurrence"] == "mixed"

    def test_memoized_recommendations_merged_on_incremental_pass(self, manager):
        session = settled_session(manager)
        session.frame["d0"] = session.frame["d0"].to_list()[::-1]
        assert manager.engine.wait_idle(60)
        # The frame's memoized set was refreshed by merging carried
        # VisLists: an in-process read does no recomputation.
        assert session.frame._recs_fresh
        assert session.frame._recs_version == session.version
        recs = session.frame.recommendations
        assert set(recs.keys()) == {"Correlation", "Distribution", "Occurrence"}


class TestIncrementalFallbacks:
    def test_ablation_knob_reruns_everything(self, manager):
        config.incremental_precompute = False
        session = settled_session(manager)
        session.frame["d0"] = session.frame["d0"].to_list()[::-1]
        assert manager.engine.wait_idle(60)
        origins = origins_of(session.recommendations(compute=False))
        assert set(origins.values()) == {"precompute"}
        assert manager.engine.stats()["actions_carried"] == 0

    def test_knob_flip_off_then_on_stays_correct(self, manager):
        """Deltas observed while the knob is off are consumed, not leaked.

        A mutation landing during an ablation window gets a full pass;
        flipping the knob back on must scope the NEXT mutation to its own
        delta only — and the merged response stays bit-identical to a
        cold pass (a stale leftover delta would either over-rerun or,
        worse, carry results the off-window mutation invalidated).
        """
        session = settled_session(manager)
        config.incremental_precompute = False
        session.frame["d0"] = session.frame["d0"].to_list()[::-1]
        assert manager.engine.wait_idle(60)
        response = session.recommendations(compute=False)
        assert set(origins_of(response).values()) == {"precompute"}

        config.incremental_precompute = True
        before = manager.engine.stats()
        rotated = session.frame["d1"].to_list()
        session.frame["d1"] = rotated[1:] + rotated[:1]
        assert manager.engine.wait_idle(60)
        response = session.recommendations(compute=False)
        origins = origins_of(response)
        # Only the d1 delta is in play: the quantitative actions carry.
        # Occurrence reruns; whether its d0 vis carries at candidate
        # granularity depends on what the (non-recording) off-window pass
        # left behind, so either is sound — wrong answers are not.
        assert origins["Correlation"] == "carried"
        assert origins["Distribution"] == "carried"
        assert origins["Occurrence"] in ("mixed", "precompute")
        stats = manager.engine.stats()
        assert stats["actions_carried"] - before["actions_carried"] == 2
        assert stats["actions_rerun"] - before["actions_rerun"] == 1
        # Bit-identical to a cold foreground pass of the same version.
        manager.store.drop_session(session.id)
        session.frame.expire_recommendations()
        cold = session.recommendations()
        assert cold["provenance"]["origin"] == "foreground"
        assert cold["actions"] == response["actions"]

    def test_row_set_change_forces_full_pass(self, manager):
        frame = make_frame()
        frame["q0"] = [None] + frame["q0"].to_list()[1:]
        session = settled_session(manager, frame)
        session.frame.dropna(inplace=True)
        assert manager.engine.wait_idle(60)
        origins = origins_of(session.recommendations(compute=False))
        assert set(origins.values()) == {"precompute"}

    def test_evicted_previous_pass_forces_rerun(self, manager):
        session = settled_session(manager)
        before = manager.engine.stats()
        # Lose the previous pass entirely (harsher than LRU pressure).
        manager.store.clear()
        session.frame["d0"] = session.frame["d0"].to_list()[::-1]
        assert manager.engine.wait_idle(60)
        response = session.recommendations(compute=False)
        assert response is not None
        # No action-level carry is possible — every payload is gone — so
        # all three actions rerun.  The frame's live memoized set still
        # holds the previous displayed Vis, so untouched candidates inside
        # each rerun action are still carried at vis granularity.
        stats = manager.engine.stats()
        assert stats["actions_carried"] - before["actions_carried"] == 0
        assert stats["actions_rerun"] - before["actions_rerun"] == 3
        assert set(origins_of(response).values()) <= {"precompute", "mixed"}

    def test_unwatched_session_has_no_state_leak(self, manager):
        session = settled_session(manager)
        assert session.id in manager.engine._states
        manager.close(session.id)
        assert session.id not in manager.engine._states

    def test_mutation_while_precompute_off_still_recorded(self, manager):
        session = settled_session(manager)
        config.precompute = False
        session.frame["q0"] = session.frame["q0"] * 2
        config.precompute = True
        manager.engine.schedule(session, immediate=True)
        assert manager.engine.wait_idle(60)
        origins = origins_of(session.recommendations(compute=False))
        # The q0 delta observed while the switch was off still partitions
        # the pass: Occurrence did not read q0 and is carried.
        assert origins["Occurrence"] == "carried"
        assert origins["Correlation"] == "precompute"


class TestCarryForwardStore:
    def test_carry_preserves_payload_and_timestamp(self):
        store = ResultStore()
        store.put("s", (1, 0), "A", {"count": 3}, origin="precompute")
        first = store.get("s", (1, 0), "A")
        assert store.carry("s", (1, 0), (2, 0), "A") is True
        carried = store.get("s", (2, 0), "A")
        assert carried["payload"] == {"count": 3}
        assert carried["origin"] == "carried"
        assert carried["computed_at"] == first["computed_at"]
        assert store.stats()["carried"] == 1

    def test_carry_missing_source_fails(self):
        store = ResultStore()
        assert store.carry("s", (1, 0), (2, 0), "A") is False

    def test_manifest_purged_when_member_evicted(self):
        """Regression: LRU-evicting a pass member must purge its manifest.

        Before the fix, the manifest row survived its members, dangling
        forever: unreachable as a pass (``get_pass`` reported the gap) yet
        resident in the LRU, consuming budget and answering
        action-existence probes for payloads that no longer existed.
        """
        store = ResultStore(budget_bytes=600)
        store.put_pass("s", (1, 0), {"A": {"blob": "x" * 120}, "B": {"blob": "y" * 120}})
        assert store.get("s", (1, 0), MANIFEST) is not None
        # Inserting at a newer version evicts the oldest member of v1...
        store.put("s", (2, 0), "A", {"blob": "z" * 200})
        store.put("s", (2, 0), "B", {"blob": "w" * 200})
        assert store.get("s", (1, 0), "A") is None
        # ...and the v1 manifest went with it instead of dangling.
        assert store.get("s", (1, 0), MANIFEST) is None
        stats = store.stats()
        assert stats["bytes"] <= 600

    def test_manifest_not_written_over_evicted_members(self):
        """A pass bigger than the whole budget never publishes a manifest
        naming entries that were already evicted during its own insert."""
        store = ResultStore(budget_bytes=300)
        store.put_pass(
            "s",
            (1, 0),
            {name: {"blob": "x" * 120} for name in ("A", "B", "C")},
        )
        assert store.get("s", (1, 0), MANIFEST) is None
        assert store.get_pass("s", (1, 0)) is None

    def test_incremental_manifest_lists_carried_actions(self):
        store = ResultStore()
        store.put_pass("s", (1, 0), {"A": {"n": 1}, "B": {"n": 2}})
        assert store.carry("s", (1, 0), (2, 0), "B")
        store.put_pass("s", (2, 0), {"A": {"n": 9}}, manifest=["A", "B"])
        records = store.get_pass("s", (2, 0))
        assert records is not None and set(records) == {"A", "B"}
        assert records["A"]["origin"] == "precompute"
        assert records["B"]["origin"] == "carried"
