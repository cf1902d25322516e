"""The ``/v1/`` API surface and the typed provenance envelope.

Two contracts are pinned here:

* **Golden wire shape.**  The ``provenance`` payload is rendered from
  one :class:`Provenance` object; these tests freeze its shape so it
  cannot drift without a deliberate edit.  The response bytes must also
  be identical whether they are produced in-process or cross the shard
  RPC (the ``payload_json`` passthrough).

* **One surface.**  ``/v1/`` is the only HTTP surface: a path without
  the prefix answers 404 and has no side effects.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import config
from repro.core.config import config_overlay
from repro.service import make_server
from repro.service.provenance import Provenance
from repro.service.shard import ShardService
from repro.service.session import SessionManager

CSV = "a,b,c\n" + "\n".join(f"{i % 7},{i * 1.5},g{i % 3}" for i in range(300))


# ----------------------------------------------------------------------
# Envelope unit tests (no server)
# ----------------------------------------------------------------------
class TestProvenanceEnvelope:
    def test_v1_payload_golden_shape(self):
        """The exact /v1/ wire shape.  Do not loosen: clients parse this."""
        prov = Provenance.build(
            version=(3, 2),
            payloads={"Correlation": {}, "Distribution": {}},
            origin="precompute",
            computed_at=1700000000.25,
            origins={"Distribution": "mixed"},
            vis_origins={"Distribution": {"abc123": "carried"}},
        )
        assert prov.to_payload() == {
            "origin": "precompute",
            "computed_at": 1700000000.25,
            "data_version": 3,
            "intent_epoch": 2,
            "actions": {
                "Correlation": {"origin": "precompute", "vis": None},
                "Distribution": {
                    "origin": "mixed",
                    "vis": {"abc123": "carried"},
                },
            },
        }

    def test_round_trips_through_json(self):
        prov = Provenance.build(
            (0, 0), {"A": {}}, "precompute", computed_at=5.0
        )
        assert json.loads(json.dumps(prov.to_payload())) == prov.to_payload()


# ----------------------------------------------------------------------
# HTTP surface (real threaded server — slow, skipped by the smoke job)
# ----------------------------------------------------------------------
@pytest.fixture
def server():
    config.precompute_debounce_s = 0.0
    srv = make_server().serve_background()
    yield srv
    srv.manager.shutdown()
    srv.stop()


def call(server, method: str, path: str, body=None):
    """Like the smoke suite's helper, but also returns response headers."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        server.address + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read()), dict(
                response.headers
            )
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


@pytest.mark.slow
class TestV1Surface:
    def test_v1_routes_mirror_legacy_lifecycle(self, server):
        status, health, _ = call(server, "GET", "/v1/healthz")
        assert status == 200 and health["status"] == "ok"

        status, info, _ = call(
            server, "POST", "/v1/sessions", {"csv": CSV, "config": {"top_k": 3}}
        )
        assert status == 201
        sid = info["session"]
        assert server.manager.engine.wait_idle(30)

        status, listing, _ = call(server, "GET", "/v1/sessions")
        assert status == 200 and sid in listing["sessions"]

        status, recs, _ = call(
            server, "GET", f"/v1/sessions/{sid}/recommendations"
        )
        assert status == 200 and recs["actions"]

        status, closed, _ = call(server, "DELETE", f"/v1/sessions/{sid}")
        assert status == 200 and closed["closed"] == sid

    def test_v1_serves_provenance(self, server):
        status, info, _ = call(server, "POST", "/v1/sessions", {"csv": CSV})
        assert status == 201
        sid = info["session"]
        assert server.manager.engine.wait_idle(30)

        _, v1, _ = call(server, "GET", f"/v1/sessions/{sid}/recommendations")
        assert "provenance" in v1 and "freshness" not in v1
        prov = v1["provenance"]
        assert set(prov) == {
            "origin", "computed_at", "data_version", "intent_epoch", "actions"
        }
        assert prov["origin"] == "precompute"
        assert prov["data_version"] == 0 and prov["intent_epoch"] == 0
        for entry in prov["actions"].values():
            assert set(entry) == {"origin", "vis"}
        # Per-vis keys (when present) must match the displayed specs'
        # echoed candidate keys.
        for name, entry in prov["actions"].items():
            if entry["vis"] is not None:
                spec_keys = {s["key"] for s in v1["actions"][name]["specs"]}
                assert set(entry["vis"]) <= spec_keys

    def test_unprefixed_routes_are_404_without_side_effects(self, server):
        engine = server.manager.engine
        before = engine.stats()
        for method, path, body in (
            ("GET", "/healthz", None),
            ("POST", "/sessions", {"csv": CSV}),
            ("GET", "/sessions/whatever/recommendations", None),
        ):
            status, err, _ = call(server, method, path, body)
            assert status == 404 and "error" in err, (method, path)
        assert server.manager.ids() == []
        assert engine.stats() == before  # nothing watched, armed or run

    def test_unknown_v1_route_is_404(self, server):
        status, err, _ = call(server, "GET", "/v1/nope")
        assert status == 404 and "error" in err


# ----------------------------------------------------------------------
# Shard RPC passthrough
# ----------------------------------------------------------------------
def test_shard_rpc_payload_matches_in_process():
    """The worker serializes the envelope; the supervisor never re-parses.

    The RPC's ``payload_json`` must be exactly the in-process response's
    JSON for the same session at the same version, so the wire bytes are
    identical whether or not a shard boundary sits in between.
    """
    with config_overlay(precompute_debounce_s=0.0):
        manager = SessionManager()
        try:
            service = ShardService(manager, shard_index=0, n_shards=1)
            created = service.handle(
                {
                    "method": "create",
                    "params": {"dataset": "synthetic-wide", "rows": 100},
                }
            )
            sid = created["result"]["session"]
            manager.engine.wait_idle(30)
            session = manager.get(sid)
            version = session.version

            rpc = service.handle(
                {"method": "recommendations", "params": {"session": sid}}
            )
            payload_json = rpc["result"]["payload_json"]
            assert session.version == version
            assert payload_json == json.dumps(session.recommendations())
            assert "provenance" in json.loads(payload_json)
        finally:
            manager.shutdown()
