"""Observability surface: /v1/metrics, /v1/healthz, /v1/sessions/{id}/trace.

Fast tests cover the frame codec's trace envelope passthrough (both the
plain and NUL-hoisted paths).  The ``slow`` tests boot real servers: the
single-process tier scraped with an inline ten-line parser, and the
2-worker sharded tier where one request must yield stitched spans sharing
a single trace id and the supervisor's merged snapshot must equal the
bucket-wise sum of the per-worker snapshots.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro import LuxDataFrame, config, register_action, remove_action
from repro.core import telemetry
from repro.core.vislist import VisList
from repro.service import Supervisor, make_server
from repro.service import metrics as service_metrics
from repro.service.shard import decode_frame, encode_frame

CSV = "a,b,c\n" + "\n".join(f"{i % 5},{i * 2.5},g{i % 3}" for i in range(200))

TOKEN = "metrics-test-token"


# ----------------------------------------------------------------------
# Trace envelope across the frame codec (no servers)
# ----------------------------------------------------------------------
class TestTraceEnvelope:
    def test_trace_survives_plain_frames(self):
        response = {
            "id": 7,
            "ok": True,
            "trace": "aabb0011ccdd2233",
            "result": {"sessions": []},
        }
        assert decode_frame(encode_frame(response)) == response

    def test_trace_survives_payload_hoisting(self):
        payload = json.dumps({"actions": list(range(50))})
        response = {
            "id": 8,
            "ok": True,
            "trace": "aabb0011ccdd2233",
            "result": {"payload_json": payload},
        }
        encoded = encode_frame(response)
        # The payload must be hoisted (raw bytes after NUL), not embedded.
        assert encoded.split(b"\x00", 1)[1] == payload.encode("utf-8")
        decoded = decode_frame(encoded)
        assert decoded["trace"] == "aabb0011ccdd2233"
        assert decoded["result"]["payload_json"] == payload

    def test_request_trace_context_is_a_plain_dict(self):
        with telemetry.span("rpc.request") as s:
            ctx = telemetry.current_trace()
        assert ctx == {"id": s.trace_id, "span": s.span_id, "sampled": True}
        # JSON round-trip (what the RPC envelope does to it).
        assert json.loads(json.dumps(ctx)) == ctx


# ----------------------------------------------------------------------
# Single-process HTTP surface
# ----------------------------------------------------------------------
def parse_metrics(text: str) -> dict:
    """Tiny independent exposition parser: {name: {label_str: value}}."""
    out: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, value = line.rsplit(" ", 1)
        name, _, labels = head.partition("{")
        out.setdefault(name, {})[labels.rstrip("}")] = float(value)
    return out


def call(base, method, path, body=None, token=None):
    data = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(
        base + path, data=data, method=method, headers=headers
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read().decode(), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode(), dict(exc.headers)


@pytest.fixture
def server():
    config.precompute_debounce_s = 0.0
    telemetry.reset()
    srv = make_server().serve_background()
    yield srv
    srv.manager.shutdown()
    srv.stop()
    telemetry.reset()


@pytest.mark.slow
class TestMetricsEndpoint:
    def test_scrape_parses_and_counts_requests(self, server):
        base = server.address
        status, body, _ = call(base, "POST", "/v1/sessions", {"csv": CSV})
        assert status == 201
        sid = json.loads(body)["session"]
        for _ in range(3):
            status, _, _ = call(
                base, "GET", f"/v1/sessions/{sid}/recommendations"
            )
            assert status == 200

        status, text, headers = call(base, "GET", "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        parsed = parse_metrics(text)

        reads = parsed["lux_http_requests_total"][
            'route="recommendations",method="GET",status="200"'
        ]
        assert reads == 3.0
        # Histogram invariants: cumulative buckets are non-decreasing and
        # +Inf equals the _count series.
        buckets = {
            labels: value
            for labels, value in parsed["lux_http_request_seconds_bucket"].items()
            if 'route="recommendations"' in labels
        }
        finite = sorted(
            (float(labels.split('le="')[1].rstrip('"')), value)
            for labels, value in buckets.items()
            if 'le="+Inf"' not in labels
        )
        assert [v for _, v in finite] == sorted(v for _, v in finite)
        inf = next(v for k, v in buckets.items() if 'le="+Inf"' in k)
        assert inf == parsed["lux_http_request_seconds_count"][
            'route="recommendations"'
        ]
        assert inf >= 3.0
        # Live service gauges are present.
        assert "lux_sessions" in parsed and "lux_store_bytes" in parsed

        call(base, "DELETE", f"/v1/sessions/{sid}")

    def test_metrics_cli_accepts_a_real_scrape(self, server, tmp_path):
        _, text, _ = call(server.address, "GET", "/v1/metrics")
        snapshot = tmp_path / "snap.txt"
        snapshot.write_text(text)
        assert service_metrics.main([str(snapshot)]) == 0
        bad = tmp_path / "bad.txt"
        bad.write_text("lux_broken{oops\n")
        assert service_metrics.main([str(bad)]) == 1
        empty = tmp_path / "empty.txt"
        empty.write_text("# HELP nothing here\n")
        assert service_metrics.main([str(empty)]) == 1

    def test_healthz_reports_latency_summaries(self, server):
        base = server.address
        status, body, _ = call(base, "POST", "/v1/sessions", {"csv": CSV})
        sid = json.loads(body)["session"]
        call(base, "GET", f"/v1/sessions/{sid}/recommendations")
        _, health_text, _ = call(base, "GET", "/v1/healthz")
        telemetry_section = json.loads(health_text)["telemetry"]
        assert "http" in telemetry_section
        route_summary = next(iter(telemetry_section["http"].values()))
        assert route_summary["count"] >= 1
        assert route_summary["p50_ms"] >= 0.0
        call(base, "DELETE", f"/v1/sessions/{sid}")

    def test_trace_endpoint_returns_spans_and_404s(self, server):
        base = server.address
        status, body, _ = call(base, "POST", "/v1/sessions", {"csv": CSV})
        sid = json.loads(body)["session"]
        call(base, "GET", f"/v1/sessions/{sid}/recommendations")
        status, trace_text, _ = call(base, "GET", f"/v1/sessions/{sid}/trace")
        assert status == 200
        spans = json.loads(trace_text)["spans"]
        assert spans and all(s["attrs"]["session"] == sid for s in spans)
        assert {"trace_id", "span_id", "name", "duration_ms"} <= set(spans[0])
        status, _, _ = call(base, "GET", "/v1/sessions/ghost/trace")
        assert status == 404
        status, trace_text, _ = call(
            base, "GET", f"/v1/sessions/{sid}/trace?limit=1"
        )
        assert len(json.loads(trace_text)["spans"]) == 1
        call(base, "DELETE", f"/v1/sessions/{sid}")


    def test_shed_passes_are_counted(self, server):
        """``result="shed"`` mirrors the engine's ``shed_stale`` counter."""
        config.precompute = False
        config.precompute_queue_limit = 1
        started = threading.Event()
        gate = threading.Event()

        def blocking_action(ldf):
            started.set()
            gate.wait(15)
            return VisList(visualizations=[])

        register_action(
            "Blocker", blocking_action, condition=lambda ldf: "a" in ldf.columns
        )
        engine = server.manager.engine
        try:
            session = server.manager.create(
                LuxDataFrame({"a": [1.0, 2.0, 3.0], "b": ["x", "y", "x"]})
            )
            engine.schedule(session, immediate=True)
            assert started.wait(30)
            # The frame moves on, so admit() sheds the blocked stale pass.
            session.frame["extra"] = session.frame["a"]
            engine.admit()
            _, text, _ = call(server.address, "GET", "/v1/metrics")
            shed = parse_metrics(text)["lux_precompute_passes_total"][
                'result="shed"'
            ]
            assert shed == engine.stats()["shed_stale"] >= 1
        finally:
            gate.set()
            remove_action("Blocker")
            assert engine.wait_idle(60)


@pytest.mark.slow
class TestAuthPosture:
    def test_metrics_is_public_but_trace_is_authenticated(self):
        config.precompute_debounce_s = 0.0
        srv = make_server(auth_token=TOKEN).serve_background()
        try:
            base = srv.address
            status, _, _ = call(base, "GET", "/v1/metrics")
            assert status == 200  # public, like /healthz
            status, body, _ = call(
                base, "POST", "/v1/sessions", {"csv": CSV}, token=TOKEN
            )
            sid = json.loads(body)["session"]
            status, _, _ = call(base, "GET", f"/v1/sessions/{sid}/trace")
            assert status == 401
            status, _, _ = call(
                base, "GET", f"/v1/sessions/{sid}/trace", token=TOKEN
            )
            assert status == 200
            call(base, "DELETE", f"/v1/sessions/{sid}", token=TOKEN)
        finally:
            srv.manager.shutdown()
            srv.stop()


# ----------------------------------------------------------------------
# Sharded tier: stitched traces + exact cross-process merge
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestShardedObservability:
    def test_stitched_spans_and_exact_merge(self, tmp_path):
        config.precompute_debounce_s = 0.0
        telemetry.reset()
        supervisor = Supervisor(n_workers=2)
        srv = make_server(supervisor=supervisor).serve_background()
        try:
            base = srv.address
            status, body, _ = call(base, "POST", "/v1/sessions", {"csv": CSV})
            assert status == 201
            sid = json.loads(body)["session"]
            status, _, read_headers = call(
                base, "GET", f"/v1/sessions/{sid}/recommendations"
            )
            assert status == 200

            # One read request -> spans on BOTH sides of the RPC boundary
            # sharing the single trace id the router minted (and returned
            # to the client as X-Request-Id).
            trace_id = read_headers["X-Request-Id"]
            status, trace_text, _ = call(
                base, "GET", f"/v1/sessions/{sid}/trace"
            )
            assert status == 200
            spans = json.loads(trace_text)["spans"]
            stitched = {
                s["name"] for s in spans if s["trace_id"] == trace_id
            }
            assert {
                "http.request",   # router-side root
                "rpc.request",    # router-side client span
                "rpc.handle",     # worker-side server span
                "session.read",   # worker-side work
            } <= stitched, stitched

            # Merged /metrics equals the bucket-wise sum of the worker
            # snapshots for a histogram the probes themselves don't touch
            # (each metrics RPC mutates rpc/http series between probes).
            assert supervisor.wait_idle(120)
            worker_snaps = [
                supervisor._handles()[shard].request("metrics", timeout=30)[
                    "snapshot"
                ]
                for shard in range(2)
            ]
            manual = service_metrics.merge_snapshots(worker_snaps)
            merged = supervisor.metrics()
            name = "lux_precompute_pass_seconds"
            assert manual[name] == merged[name]
            assert merged["lux_worker_up"]["values"] == {"0": 1.0, "1": 1.0}

            status, text, _ = call(base, "GET", "/v1/metrics")
            assert status == 200
            rendered = service_metrics.parse_exposition(text)
            assert any(n == "lux_rpc_handle_seconds_count" for n, _, _ in rendered)
            call(base, "DELETE", f"/v1/sessions/{sid}")
        finally:
            srv.stop()
            supervisor.stop()
            telemetry.reset()
