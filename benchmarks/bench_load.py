"""Production load harness: concurrent HTTP clients over a scenario matrix.

Drives N concurrent sessions against the **real HTTP API** (an in-process
``ThreadingHTTPServer`` on an ephemeral port — real sockets, real JSON,
real handler threads) with a mixed workload per session: column mutations
(touch writes), intent changes, and recommendation reads.  The frame
shapes come from the adversarial scenario matrix in
``repro.data.synthetic.SCENARIOS``:

- ``wide``       500+ columns (capped quantitative share),
- ``highcard``   nominal cardinality approaching the row count,
- ``skewed``     lognormal measures + Zipf category frequencies,
- ``datetime``   temporal-dominant at wildly different spans,
- ``nullheavy``  30-70% masked values per column.

Per scenario the harness reports read-latency percentiles (p50/p95/p99),
the precompute backlog depth over time (sampled from ``/healthz`` by a
monitor thread), and cross-session fairness as Jain's index over
per-session completed reads — the macro check on the pool's per-tag
round-robin.  Two focused sections ride along:

- ``saturation``: with ``config.precompute_queue_limit`` forced to 2 and
  a debounce window wide enough to hold timers armed, concurrent writes
  must be answered **429 + Retry-After** instead of queueing unboundedly;
  the sampled backlog must respect the bound; and once the backlog
  drains, recommendations served over HTTP must be **bit-identical** to
  an unloaded foreground computation of the same frame.
- ``eviction``: the same workload against a store whose byte budget is a
  few payloads wide — evictions must actually occur and reads must keep
  succeeding (foreground fallback, not errors).

Every run emits a ``BENCH_load.json`` trajectory artifact and gates:

- **hard** (correctness, even under ``--update-baseline``): at least one
  429 with a sane ``Retry-After`` under forced saturation, sampled
  backlog depth never above the bound, post-drain payloads identical to
  the unloaded reference, at least one store eviction under pressure,
  zero transport/HTTP errors in the mixed workload;
- **floor**: Jain fairness >= ``FAIRNESS_FLOOR`` across the session set;
- **trajectory**: aggregate read p95 must not exceed the committed
  baseline's (``benchmarks/baselines/BENCH_load.json``) by more than
  ``MAX_SLOWDOWN`` when one is comparable.

Run directly (CI runs ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_load.py \\
        [--quick] [--sessions N] [--duration S] [--out PATH] \\
        [--update-baseline]

``--fault`` switches to the fault-injection scenario
(``BENCH_load_fault.json``): the same mixed workload runs over the
*sharded multi-process tier* (2 workers + snapshot persistence behind
the real HTTP router) while one worker is SIGKILLed mid-workload and
restarted.  Hard gates (no baseline): requests routed to the dead shard
answer **503 + Retry-After** (never errors on the live shard), the
restarted worker recovers **warm** from session snapshots — its first
read is a store hit **>= 10x** faster than an unloaded cold foreground
pass and bit-identical to the pre-kill payload — and after the drain
every session's recommendations match the unloaded single-process
reference byte-for-byte.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import itertools
import json
import os
import platform
import random
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from gating import comparable, finish  # noqa: E402

from repro import config, config_overlay  # noqa: E402
from repro.core import telemetry  # noqa: E402
from repro.core.executor.cache import computation_cache  # noqa: E402
from repro.data.synthetic import SCENARIOS, make_scenario  # noqa: E402
from repro.service import ResultStore, SessionManager, make_server  # noqa: E402
from repro.service import metrics as service_metrics  # noqa: E402
from repro.service.session import Session  # noqa: E402

#: Latency trajectory gate: aggregate read p95 may grow at most this much
#: over the committed baseline before the gate trips (lenient — shared CI
#: runners are noisy and the worst scenario's p95 is tail-of-the-tail;
#: the hard gates are the correctness ones).
MAX_SLOWDOWN = 4.0

#: Jain's-index floor over per-session read totals summed across the
#: whole scenario matrix.  Per-scenario indices are reported but not
#: gated: on a 1-core box one multi-second foreground pass skews any
#: single 2-second window, while the matrix-wide totals are stable.
FAIRNESS_FLOOR = 0.5

#: Report fields a baseline must share to be comparable (workload shape).
SHAPE_KEYS = ("benchmark", "mode", "sessions")

BASELINE_PATH = Path(__file__).parent / "baselines" / "BENCH_load.json"

#: ``--fault`` recovery gate: the restarted worker's first canary read
#: (a store hit rehydrated from its session snapshot) must beat an
#: unloaded cold foreground pass over the same frame by at least this
#: factor.  Mirrors ``bench_service.py``'s RECOVERY_FLOOR.
RECOVERY_FLOOR = 10.0

#: Mixed-workload op mix (cumulative probability thresholds).
P_MUTATE = 0.15       # touch write: bumps the version, arms precompute
P_INTENT = 0.25       # set / clear intent (re-keys the whole pass)

#: Scenario frame sizes, (quick, full).  ``wide`` keeps its 500 columns
#: in both modes — width is the point — and scales rows instead.
SCENARIO_ROWS = {
    "wide": (300, 1500),
    "highcard": (800, 5000),
    "skewed": (800, 5000),
    "datetime": (800, 5000),
    "nullheavy": (800, 5000),
}


# ----------------------------------------------------------------------
# Tiny HTTP client (urllib, keep-alive not required)
# ----------------------------------------------------------------------
def call(
    base: str,
    method: str,
    path: str,
    body: dict | None = None,
) -> tuple[int, dict, dict]:
    """One API call -> (status, headers, parsed JSON body)."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return (
                response.status,
                dict(response.headers),
                json.loads(response.read().decode("utf-8")),
            )
    except urllib.error.HTTPError as exc:
        payload = exc.read().decode("utf-8")
        try:
            parsed = json.loads(payload)
        except ValueError:
            parsed = {"error": payload}
        return exc.code, dict(exc.headers), parsed


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over a pre-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[rank]


def jain(counts: list[int]) -> float:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one hog."""
    if not counts or sum(counts) == 0:
        return 0.0
    total = sum(counts)
    return (total * total) / (len(counts) * sum(c * c for c in counts))


def latency_histogram(latencies: list[float]) -> dict:
    """Client-side read latencies in the server's exact bucket layout.

    Same fixed power-of-two edges as every process's
    ``lux_http_request_seconds`` histogram, so per-bucket counts compare
    directly against the server's exposition at the end of the run.
    """
    bounds = telemetry.bucket_bounds(int(config.telemetry_histogram_buckets))
    counts = [0] * (len(bounds) + 1)
    for value in latencies:
        counts[bisect.bisect_left(bounds, value)] += 1
    return {"bounds": bounds, "counts": counts}


def scrape_metrics(base: str) -> str:
    """Raw Prometheus exposition from the server's ``/metrics``."""
    with urllib.request.urlopen(base + "/v1/metrics", timeout=30) as response:
        return response.read().decode("utf-8")


def cross_check_metrics(text: str, client_hist: dict) -> list[str]:
    """Server's recommendation-route histogram must dominate the client's.

    Two invariants tie the two views of the same requests together:

    - identical bucket bounds (both sides derive them from
      ``config.telemetry_histogram_buckets``), and
    - per-bound cumulative counts on the server **>= ** the client's:
      handler time is a lower bound on client RTT (so each read lands in
      the same-or-lower bucket server-side), and the server additionally
      counts reads the saturation/eviction sections issued.

    Violations mean the exposition pipeline is lying — a hard failure.
    """
    failures: list[str] = []
    try:
        samples = service_metrics.parse_exposition(text)
    except ValueError as exc:
        return [f"/v1/metrics scrape unparseable: {exc}"]
    if not samples:
        return ["/v1/metrics scrape contained no samples"]
    server_by_bound: dict[float, float] = {}
    server_inf = None
    for name, labels, value in samples:
        if (
            name == "lux_http_request_seconds_bucket"
            and labels.get("route") == "recommendations"
        ):
            if labels.get("le") == "+Inf":
                server_inf = value
            else:
                server_by_bound[float(labels["le"])] = value
    if server_inf is None:
        return [
            "no lux_http_request_seconds_bucket samples for "
            "route=recommendations in the scrape"
        ]
    bounds = client_hist["bounds"]
    if sorted(server_by_bound) != [float(b) for b in bounds]:
        return [
            f"server histogram has {len(server_by_bound)} finite buckets, "
            f"client has {len(bounds)} — bucket layouts diverged"
        ]
    client_cumulative = list(itertools.accumulate(client_hist["counts"]))
    for i, bound in enumerate(bounds):
        if server_by_bound[float(bound)] < client_cumulative[i]:
            failures.append(
                f"server cumulative count {server_by_bound[float(bound)]:.0f} "
                f"below client's {client_cumulative[i]} at le={bound}"
            )
    if server_inf < client_cumulative[-1]:
        failures.append(
            f"server total {server_inf:.0f} below client total "
            f"{client_cumulative[-1]}"
        )
    return failures


# ----------------------------------------------------------------------
# Backlog monitor: polls /healthz like an operator's dashboard would
# ----------------------------------------------------------------------
class Monitor:
    """Samples backlog depth / store bytes from ``/healthz`` on a thread."""

    def __init__(self, base: str, interval_s: float = 0.05) -> None:
        self.base = base
        self.interval_s = interval_s
        self.backlog: list[int] = []
        self.store_bytes: list[int] = []
        self.queued: list[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                _, _, health = call(self.base, "GET", "/v1/healthz")
            except OSError:
                break
            self.backlog.append(int(health["precompute"]["backlog_depth"]))
            self.store_bytes.append(int(health["store"]["bytes"]))
            queues = health["pool"].get("queues", {})
            self.queued.append(
                sum(sum(band.values()) for band in queues.values())
            )
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "Monitor":
        self._thread.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def summary(self) -> dict:
        samples = self.backlog or [0]
        return {
            "samples": len(self.backlog),
            "backlog_peak": max(samples),
            "backlog_mean": round(sum(samples) / len(samples), 2),
            "pool_queued_peak": max(self.queued or [0]),
        }


# ----------------------------------------------------------------------
# Mixed workload
# ----------------------------------------------------------------------
class Worker:
    """One session's client: seeded op mix until the shared deadline."""

    def __init__(
        self, base: str, session: dict, seed: int, deadline: float
    ) -> None:
        self.base = base
        self.session_id = session["session"]
        self.columns = session["columns"]
        self.rng = random.Random(seed)
        self.deadline = deadline
        self.read_latencies: list[float] = []
        self.ops = {"reads": 0, "mutates": 0, "intents": 0, "rejected": 0}
        self.errors: list[str] = []

    def run(self) -> None:
        sid = self.session_id
        while time.perf_counter() < self.deadline:
            roll = self.rng.random()
            if roll < P_MUTATE:
                column = self.rng.choice(self.columns)
                status, headers, _ = call(
                    self.base,
                    "POST",
                    f"/v1/sessions/{sid}/mutate",
                    {"column": column},
                )
                self._account("mutates", status, headers)
            elif roll < P_INTENT:
                intent = (
                    [self.rng.choice(self.columns)]
                    if self.rng.random() < 0.7
                    else None
                )
                status, headers, _ = call(
                    self.base,
                    "POST",
                    f"/v1/sessions/{sid}/intent",
                    {"intent": intent},
                )
                self._account("intents", status, headers)
            else:
                start = time.perf_counter()
                status, _, _ = call(
                    self.base, "GET", f"/v1/sessions/{sid}/recommendations"
                )
                if status == 200:
                    self.read_latencies.append(time.perf_counter() - start)
                    self.ops["reads"] += 1
                else:
                    self.errors.append(f"read -> {status}")

    def _account(self, op: str, status: int, headers: dict) -> None:
        if status == 200:
            self.ops[op] += 1
        elif status == 429:
            # Backpressure is an expected, non-error answer: note it,
            # yield briefly (the real Retry-After would stall the whole
            # bench), and move on.
            self.ops["rejected"] += 1
            if "Retry-After" not in headers:
                self.errors.append("429 without Retry-After")
            time.sleep(0.02)
        else:
            self.errors.append(f"{op} -> {status}")


def run_scenario(
    base: str,
    name: str,
    rows: int,
    n_sessions: int,
    duration_s: float,
    seed: int,
) -> dict:
    """Mixed workload for one scenario; returns its report section."""
    sessions = []
    for i in range(n_sessions):
        status, _, info = call(
            base,
            "POST",
            "/v1/sessions",
            {"dataset": f"synthetic-{name}", "rows": rows,
             "config": {"top_k": 3}},
        )
        assert status == 201, f"create {name} session -> {status}: {info}"
        sessions.append(info)

    deadline = time.perf_counter() + duration_s
    workers = [
        Worker(base, session, seed * 1000 + i, deadline)
        for i, session in enumerate(sessions)
    ]
    with Monitor(base) as monitor:
        threads = [
            threading.Thread(target=worker.run, daemon=True)
            for worker in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    for session in sessions:
        call(base, "DELETE", f"/v1/sessions/{session['session']}")

    latencies = sorted(
        latency for worker in workers for latency in worker.read_latencies
    )
    read_counts = [worker.ops["reads"] for worker in workers]
    ops = {
        key: sum(worker.ops[key] for worker in workers)
        for key in ("reads", "mutates", "intents", "rejected")
    }
    errors = [error for worker in workers for error in worker.errors]
    return {
        "rows": rows,
        "columns": len(sessions[0]["columns"]),
        "sessions": n_sessions,
        "ops": ops,
        "latency_ms": {
            "p50": round(percentile(latencies, 0.50) * 1e3, 3),
            "p95": round(percentile(latencies, 0.95) * 1e3, 3),
            "p99": round(percentile(latencies, 0.99) * 1e3, 3),
        },
        "latency_histogram": latency_histogram(latencies),
        "reads_per_s": round(ops["reads"] / duration_s, 1),
        "fairness_jain": round(jain(read_counts), 3),
        "reads_per_session": read_counts,
        "backlog": monitor.summary(),
        "errors": errors[:10],
        "error_count": len(errors),
    }


# ----------------------------------------------------------------------
# Saturation: forced backpressure + post-drain identity
# ----------------------------------------------------------------------
def run_saturation(base: str, manager: SessionManager, rows: int) -> dict:
    """Force 429s at queue_limit=2, then prove the drain loses nothing.

    Base-mutates ``precompute_queue_limit`` / ``precompute_debounce_s``
    (base, not an overlay: the writes arrive on HTTP handler threads,
    which a caller-thread overlay would never reach) and restores both
    before returning.  A wide debounce keeps each write's timer armed,
    so three sessions' writes in quick succession must push the backlog
    to the bound and get the third rejected with 429 + Retry-After.
    After the drain, every session's recommendations over HTTP must be
    byte-identical to an unloaded in-process foreground pass over the
    same deterministic frame.
    """
    scenario = "skewed"
    sessions = []
    for _ in range(3):
        status, _, info = call(
            base,
            "POST",
            "/v1/sessions",
            {"dataset": f"synthetic-{scenario}", "rows": rows,
             "config": {"top_k": 3}},
        )
        assert status == 201, f"saturation create -> {status}: {info}"
        sessions.append(info["session"])
    # Session creation schedules an immediate first pass; let those clear
    # (and do so *before* tightening the limit — a create's own admission
    # check must not trip on its siblings') so the saturation below is
    # exactly the writes we issue.
    assert manager.engine.wait_idle(120), "initial passes never settled"
    prior_limit = config.precompute_queue_limit
    prior_debounce = config.precompute_debounce_s
    config.precompute_queue_limit = 2
    config.precompute_debounce_s = 1.0

    rejected = 0
    retry_after = None
    backlog_peak = 0
    statuses = []
    try:
        with Monitor(base, interval_s=0.02) as monitor:
            for sid in sessions:
                status, headers, _ = call(
                    base,
                    "POST",
                    f"/v1/sessions/{sid}/mutate",
                    {"column": "heavy_tail"},
                )
                statuses.append(status)
                if status == 429:
                    rejected += 1
                    retry_after = headers.get("Retry-After")
            backlog_now = manager.engine.stats()["backlog_depth"]
            # Drain: armed timers fire after the debounce, passes run dry.
            assert manager.engine.wait_idle(300), "saturation drain stalled"
            backlog_peak = max(monitor.backlog + [backlog_now])

        # The rejected write was refused before any state changed:
        # retrying it after the drain must succeed and precompute
        # normally (still at the tight limit — the backlog is empty now).
        retry_status, _, _ = call(
            base,
            "POST",
            f"/v1/sessions/{sessions[-1]}/mutate",
            {"column": "heavy_tail"},
        )
        assert manager.engine.wait_idle(300), "post-retry drain stalled"
    finally:
        config.precompute_queue_limit = prior_limit
        config.precompute_debounce_s = prior_debounce

    # Identity: unloaded reference — same deterministic frame, same
    # overrides, pure foreground pass, no server, no store.
    reference = Session(
        "reference",
        make_scenario(scenario, n_rows=rows),
        overrides={"top_k": 3},
    ).recommendations()
    identical = True
    for sid in sessions:
        status, _, response = call(
            base, "GET", f"/v1/sessions/{sid}/recommendations"
        )
        if status != 200 or response["actions"] != reference["actions"]:
            identical = False
    for sid in sessions:
        call(base, "DELETE", f"/v1/sessions/{sid}")
    retry_after_int = int(retry_after) if retry_after else 0
    return {
        "queue_limit": 2,
        "write_statuses": statuses,
        "rejected": rejected,
        "retry_after_s": retry_after_int,
        "retry_after_valid": 1 <= retry_after_int <= 60,
        "backlog_peak": backlog_peak,
        "backlog_within_limit": backlog_peak <= 2,
        "retry_succeeded": retry_status == 200,
        "identical": identical,
    }


# ----------------------------------------------------------------------
# Eviction: the store under memory pressure
# ----------------------------------------------------------------------
def run_eviction(rows: int, n_sessions: int, rounds: int) -> dict:
    """Mutate/read loop against a store a few payloads wide.

    Uses a dedicated in-process manager with an explicit tiny byte
    budget (the config knob is MB-granular) so evictions are guaranteed;
    reads must keep succeeding via the foreground fallback.
    """
    store = ResultStore(budget_bytes=96 * 1024)
    manager = SessionManager(store=store)
    reads_ok = True
    try:
        sessions = [
            manager.create(
                make_scenario("highcard", n_rows=rows, seed=i),
                overrides={"top_k": 3},
            )
            for i in range(n_sessions)
        ]
        for _ in range(rounds):
            for session in sessions:
                session.mutate(session.frame.columns[0])
            manager.engine.wait_idle(120)
            for session in sessions:
                response = session.recommendations()
                reads_ok = reads_ok and bool(response["actions"])
        stats = store.stats()
    finally:
        manager.shutdown()
    return {
        "budget_bytes": stats["budget_bytes"],
        "bytes_peak": stats["bytes_peak"],
        "evictions": stats["evictions"],
        "reads_ok": reads_ok,
    }


# ----------------------------------------------------------------------
# Fault injection: kill/restart a shard worker mid-workload
# ----------------------------------------------------------------------
def fault_failures(report: dict) -> list[str]:
    """Hard gates for ``--fault`` — all correctness, no baseline."""
    failures: list[str] = []
    if report["ops"]["unavailable"] < 1:
        failures.append("killing a worker produced no 503 on its shard")
    if not report["retry_after_valid"]:
        failures.append("503 during the outage lacked a sane Retry-After")
    fault = report["fault"]
    if fault.get("degraded_status") != "degraded":
        failures.append(
            f"healthz reported {fault.get('degraded_status')!r} during the "
            "outage, expected 'degraded'"
        )
    if fault.get("victim_stanza") != "worker_unreachable":
        failures.append(
            "healthz lacked the worker_unreachable stanza for the dead shard"
        )
    if not fault.get("survivor_ok"):
        failures.append("surviving worker not 'ok' in degraded healthz")
    if report["error_count"]:
        failures.append(
            f"{report['error_count']} workload errors "
            f"(first: {report['errors'][:3]})"
        )
    recovery = report["recovery"]
    if recovery["warm_origin"] in (None, "foreground"):
        failures.append(
            f"post-restart canary read origin {recovery['warm_origin']!r} "
            "— not served from the restored snapshot pass"
        )
    if not report["identity"]["canary"]:
        failures.append(
            "post-restart canary payload differs from the pre-kill payload "
            "or the unloaded reference"
        )
    if not report["identity"]["post_drain"]:
        failures.append(
            "post-drain recommendations differ from the unloaded "
            "single-process reference"
        )
    if recovery["speedup"] < RECOVERY_FLOOR:
        failures.append(
            f"warm recovery {recovery['speedup']:.1f}x below the "
            f"{RECOVERY_FLOOR}x floor (cold {recovery['cold_ms']} ms, "
            f"warm {recovery['warm_ms']} ms)"
        )
    return failures


def run_fault(args: argparse.Namespace) -> int:
    """Mixed workload over the sharded tier with a mid-run worker kill.

    Two spawned workers behind the real HTTP router, snapshots on.
    Quiescent *canary* sessions sit on the victim shard while workload
    sessions hammer both shards with mutates and reads.  At 40% of the
    duration the victim worker is SIGKILLed (requests to its shard must
    answer 503 + Retry-After; the live shard must never fail); at 70% it
    is restarted and restores its sessions from snapshots.  Each
    canary's first read after the tier is healthy again must be warm —
    served from the restored pass and bit-identical to the pre-kill
    payload — and the fastest of them at least ``RECOVERY_FLOOR``x
    quicker than an unloaded cold foreground pass over the same frame.
    After the drain every session must match the unloaded
    single-process reference byte-for-byte.
    """
    import shutil
    import tempfile

    from repro.service import Supervisor, shard_for

    scenario = "skewed"
    # Large frames on purpose: the warm path (snapshot rehydration + one
    # store hit over RPC/HTTP) is near-constant in rows while a cold
    # foreground pass scales with them — small frames would measure the
    # transport, not the recovery.
    rows = 30_000 if args.quick else 60_000
    duration = max(args.duration, 6.0)
    n_workers = 2
    cpu_count = os.cpu_count() or 1
    mode = "quick" if args.quick else "full"
    snapshot_dir = tempfile.mkdtemp(prefix="lux-bench-fault-")
    with contextlib.ExitStack() as stack:
        stack.callback(computation_cache.clear)
        stack.callback(
            lambda: shutil.rmtree(snapshot_dir, ignore_errors=True)
        )
        stack.enter_context(config_overlay())
        # Worker processes inherit a snapshot of the *base* config taken
        # when the supervisor spawns them — mutate the base (rolled back
        # by the overlay above) before building the tier.
        config.precompute_debounce_s = 0.25
        supervisor = Supervisor(
            n_workers=n_workers, snapshot_dir=snapshot_dir
        )
        stack.callback(supervisor.stop)
        server = make_server(supervisor=supervisor)
        stack.callback(server.stop)
        server.serve_background()
        base = server.address
        print(
            f"load --fault: {n_workers} workers, {rows} rows, "
            f"{duration:.0f}s workload ({mode}), {cpu_count} cores, "
            f"serving on {base}"
        )

        def create() -> dict:
            status, _, info = call(
                base,
                "POST",
                "/v1/sessions",
                {"dataset": f"synthetic-{scenario}", "rows": rows,
                 "config": {"top_k": 3}},
            )
            assert status == 201, f"fault create -> {status}: {info}"
            return info

        # Canaries: quiescent sessions whose warm first-read after the
        # restart we time.  Session ids are random, so create six and
        # pick the shard that owns the most as the victim — one-shot
        # timings on a noisy 1-core CI box flake, so the warm number is
        # the minimum over several genuine hydrating first reads.
        canaries = [create()["session"] for _ in range(6)]
        by_shard: dict[int, list[str]] = {}
        for cid in canaries:
            by_shard.setdefault(shard_for(cid, n_workers), []).append(cid)
        victim = max(by_shard, key=lambda s: len(by_shard[s]))
        victim_canaries = by_shard[victim]
        assert len(victim_canaries) >= 2  # pigeonhole: 6 ids, 2 shards

        # Keep creating workload sessions until every shard owns at
        # least two — the outage must be *observed* (503s on the victim
        # shard) for the gates to mean anything.
        sessions: list[dict] = []
        shard_counts = [0] * n_workers
        for _ in range(20):
            info = create()
            shard_counts[shard_for(info["session"], n_workers)] += 1
            sessions.append(info)
            if len(sessions) >= 4 and min(shard_counts) >= 2:
                break
        assert min(shard_counts) >= 1, "a shard ended up with no sessions"
        assert supervisor.wait_idle(600), "initial passes never settled"

        references: dict[str, dict] = {}
        for cid in victim_canaries:
            status, _, response = call(
                base, "GET", f"/v1/sessions/{cid}/recommendations"
            )
            assert status == 200, f"canary reference read -> {status}"
            assert response["provenance"]["origin"] != "foreground"
            references[cid] = response

        # Unloaded cold reference: what recovering *without* snapshots
        # would cost — rebuild the frame from source and run a foreground
        # pass (the same cold-start definition ``bench_service.py``'s
        # recovery section gates on).  Best of two, computation cache
        # cleared in between so the second pass is genuinely cold too.
        cold_samples = []
        for _ in range(2):
            computation_cache.clear()
            start = time.perf_counter()
            cold_reference = Session(
                "cold-reference",
                make_scenario(scenario, n_rows=rows),
                overrides={"top_k": 3},
            ).recommendations()
            cold_samples.append(time.perf_counter() - start)
        cold_s = min(cold_samples)

        lock = threading.Lock()
        ops = {"reads": 0, "mutates": 0, "rejected": 0, "unavailable": 0}
        errors: list[str] = []
        retry_after_valid = [True]
        deadline = time.perf_counter() + duration

        def account(
            kind: str, shard: int, status: int, headers: dict
        ) -> None:
            with lock:
                if status == 200:
                    ops[kind] += 1
                elif status == 429:
                    ops["rejected"] += 1
                elif status == 503 and shard == victim:
                    # The expected outage answer on the dead shard.
                    ops["unavailable"] += 1
                    retry = headers.get("Retry-After", "")
                    if not (retry.isdigit() and 1 <= int(retry) <= 60):
                        retry_after_valid[0] = False
                elif status == 503:
                    errors.append(f"{kind} -> 503 on live shard {shard}")
                else:
                    errors.append(f"{kind} -> {status}")
            if status in (429, 503):
                time.sleep(0.02)

        def work(info: dict, seed: int) -> None:
            rng = random.Random(seed)
            sid = info["session"]
            shard = shard_for(sid, n_workers)
            columns = info["columns"]
            while time.perf_counter() < deadline:
                # Mutates and reads only — no intent changes, so the
                # post-drain state must equal the intentless reference.
                if rng.random() < P_MUTATE:
                    status, headers, _ = call(
                        base,
                        "POST",
                        f"/v1/sessions/{sid}/mutate",
                        {"column": rng.choice(columns)},
                    )
                    account("mutates", shard, status, headers)
                else:
                    status, headers, _ = call(
                        base, "GET", f"/v1/sessions/{sid}/recommendations"
                    )
                    account("reads", shard, status, headers)

        fault_log: dict = {}

        def inject() -> None:
            time.sleep(duration * 0.4)
            supervisor.kill_worker(victim)
            fault_log["killed_at_pct"] = 40
            # /healthz must answer *during* the outage, flag the dead
            # shard, and keep reporting the survivor as healthy.
            _, _, health = call(base, "GET", "/v1/healthz")
            stanzas = {
                w.get("shard"): w for w in health.get("workers", [])
            }
            fault_log["degraded_status"] = health.get("status")
            fault_log["victim_stanza"] = stanzas.get(victim, {}).get(
                "status"
            )
            fault_log["survivor_ok"] = all(
                stanzas.get(s, {}).get("status") == "ok"
                for s in range(n_workers)
                if s != victim
            )
            time.sleep(duration * 0.3)
            restarted = time.perf_counter()
            supervisor.restart_worker(victim)
            # Ready = the tier is healthy again; the worker restores its
            # shard's snapshots before serving its first RPC, so this
            # also bounds the restore.  (Includes interpreter spawn —
            # reported, not gated.)
            ready_deadline = time.perf_counter() + 120
            while time.perf_counter() < ready_deadline:
                _, _, health = call(base, "GET", "/v1/healthz")
                if health.get("status") == "ok":
                    break
                time.sleep(0.1)
            fault_log["restart_to_ready_s"] = round(
                time.perf_counter() - restarted, 2
            )

        threads = [
            threading.Thread(
                target=work, args=(info, args.seed * 1000 + i), daemon=True
            )
            for i, info in enumerate(sessions)
        ]
        injector = threading.Thread(target=inject, daemon=True)
        with Monitor(base) as monitor:
            for thread in threads:
                thread.start()
            injector.start()
            for thread in threads:
                thread.join()
            injector.join()

        # Warm recovery: each quiescent canary's first read after the
        # restart is exactly the restored-snapshot path — lazy results
        # rehydration plus a store hit, never a recomputation.  Timed
        # after the workload drain so warm and cold are both measured
        # unloaded, and at the supervisor RPC layer: that is the tier's
        # recovery path, while the extra HTTP hop plus the bench client's
        # own megabyte ``json.loads`` would measure the harness.  The
        # router path is still verified below via an HTTP identity read.
        assert supervisor.wait_idle(600), "post-fault drain stalled"
        warm_samples: list[float] = []
        warm_payloads: dict[str, dict] = {}
        for cid in victim_canaries:
            start = time.perf_counter()
            raw = supervisor.recommendations(cid)
            warm_samples.append(time.perf_counter() - start)
            warm_payloads[cid] = json.loads(raw)
        warm_s = min(warm_samples)
        origins = {
            p["provenance"]["origin"] for p in warm_payloads.values()
        }
        warm_origin = (
            "foreground" if "foreground" in origins else origins.pop()
        )
        speedup = cold_s / warm_s if warm_s > 0 else 0.0
        status, _, warm_http = call(
            base, "GET", f"/v1/sessions/{victim_canaries[0]}/recommendations"
        )
        ref_actions = cold_reference["actions"]
        canary_identical = (
            status == 200
            and warm_http["actions"] == ref_actions
            and all(
                warm_payloads[cid]["actions"] == ref_actions
                and references[cid]["actions"] == ref_actions
                for cid in victim_canaries
            )
        )
        post_drain = True
        for info in sessions:
            read_status, _, response = call(
                base, "GET", f"/v1/sessions/{info['session']}/recommendations"
            )
            if read_status != 200 or response["actions"] != ref_actions:
                post_drain = False

        report = {
            "schema": 1,
            "benchmark": "load_fault",
            "mode": mode,
            "workers": n_workers,
            "sessions": len(sessions) + len(canaries),
            "canaries_on_victim": len(victim_canaries),
            "rows": rows,
            "duration_s": duration,
            "seed": args.seed,
            "cpu_count": cpu_count,
            "python": platform.python_version(),
            "victim_shard": victim,
            "workload_sessions_per_shard": shard_counts,
            "ops": ops,
            "retry_after_valid": retry_after_valid[0],
            "fault": fault_log,
            "backlog": monitor.summary(),
            "recovery": {
                "cold_ms": round(cold_s * 1e3, 1),
                "warm_ms": round(warm_s * 1e3, 1),
                "cold_samples_ms": [round(s * 1e3, 1) for s in cold_samples],
                "warm_samples_ms": [round(s * 1e3, 1) for s in warm_samples],
                "speedup": round(speedup, 1),
                "warm_origin": warm_origin,
            },
            "identity": {
                "canary": canary_identical,
                "post_drain": post_drain,
            },
            "errors": errors[:10],
            "error_count": len(errors),
        }
        args.out.write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
        print(
            f"  workload  ops={ops} shard_sessions={shard_counts} "
            f"victim={victim}"
        )
        print(
            f"  outage    healthz={fault_log.get('degraded_status')!r} "
            f"victim_stanza={fault_log.get('victim_stanza')!r} "
            f"503s={ops['unavailable']} "
            f"restart_to_ready={fault_log.get('restart_to_ready_s')}s"
        )
        print(
            f"  recovery  cold {report['recovery']['cold_ms']} ms, warm "
            f"{report['recovery']['warm_ms']} ms "
            f"({report['recovery']['speedup']:.1f}x, "
            f"origin={warm_origin!r}) canary_identical={canary_identical} "
            f"post_drain_identical={post_drain}"
        )
        print(f"  wrote {args.out}")

        failures = fault_failures(report)
        for failure in failures:
            print(f"  GATE FAILED: {failure}")
        if not failures:
            print("  all gates passed")
        return 1 if failures else 0


# ----------------------------------------------------------------------
# Gating
# ----------------------------------------------------------------------

def hard_failures(report: dict) -> list[str]:
    """Correctness gates — these refuse even ``--update-baseline``."""
    failures: list[str] = []
    saturation = report["saturation"]
    if saturation["rejected"] < 1:
        failures.append("forced saturation produced no 429")
    if not saturation["retry_after_valid"]:
        failures.append(
            f"Retry-After {saturation['retry_after_s']!r} outside [1, 60]"
        )
    if not saturation["backlog_within_limit"]:
        failures.append(
            f"backlog peaked at {saturation['backlog_peak']} above the "
            f"limit of {saturation['queue_limit']}"
        )
    if not saturation["retry_succeeded"]:
        failures.append("retried write after drain did not return 200")
    if not saturation["identical"]:
        failures.append(
            "post-drain recommendations differ from the unloaded reference"
        )
    if report["eviction"]["evictions"] < 1:
        failures.append("store under pressure evicted nothing")
    if not report["eviction"]["reads_ok"]:
        failures.append("reads failed under store eviction pressure")
    errors = sum(s["error_count"] for s in report["scenarios"].values())
    if errors:
        failures.append(f"{errors} transport/HTTP errors in mixed workload")
    failures.extend(report.get("metrics_check", {}).get("failures", []))
    return failures


def gate(report: dict, baseline: dict | None) -> list[str]:
    failures = hard_failures(report)
    fairness = report["aggregate"]["fairness_jain"]
    if fairness < FAIRNESS_FLOOR:
        failures.append(
            f"matrix-wide fairness {fairness:.3f} below the "
            f"{FAIRNESS_FLOOR} floor"
        )
    if comparable(baseline, report, SHAPE_KEYS):
        base_p95 = baseline["aggregate"]["latency_ms"]["p95"]
        p95 = report["aggregate"]["latency_ms"]["p95"]
        if base_p95 > 0 and p95 > base_p95 * MAX_SLOWDOWN:
            failures.append(
                f"aggregate read p95 {p95:.1f} ms exceeds "
                f"{MAX_SLOWDOWN}x baseline {base_p95:.1f} ms"
            )
    return failures


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=4,
                        help="concurrent sessions per scenario (default 4)")
    parser.add_argument("--duration", type=float, default=6.0,
                        help="seconds of mixed workload per scenario")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small smoke run for CI (smaller frames, "
                        "2s per scenario)")
    parser.add_argument("--scenarios", default=None,
                        help="comma-separated subset of "
                        f"{sorted(SCENARIOS)} (default: all)")
    parser.add_argument("--fault", action="store_true",
                        help="fault-injection mode: mixed workload over "
                        "the sharded multi-process tier with a mid-run "
                        "worker kill/restart (hard gates, no baseline)")
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--metrics-out", type=Path, default=None,
                        help="also write the end-of-run /metrics scrape "
                        "(Prometheus text) to this path")
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    parser.add_argument("--update-baseline", action="store_true")
    args = parser.parse_args(argv)
    if args.quick:
        args.duration = 2.0
    if args.out is None:
        args.out = Path(
            "BENCH_load_fault.json" if args.fault else "BENCH_load.json"
        )
    if args.fault:
        return run_fault(args)
    names = (
        args.scenarios.split(",") if args.scenarios else sorted(SCENARIOS)
    )
    for name in names:
        if name not in SCENARIOS:
            parser.error(f"unknown scenario {name!r}")

    with contextlib.ExitStack() as stack:
        stack.callback(computation_cache.clear)
        # Base mutation (rolled back when the overlay exits), NOT an
        # overlay kwarg: the workload arrives on HTTP handler threads,
        # which never see the caller thread's overlay.
        stack.enter_context(config_overlay())
        config.precompute_debounce_s = 0.05
        manager = SessionManager()
        stack.callback(manager.shutdown)
        server = make_server(manager)
        stack.callback(server.stop)
        server.serve_background()
        base = server.address

        cpu_count = os.cpu_count() or 1
        mode = "quick" if args.quick else "full"
        print(f"load: {args.sessions} sessions x {args.duration}s per "
              f"scenario ({mode}), {cpu_count} cores, serving on {base}")

        scenarios: dict[str, dict] = {}
        for name in names:
            rows = SCENARIO_ROWS[name][0 if args.quick else 1]
            section = run_scenario(
                base, name, rows, args.sessions, args.duration, args.seed
            )
            scenarios[name] = section
            lat = section["latency_ms"]
            print(f"  {name:10s} rows={rows:<6d} reads={section['ops']['reads']:<5d} "
                  f"p50={lat['p50']:8.1f} ms p95={lat['p95']:8.1f} ms "
                  f"p99={lat['p99']:8.1f} ms jain={section['fairness_jain']:.3f} "
                  f"backlog_peak={section['backlog']['backlog_peak']}")

        print("  saturating (queue_limit=2)...")
        saturation = run_saturation(
            base, manager, rows=300 if args.quick else 800
        )
        print(f"  saturation  statuses={saturation['write_statuses']} "
              f"retry_after={saturation['retry_after_s']}s "
              f"backlog_peak={saturation['backlog_peak']} "
              f"identical={saturation['identical']}")

        eviction = run_eviction(
            rows=300 if args.quick else 800,
            n_sessions=3,
            rounds=2 if args.quick else 4,
        )
        print(f"  eviction    evictions={eviction['evictions']} "
              f"bytes_peak={eviction['bytes_peak']} "
              f"reads_ok={eviction['reads_ok']}")

        # End-of-run exposition cross-check: the client-observed read
        # histogram (all scenarios pooled) must be dominated bucket-wise
        # by the server's own lux_http_request_seconds for the same route.
        empty = latency_histogram([])
        pooled = {
            "bounds": empty["bounds"],
            "counts": [
                sum(s["latency_histogram"]["counts"][i]
                    for s in scenarios.values())
                for i in range(len(empty["counts"]))
            ],
        }
        exposition = scrape_metrics(base)
        if args.metrics_out is not None:
            args.metrics_out.write_text(exposition, encoding="utf-8")
            print(f"  wrote {args.metrics_out}")
        metrics_failures = cross_check_metrics(exposition, pooled)
        print(f"  metrics     scrape={len(exposition)}B "
              f"cross_check={'ok' if not metrics_failures else 'FAILED'}")

        # Aggregate latency takes the worst scenario per percentile — a
        # conservative "no scenario may regress" stance that stays
        # meaningful when the matrix mixes fast and slow frame shapes.
        # Fairness aggregates per-session read totals across the whole
        # matrix (session i of every scenario sums into slot i): stable
        # where any single scenario's 2-second window is not.
        totals = [
            sum(s["reads_per_session"][i] for s in scenarios.values())
            for i in range(args.sessions)
        ]
        aggregate = {
            "reads": sum(s["ops"]["reads"] for s in scenarios.values()),
            "latency_ms": {
                "p50": max(s["latency_ms"]["p50"] for s in scenarios.values()),
                "p95": max(s["latency_ms"]["p95"] for s in scenarios.values()),
                "p99": max(s["latency_ms"]["p99"] for s in scenarios.values()),
            },
            "fairness_jain": round(jain(totals), 3),
            "fairness_jain_min": min(
                s["fairness_jain"] for s in scenarios.values()
            ),
        }

        report = {
            "schema": 1,
            "benchmark": "load",
            "mode": mode,
            "sessions": args.sessions,
            "duration_s": args.duration,
            "seed": args.seed,
            "cpu_count": cpu_count,
            "python": platform.python_version(),
            "scenarios": scenarios,
            "aggregate": aggregate,
            "saturation": saturation,
            "eviction": eviction,
            "metrics_check": {
                "scrape_bytes": len(exposition),
                "client_reads": pooled["counts"],
                "failures": metrics_failures,
            },
        }
        args.out.write_text(json.dumps(report, indent=2) + "\n",
                            encoding="utf-8")
        print(f"  wrote {args.out}")

        blockers = hard_failures(report)
        if blockers:
            # Correctness precedes every mode, including --update-baseline.
            for failure in blockers:
                print(f"  GATE FAILED: {failure}")
            return 1

        return finish(report, args.baseline, SHAPE_KEYS, gate, args.update_baseline)


if __name__ == "__main__":
    sys.exit(main())
