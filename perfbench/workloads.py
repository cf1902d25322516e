"""The three workloads: seeded inputs, set-up, one op, and its check.

Every workload runs a closed loop: one client sends its next op only
after the previous one answered.  An op's latency is its own wall time;
what the benchmark keeps of each answer for checking is set aside after
the clock stops, and the checks themselves run after the measured
interval.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

import host
import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SERVER = Path(__file__).resolve().parent / "server.py"

#: Shape of the edit/dashboard frame: 6 measures x 3 dimensions (41
#: candidates, 15 of them scatterplots), 2,000 rows.
EDIT_ROWS = 2000
EDIT_MEASURES = 6
EDIT_DIM_CARDS = (6, 12, 24)

#: Shape of the print frame: the UCI-median row count, 60 columns.
PRINT_ROWS = 2000
PRINT_COLS = 60

SERVER_START_TIMEOUT_S = 60.0
HTTP_TIMEOUT_S = 60.0


class Answers:
    """What each op answered, each distinct answer stored once.

    ``add`` only files the answer (a hash lookup); parsing and comparing
    with the reference happens in the check, after the measured interval.
    """

    def __init__(self) -> None:
        self.distinct: dict[Any, int] = {}
        self.ops: list[tuple[bool, int]] = []

    def add(self, ok: bool, answer: Any) -> None:
        index = self.distinct.setdefault(answer, len(self.distinct))
        self.ops.append((ok, index))

    def judged(self, judge: Callable[[Any], Any]) -> list[tuple[bool, Any]]:
        """(ok, ``judge(answer)``) per op, judging each distinct answer once."""
        verdicts = {index: judge(answer) for answer, index in self.distinct.items()}
        return [(ok, verdicts[index]) for ok, index in self.ops]


class Phase:
    """One measured interval: per-op latencies, answers, CPU and wall."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.answers = Answers()
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies)


def run_phase(workload: "Workload", seconds: float) -> Phase:
    """One client's closed loop over ``workload.op`` for ``seconds``."""
    phase = Phase()
    cpu_start = workload.cpu_seconds()
    start = time.perf_counter()
    deadline = start + seconds
    n = 0
    while time.perf_counter() < deadline:
        begin = time.perf_counter()
        answer = workload.op(n)
        phase.latencies.append(time.perf_counter() - begin)
        phase.answers.add(*answer)
        n += 1
    phase.wall_s = time.perf_counter() - start
    phase.cpu_s = workload.cpu_seconds() - cpu_start
    return phase


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def edit_csv(seed: int) -> str:
    """The seeded 6-measure x 3-dimension frame as CSV text."""
    import numpy as np

    rng = np.random.default_rng(seed)
    columns: dict[str, list[str]] = {
        f"q{i}": [repr(float(v)) for v in rng.normal(0, 1, EDIT_ROWS)]
        for i in range(EDIT_MEASURES)
    }
    for j, card in enumerate(EDIT_DIM_CARDS):
        labels = [f"v{v}" for v in range(card)]
        columns[f"d{j}"] = [labels[k] for k in rng.integers(0, card, EDIT_ROWS)]
    names = list(columns)
    rows = zip(*(columns[name] for name in names))
    return "\n".join([",".join(names), *(",".join(row) for row in rows)]) + "\n"


def reference_actions(csv_text: str) -> str:
    """In-process answer for the CSV frame: its ``actions`` JSON."""
    from repro.core.frame import LuxDataFrame
    from repro.dataframe.io import read_csv_string
    from repro.service.session import Session

    frame = read_csv_string(csv_text, frame_cls=LuxDataFrame)
    response = Session("reference", frame).recommendations(v1=True)
    return json.dumps(response["actions"])


def ranked(frame: Any) -> tuple:
    """The (action -> [(vis key, score)]) ranking a print displays."""
    from repro.vis.spec import candidate_key

    recs = frame.recommendations
    return tuple(
        (name, tuple((candidate_key(vis.spec), vis.score) for vis in recs[name]))
        for name in recs.keys()
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""
    warmup_ops = 3
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.setup_times: list[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, n: int) -> tuple[bool, Any]:
        """Run op ``n``; return (ok, hashable answer) for the check."""
        raise NotImplementedError

    def check(self, phase: Phase) -> tuple[int, dict]:
        """(failed ops, per-workload facts such as origin counts)."""
        raise NotImplementedError

    def pids(self) -> list[int]:
        raise NotImplementedError

    def cpu_seconds(self) -> float:
        return sum(host.cpu_seconds(self.pids()).values())

    def peak_rss_mb(self) -> float:
        return host.peak_rss_mb(self.pids())

    def warm_up(self) -> None:
        for n in range(self.warmup_ops):
            self.op(n)

    def trace_on(self) -> None:
        raise NotImplementedError

    def trace_off(self) -> None:
        raise NotImplementedError

    def layer_stats(self) -> dict:
        """Tracer aggregates and program counters since ``trace_on``."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class PrintWide(Workload):
    """In-process: touch one measure, then print the frame."""

    name = "print_wide"
    warmup_ops = 5
    # A set-up here takes about 0.3 s, so more of them steady the median.
    setup_repeats = 9

    def setup(self) -> None:
        from repro.data.synthetic import make_width_dataset

        for repeat in range(self.setup_repeats):
            start = time.perf_counter()
            frame = make_width_dataset(
                n_rows=PRINT_ROWS, n_cols=PRINT_COLS, seed=self.seed
            )
            repr(frame)
            self.setup_times.append(time.perf_counter() - start)
            if repeat == 0:
                # The first frame answers the reference; the last is measured.
                self.reference = ranked(frame)
        self.frame = frame
        self.measures = self.frame.metadata.measures
        self.tracer: tracing.Tracer | None = None

    def _touch_and_print(self, n: int) -> None:
        column = self.measures[n % len(self.measures)]
        self.frame[column] = self.frame[column]
        repr(self.frame)

    def op(self, n: int) -> tuple[bool, Any]:
        if self.tracer is None:
            self._touch_and_print(n)
        else:
            self.tracer.run("op", self._touch_and_print, n)
        return True, ranked(self.frame)

    def check(self, phase: Phase) -> tuple[int, dict]:
        judged = phase.answers.judged(lambda answer: answer == self.reference)
        return sum(1 for ok, good in judged if not (ok and good)), {}

    def pids(self) -> list[int]:
        return [os.getpid()]

    def cpu_seconds(self) -> float:
        return time.process_time()

    def trace_on(self) -> None:
        from repro.core.executor.cache import computation_cache

        self.tracer = tracing.Tracer()
        tracing.install(self.tracer)
        self._cache_start = computation_cache.stats()

    def trace_off(self) -> None:
        self.tracer.uninstall()

    def layer_stats(self) -> dict:
        from repro.core.executor.cache import computation_cache

        cache = computation_cache.stats()
        return {
            **self.tracer.snapshot(),
            "program": {
                "cache.hits": cache["hits"] - self._cache_start["hits"],
                "cache.misses": cache["misses"] - self._cache_start["misses"],
            },
        }


class ServerWorkload(Workload):
    """A launched server process group, driven over HTTP."""

    shards = 0

    def setup(self) -> None:
        self.csv = edit_csv(self.seed)
        self.server: subprocess.Popen | None = None
        self.session_ids = self.pick_session_ids()
        for repeat in range(self.setup_repeats):
            start = time.perf_counter()
            self._start_server()
            for session_id in self.session_ids:
                self._request(
                    "POST", "/v1/sessions",
                    {"csv": self.csv, "session_id": session_id}, expect=201,
                )
            for session_id in self.session_ids:
                self._request(
                    "GET", f"/v1/sessions/{session_id}/recommendations"
                )
            self.setup_times.append(time.perf_counter() - start)
            if repeat < self.setup_repeats - 1:
                self._stop_server()
        self.reference = reference_actions(self.csv)

    def pick_session_ids(self) -> list[str]:
        return [f"edit-{self.seed}"]

    # -- process ownership ---------------------------------------------
    def _start_server(self) -> None:
        strays = host.stray_servers()
        if strays:
            raise RuntimeError(
                f"refusing to start: stray service processes alive: {strays}"
            )
        env = dict(os.environ, **{host.SERVER_MARKER: "1"})
        self.server = subprocess.Popen(
            [sys.executable, str(SERVER), "--shards", str(self.shards)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(ROOT),
            start_new_session=True,
        )
        line = self._readline(SERVER_START_TIMEOUT_S)
        if not line.startswith("READY http://"):
            raise RuntimeError(f"server failed to start: {line!r}")
        hostport = line.split("http://", 1)[1].strip()
        self.host, port = hostport.rsplit(":", 1)
        self.port = int(port)
        self.connection = http.client.HTTPConnection(
            self.host, self.port, timeout=HTTP_TIMEOUT_S
        )

    def _readline(self, timeout_s: float) -> str:
        result: list[str] = []
        reader = threading.Thread(
            target=lambda: result.append(self.server.stdout.readline()),
            daemon=True,
        )
        reader.start()
        reader.join(timeout_s)
        if not result:
            raise RuntimeError("server did not answer on its control channel")
        return result[0]

    def _command(self, command: str) -> str:
        self.server.stdin.write(command + "\n")
        self.server.stdin.flush()
        return self._readline(HTTP_TIMEOUT_S).strip()

    def _stop_server(self) -> None:
        if self.server is None:
            return
        server, self.server = self.server, None
        if getattr(self, "connection", None) is not None:
            self.connection.close()
        try:
            server.stdin.close()
        except OSError:
            pass
        try:
            host.kill_group(server.pid)
        finally:
            server.wait(timeout=10)
            server.stdout.close()

    def close(self) -> None:
        self._stop_server()

    def pids(self) -> list[int]:
        return host.group_pids(self.server.pid) if self.server else []

    # -- HTTP ----------------------------------------------------------
    def _raw(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, bytes]:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        connection = self.connection
        try:
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            connection.close()
            raise

    def _request(
        self, method: str, path: str, body: dict | None = None, expect: int = 200
    ) -> dict:
        status, raw = self._raw(method, path, body)
        if status != expect:
            raise RuntimeError(f"{method} {path} -> {status}: {raw[:200]!r}")
        return json.loads(raw)

    def _read(self, session_id: str) -> tuple[bool, bytes]:
        status, raw = self._raw(
            "GET", f"/v1/sessions/{session_id}/recommendations"
        )
        return status == 200, raw

    def check(self, phase: Phase) -> tuple[int, dict]:
        failed = 0
        origins: dict[str, int] = {}
        for ok, (actions, origin) in phase.answers.judged(_parse_read):
            if not ok or actions != self.reference:
                failed += 1
            else:
                origins[origin] = origins.get(origin, 0) + 1
        return failed, {"origins": origins}

    # -- traced runs ---------------------------------------------------
    def trace_on(self) -> None:
        self._counters_start = self._counters()
        for command in ("trace on", "reset"):
            if self._command(command) != "OK":
                raise RuntimeError(f"server refused {command!r}")

    def trace_off(self) -> None:
        self._spans = json.loads(self._command("stats"))
        if self._command("trace off") != "OK":
            raise RuntimeError("server refused 'trace off'")
        self._counters_end = self._counters()

    def layer_stats(self) -> dict:
        start, end = self._counters_start, self._counters_end
        return {
            **self._spans,
            "program": {key: end[key] - start[key] for key in end},
        }

    def _counters(self) -> dict[str, float]:
        """Program counters from the public ``/healthz`` and ``/metrics``."""
        from repro.service.metrics import parse_exposition

        health = self._request("GET", "/v1/healthz")
        totals: dict[str, float] = {}
        for stanza in health.get("workers") or [health]:
            for section, key, name in (
                ("computation_cache", "hits", "cache.hits"),
                ("computation_cache", "misses", "cache.misses"),
                ("store", "hits", "store.hits"),
                ("store", "misses", "store.misses"),
                ("precompute", "completed", "precompute.passes"),
                ("precompute", "candidates_rerun", "precompute.candidates_rerun"),
                ("precompute", "candidates_carried", "precompute.candidates_carried"),
            ):
                value = stanza.get(section, {}).get(key, 0)
                totals[name] = totals.get(name, 0.0) + float(value)
        _, text = self._raw("GET", "/v1/metrics")
        worker_s = 0.0
        if self.shards:
            for name, labels, value in parse_exposition(text.decode()):
                if (
                    name == "lux_rpc_handle_seconds_sum"
                    and labels.get("method") == "recommendations"
                ):
                    worker_s += value
        totals["rpc.worker_s"] = worker_s
        return totals


def _parse_read(raw: bytes) -> tuple[str | None, str | None]:
    """A recommendations body -> (its ``actions`` as JSON, its origin)."""
    try:
        body = json.loads(raw)
        return json.dumps(body["actions"]), body["provenance"]["origin"]
    except (ValueError, KeyError, TypeError):
        return None, None


class EditRead(ServerWorkload):
    """Single-process server: touch ``q{i % 6}``, then read the answer."""

    name = "edit_read"
    warmup_ops = 2

    def op(self, n: int) -> tuple[bool, Any]:
        session_id = self.session_ids[0]
        status, _ = self._raw(
            "POST", f"/v1/sessions/{session_id}/mutate",
            {"column": f"q{n % EDIT_MEASURES}"},
        )
        ok, raw = self._read(session_id)
        return ok and status == 200, raw


class DashboardRead(ServerWorkload):
    """Two-worker sharded tier: store-hit reads alternating over two
    sessions pinned to distinct shards."""

    name = "dashboard_read"
    shards = 2
    warmup_ops = 10

    def pick_session_ids(self) -> list[str]:
        """One session id per shard, so both workers always serve."""
        from repro.service.shard import shard_for

        chosen: dict[int, str] = {}
        n = 0
        while len(chosen) < self.shards:
            candidate = f"dash-{self.seed}-{n}"
            chosen.setdefault(shard_for(candidate, self.shards), candidate)
            n += 1
        return [chosen[shard] for shard in range(self.shards)]

    def setup(self) -> None:
        super().setup()
        self._wait_idle()

    def _wait_idle(self, timeout_s: float = 60.0) -> None:
        """Wait until no shard has a pass armed, queued or running."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            health = self._request("GET", "/v1/healthz")
            busy = sum(
                stanza.get("precompute", {}).get(key, 0)
                for stanza in health.get("workers", [])
                for key in ("timers_armed", "in_flight", "backlog_depth")
            )
            if busy == 0:
                return
            time.sleep(0.1)
        raise RuntimeError("precompute passes did not settle")

    def op(self, n: int) -> tuple[bool, Any]:
        return self._read(self.session_ids[n % len(self.session_ids)])


WORKLOADS = {cls.name: cls for cls in (PrintWide, EditRead, DashboardRead)}
