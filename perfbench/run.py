"""End-to-end benchmark of the always-on recommendation paths.

What an analyst waits for is the print overhead Lux adds to a frame and
the bytes a client gets back from ``/v1/sessions/{id}/recommendations``.
This command measures both, one workload per invocation::

    python3 perfbench/run.py --workload print_wide --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --trace 1

It builds nothing: the program is the ``repro`` package under ``src/`` of
the checkout, and the benchmark hands it only the frames it generates
from ``--seed``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a readable summary and a ``record`` line with sample counts and
host state (load average and CPU steal share at start and end), kept out
of the metrics so noisy episodes can be told apart afterwards.

Workloads
---------
All are closed loops with one client: it sends its next op only after
the previous one answered, from this one process over one connection.
Every op of a workload does the same work.

``print_wide`` (in-process, one caller)
    ``make_width_dataset(n_rows=2000, n_cols=60, seed)``: the UCI-median
    row count and 47 measures, so about 1.1k Correlation candidates.
    One op touches one measure (round robin) and then runs ``repr(df)``:
    the paper's always-on print.  Its work is metadata, plan, compile
    and score; it does no vega-lite, JSON, store or HTTP work.
``edit_read`` (single-process server, one client)
    One session holds a 2,000-row frame of 6 measures x 3 dimensions
    (41 candidates, 15 of them scatterplots), posted as generated CSV.
    One op is ``POST .../mutate`` touching ``q{i % 6}`` followed by
    ``GET .../recommendations``: the analyst's edit -> fresh answer
    path, where every layer from engine to encode does work.
``dashboard_read`` (two-worker sharded tier, one client)
    Two sessions of the edit frame, precomputed during set-up and pinned
    to distinct shards by choosing their ids with
    ``repro.service.shard.shard_for``.  One op is a store-hit ``GET``,
    alternating between the two sessions: store get -> encode -> RPC
    passthrough -> HTTP write, no compute.  The only workload that
    exercises the shard layer; both workers serve every other op.

End-to-end metrics (tracing off; same names on every workload)
--------------------------------------------------------------
``setup_s``
    Median over several set-ups (nine in-process, three for each server,
    whose start costs seconds) of: build the frame, start the server,
    finish the first answer.
``p50_ms``, ``tail_ms``
    Per-op latency.  ``tail_ms`` is the highest percentile that has at
    least 10 samples beyond it; the percentile and sample count are
    printed beside it.
``ops_per_s``
    Ops completed per second of the measured interval.
``cpu_ms_per_op``
    CPU time of the program's processes (``/proc/<pid>/stat``, shard
    workers included) per op: tells work saved apart from waiting.
``rss_peak_mb``
    Summed ``VmHWM`` of the program's processes.

Per-layer metrics (``--trace 1``) and what each should move
-----------------------------------------------------------
A traced run measures first with tracing off, then installs wrappers
around the public functions of each layer (in this process for
``print_wide``, inside the server launcher ``server.py`` otherwise) and
measures again.  Times are self time (span minus child spans) per op,
summed over the request path and background threads; counts are per
op.  Spawned shard workers are not wrapped: their time comes from
deltas of the public ``/metrics`` scrape, their counters from
``/healthz``.

=========================================  ==========================================  ============================  ============================
Layer (module)                             Metrics                                     Should move                   Should not move
=========================================  ==========================================  ============================  ============================
core.metadata                              metadata.ms, .full_scans, .refreshes        print_wide p50_ms             --
core.actions / core.compiler               plan.ms, plan.candidates, compile.ms        print_wide p50_ms             light on edit_read
core.interestingness / core.optimizer      score.ms, score.calls, pass.ms              print_wide p50_ms             --
core.executor                              execute.ms, execute.specs, cache.hit_ratio  edit_read cpu_ms_per_op       --
vis.vegalite / service.session             vegalite.ms, json_safe.ms, serialize.ms     edit_read p50_ms              print_wide, dashboard_read
json.dumps from http_api, store, shard     encode.ms, encode.calls, encode.mb          dashboard_read p50/ops_per_s  --
service.store                              store.put_ms, store.get_ms, store.hit_ratio --                            --
service.precompute / service.session       precompute.passes, .candidates_rerun,       edit_read p50_ms /            dashboard_read stays at
                                           .candidates_carried,                        cpu_ms_per_op                 0 passes
                                           session.foreground_ratio
service.supervisor / service.shard         rpc.ms, rpc.worker_ms, rpc.transport_ms     dashboard_read                --
service.http_api                           http.self_ms                                --                            --
dataframe.frame repr                       render.ms                                   print_wide only               --
all                                        unattributed.ms                             --                            --
=========================================  ==========================================  ============================  ============================

``session.foreground_ratio`` is foreground-origin reads over reads
(useful against wasted passes).  ``rpc.ms`` is the router-side
``Supervisor.recommendations`` span, ``rpc.worker_ms`` the worker-side
handling time from ``/metrics``, ``rpc.transport_ms`` their difference;
the worker's store get and encode sit inside ``rpc.worker_ms``.
``http.self_ms`` is the client round trip minus the backend call and
the response encode: transport plus the handler's own code.
``unattributed.ms`` is end-to-end time minus ``http.self_ms`` and the
summed request-path self times of every layer above, so hidden time
(lock waits, glue) shows.  The traced run also reports its own overhead:
``trace.untraced_p50_ms``, ``trace.traced_p50_ms`` and
``trace.overhead_pct``.

Noise lessons this design follows
---------------------------------
An earlier attempt at this benchmark was rejected as too noisy:

- A workload that mixed frames whose per-op cost differed about 100x
  moved its tail 316 -> 286 ms between two runs of the same program.
  Here every op of a workload does identical work.
- A tail computed from too few samples equalled the median.  Here the
  tail percentile is chosen so that at least 10 samples lie beyond it.
- Sharded session placement was random: two unpinned runs gave p50
  57 ms and 116 ms depending on whether both sessions hashed to one
  shard.  Here session ids are chosen per shard with ``shard_for``.
- Two clients reading one session each through the router were
  bistable: p50 85 or 108 ms on the same host minutes apart, depending
  on whether their requests met in the router process, while one
  client alternating between the sessions read 109-113 ms throughout.
  Here ``dashboard_read`` has one client.
- Leftover servers from crashed runs coincided with medians twice as
  high.  Here the benchmark owns each server's process group, kills it
  and its workers in ``finally``, waits for them to exit, and refuses to
  start while a stray service process is alive.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
from pathlib import Path

import host
from workloads import SRC, WORKLOADS, run_phase

#: (name, unit, better) of the ``--trace 1`` metrics, in report order.
PER_LAYER = [
    ("metadata.ms", "ms/op", "lower"),
    ("metadata.full_scans", "count/op", "lower"),
    ("metadata.refreshes", "count/op", "lower"),
    ("plan.ms", "ms/op", "lower"),
    ("plan.candidates", "count/op", "lower"),
    ("compile.ms", "ms/op", "lower"),
    ("score.ms", "ms/op", "lower"),
    ("score.calls", "count/op", "lower"),
    ("pass.ms", "ms/op", "lower"),
    ("execute.ms", "ms/op", "lower"),
    ("execute.specs", "count/op", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("vegalite.ms", "ms/op", "lower"),
    ("json_safe.ms", "ms/op", "lower"),
    ("serialize.ms", "ms/op", "lower"),
    ("encode.ms", "ms/op", "lower"),
    ("encode.calls", "count/op", "lower"),
    ("encode.mb", "MB/op", "lower"),
    ("store.put_ms", "ms/op", "lower"),
    ("store.get_ms", "ms/op", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("precompute.passes", "count/op", "lower"),
    ("precompute.candidates_rerun", "count/op", "lower"),
    ("precompute.candidates_carried", "count/op", "higher"),
    ("session.foreground_ratio", "ratio", "lower"),
    ("rpc.ms", "ms/op", "lower"),
    ("rpc.worker_ms", "ms/op", "lower"),
    ("rpc.transport_ms", "ms/op", "lower"),
    ("http.self_ms", "ms/op", "lower"),
    ("render.ms", "ms/op", "lower"),
    ("unattributed.ms", "ms/op", "lower"),
    ("trace.untraced_p50_ms", "ms", "lower"),
    ("trace.traced_p50_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

#: Tracer layer behind each ``*.ms`` metric.
LAYER_OF = {
    "metadata.ms": "metadata",
    "plan.ms": "plan",
    "compile.ms": "compile",
    "score.ms": "score",
    "pass.ms": "pass",
    "execute.ms": "execute",
    "vegalite.ms": "vegalite",
    "json_safe.ms": "json_safe",
    "serialize.ms": "serialize",
    "encode.ms": "encode",
    "store.put_ms": "store.put",
    "store.get_ms": "store.get",
    "render.ms": "render",
}

#: Share of a traced run spent measuring with tracing off first.
UNTRACED_SHARE = 1 / 3


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    has at least 10 samples beyond it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 11 if n > 10 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def end_to_end(workload, phase) -> dict:
    value, _, _ = tail(phase.latencies)
    return {
        "setup_s": (statistics.median(workload.setup_times), "s"),
        "p50_ms": (statistics.median(phase.latencies) * 1e3, "ms"),
        "tail_ms": (value * 1e3, "ms"),
        "ops_per_s": (phase.ops / phase.wall_s, "1/s"),
        "cpu_ms_per_op": (phase.cpu_s * 1e3 / phase.ops, "ms"),
        "rss_peak_mb": (workload.peak_rss_mb(), "MB"),
    }


def ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(stats: dict, traced, untraced, facts: dict) -> dict:
    ops = traced.ops
    request, background = stats["request_s"], stats["background_s"]
    counts, program = stats["counts"], stats["program"]

    def ms(layer: str) -> float:
        return (request.get(layer, 0.0) + background.get(layer, 0.0)) * 1e3 / ops

    def per_op(name: str, source: dict) -> float:
        return source.get(name, 0.0) / ops

    values = {metric: ms(layer) for metric, layer in LAYER_OF.items()}
    for name in ("metadata.full_scans", "metadata.refreshes", "plan.candidates",
                 "score.calls", "execute.specs", "encode.calls"):
        values[name] = per_op(name, counts)
    values["encode.mb"] = per_op("encode.bytes", counts) / 1e6
    for name in ("precompute.passes", "precompute.candidates_rerun",
                 "precompute.candidates_carried"):
        values[name] = per_op(name, program)
    values["cache.hit_ratio"] = ratio(
        program.get("cache.hits", 0.0), program.get("cache.misses", 0.0)
    )
    values["store.hit_ratio"] = ratio(
        program.get("store.hits", 0.0), program.get("store.misses", 0.0)
    )
    origins = facts.get("origins", {})
    values["session.foreground_ratio"] = (
        origins.get("foreground", 0) / sum(origins.values()) if origins else 0.0
    )
    values["rpc.ms"] = ms("rpc")
    values["rpc.worker_ms"] = per_op("rpc.worker_s", program) * 1e3
    values["rpc.transport_ms"] = (
        values["rpc.ms"] - values["rpc.worker_ms"] if values["rpc.ms"] else 0.0
    )
    # The client's round trip minus the handler's child spans: transport
    # plus the handler's own code.
    http_total_ms = per_op("http.total_s", counts) * 1e3
    values["http.self_ms"] = (
        statistics.fmean(traced.latencies) * 1e3 - http_total_ms
        + request.get("http", 0.0) * 1e3 / ops
        if http_total_ms else 0.0
    )
    # Time inside the op (in-process) or the backend call (server) that
    # no named layer covers: lock waits and glue.
    values["unattributed.ms"] = sum(
        request.get(root, 0.0) for root in ("op", "backend")
    ) * 1e3 / ops
    untraced_p50 = statistics.median(untraced.latencies) * 1e3
    traced_p50 = statistics.median(traced.latencies) * 1e3
    values["trace.untraced_p50_ms"] = untraced_p50
    values["trace.traced_p50_ms"] = traced_p50
    values["trace.overhead_pct"] = (traced_p50 / untraced_p50 - 1.0) * 100.0
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}


def layer_table(stats: dict, ops: int) -> list[str]:
    """Readable request-path / background split per layer, per op."""
    request, background = stats["request_s"], stats["background_s"]
    layers = sorted(
        set(request) | set(background),
        key=lambda layer: -(request.get(layer, 0) + background.get(layer, 0)),
    )
    lines = [f"  {'layer':<12} {'request ms/op':>14} {'background ms/op':>17}"]
    for layer in layers:
        lines.append(
            f"  {layer:<12} {request.get(layer, 0) * 1e3 / ops:>14.3f} "
            f"{background.get(layer, 0) * 1e3 / ops:>17.3f}"
        )
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    record = host.HostRecord()
    workload = WORKLOADS[name](seed)
    try:
        workload.setup()
        workload.warm_up()
        if trace:
            untraced = run_phase(workload, seconds * UNTRACED_SHARE)
            workload.trace_on()
            try:
                phase = run_phase(workload, seconds * (1 - UNTRACED_SHARE))
            finally:
                workload.trace_off()
            stats = workload.layer_stats()
            phases = [untraced, phase]
        else:
            phase = run_phase(workload, seconds)
            phases = [phase]
        e2e = end_to_end(workload, phase)
        failed, facts = 0, {}
        for measured in phases:
            lost, facts = workload.check(measured)
            failed += lost
    finally:
        workload.close()
    attempted = sum(measured.ops for measured in phases)
    value, percentile, beyond = tail(phase.latencies)
    label = "traced phase" if trace else "measured"
    print(f"== {name} seed={seed} trace={int(trace)}: {phase.ops} ops {label}, "
          f"{attempted} attempted, {failed} failed")
    for metric, (number, unit) in e2e.items():
        note = ""
        if metric == "tail_ms":
            note = f"  (p{percentile:.1f}, {beyond} of {phase.ops} samples beyond)"
        print(f"  {metric:<14} {number:>12.4f} {unit}{note}")
    metrics = e2e
    if trace:
        print("  layer self time, traced phase:")
        for line in layer_table(stats, phase.ops):
            print(line)
        metrics = per_layer(stats, phase, untraced, facts)
        for metric, (number, unit) in metrics.items():
            print(f"  {metric:<30} {number:>12.4f} {unit}")
    print("record " + json.dumps({
        "workload": name,
        "seed": seed,
        "samples": phase.ops,
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
        "origins": facts.get("origins", {}),
        "host": record.finish(),
    }))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": number, "unit": unit}
            for metric, (number, unit) in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="print_wide, edit_read, dashboard_read or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS)
    if args.workload != "all":
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}")
        names = [args.workload]
    # A terminated benchmark still runs its ``finally`` blocks, which stop
    # the servers it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    results = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace))
        for name in names
    }
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(final, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
