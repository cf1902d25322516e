#!/usr/bin/env bash
# CI entry point: lint gate, tier-1 tests, and the benchmark perf gates.
#
# The benchmark invocations are deliberately part of CI: they execute the
# full 40+-candidate batch path on both executor backends, verify batched
# and parallel results are bit-identical to serial, check the cache byte
# budget, and gate the speedup trajectories against the committed
# baselines (benchmarks/baselines/BENCH_*.json) — so regressions in the
# hottest paths fail fast even when no unit test exercises the exact
# combination.  Each run's BENCH_*.json is left in the repo root for the
# workflow to upload as artifacts.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== lint =="
if ! python -m ruff --version >/dev/null 2>&1; then
  # The gate is unconditional: a missing linter must fail loudly, not
  # silently pass code that networked CI would reject.
  echo "ERROR: ruff is not installed; the lint gate cannot run." >&2
  echo "       pip install -r requirements-dev.txt" >&2
  exit 1
fi
python -m ruff check .
python -m ruff format --check .

echo "== static analysis (tools/check) =="
# Repo-specific invariant gate: lock discipline, mutation-delta
# completeness, footprint coverage, config/SQL hygiene, identity-key and
# route-auth rules.  Stdlib-only, so it can never be skipped for a
# missing dependency.  The JSON report is uploaded as a CI artifact.
python -m tools.check src --json CHECK_report.json

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== service example smoke =="
# The documented example end to end, in-process and over HTTP, so it
# cannot drift from the /v1/ wire shape.
python examples/service_api.py

echo "== shared-scan benchmark gate =="
python benchmarks/bench_shared_scan.py --quick --out BENCH_shared_scan.json

echo "== sql-scan benchmark gate =="
python benchmarks/bench_sql_scan.py --quick --out BENCH_sql_scan.json

echo "== service benchmark gate =="
python benchmarks/bench_service.py --quick --out BENCH_service.json

echo "== incremental benchmark gate =="
python benchmarks/bench_incremental.py --quick --out BENCH_incremental.json

echo "== load benchmark gate =="
# End-to-end over real HTTP: scenario matrix latency/fairness trajectory,
# plus hard correctness gates (saturation -> 429 + Retry-After -> drain ->
# bit-identical results; store eviction under pressure).  The run also
# scrapes the server's /metrics at the end and cross-checks it against
# the client-observed latency histogram (same fixed buckets).
python benchmarks/bench_load.py --quick --out BENCH_load.json \
  --metrics-out METRICS_snapshot.txt

echo "== metrics snapshot gate =="
# The scraped exposition must be non-empty and parseable; a broken
# /metrics pipeline fails CI even if every latency gate passed.
python -m repro.service.metrics METRICS_snapshot.txt
