"""Seed-swap check of the traced run.

Runs ``run.py --trace 1`` on each workload with two seeds and checks that
both seeds fail no op and rank the layers the same way.  The ranking
covers the per-op time metrics that take at least 5% of the summed layer
time under either seed; two layers count as swapped only when each seed
puts a different one ahead by more than 15%, so near-ties do not flip
the verdict.  Exits 0 when every workload passes::

    python3 perfbench/seedswap.py --seeds 11 12 --seconds 28
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("print_wide", "edit_read", "dashboard_read")

#: Per-op time metrics that partition an op between layers.
LAYER_TIMES = (
    "metadata.ms", "plan.ms", "compile.ms", "score.ms", "pass.ms",
    "execute.ms", "vegalite.ms", "json_safe.ms", "serialize.ms",
    "encode.ms", "store.put_ms", "store.get_ms", "rpc.worker_ms",
    "rpc.transport_ms", "http.self_ms", "render.ms", "unattributed.ms",
)
SIGNIFICANT = 0.05
NEAR_TIE = 1.15


def traced(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        check=True, capture_output=True, text=True, cwd=HERE.parent,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def times(result: dict) -> dict[str, float]:
    return {name: result["metrics"][name]["value"] for name in LAYER_TIMES}


def swapped(a: dict[str, float], b: dict[str, float]) -> list[tuple[str, str]]:
    """Pairs of significant layers that the two seeds order differently."""
    layers = [
        name for name in LAYER_TIMES
        if any(t[name] >= SIGNIFICANT * sum(t.values()) for t in (a, b))
    ]
    out = []
    for x, y in itertools.combinations(layers, 2):
        a_x_first = a[x] > NEAR_TIE * a[y]
        a_y_first = a[y] > NEAR_TIE * a[x]
        b_x_first = b[x] > NEAR_TIE * b[y]
        b_y_first = b[y] > NEAR_TIE * b[x]
        if (a_x_first and b_y_first) or (a_y_first and b_x_first):
            out.append((x, y))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=(11, 12))
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or WORKLOADS:
        first, second = (traced(workload, s, args.seconds) for s in args.seeds)
        a, b = times(first), times(second)
        ranking = sorted(a, key=a.get, reverse=True)
        pairs = swapped(a, b)
        failed = (first["failed"], second["failed"])
        passed = failed == (0, 0) and not pairs
        ok = ok and passed
        print(f"{workload}: failed {failed}, ranking {ranking[:5]}, "
              f"swapped {pairs} -> {'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
