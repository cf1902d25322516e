"""Baseline handling shared by the ``bench_*.py`` perf gates.

Every gated bench ends the same way: ``--update-baseline`` records the
report as the committed baseline; otherwise the baseline is loaded and,
when it measured the same workload shape (the bench's ``keys``), its
trajectory gates apply.  A missing or differently shaped baseline is
refused for comparison and the bench gates on its absolute floors
instead.  The thresholds themselves live in each bench's ``gate``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Sequence


def load_baseline(path: Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def comparable(baseline: dict | None, report: dict, keys: Sequence[str]) -> bool:
    """Whether the baseline measured the same workload shape as ``report``."""
    return baseline is not None and all(
        baseline.get(key) == report[key] for key in keys
    )


def finish(
    report: dict,
    baseline_path: Path,
    keys: Sequence[str],
    gate: Callable[[dict, "dict | None"], list],
    update_baseline: bool = False,
) -> int:
    """Record or gate ``report``; returns the process exit code."""
    if update_baseline:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
        print(f"  wrote baseline {baseline_path}")
        return 0

    baseline = load_baseline(baseline_path)
    if not comparable(baseline, report, keys):
        print("  no comparable baseline; gating on absolute floors")
    failures = gate(report, baseline)
    for failure in failures:
        print(f"  GATE FAILED: {failure}")
    if not failures:
        print("  all gates passed")
    return 1 if failures else 0
