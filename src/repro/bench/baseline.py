"""Baseline comparison: detect wall-clock regressions beyond a tolerance.

The committed baseline (``benchmarks/baseline.json``) maps suite names to
benchmark entries recorded on a reference host.  ``compare_entries`` compares
a fresh entry against the baseline run-by-run:

* when the two environment fingerprints are comparable, raw ``seconds`` are
  compared;
* otherwise the calibration-normalised metric (``normalized``) is compared,
  which factors out most of the host-speed difference.

A run regresses when its metric exceeds the baseline's by more than
``tolerance`` (default 15 %).  Runs present on only one side are ignored —
adding a new benchmark must not fail the check retroactively.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.artifacts import write_text_atomic
from repro.bench.schema import BenchEntry

#: Default allowed slow-down before a run counts as a regression.
DEFAULT_TOLERANCE = 0.15


@dataclass(frozen=True, slots=True)
class Regression:
    """One benchmark run that slowed down beyond the tolerance."""

    suite: str
    run: str
    metric: str
    current: float
    reference: float
    tolerance: float

    @property
    def ratio(self) -> float:
        """How many times slower the current run is (1.0 = unchanged)."""
        if self.reference <= 0:
            return float("inf")
        return self.current / self.reference

    def describe(self) -> str:
        """Human-readable one-liner for CLI output."""
        return (
            f"{self.suite}/{self.run}: {self.metric} {self.current:.3f} vs "
            f"baseline {self.reference:.3f} ({(self.ratio - 1) * 100:+.1f}%, "
            f"tolerance {self.tolerance * 100:.0f}%)"
        )


def compare_entries(
    current: BenchEntry,
    reference: BenchEntry,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[Regression]:
    """Return the regressions of *current* relative to *reference*.

    Raises ``ValueError`` when the entries' parameters differ (comparing a
    quick run against a full baseline would be meaningless).
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    if current.parameters != reference.parameters:
        raise ValueError(
            "benchmark parameters differ from the baseline; "
            f"current={current.parameters!r} baseline={reference.parameters!r}"
        )
    comparable = current.environment.is_comparable_to(reference.environment)
    metric = "seconds" if comparable else "normalized"

    regressions: list[Regression] = []
    for run in current.runs:
        base_run = reference.run_named(run.name)
        if base_run is None:
            continue
        current_value = getattr(run, metric)
        reference_value = getattr(base_run, metric)
        if reference_value <= 0 or current_value <= 0:
            continue
        if current_value > reference_value * (1.0 + tolerance):
            regressions.append(
                Regression(
                    suite=current.suite,
                    run=run.name,
                    metric=metric,
                    current=current_value,
                    reference=reference_value,
                    tolerance=tolerance,
                )
            )
    return regressions


def load_baseline(path: Path) -> dict[str, BenchEntry]:
    """Load a committed baseline file mapping suite name -> entry."""
    if not path.exists():
        return {}
    data = json.loads(path.read_text())
    if not isinstance(data, dict):
        raise ValueError(f"baseline file {path} must contain a JSON object")
    return {suite: BenchEntry.from_dict(entry) for suite, entry in data.items()}


def save_baseline(path: Path, entries: dict[str, BenchEntry]) -> None:
    """Write *entries* as the committed baseline (sorted, stable layout)."""
    payload = {suite: entries[suite].to_dict() for suite in sorted(entries)}
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text_atomic(path, json.dumps(payload, indent=2) + "\n")
