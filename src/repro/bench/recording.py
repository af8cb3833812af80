"""Persistence of benchmark history: ``BENCH_<suite>.json`` files.

Each file maps experiment names to entry lists (oldest first, bounded by
:data:`BENCH_HISTORY_LIMIT`).  The sweep suite keeps using the historical
``BENCH_sweep.json`` name so the performance trajectory started by earlier
PRs continues in one place.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.artifacts import write_text_atomic
from repro.bench.schema import BenchEntry

#: Recorded entries kept per experiment (oldest dropped first).
BENCH_HISTORY_LIMIT = 50

#: Suites whose history rides in another suite's file.  The sensitivity,
#: energy and scenarios suites record into the historical ``BENCH_sweep.json``
#: trajectory (each under its own experiment key), keeping all sweep-layer
#: timings in one place.
SUITE_FILE_ALIASES = {"sensitivity": "sweep", "energy": "sweep", "scenarios": "sweep"}


def default_output_dir() -> Path:
    """The directory BENCH files live in: the enclosing repository root.

    Walks upward from the current directory looking for ``pyproject.toml``;
    falls back to the current directory (so the CLI still works from an
    installed package run outside the repo).  ``REPRO_BENCH_DIR`` overrides.
    """
    override = os.environ.get("REPRO_BENCH_DIR")
    if override:
        return Path(override)
    probe = Path.cwd().resolve()
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").exists():
            return candidate
    return probe


def bench_file_for_suite(suite: str, output_dir: Path | None = None) -> Path:
    """Path of the history file for *suite* (alias-aware)."""
    base = output_dir if output_dir is not None else default_output_dir()
    return base / f"BENCH_{SUITE_FILE_ALIASES.get(suite, suite)}.json"


def load_history(path: Path) -> dict[str, list[dict[str, Any]]]:
    """Load a BENCH file; tolerate absence and corruption (returns ``{}``)."""
    if not path.exists():
        return {}
    try:
        data = json.loads(path.read_text())
    except ValueError:
        return {}
    if not isinstance(data, dict):
        return {}
    return data


def append_entry(
    path: Path, entry: BenchEntry | dict[str, Any], *, limit: int = BENCH_HISTORY_LIMIT
) -> None:
    """Append *entry* under its suite name (atomically: a torn file loads as empty)."""
    payload = entry.to_dict() if isinstance(entry, BenchEntry) else dict(entry)
    data = load_history(path)
    history = data.setdefault(str(payload.get("suite", "default")), [])
    history.append(payload)
    del history[:-limit]
    write_text_atomic(path, json.dumps(data, indent=2) + "\n")
