"""The layers the benchmark traces, and the per-layer metrics it derives.

Each layer is a package of the simulator; its spans wrap that package's
public entry points (see README.md for the list and for which end-to-end
metric each layer should move).  ``obs``, ``checks`` and ``bench`` are not on
the measured path and are not traced.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.analysis import reporting, sweep
from repro.analysis.metrics import RunResult
from repro.clocks.clock import DomainClock
from repro.core.processor import MCDProcessor
from repro.energy import model as energy_model
from repro.engine import runner as engine_runner
from repro.engine.cache import ResultCache
from repro.engine.engine import ExperimentEngine
from repro.engine.job import SimulationJob
from repro.scenarios import campaign
from repro.scenarios.spec import ScenarioSpec
from repro.workloads import trace_cache

from perfbench.spans import SpanRecorder, SpanTotals

CLOCK_LOOKUPS = ("edge_at_or_after", "edges_before", "skip_edges_before")

#: Every per-layer metric with its unit, in report order.  The names match
#: ``per_layer`` in BENCHMARK.json.
PER_LAYER_UNITS: dict[str, str] = {
    "workloads.trace_compile_s": "s",
    "workloads.instructions_compiled": "count",
    "core.run_self_s": "s",
    "core.jobs_simulated": "count",
    "core.committed_kinst": "kinst",
    "core.edges_total": "count",
    "core.edges_skipped": "count",
    "core.edges_processed_per_inst": "edges/inst",
    "core.host_us_per_processed_edge": "us",
    "clocks.lookup_calls": "count",
    "clocks.lookup_s": "s",
    "caches.l1d_miss_rate": "ratio",
    "caches.l2_miss_rate": "ratio",
    "caches.icache_miss_rate": "ratio",
    "controllers.decisions": "count",
    "controllers.reconfigurations": "count",
    "engine.fingerprint_calls": "count",
    "engine.fingerprint_s": "s",
    "engine.cache_get_calls": "count",
    "engine.cache_get_s": "s",
    "engine.cache_put_calls": "count",
    "engine.cache_put_s": "s",
    "engine.cache_hit_ratio": "ratio",
    "engine.jobs_avoided_ratio": "ratio",
    "engine.run_all_self_s": "s",
    "engine.job_ms_p50": "ms",
    "engine.job_ms_p90": "ms",
    "analysis.self_s": "s",
    "analysis.jobs_per_comparison": "jobs",
    "analysis.program_improvement_pct": "%",
    "analysis.phase_improvement_pct": "%",
    "energy.price_s": "s",
    "scenarios.self_s": "s",
    "trace.overhead_pct": "%",
}


@dataclass(slots=True)
class Tallies:
    """Counts taken from the values wrapped calls return, while armed."""

    instructions_compiled: int = 0
    jobs_submitted: int = 0
    cache_hits: int = 0
    comparisons: int = 0
    # Rows already compiled per trace object.  The object is held so its id
    # cannot be reused by a later trace.
    compiled_rows: dict[int, tuple[Any, int]] = field(default_factory=dict)


def install(recorder: SpanRecorder) -> Tallies:
    """Wrap every layer's public entry points; return the tallies they feed."""
    tallies = Tallies()

    def count_compiled(args: tuple, length: int) -> None:
        trace = args[0]
        _, seen = tallies.compiled_rows.get(id(trace), (trace, 0))
        if length > seen:
            tallies.instructions_compiled += length - seen
            tallies.compiled_rows[id(trace)] = (trace, length)

    def count_submitted(args: tuple, results: list) -> None:
        tallies.jobs_submitted += len(results)

    def count_hit(args: tuple, result: Any) -> None:
        tallies.cache_hits += result is not None

    def count_comparisons(args: tuple, rows: list) -> None:
        tallies.comparisons += len(rows)

    recorder.wrap_function(trace_cache.cached_trace, "workloads.cached_trace")
    recorder.wrap_method(
        trace_cache.CompiledTrace, "ensure", "workloads.ensure", count_compiled
    )
    recorder.wrap_method(MCDProcessor, "run", "core.run")
    for attr in CLOCK_LOOKUPS:
        recorder.wrap_method(DomainClock, attr, f"clocks.{attr}")
    recorder.wrap_method(ExperimentEngine, "run_all", "engine.run_all", count_submitted)
    recorder.wrap_method(SimulationJob, "fingerprint", "engine.fingerprint")
    recorder.wrap_method(ResultCache, "get", "engine.cache_get", count_hit)
    recorder.wrap_method(ResultCache, "put", "engine.cache_put")
    recorder.wrap_function(engine_runner.run_job, "engine.run_job")
    recorder.wrap_function(
        sweep.compare_workloads, "analysis.compare_workloads", count_comparisons
    )
    recorder.wrap_function(reporting.energy_table, "energy.energy_table")
    recorder.wrap_method(
        sweep.WorkloadComparison, "energy_report_for", "energy.energy_report_for"
    )
    recorder.wrap_function(energy_model.energy_report, "energy.energy_report")
    recorder.wrap_function(campaign.run_campaign, "scenarios.run_campaign")
    recorder.wrap_method(ScenarioSpec, "build_profile", "scenarios.build_profile")
    return tallies


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (0 for no values)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(fraction * 100) - 1]


def _layer_self_s(totals: dict[str, SpanTotals], layer: str) -> float:
    return sum(t.self_s for name, t in totals.items() if name.startswith(layer + "."))


def edge_counts(results: Iterable[RunResult]) -> tuple[int, int, int]:
    """(committed instructions, clock edges elapsed, edges bulk-skipped)."""
    committed = total = skipped = 0
    for result in results:
        committed += result.committed_instructions
        total += sum(result.domain_cycles.values())
        skipped += result.fast_forward_cycles + result.horizon_skipped_edges
    return committed, total, skipped


def per_layer_metrics(
    recorder: SpanRecorder,
    totals: dict[str, SpanTotals],
    tallies: Tallies,
    simulated: Sequence[RunResult],
    improvements: Sequence[tuple[float, float]],
    overhead_pct: float,
) -> dict[str, float]:
    """Every per-layer metric, from the spans and the simulated results."""
    committed, edges_total, edges_skipped = edge_counts(simulated)
    processed = edges_total - edges_skipped
    core_self = _layer_self_s(totals, "core")
    clock_totals = [totals[f"clocks.{attr}"] for attr in CLOCK_LOOKUPS]
    l1d_accesses = sum(r.loads + r.stores for r in simulated)
    l2_accesses = sum(r.l2_hits_a + r.l2_hits_b + r.l2_misses for r in simulated)
    gets = totals["engine.cache_get"].calls
    jobs_ms = [seconds * 1000.0 for seconds in recorder.durations("engine.run_job")]
    return {
        "workloads.trace_compile_s": _layer_self_s(totals, "workloads"),
        "workloads.instructions_compiled": tallies.instructions_compiled,
        "core.run_self_s": core_self,
        "core.jobs_simulated": totals["core.run"].calls,
        "core.committed_kinst": committed / 1000.0,
        "core.edges_total": edges_total,
        "core.edges_skipped": edges_skipped,
        "core.edges_processed_per_inst": _ratio(processed, committed),
        "core.host_us_per_processed_edge": _ratio(core_self * 1e6, processed),
        "clocks.lookup_calls": sum(t.calls for t in clock_totals),
        "clocks.lookup_s": sum(t.self_s for t in clock_totals),
        "caches.l1d_miss_rate": _ratio(sum(r.l1d_misses for r in simulated), l1d_accesses),
        "caches.l2_miss_rate": _ratio(sum(r.l2_misses for r in simulated), l2_accesses),
        "caches.icache_miss_rate": _ratio(
            sum(r.icache_misses for r in simulated),
            sum(r.icache_accesses for r in simulated),
        ),
        "controllers.decisions": sum(len(r.configuration_changes) for r in simulated),
        "controllers.reconfigurations": sum(
            sum(campaign.count_reconfigurations(r).values()) for r in simulated
        ),
        "engine.fingerprint_calls": totals["engine.fingerprint"].calls,
        "engine.fingerprint_s": totals["engine.fingerprint"].self_s,
        "engine.cache_get_calls": gets,
        "engine.cache_get_s": totals["engine.cache_get"].self_s,
        "engine.cache_put_calls": totals["engine.cache_put"].calls,
        "engine.cache_put_s": totals["engine.cache_put"].self_s,
        "engine.cache_hit_ratio": _ratio(tallies.cache_hits, gets),
        "engine.jobs_avoided_ratio": _ratio(
            tallies.jobs_submitted - totals["engine.run_job"].calls, tallies.jobs_submitted
        ),
        "engine.run_all_self_s": totals["engine.run_all"].self_s
        + totals["engine.run_job"].self_s,
        "engine.job_ms_p50": _percentile(jobs_ms, 0.5),
        "engine.job_ms_p90": _percentile(jobs_ms, 0.9),
        "analysis.self_s": _layer_self_s(totals, "analysis"),
        "analysis.jobs_per_comparison": _ratio(tallies.jobs_submitted, tallies.comparisons),
        "analysis.program_improvement_pct": 100.0
        * _ratio(sum(p for p, _ in improvements), len(improvements)),
        "analysis.phase_improvement_pct": 100.0
        * _ratio(sum(q for _, q in improvements), len(improvements)),
        "energy.price_s": _layer_self_s(totals, "energy"),
        "scenarios.self_s": _layer_self_s(totals, "scenarios"),
        "trace.overhead_pct": overhead_pct,
    }
