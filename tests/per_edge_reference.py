"""The per-edge reference the next-event scheduler is tested against.

:class:`PerEdgeReference` is :class:`~repro.core.processor.MCDProcessor`
with its scheduler hook turned into a no-op, so the main loop processes
every clock edge of every domain one at a time: the plain stepping the
scheduler's bulk skips must reproduce bit for bit.  It needs no constructor
option, and the simulator ships no second main loop.
"""

from __future__ import annotations

from repro.analysis.metrics import RunResult
from repro.core.processor import MCDProcessor
from repro.engine import SimulationJob, make_trace
from repro.obs.recorder import TraceRecorder

__all__ = ["PerEdgeReference", "conservation_violations", "simulate"]


class PerEdgeReference(MCDProcessor):
    """The simulator with edge skipping switched off."""

    def _skip_to_next_event(self) -> None:
        """Skip nothing: every edge goes through the main loop."""


def simulate(
    job: SimulationJob,
    processor_class: type[MCDProcessor] = MCDProcessor,
    *,
    recorder: TraceRecorder | None = None,
) -> tuple[MCDProcessor, RunResult]:
    """Run *job* the way ``run_job`` does, on *processor_class*."""
    processor = processor_class(
        job.build_spec(),
        control=job.resolved_control(),
        phase_adaptive=job.phase_adaptive,
        seed=job.seed,
        jitter_fraction=job.jitter_fraction,
        sync_window_fraction=job.resolved_sync_window_fraction(),
        recorder=recorder,
    )
    result = processor.run(
        make_trace(job.profile, seed=job.trace_seed),
        max_instructions=job.resolved_window(),
        warmup_instructions=job.resolved_warmup(),
        workload_name=job.profile.name,
    )
    return processor, result


def conservation_violations(result: RunResult, window: int) -> list[str]:
    """The four conservation invariants the benchmark checks on every run."""
    broken = []
    if result.loads + result.stores != (
        result.l1d_hits_a + result.l1d_hits_b + result.l1d_misses
    ):
        broken.append("loads + stores != L1D hits + misses")
    if result.sync_penalties > result.sync_transfers:
        broken.append("sync penalties > sync transfers")
    if result.branch_mispredictions > result.branch_predictions:
        broken.append("branch mispredictions > predictions")
    if result.committed_instructions < window:
        broken.append("committed instructions < window")
    return broken
