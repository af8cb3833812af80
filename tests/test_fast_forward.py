"""Behaviour-preservation tests for the next-event scheduler.

The scheduler (``MCDProcessor._skip_to_next_event``) must be purely a
wall-clock optimisation: every run is bit-identical to the per-edge
reference (:class:`~per_edge_reference.PerEdgeReference`, the same simulator
with the scheduler hook turned into a no-op), on every machine style, with
the controllers on or off and under clock jitter.  Generated scenarios are
covered by ``test_scheduler_differential.py``; this file pins hand-picked
jobs, the skip accounting and the clock's bulk-skip primitive.
"""

from __future__ import annotations

from per_edge_reference import PerEdgeReference, simulate
from repro.clocks.clock import DomainClock
from repro.core.domains import Domain
from repro.core.processor import MCDProcessor
from repro.engine import SimulationJob, SpecKind, make_trace, run_job
from repro.obs.events import FAST_FORWARD, HORIZON_SKIP
from repro.obs.recorder import RingBufferSink, TraceRecorder
from repro.workloads import get_workload


def gcc_job(**kwargs) -> SimulationJob:
    fields = {"spec_kind": SpecKind.BEST_SYNCHRONOUS, "window": 2_000, "warmup": 1_500}
    fields.update(kwargs)
    return SimulationJob(profile=get_workload("gcc"), **fields)


def phase_adaptive_job(workload: str = "gcc", **kwargs) -> SimulationJob:
    return SimulationJob(
        profile=get_workload(workload),
        spec_kind=SpecKind.BASE_ADAPTIVE,
        use_b_partitions=True,
        phase_adaptive=True,
        window=1_500,
        warmup=1_000,
        **kwargs,
    )


def assert_matches_reference(job: SimulationJob) -> MCDProcessor:
    """Run *job* both ways, check identity, return the scheduled processor."""
    processor, scheduled = simulate(job)
    reference_processor, reference = simulate(job, PerEdgeReference)
    assert scheduled == reference
    assert reference_processor.fast_forward_cycles == 0
    assert reference_processor.horizon_skipped_edges == 0
    return processor


class TestSchedulerMatchesReference:
    def test_fig6_workload_identical_and_both_skip_kinds_fire(self):
        """Golden-value check: a fixed-seed fig6 workload is bit-identical,
        and the comparison means something because edges were skipped both
        with nothing in flight and with work in flight."""
        processor = assert_matches_reference(gcc_job())
        assert processor.fast_forward_cycles > 0
        assert processor.steady_stretches_skipped == processor.fast_forward_invocations > 0
        assert processor.horizon_skipped_edges > 0

    def test_program_adaptive_identical(self):
        assert_matches_reference(gcc_job(spec_kind=SpecKind.ADAPTIVE))

    def test_phase_adaptive_identical(self):
        assert_matches_reference(phase_adaptive_job("em3d"))

    def test_engine_path_uses_the_scheduler(self):
        job = gcc_job(window=1_200, warmup=800)
        _, direct = simulate(job)
        assert run_job(job) == direct

    def test_counters_stay_out_of_result_equality(self):
        job = gcc_job(spec_kind=SpecKind.ADAPTIVE)
        _, scheduled = simulate(job)
        _, reference = simulate(job, PerEdgeReference)
        assert scheduled.horizon_skipped_edges > 0
        assert reference.horizon_skipped_edges == 0
        # Equal despite differing observability counters (compare=False).
        assert scheduled == reference

    def test_trace_events_match_apart_from_skip_events(self):
        """Sync penalties of skipped edges are emitted in bulk, in order."""

        def events(processor_class):
            sink = RingBufferSink(1_000_000)
            recorder = TraceRecorder([sink])
            simulate(phase_adaptive_job(jitter_fraction=0.05), processor_class, recorder=recorder)
            return sink.events

        scheduled = events(MCDProcessor)
        reference = events(PerEdgeReference)
        skip_types = {FAST_FORWARD, HORIZON_SKIP}
        assert {event.type for event in scheduled} & skip_types == skip_types
        assert not {event.type for event in reference} & skip_types
        assert [e for e in scheduled if e.type not in skip_types] == reference


class TestJitteredScheduling:
    """Under jitter the scheduler must stay a pure wall-clock optimisation,
    exactly as on jitter-free clocks."""

    def test_jittered_run_identical(self):
        processor = assert_matches_reference(gcc_job(jitter_fraction=0.05))
        assert processor.fast_forward_cycles > 0
        assert processor.horizon_skipped_edges > 0

    def test_jittered_phase_adaptive_identical(self):
        assert_matches_reference(phase_adaptive_job(jitter_fraction=0.05))

    def test_engine_path_runs_jittered_jobs_through_the_scheduler(self):
        job = gcc_job(window=1_200, warmup=800, jitter_fraction=0.05)
        _, direct = simulate(job)
        assert run_job(job) == direct


def drained_processor(**kwargs) -> MCDProcessor:
    """A processor forced into a quiescent state: nothing in flight.

    A short run builds the front end and realistic clock state; the in-flight
    machinery is then explicitly drained, so only the fetch stall horizon and
    any pending event bound the next skip.
    """
    processor, _ = simulate(gcc_job(window=400, warmup=200, **kwargs))
    assert processor.frontend is not None
    processor.rob.reset()
    processor.frontend.fetch_queue.clear()
    processor.frontend._waiting_branch = None
    processor.lsq.reset()
    processor.int_queue.reset()
    processor.fp_queue.reset()
    processor._pending_events.clear()
    processor._changes_in_progress.clear()
    processor._reset_fast_path_counters()
    return processor


class TestSkipBounds:
    def test_skips_idle_edges_up_to_the_stall_horizon(self):
        processor = drained_processor()
        fe_clock = processor.clocks[Domain.FRONT_END]
        processor.frontend._stall_until = fe_clock.next_edge + 50 * fe_clock.period_ps
        stalls_before = processor.frontend.stats.fetch_stall_cycles
        horizon = fe_clock.edge_at_or_after(processor.frontend._stall_until)

        processor._skip_to_next_event()

        assert processor.fast_forward_invocations == 1
        assert processor.steady_stretches_skipped == 1
        assert processor.horizon_skipped_edges == 0
        # Every domain lands on its first edge at or after the horizon, and
        # the front end resumes exactly there.
        assert fe_clock.next_edge == horizon
        for clock in processor.clocks.values():
            assert clock.next_edge >= horizon
        # Skipped front-end edges are accounted as fetch stalls, as the
        # one-cycle-at-a-time path would have counted them.
        skipped_fe = processor.frontend.stats.fetch_stall_cycles - stalls_before
        assert skipped_fe == 50
        assert processor.fast_forward_cycles >= skipped_fe

    def test_pending_reconfiguration_event_caps_the_skip(self):
        processor = drained_processor()
        fe_clock = processor.clocks[Domain.FRONT_END]
        period = fe_clock.period_ps
        processor.frontend._stall_until = fe_clock.next_edge + 100 * period
        event_time = fe_clock.next_edge + 10 * period
        fired = []
        processor._pending_events.append((event_time, lambda: fired.append(True)))

        processor._skip_to_next_event()

        # Edges before the event were skipped, none at or past it, and the
        # event is left for the main loop to fire.
        assert processor.fast_forward_cycles > 0
        for clock in processor.clocks.values():
            assert clock.next_edge >= event_time
            assert clock.next_edge - clock.period_ps < event_time
        assert not fired
        assert processor._pending_events

    def test_skips_under_clock_jitter(self):
        """The index-addressable jitter stream keeps bulk skips exact."""
        processor = drained_processor(jitter_fraction=0.1)
        fe_clock = processor.clocks[Domain.FRONT_END]
        processor.frontend._stall_until = fe_clock.next_edge + 50 * fe_clock.period_ps
        expected = fe_clock.edge_at_or_after(processor.frontend._stall_until)

        processor._skip_to_next_event()

        assert processor.fast_forward_cycles > 0
        # A jittered clock bounds with the raw stall time, so the front end
        # resumes on its first edge at or after it.
        assert fe_clock.next_edge == expected

    def test_nothing_to_wait_for_skips_nothing(self):
        """With no bound at all (fetch waits on a branch that is not in
        flight) nothing is skipped; the no-progress guard reports it."""
        processor = drained_processor()
        processor.frontend._waiting_branch = object()
        before = [clock.next_edge for clock in processor.clocks.values()]

        processor._skip_to_next_event()

        assert [clock.next_edge for clock in processor.clocks.values()] == before
        assert processor.fast_forward_cycles == processor.horizon_skipped_edges == 0

    def test_skip_events_account_for_every_skipped_edge(self):
        sink = RingBufferSink(1_000_000)
        recorder = TraceRecorder([sink], event_types=[FAST_FORWARD, HORIZON_SKIP])
        _, result = simulate(gcc_job(), recorder=recorder)
        fast_forwards = [e for e in sink.events if e.type == FAST_FORWARD]
        horizon_skips = [e for e in sink.events if e.type == HORIZON_SKIP]
        assert len(fast_forwards) == result.fast_forward_invocations
        assert sum(e.data["edges"] for e in fast_forwards) == result.fast_forward_cycles
        assert all(e.data["stretches"] == 1 for e in fast_forwards)
        assert sum(e.data["edges"] for e in horizon_skips) == result.horizon_skipped_edges


class TestBulkEdgeSkip:
    def test_skip_edges_matches_individual_advances(self):
        bulk = DomainClock("test", 1.0)
        stepwise = DomainClock("test", 1.0)
        bulk.skip_edges(7)
        for _ in range(7):
            stepwise.advance()
        assert bulk.next_edge == stepwise.next_edge
        assert bulk.cycle_count == stepwise.cycle_count

    def test_skip_edges_matches_individual_advances_under_jitter(self):
        bulk = DomainClock("test", 1.0, jitter_fraction=0.2, seed=3)
        stepwise = DomainClock("test", 1.0, jitter_fraction=0.2, seed=3)
        bulk.skip_edges(7)
        for _ in range(7):
            stepwise.advance()
        assert bulk.next_edge == stepwise.next_edge
        assert bulk.cycle_count == stepwise.cycle_count

    def test_skip_edges_before_matches_individual_advances_under_jitter(self):
        bulk = DomainClock("test", 1.0, jitter_fraction=0.2, seed=3)
        stepwise = DomainClock("test", 1.0, jitter_fraction=0.2, seed=3)
        horizon = bulk.next_edge + 7_500
        count = bulk.skip_edges_before(horizon)
        advances = 0
        while stepwise.next_edge < horizon:
            stepwise.advance()
            advances += 1
        assert count == advances
        assert bulk.next_edge == stepwise.next_edge
        assert bulk.cycle_count == stepwise.cycle_count


class TestCounterHygiene:
    """Skip counters reset with the warm-up reset, so they describe the
    measured window even if the processor object arrives polluted."""

    def job(self) -> SimulationJob:
        return gcc_job(window=1_500, warmup=1_000)

    COUNTERS = (
        "fast_forward_invocations",
        "fast_forward_cycles",
        "steady_stretches_skipped",
        "horizon_skipped_edges",
    )

    def run_once(self, polluted: bool):
        job = self.job()
        processor = MCDProcessor(
            job.build_spec(),
            control=job.resolved_control(),
            seed=job.seed,
            sync_window_fraction=job.resolved_sync_window_fraction(),
        )
        if polluted:
            for name in self.COUNTERS:
                setattr(processor, name, 1_000_000)
        trace = make_trace(job.profile, seed=job.trace_seed)
        result = processor.run(
            trace.instructions(),
            max_instructions=job.resolved_window(),
            warmup_instructions=job.resolved_warmup(),
            workload_name=job.profile.name,
        )
        return processor, result

    def test_warm_up_reset_erases_pollution(self):
        _, clean = self.run_once(polluted=False)
        _, polluted = self.run_once(polluted=True)
        assert polluted == clean
        for name in self.COUNTERS:
            value = getattr(polluted, name)
            assert value == getattr(clean, name)
            assert value < 1_000_000

    def test_counters_describe_the_measured_window_only(self):
        processor, result = self.run_once(polluted=False)
        assert result.fast_forward_invocations == processor.fast_forward_invocations
        assert result.fast_forward_cycles == processor.fast_forward_cycles
        assert result.steady_stretches_skipped == processor.steady_stretches_skipped
        assert result.horizon_skipped_edges == processor.horizon_skipped_edges
        # Skips are a share of the measured window's edges.
        skipped = result.fast_forward_cycles + result.horizon_skipped_edges
        assert 0 < skipped < sum(result.domain_cycles.values())

