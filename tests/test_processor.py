"""Integration tests for the MCD processor simulator."""

import dataclasses
import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import RunResult
from repro.core import (
    AdaptiveConfigIndices,
    AdaptiveControlParams,
    Domain,
    MCDProcessor,
    SimulationStalled,
    adaptive_mcd_spec,
    base_adaptive_spec,
    best_overall_synchronous_spec,
)
from repro.engine import SimulationJob, SpecKind, TraceOptions, run_job
from repro.isa import Instruction, OpClass
from repro.timing.tables import ADAPTIVE_DCACHE_CONFIGS, ADAPTIVE_ICACHE_CONFIGS
from repro.workloads import SyntheticTraceGenerator, WorkloadProfile


def run_machine(spec, profile, *, window=1500, warmup=1500, phase_adaptive=False,
                control=None, trace_seed=11):
    processor = MCDProcessor(spec, phase_adaptive=phase_adaptive, control=control)
    trace = SyntheticTraceGenerator(profile, seed=trace_seed)
    return processor.run(
        trace.instructions(),
        max_instructions=window,
        warmup_instructions=warmup,
        workload_name=profile.name,
    )


class TestBasicExecution:
    def test_synchronous_run_commits_requested_instructions(self, tiny_profile):
        result = run_machine(best_overall_synchronous_spec(), tiny_profile)
        assert result.committed_instructions >= 1500
        assert result.execution_time_ps > 0
        assert result.front_end_ipc > 0.2

    def test_adaptive_run_commits_requested_instructions(self, tiny_profile):
        result = run_machine(base_adaptive_spec(use_b_partitions=False), tiny_profile)
        assert result.committed_instructions >= 1500
        assert result.execution_time_ps > 0

    def test_finite_trace_drains_cleanly(self, tiny_profile):
        spec = best_overall_synchronous_spec()
        processor = MCDProcessor(spec)
        trace = SyntheticTraceGenerator(tiny_profile, seed=1).generate(400)
        result = processor.run(iter(trace), max_instructions=10_000)
        assert 0 < result.committed_instructions <= 400

    def test_all_domains_tick(self, tiny_profile):
        result = run_machine(base_adaptive_spec(use_b_partitions=False), tiny_profile)
        for domain in ("front_end", "integer", "floating_point", "load_store"):
            assert result.domain_cycles[domain] > 0

    def test_statistics_are_consistent(self, tiny_profile):
        result = run_machine(best_overall_synchronous_spec(), tiny_profile)
        assert result.branch_mispredictions <= result.branch_predictions
        assert result.l1d_misses <= result.loads + result.stores
        assert result.memory_accesses <= result.l2_misses + result.icache_misses + 5

    def test_deterministic_given_seeds(self, tiny_profile):
        first = run_machine(best_overall_synchronous_spec(), tiny_profile)
        second = run_machine(best_overall_synchronous_spec(), tiny_profile)
        assert first.execution_time_ps == second.execution_time_ps

    def test_synchronous_machine_has_no_sync_penalties(self, tiny_profile):
        result = run_machine(best_overall_synchronous_spec(), tiny_profile)
        assert result.sync_transfers == 0
        assert result.sync_penalties == 0

    def test_mcd_machine_records_sync_activity(self, tiny_profile):
        result = run_machine(base_adaptive_spec(use_b_partitions=False), tiny_profile)
        assert result.sync_transfers > 0

    def test_invalid_arguments(self, tiny_profile):
        with pytest.raises(ValueError):
            MCDProcessor(best_overall_synchronous_spec(), phase_adaptive=True)
        processor = MCDProcessor(best_overall_synchronous_spec())
        with pytest.raises(ValueError):
            processor.run(iter(()), max_instructions=0)


class TestFrequencyComplexityTradeoffs:
    def test_memory_bound_workload_gains_from_larger_caches(self, memory_bound_profile):
        """The core tradeoff of the paper: for a memory-bound workload, a
        larger (slower) D/L2 configuration beats the smallest one."""
        small = run_machine(
            adaptive_mcd_spec(AdaptiveConfigIndices(dcache_index=0), use_b_partitions=False),
            memory_bound_profile, window=4000, warmup=60_000,
        )
        large = run_machine(
            adaptive_mcd_spec(AdaptiveConfigIndices(dcache_index=3), use_b_partitions=False),
            memory_bound_profile, window=4000, warmup=60_000,
        )
        assert large.execution_time_ps < small.execution_time_ps
        assert large.l1d_misses < small.l1d_misses

    def test_small_workload_prefers_small_fast_caches(self, tiny_profile):
        small = run_machine(
            adaptive_mcd_spec(AdaptiveConfigIndices(dcache_index=0), use_b_partitions=False),
            tiny_profile, window=2500,
        )
        large = run_machine(
            adaptive_mcd_spec(AdaptiveConfigIndices(dcache_index=3), use_b_partitions=False),
            tiny_profile, window=2500,
        )
        assert small.execution_time_ps < large.execution_time_ps

    def test_large_code_footprint_gains_from_larger_icache(self):
        profile = WorkloadProfile(
            name="icache-bound", suite="test",
            code_footprint_kb=80.0, inner_window_kb=48.0,
            data_footprint_kb=32.0, hot_data_kb=8.0,
            simulation_window=2_500,
        )
        small = run_machine(
            adaptive_mcd_spec(AdaptiveConfigIndices(icache_index=0), use_b_partitions=False),
            profile, window=2500, warmup=25_000,
        )
        large = run_machine(
            adaptive_mcd_spec(AdaptiveConfigIndices(icache_index=3), use_b_partitions=False),
            profile, window=2500, warmup=25_000,
        )
        assert large.icache_misses < small.icache_misses
        assert large.execution_time_ps < small.execution_time_ps

    def test_mispredict_penalty_difference_costs_time(self, tiny_profile):
        spec = adaptive_mcd_spec(AdaptiveConfigIndices(), use_b_partitions=False)
        cheap = dataclasses.replace(
            spec, mispredict_front_end_cycles=9, mispredict_integer_cycles=7
        )
        expensive = dataclasses.replace(
            spec, mispredict_front_end_cycles=14, mispredict_integer_cycles=13
        )
        fast = run_machine(cheap, tiny_profile, window=2500)
        slow = run_machine(expensive, tiny_profile, window=2500)
        assert fast.execution_time_ps <= slow.execution_time_ps

    def test_disabling_sync_model_speeds_up_mcd(self, tiny_profile):
        spec = adaptive_mcd_spec(AdaptiveConfigIndices(), use_b_partitions=False)
        nosync = dataclasses.replace(spec, inter_domain_sync=False)
        with_sync = run_machine(spec, tiny_profile, window=2500)
        without_sync = run_machine(nosync, tiny_profile, window=2500)
        # The paper reports the synchronisation overhead averages below ~3%;
        # allow a generous bound (and a little noise in the other direction,
        # since removing synchronisation changes event interleaving).
        overhead = with_sync.execution_time_ps / without_sync.execution_time_ps - 1
        assert -0.03 < overhead < 0.10


class TestPhaseAdaptiveExecution:
    def control(self, window=2000):
        return AdaptiveControlParams(
            interval_instructions=max(500, window // 8), pll_interval_scaled=True
        )

    def test_phase_adaptive_runs_and_records_decisions(self, tiny_profile):
        result = run_machine(
            base_adaptive_spec(), tiny_profile, window=3000,
            phase_adaptive=True, control=self.control(3000),
        )
        assert result.committed_instructions >= 3000
        assert isinstance(result, RunResult)
        # Each interval records the chosen configuration (changed or not).
        assert result.configuration_changes

    def test_phase_adaptive_upsizes_caches_for_memory_bound_code(self):
        from repro.analysis.sweep import run_phase_adaptive, run_program_adaptive
        from repro.workloads import get_workload

        profile = get_workload("em3d")
        phase = run_phase_adaptive(profile, window=12_000)
        fixed_base = run_program_adaptive(
            profile, AdaptiveConfigIndices(), window=12_000
        )
        dcache_choices = {
            change.configuration
            for change in phase.configuration_changes
            if change.structure == "dcache"
        }
        # The controller must react to the memory-bound behaviour: either it
        # upsizes the D/L2 pair or (at minimum) the run is no slower than the
        # fixed base configuration despite controller overheads.
        assert (
            any(name != "32k1W/256k1W" for name in dcache_choices)
            or phase.execution_time_ps <= fixed_base.execution_time_ps
        )

    def test_phase_adaptive_keeps_small_caches_for_small_working_set(self, tiny_profile):
        result = run_machine(
            base_adaptive_spec(), tiny_profile, window=4000,
            phase_adaptive=True, control=self.control(4000),
        )
        final_dcache = [
            change.configuration
            for change in result.configuration_changes
            if change.structure == "dcache"
        ]
        assert final_dcache[-1] == "32k1W/256k1W"

    def test_queue_controller_reacts_to_high_ilp_phase(self):
        profile = WorkloadProfile(
            name="ilp-phase", suite="test",
            mean_dependence_distance=70.0, far_dependence_fraction=0.4,
            data_footprint_kb=32.0, hot_data_kb=8.0,
            simulation_window=6000,
        )
        processor = MCDProcessor(
            base_adaptive_spec(), phase_adaptive=True, control=self.control(6000)
        )
        trace = SyntheticTraceGenerator(profile, seed=11)
        processor.run(
            trace.instructions(), max_instructions=6000,
            warmup_instructions=3000, workload_name=profile.name,
        )
        controller = processor._int_queue_controller
        assert controller is not None and controller.decisions
        # The ILP tracker must recognise the abundant parallelism: at least
        # some windows should score a deeper queue above the 16-entry one.
        assert any(
            max(d.scores, key=d.scores.get) > 16 for d in controller.decisions
        )


class NeverCommits(MCDProcessor):
    """A deliberately broken pipeline: the commit stage never retires."""

    def _commit(self, now, fe_clock):
        pass


class TestNoProgressGuard:
    def stalled(self, profile, monkeypatch) -> tuple[MCDProcessor, SimulationStalled]:
        monkeypatch.setattr("repro.core.processor._DEADLOCK_LIMIT", 2_000)
        processor = NeverCommits(best_overall_synchronous_spec())
        trace = SyntheticTraceGenerator(profile, seed=11)
        with pytest.raises(SimulationStalled) as caught:
            processor.run(trace.instructions(), max_instructions=500)
        return processor, caught.value

    def test_stall_raises_with_a_pipeline_snapshot(self, tiny_profile, monkeypatch):
        processor, error = self.stalled(tiny_profile, monkeypatch)
        assert isinstance(error, RuntimeError)
        assert error.iterations == 2_000
        snapshot = error.snapshot
        assert snapshot.committed == 0
        head = processor.rob.head
        assert head is not None and head.completion_time is not None
        assert snapshot.rob_head == (head.seq, head.completion_time)
        # Nothing retires, so the registers run out, dispatch stops and the
        # fetch queue backs up.
        assert snapshot.occupancy["rob"] == processor.rob.occupancy > 0
        fetch_queue = processor.frontend.fetch_queue
        assert snapshot.occupancy["fetch_queue"] == fetch_queue.capacity
        assert snapshot.occupancy["lsq"] == processor.lsq.occupancy
        assert snapshot.pending_event_times == ()
        assert snapshot.clocks == {
            domain.value: (clock.next_edge, clock.cycle_count)
            for domain, clock in processor.clocks.items()
        }
        assert set(snapshot.clocks) == {domain.value for domain in Domain}

    def test_stall_message_spells_out_the_snapshot(self, tiny_profile, monkeypatch):
        processor, error = self.stalled(tiny_profile, monkeypatch)
        message = str(error)
        assert "no forward progress for 2000 main-loop iterations" in message
        assert f"ROB head: seq {error.snapshot.rob_head[0]}" in message
        assert f"rob={processor.rob.occupancy}," in message
        assert "front_end next_edge=" in message

    def test_stall_error_survives_pickling(self, tiny_profile, monkeypatch):
        """Worker processes send the error back to the parent by pickle."""
        _, error = self.stalled(tiny_profile, monkeypatch)
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is SimulationStalled
        assert copy.snapshot == error.snapshot
        assert str(copy) == str(error)


class TestNoReferenceCycle:
    """A finished processor is freed by refcounting, not the cyclic GC.

    Every job builds a processor holding full-size caches and a DynInst
    pool; a reference cycle through it would keep all of that alive until
    the next cyclic collection.
    """

    @staticmethod
    def run_tracked(monkeypatch, base, job):
        """Run *job* through ``run_job`` with the cyclic GC off.

        Returns the result (``None`` if the run stalled) and whatever the
        weak reference to the job's processor still points at.
        """
        built = []

        class Tracked(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(weakref.ref(self))

        monkeypatch.setattr("repro.engine.runner.MCDProcessor", Tracked)
        result = None
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            try:
                result = run_job(job)
            except SimulationStalled:
                pass
            (processor,) = built
            return result, processor()
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
    def test_finished_processor_needs_no_cyclic_gc(
        self, tiny_profile, monkeypatch, tmp_path, traced
    ):
        # Eager controllers with a long PLL lock: reconfigurations are still
        # pending when the window ends, so the scheduled events are covered.
        job = SimulationJob(
            profile=tiny_profile,
            phase_adaptive=True,
            window=1500,
            warmup=1500,
            control_overrides={
                "interval_instructions": 100,
                "cache_hysteresis": 0.0,
                "queue_hysteresis": 0.0,
                "queue_consecutive_decisions": 1,
                "pll_interval_scaled": False,
            },
            trace=TraceOptions(str(tmp_path / "run.jsonl")) if traced else None,
        )
        result, processor = self.run_tracked(monkeypatch, MCDProcessor, job)
        assert result.configuration_changes
        assert processor is None

    def test_stalled_processor_needs_no_cyclic_gc(self, tiny_profile, monkeypatch):
        monkeypatch.setattr("repro.core.processor._DEADLOCK_LIMIT", 2_000)
        job = SimulationJob(
            profile=tiny_profile, spec_kind=SpecKind.BEST_SYNCHRONOUS, window=500
        )
        result, processor = self.run_tracked(monkeypatch, NeverCommits, job)
        assert result is None
        assert processor is None


class WarmOnly(MCDProcessor):
    """Stops after warm-up, leaving the caches as warm-up made them."""

    def _main_loop(self, max_instructions):
        pass

    def _build_result(self, workload_name):
        return None


class TimedPathWarmUp(WarmOnly):
    """The reference: warm-up through the full timed access paths."""

    def _warm_up(self, count):
        frontend = self.frontend
        period = self._ls_clock.period_ps
        for _ in range(count):
            instruction = frontend.take_instruction()
            frontend.warm(instruction)
            if instruction.is_memory_op:
                self.hierarchy.access_data(
                    instruction.address,
                    is_store=instruction.is_store,
                    now_ps=0,
                    period_ps=period,
                )


def cache_contents(cache):
    """The tags of every non-empty set in MRU order, by set index."""
    return {
        index: mru_set.tags_in_mru_order()
        for index, mru_set in enumerate(cache._sets)
        if mru_set is not None and mru_set.occupancy
    }


# Block numbers that all map to a handful of sets in every cache (4,096 is
# the largest set count and a multiple of every other), with more tags per
# set than the 8 ways, so the streams force A/B hits, misses and evictions.
_conflicting_addresses = st.builds(
    lambda set_, tag, offset: ((tag * 4096 + set_) * 64 + offset),
    st.integers(0, 3),
    st.integers(0, 11),
    st.integers(0, 63),
)
_instructions = st.lists(
    st.tuples(
        _conflicting_addresses,
        st.sampled_from([OpClass.INT_ALU, OpClass.LOAD, OpClass.STORE]),
        _conflicting_addresses,
    ).map(
        lambda row: Instruction(
            pc=row[0] & ~3,
            op=row[1],
            address=row[2] if row[1] is not OpClass.INT_ALU else None,
        )
    ),
    min_size=1,
    max_size=120,
)


class TestWarmUp:
    @given(
        instructions=_instructions,
        dcache_index=st.sampled_from(range(len(ADAPTIVE_DCACHE_CONFIGS))),
        icache_index=st.sampled_from(range(len(ADAPTIVE_ICACHE_CONFIGS))),
        b_enabled=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_mru_only_warm_up_matches_the_timed_access_paths(
        self, instructions, dcache_index, icache_index, b_enabled
    ):
        spec = adaptive_mcd_spec(
            AdaptiveConfigIndices(icache_index=icache_index, dcache_index=dcache_index),
            use_b_partitions=b_enabled,
        )
        warmed = []
        for cls in (WarmOnly, TimedPathWarmUp):
            processor = cls(spec)
            processor.run(
                instructions,
                max_instructions=1,
                warmup_instructions=len(instructions),
            )
            warmed.append(processor)
        fast, reference = warmed
        for caches in (
            lambda p: p.hierarchy.l1d,
            lambda p: p.hierarchy.l2,
            lambda p: p.frontend.icache,
        ):
            assert cache_contents(caches(fast)) == cache_contents(caches(reference))
