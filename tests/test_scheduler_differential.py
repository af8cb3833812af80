"""Differential property test: next-event scheduler vs. per-edge reference.

Every generated scenario is simulated twice — once by
:class:`~repro.core.processor.MCDProcessor`, whose main loop jumps over
clock edges on which no domain can act, and once by
:class:`~per_edge_reference.PerEdgeReference`, which processes every edge —
and the two results must be bit-identical.  The scenarios are small
:class:`~repro.scenarios.spec.ScenarioSpec` phase programs: an archetype,
oscillated by one of the four schedule builders at a drawn amplitude, on a
drawn machine with or without clock jitter, a drawn synchronisation window
and the phase-adaptive controllers off, on, or on and eager to
reconfigure.

The tier-1 run uses the small deterministic ``scheduler-tier1`` hypothesis
profile registered in ``conftest.py``; CI runs this file again with
``--hypothesis-profile=scheduler-long``.  Shrunk counterexamples (found
against deliberately broken schedulers) and hand-picked corners are pinned
below with ``@example`` so they run on every invocation.
"""

from __future__ import annotations

from typing import Any

from hypothesis import example, given, settings, strategies as st

from per_edge_reference import PerEdgeReference, conservation_violations, simulate
from repro.analysis.digests import energy_digest, result_digest
from repro.engine import SimulationJob, SpecKind
from repro.scenarios.archetypes import ARCHETYPES, archetype_overrides
from repro.scenarios.spec import ScenarioSpec
from repro.workloads.phases import burst_schedule, ramp, square_wave, triangle

SCHEDULES = ("square_wave", "ramp", "triangle", "burst_schedule")


def oscillation(
    archetype: str, amplitude: float
) -> tuple[dict[str, Any], dict[str, Any], dict[str, Any]]:
    """(base overrides, low phase, high phase) for *archetype*.

    The high phase grows the hot data region towards the whole footprint
    and shortens the dependence distance, both by *amplitude* (0..1) of
    their full range, so every drawn amplitude yields a valid profile.
    """
    base = archetype_overrides(archetype)
    hot = base["hot_data_kb"]
    distance = base["mean_dependence_distance"]
    low = {"hot_data_kb": hot, "mean_dependence_distance": distance}
    high = {
        "hot_data_kb": hot + amplitude * (base["data_footprint_kb"] - hot),
        "mean_dependence_distance": max(1.0, distance * (1.0 - 0.75 * amplitude)),
    }
    return base, low, high


def scenario(
    archetype: str, schedule: str, amplitude: float, period: int, steps: int
) -> ScenarioSpec:
    """A phase program: *archetype* oscillated by *schedule*."""
    base, low, high = oscillation(archetype, amplitude)
    if schedule == "square_wave":
        phases = square_wave(low, high, period=period)
    elif schedule == "ramp":
        phases = ramp(low, high, steps=steps, total_length=period)
    elif schedule == "triangle":
        phases = triangle(low, high, steps=steps, period=period)
    else:
        phases = burst_schedule(
            low, high, quiet_length=period, burst_length=max(1, period // 4)
        )
    return ScenarioSpec(
        name=f"diff-{archetype}-{schedule}-{amplitude:g}-{period}-{steps}",
        family="differential",
        overrides=base,
        phases=phases,
    )


def scenario_job(
    archetype: str,
    schedule: str,
    amplitude: float,
    period: int,
    steps: int,
    machine: SpecKind,
    phase_adaptive: bool,
    jitter: float,
    sync_window_fraction: float | None,
    window: int,
    warmup: int,
    eager_controllers: bool = False,
) -> SimulationJob:
    """The job the drawn axes describe.

    *eager_controllers* (phase-adaptive runs only) drops both controllers'
    hysteresis, lets one decision resize a queue and shortens the PLL
    re-lock to 10-100 ns, so reconfigurations happen, and their pending
    frequency-change events fire, even in tiny windows.
    """
    spec = scenario(archetype, schedule, amplitude, period, steps)
    control_overrides = None
    if phase_adaptive and eager_controllers:
        control_overrides = {
            "cache_hysteresis": 0.0,
            "queue_hysteresis": 0.0,
            "queue_consecutive_decisions": 1,
            "pll_interval_scaled": False,
            "pll_min_us": 0.01,
            "pll_mean_us": 0.05,
            "pll_max_us": 0.1,
        }
    return SimulationJob(
        profile=spec.build_profile(),
        spec_kind=SpecKind.BASE_ADAPTIVE if phase_adaptive else machine,
        use_b_partitions=phase_adaptive,
        phase_adaptive=phase_adaptive,
        jitter_fraction=jitter,
        sync_window_fraction=sync_window_fraction,
        control_overrides=control_overrides,
        window=window,
        warmup=warmup,
    )


#: The drawn axes, one strategy per ``scenario_job`` argument.
JOB_AXES = {
    "archetype": st.sampled_from(sorted(ARCHETYPES)),
    "schedule": st.sampled_from(SCHEDULES),
    "amplitude": st.sampled_from((0.25, 0.5, 1.0)),
    "period": st.integers(min_value=40, max_value=400),
    "steps": st.integers(min_value=2, max_value=5),
    "machine": st.sampled_from((SpecKind.BEST_SYNCHRONOUS, SpecKind.ADAPTIVE)),
    "phase_adaptive": st.booleans(),
    "jitter": st.sampled_from((0.0, 0.05)),
    "sync_window_fraction": st.sampled_from((None, 0.0, 0.15, 0.6)),
    "window": st.integers(min_value=100, max_value=600),
    "warmup": st.integers(min_value=0, max_value=600),
    "eager_controllers": st.booleans(),
}


def differential_settings() -> settings:
    """``scheduler-long`` when CI selects it, the tier-1 profile otherwise."""
    if settings.get_current_profile_name() == "scheduler-long":
        return settings.get_profile("scheduler-long")
    return settings.get_profile("scheduler-tier1")


@differential_settings()
@given(**JOB_AXES)
# Shrunk counterexample of a scheduler that kept the issue-queue wake-up
# horizons after a load/store perform: consumers of the new completion
# slept through their wake-up edge.
@example(
    archetype="branchy",
    schedule="square_wave",
    amplitude=0.25,
    period=40,
    steps=2,
    machine=SpecKind.BEST_SYNCHRONOUS,
    phase_adaptive=False,
    jitter=0.0,
    sync_window_fraction=None,
    window=100,
    warmup=0,
    eager_controllers=False,
)
# Shrunk counterexample of a scheduler that dropped the sync penalties a
# waiting cross-domain ROB head records on the skipped front-end edges.
@example(
    archetype="branchy",
    schedule="square_wave",
    amplitude=0.25,
    period=40,
    steps=2,
    machine=SpecKind.ADAPTIVE,
    phase_adaptive=False,
    jitter=0.0,
    sync_window_fraction=None,
    window=100,
    warmup=0,
    eager_controllers=False,
)
# Corners: eager controllers (frequency changes firing mid-run), jitter and
# the widest sync window at once; and a cold (no warm-up) pointer chase on
# the synchronous machine.
@example(
    archetype="mixed",
    schedule="square_wave",
    amplitude=1.0,
    period=120,
    steps=2,
    machine=SpecKind.ADAPTIVE,
    phase_adaptive=True,
    jitter=0.05,
    sync_window_fraction=0.6,
    window=600,
    warmup=300,
    eager_controllers=True,
)
@example(
    archetype="pointer_chasing",
    schedule="burst_schedule",
    amplitude=0.5,
    period=200,
    steps=3,
    machine=SpecKind.BEST_SYNCHRONOUS,
    phase_adaptive=False,
    jitter=0.0,
    sync_window_fraction=None,
    window=400,
    warmup=0,
    eager_controllers=False,
)
def test_scheduler_matches_per_edge_reference(**axes: Any) -> None:
    job = scenario_job(**axes)
    _, scheduled = simulate(job)
    _, reference = simulate(job, PerEdgeReference)

    assert scheduled == reference
    assert result_digest(scheduled) == result_digest(reference)
    assert energy_digest(scheduled) == energy_digest(reference)
    assert conservation_violations(scheduled, job.resolved_window()) == []
    # The reference really stepped every edge; the scheduler's skips are a
    # share of the edges both runs elapsed.
    assert reference.fast_forward_cycles == reference.horizon_skipped_edges == 0
    skipped = scheduled.fast_forward_cycles + scheduled.horizon_skipped_edges
    assert skipped <= sum(scheduled.domain_cycles.values())
