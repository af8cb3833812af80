"""Workloads, timed loop, correctness checks and metrics of the benchmark.

A workload is a fixed amount of simulator work split into *units* (one
Figure 6 row, one campaign resume).  A run sets
the workload up once, then times units in rotation until ``seconds`` have
passed and at least one full rotation is done.  ``wall_s`` is the time of the
whole fixed work, each of its parts taken at its fastest (``fastest_parts``).

Every ``RunResult`` the engine delivers is checked (see ``check_unit``); a
result that breaks a check counts as failed.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Sequence

from repro.analysis import reporting, sweep
from repro.analysis.digests import energy_digest, result_digest
from repro.analysis.metrics import RunResult
from repro.bench.environment import EnvironmentFingerprint
from repro.engine import runner as engine_runner
from repro.engine.cache import ResultCache
from repro.engine.engine import ExperimentEngine
from repro.engine.executors import SerialExecutor
from repro.engine.job import DEFAULT_TRACE_SEED, SimulationJob
from repro.scenarios import campaign
from repro.scenarios.cli import QUICK_WARMUP, QUICK_WINDOW
from repro.scenarios.library import get_scenario
from repro.workloads import get_workload
from repro.workloads.trace_cache import clear_trace_cache

from perfbench import layers
from perfbench.spans import SpanRecorder, SpanTotals

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS_PATH = BENCH_DIR / "pins.json"
#: Scratch space inside the checkout for the campaign's on-disk store.
WORK_DIR = ROOT / ".perfbench-work"
#: Set-ups per run: this process plus fresh child processes.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_kinst_per_s": "kinst/s",
    "peak_rss_mb": "MB",
}


class CountingEngine(ExperimentEngine):
    """A serial engine that keeps every result it delivers and simulates,
    and the host time of every simulation.

    The cache's counters are read relative to their values when the engine
    was made, so results seeded into the cache beforehand are not counted.
    """

    def __init__(self, cache: ResultCache) -> None:
        super().__init__(SerialExecutor(), cache, runner=self._simulate)
        self.delivered: list[RunResult] = []
        self.simulated: list[RunResult] = []
        self.job_seconds: list[float] = []
        self._cache_base = self._cache_counts()

    def _cache_counts(self) -> tuple[int, int]:
        stats = self.cache.stats
        return stats.memory_hits + stats.disk_hits + stats.misses, stats.stores

    def _simulate(self, job: SimulationJob) -> RunResult:
        # Looked up per call so a traced run reaches the wrapped run_job.
        start = perf_counter()
        result = engine_runner.run_job(job)
        self.job_seconds.append(perf_counter() - start)
        self.simulated.append(result)
        return result

    def run_all(self, jobs: Sequence[SimulationJob]) -> list[RunResult]:
        results = super().run_all(jobs)
        self.delivered.extend(results)
        return results

    def call_counts(self) -> tuple[int, int, int, int]:
        """(jobs fingerprinted, cache gets, cache puts, jobs simulated)."""
        gets, puts = self._cache_counts()
        return (
            self.stats.jobs_submitted,
            gets - self._cache_base[0],
            puts - self._cache_base[1],
            self.stats.simulations,
        )


@dataclass(slots=True)
class UnitOutput:
    """One unit's engine and the improvements its Figure 6 rows show."""

    engine: CountingEngine
    improvements: list[tuple[float, float]]


class Fig6Cold:
    """The Figure 6 three-machine comparison, cold caches, one row per unit."""

    name = "fig6-cold"
    PROFILES = ("gcc", "art", "mst", "em3d", "adpcm_encode", "apsi", "galgel")

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        self.seed = seed
        self.names = ("gcc",) if tiny else self.PROFILES
        self.window, self.warmup = (300, 300) if tiny else (1000, 1500)
        self.setup_engines: list[CountingEngine] = []

    def setup(self) -> None:
        self.profiles = [get_workload(name) for name in self.names]
        # One tiny comparison pays the process's one-time lazy costs here
        # rather than in the first timed unit.
        engine = CountingEngine(ResultCache())
        rows = sweep.compare_workloads(
            self.profiles[:1], window=100, warmup=100, trace_seed=self.seed, engine=engine
        )
        reporting.energy_table(rows)
        self.setup_engines.append(engine)

    def units(self) -> list[str]:
        return list(self.names)

    def prepare(self, index: int) -> None:
        clear_trace_cache()

    def execute(self, index: int, prepared: None) -> UnitOutput:
        engine = CountingEngine(ResultCache())
        rows = sweep.compare_workloads(
            [self.profiles[index]],
            search_mode="factored",
            window=self.window,
            warmup=self.warmup,
            trace_seed=self.seed,
            engine=engine,
        )
        reporting.energy_table(rows)
        return UnitOutput(engine, [(r.program_improvement, r.phase_improvement) for r in rows])


class CampaignResume:
    """Resume a scenario campaign from a warm on-disk store, one resume per unit."""

    name = "campaign-resume"
    SCENARIOS = ("arch-pointer-chasing", "adv-period-1x-interval", "paper-apsi-capacity")

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        self.seed = seed
        self.names = ("adv-period-1x-interval",) if tiny else self.SCENARIOS
        self.window, self.warmup = (300, 300) if tiny else (QUICK_WINDOW, QUICK_WARMUP)
        self.store = work_dir / "store"
        self.setup_engines: list[CountingEngine] = []

    def _campaign(self, engine: CountingEngine) -> campaign.CampaignResult:
        return campaign.run_campaign(
            self.scenarios,
            search_mode="factored",
            window=self.window,
            warmup=self.warmup,
            trace_seed=self.seed,
            engine=engine,
        )

    def setup(self) -> None:
        """Simulate the campaign into a fresh on-disk store."""
        self.scenarios = [get_scenario(name) for name in self.names]
        engine = CountingEngine(ResultCache(self.store))
        self._campaign(engine)
        self.setup_engines.append(engine)

    def units(self) -> list[str]:
        return ["resume"]

    def prepare(self, index: int) -> None:
        return None

    def execute(self, index: int, prepared: None) -> UnitOutput:
        engine = CountingEngine(ResultCache(self.store))
        result = self._campaign(engine)
        return UnitOutput(
            engine, [(row.program_improvement, row.phase_improvement) for row in result.rows]
        )


WORKLOADS = {cls.name: cls for cls in (Fig6Cold, CampaignResume)}


# ---------------------------------------------------------------- checking


def invariant_violations(result: RunResult, window: int) -> list[str]:
    """Conservation invariants every simulated run must satisfy."""
    broken = []
    if result.loads + result.stores != result.l1d_hits_a + result.l1d_hits_b + result.l1d_misses:
        broken.append("loads + stores != L1D hits + misses")
    if result.sync_penalties > result.sync_transfers:
        broken.append("sync penalties > sync transfers")
    if result.branch_mispredictions > result.branch_predictions:
        broken.append("branch mispredictions > predictions")
    if result.committed_instructions < window:
        broken.append("committed instructions < window")
    return broken


def results_digest(results: Sequence[RunResult]) -> str:
    """sha256 over the timing and energy digests of *results*, in order."""
    payload = json.dumps([[result_digest(r), energy_digest(r)] for r in results])
    return hashlib.sha256(payload.encode()).hexdigest()


def load_pins(path: Path = PINS_PATH) -> dict[str, dict[str, str]]:
    """Pinned combined digests: workload name -> trace seed -> digest."""
    return json.loads(path.read_text())["digests"]


@dataclass
class Checker:
    """Counts delivered results and the ones that fail a check."""

    window: int
    pin: str | None
    attempted: int = 0
    failed: int = 0
    #: Set when a check impeaches every result of the run at once.
    all_failed: bool = False
    problems: list[str] = field(default_factory=list)
    # Per unit: (results digest, edges skipped, engine call counts) of the
    # first time it ran.  Every later run of the unit must repeat it exactly.
    signatures: dict[int, tuple] = field(default_factory=dict)
    expected_results: dict[int, int] = field(default_factory=dict)

    @property
    def failures(self) -> int:
        return self.attempted if self.all_failed else self.failed

    def note(self, problem: str) -> None:
        if problem not in self.problems:
            self.problems.append(problem)

    def unit_raised(self, index: int) -> None:
        count = self.expected_results.get(index, 1)
        self.attempted += count
        self.failed += count
        self.note(f"unit {index} raised:\n{traceback.format_exc()}")

    def check_unit(
        self, index: int, output: UnitOutput, served_digest: str | None = None
    ) -> None:
        """Check one unit's delivered results.

        With *served_digest* every result must have been served from the
        cache, and the results must digest to it.
        """
        engine = output.engine
        results = engine.delivered
        self.attempted += len(results)
        self.expected_results[index] = len(results)
        failing: set[int] = set()
        for position, result in enumerate(results):
            broken = invariant_violations(result, self.window)
            if broken:
                failing.add(position)
                self.note(f"unit {index}: {'; '.join(broken)}")
        if served_digest is not None and engine.simulated:
            simulated = {id(result) for result in engine.simulated}
            failing.update(p for p, r in enumerate(results) if id(r) in simulated)
            self.note(f"unit {index}: {len(engine.simulated)} job(s) simulated, not served")
        digest = results_digest(results)
        if served_digest is not None and digest != served_digest:
            failing.update(range(len(results)))
            self.note(f"unit {index}: served results differ from the stored ones")
        _, _, skipped = layers.edge_counts(engine.simulated)
        signature = (digest, skipped, engine.call_counts())
        first = self.signatures.setdefault(index, signature)
        if signature != first:
            failing.update(range(len(results)))
            self.note(f"unit {index}: results or counts differ from its first run")
        self.failed += len(failing)

    def check_rotation(self, unit_digests: Sequence[str]) -> str:
        """Compare one full rotation's combined digest with the pin."""
        combined = hashlib.sha256("\n".join(unit_digests).encode()).hexdigest()
        if self.pin is not None and combined != self.pin:
            self.note(f"combined digest {combined} != pinned {self.pin}")
            self.all_failed = True
        return combined


# --------------------------------------------------------------- environment


def _git_commit() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict[str, Any]:
    """What a result depends on besides the code: host, interpreter, seed."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        **EnvironmentFingerprint.collect().to_dict(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "trace_seed": seed,
        "default_trace_seed": DEFAULT_TRACE_SEED,
    }


# ---------------------------------------------------------------------- run


def _child_setups(workload: str, seed: int, tiny: bool) -> list[dict[str, float]]:
    """Repeat the set-up in fresh processes, each timed from its own start."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--setup-only"] + (["--tiny"] if tiny else [])
    out = []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True
        )
        out.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return out


def _work_dir() -> Path:
    WORK_DIR.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=WORK_DIR))


def _remove_work_dir(work_dir: Path) -> None:
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass  # another process of this run still has its directory there


def setup_only(workload: str, seed: int, tiny: bool, started: float) -> dict[str, float]:
    """Set the workload up once; report how long it took from *started*."""
    work_dir = _work_dir()
    try:
        WORKLOADS[workload](seed, tiny, work_dir).setup()
        return {"setup_s": perf_counter() - started}
    finally:
        _remove_work_dir(work_dir)


@dataclass
class RunReport:
    """Everything one run measured."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    problems: list[str]
    combined_digest: str
    pinned: bool
    environment: dict[str, Any]

    def result_line(self) -> dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


class _Runner:
    """Runs the units of one set-up workload and checks every one."""

    def __init__(self, bench: Any, checker: Checker, recorder: SpanRecorder) -> None:
        self.bench = bench
        self.checker = checker
        self.recorder = recorder
        self.units = bench.units()
        # Per unit: (unit seconds, seconds of each job it simulated) per run.
        self.samples: list[list[tuple[float, list[float]]]] = [[] for _ in self.units]
        self.kinst: dict[int, float] = {}
        self.served_digest = None
        if isinstance(bench, CampaignResume):
            self.served_digest = results_digest(bench.setup_engines[0].delivered)

    def unit(self, index: int, traced: bool = False) -> tuple[float, UnitOutput | None]:
        """Time one unit (its preparation untimed) and check what it delivered."""
        prepared = self.bench.prepare(index)
        self.recorder.armed = traced
        start = perf_counter()
        try:
            output = self.bench.execute(index, prepared)
        except Exception:
            self.recorder.armed = False
            self.checker.unit_raised(index)
            return perf_counter() - start, None
        seconds = perf_counter() - start
        self.recorder.armed = False
        self.checker.check_unit(index, output, self.served_digest)
        # The work simulated; on a campaign resume, the work the store serves.
        engine = output.engine
        results = engine.delivered if self.served_digest else engine.simulated
        committed, _, _ = layers.edge_counts(results)
        self.kinst[index] = committed / 1000.0
        return seconds, output

    def timed(self, seconds: float) -> str:
        """Rotate through the units for *seconds*, at least one full rotation.

        Returns the combined digest of the units' results.
        """
        begin = perf_counter()
        done = 0
        while done < len(self.units) or perf_counter() - begin < seconds:
            index = done % len(self.units)
            elapsed, output = self.unit(index)
            if output is not None:
                self.samples[index].append((elapsed, output.engine.job_seconds))
            done += 1
        if any(not unit for unit in self.samples):
            raise RuntimeError("a unit never completed:\n" + "\n".join(self.checker.problems))
        signatures = self.checker.signatures
        return self.checker.check_rotation([signatures[i][0] for i in range(len(self.units))])


def fastest_parts(
    samples: Sequence[Sequence[tuple[float, Sequence[float]]]],
) -> tuple[float, float]:
    """(wall seconds, simulation seconds) of a fixed set of units.

    *samples* holds, per unit, one (unit seconds, job seconds) pair per run;
    a unit simulates the same jobs in the same order every run.  Each part
    is taken at its fastest: every job, and what remains of each unit around
    its jobs.  The fastest, not the median, because on a shared host
    contention only adds time and comes in episodes that outlast many
    samples: over five 20-second runs of ``campaign-resume`` (about 450
    samples each) the per-run medians spread 25% between quartiles and the
    per-run minimums 3.4%.  Short parts (single jobs take tens of
    milliseconds) are the likeliest to catch a quiet moment.
    """
    wall = simulation = 0.0
    for unit in samples:
        jobs = sum(min(column) for column in zip(*(job_s for _, job_s in unit)))
        rest = min(seconds - sum(job_s) for seconds, job_s in unit)
        simulation += jobs
        wall += jobs + rest
    return wall, simulation


def _check_span_counts(
    totals: dict[str, SpanTotals], engines: Sequence[CountingEngine], checker: Checker
) -> None:
    """The traced call counts must equal the engines' own counters."""
    traced = (
        totals["engine.fingerprint"].calls,
        totals["engine.cache_get"].calls,
        totals["engine.cache_put"].calls,
        totals["engine.run_job"].calls,
    )
    counted = tuple(sum(column) for column in zip(*(e.call_counts() for e in engines)))
    if traced != counted or totals["core.run"].calls != counted[3]:
        checker.all_failed = True
        checker.note(f"traced engine calls {traced} != engine counters {counted}")


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    started: float,
    tiny: bool = False,
    pins: dict[str, dict[str, str]] | None = None,
) -> RunReport:
    """Set up *workload*, time it for *seconds*, check it, and report.

    *pins* maps workload and seed to the pinned combined digest; the default
    is ``pins.json``, or no pins for the *tiny* size.

    *started* is the time (``perf_counter``) the process began, before
    ``repro`` was imported.  With *trace*, the set-up and one extra rotation
    are traced after the timed rotations, and the per-layer metrics are
    reported instead of the end-to-end ones.
    """
    if pins is None:
        pins = {} if tiny else load_pins()  # the pins are of the full size
    work_dir = _work_dir()
    recorder = SpanRecorder()
    try:
        bench = WORKLOADS[workload](seed, tiny, work_dir)
        if trace:
            tallies = layers.install(recorder)
            recorder.armed = True
        bench.setup()
        setup_s = perf_counter() - started
        recorder.armed = False

        checker = Checker(bench.window, pins.get(workload, {}).get(str(seed)))
        runner = _Runner(bench, checker, recorder)
        combined = runner.timed(seconds)
        wall_s, simulation_s = fastest_parts(runner.samples)
        if trace:
            outputs = [runner.unit(index, traced=True) for index in range(len(runner.units))]
            done = [output for _, output in outputs if output is not None]
            engines = bench.setup_engines + [output.engine for output in done]
            totals = recorder.totals()
            _check_span_counts(totals, engines, checker)
            traced_s = sum(elapsed for elapsed, _ in outputs)
            metrics = layers.per_layer_metrics(
                recorder,
                totals,
                tallies,
                [result for engine in engines for result in engine.simulated],
                [pair for output in done for pair in output.improvements],
                overhead_pct=100.0 * (traced_s - wall_s) / wall_s,
            )
            units_of = layers.PER_LAYER_UNITS
        else:
            children = _child_setups(workload, seed, tiny)
            # A campaign resume simulates nothing: its rate is that at which
            # the store delivers simulated instructions.
            seconds = wall_s if isinstance(bench, CampaignResume) else simulation_s
            metrics = {
                "setup_s": statistics.median([setup_s] + [c["setup_s"] for c in children]),
                "wall_s": wall_s,
                "sim_kinst_per_s": sum(runner.kinst.values()) / seconds,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units_of = END_TO_END_UNITS
    finally:
        recorder.uninstall()
        _remove_work_dir(work_dir)

    return RunReport(
        correct=checker.failures == 0,
        attempted=checker.attempted,
        failed=checker.failures,
        metrics={name: (metrics[name], units_of[name]) for name in units_of},
        problems=checker.problems,
        combined_digest=combined,
        pinned=checker.pin is not None,
        environment=environment(seed),
    )
