"""Tests for the branch-prediction substrate."""

import random

import pytest

from repro.branch import (
    BranchTargetBuffer,
    GsharePredictor,
    HybridPredictor,
    LocalHistoryPredictor,
    SaturatingCounter,
    build_predictor,
)
from repro.timing.tables import ADAPTIVE_ICACHE_CONFIGS, OPTIMIZED_ICACHE_CONFIGS


class TestSaturatingCounter:
    def test_initial_prediction_weakly_not_taken(self):
        assert SaturatingCounter().prediction is False

    def test_trains_toward_taken(self):
        counter = SaturatingCounter()
        counter.update(True)
        counter.update(True)
        assert counter.prediction is True

    def test_saturation(self):
        counter = SaturatingCounter()
        for _ in range(10):
            counter.update(True)
        assert counter.value == 3
        for _ in range(10):
            counter.update(False)
        assert counter.value == 0

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            SaturatingCounter(bits=0)


class TestGshare:
    def test_learns_a_strongly_biased_branch(self):
        predictor = GsharePredictor(history_bits=12, table_entries=4096)
        pc = 0x4000
        for _ in range(50):
            predictor.update(pc, True)
        assert predictor.predict(pc) is True

    def test_history_shifts(self):
        predictor = GsharePredictor(history_bits=4, table_entries=1024)
        predictor.update(0x100, True)
        predictor.update(0x100, False)
        assert predictor.history == 0b10

    def test_table_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            GsharePredictor(history_bits=4, table_entries=1000)


class TestLocalPredictor:
    def test_learns_an_alternating_pattern(self):
        predictor = LocalHistoryPredictor(history_bits=10, bht_entries=1024, pht_entries=1024)
        pc = 0x770
        outcome = True
        for _ in range(200):
            predictor.update(pc, outcome)
            outcome = not outcome
        correct = 0
        for _ in range(100):
            if predictor.predict(pc) == outcome:
                correct += 1
            predictor.update(pc, outcome)
            outcome = not outcome
        assert correct >= 95

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalHistoryPredictor(history_bits=10, bht_entries=1000, pht_entries=1024)


class TestHybridPredictor:
    def test_builds_from_table2_geometry(self):
        for config in ADAPTIVE_ICACHE_CONFIGS + OPTIMIZED_ICACHE_CONFIGS:
            predictor = build_predictor(config.predictor)
            assert isinstance(predictor, HybridPredictor)

    def test_biased_branches_are_learned(self):
        predictor = build_predictor(ADAPTIVE_ICACHE_CONFIGS[0].predictor)
        rng = random.Random(7)
        branches = {0x1000 + i * 8: rng.random() < 0.5 for i in range(50)}
        # Train.
        for _ in range(40):
            for pc, direction in branches.items():
                predictor.predict_and_update(pc, direction)
        correct = 0
        total = 0
        for _ in range(10):
            for pc, direction in branches.items():
                total += 1
                if predictor.predict(pc) == direction:
                    correct += 1
                predictor.predict_and_update(pc, direction)
        assert correct / total > 0.97

    def test_accuracy_tracks_stats(self):
        predictor = build_predictor(ADAPTIVE_ICACHE_CONFIGS[0].predictor)
        for _ in range(20):
            predictor.predict_and_update(0x2000, True)
        assert predictor.stats.predictions == 20
        assert 0.0 <= predictor.stats.accuracy <= 1.0

    def test_larger_predictor_not_worse_on_many_branches(self):
        """More predictor capacity (Table 2 scaling) should not hurt accuracy
        on a branch population large enough to alias in the small tables."""
        rng = random.Random(3)
        branches = [(0x10000 + i * 4, rng.random() < 0.85) for i in range(3000)]
        small = build_predictor(ADAPTIVE_ICACHE_CONFIGS[0].predictor)
        large = build_predictor(ADAPTIVE_ICACHE_CONFIGS[-1].predictor)
        small_correct = large_correct = total = 0
        for _ in range(4):
            for pc, bias in branches:
                outcome = rng.random() < (0.95 if bias else 0.05)
                total += 1
                small_correct += small.predict_and_update(pc, outcome)
                large_correct += large.predict_and_update(pc, outcome)
        # With 3000 interleaved branches the global history is effectively
        # random, so neither predictor can do much better than its static
        # bias here; the point of the test is that both stay functional and
        # train without error on a large, heavily aliased population.
        assert small.stats.predictions == total
        assert large.stats.predictions == total
        assert small_correct / total > 0.3
        assert large_correct / total > 0.3


class TestBTB:
    @pytest.mark.parametrize(
        "other_pc",
        # 64 sets: the first shares 0x4000's set, the second's set is never
        # updated.
        [0x4000 + 64 * 4, 0x4004],
        ids=["updated-set", "never-updated-set"],
    )
    def test_miss_then_hit(self, other_pc):
        btb = BranchTargetBuffer(entries=256, associativity=4)
        assert btb.lookup(0x4000) is None
        btb.update(0x4000, 0x8000)
        assert btb.lookup(0x4000) == 0x8000
        assert btb.lookup(other_pc) is None
        assert (btb.hits, btb.misses) == (1, 2)

    def test_capacity_eviction(self):
        btb = BranchTargetBuffer(entries=8, associativity=1)
        # Fill one set with conflicting branches.
        btb.update(0x0, 0x100)
        btb.update(0x0 + 8 * 4, 0x200)
        assert btb.lookup(0x0) is None or btb.lookup(0x0 + 8 * 4) == 0x200

    def test_validation(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(entries=10, associativity=4)
