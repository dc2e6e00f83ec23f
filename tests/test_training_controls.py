"""Early stopping, LR decay and the TrainResult summary."""

import numpy as np
import pytest

from repro import TrainConfig, train_centralized
from repro.core import FRAMEWORKS, build_trainer
from repro.distributed.sync import SyncPlan
from repro.faults import FaultPlan
from repro.partition import PartitionSpec
from repro.stream import ArrivalPlan


def config(**overrides):
    base = dict(gnn_type="sage", hidden_dim=16, num_layers=2,
                fanouts=(5, 3), batch_size=64, epochs=8, hits_k=20,
                eval_every=1, seed=3)
    base.update(overrides)
    return TrainConfig(**base)


class TestValidation:
    def test_patience_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(patience=-1)

    def test_lr_decay_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr_decay=0.0)
        with pytest.raises(ValueError):
            TrainConfig(lr_decay=1.5)
        with pytest.raises(ValueError):
            TrainConfig(lr_decay_every=0)

    def test_negative_sampler_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(negative_sampler="hard")

    def test_topology_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(sync_topology="mesh")

    @pytest.mark.parametrize("decode, data, names", [
        (FaultPlan.from_dict, {"events": [{}]}, "'kind'"),
        (FaultPlan.from_dict, [], "FaultPlan"),
        (FaultPlan.from_dict, {"events": [{"kind": "crash", "epoch": 0}]},
         "'round'"),
        (SyncPlan.from_dict, {"mode": "ps"}, "'num_workers'"),
        (ArrivalPlan.from_dict, {}, "'num_nodes'"),
        (ArrivalPlan.from_dict, {"num_nodes": 9, "ticks": 2,
                                 "events": [{"kind": "insert"}]}, "'tick'"),
        (PartitionSpec.canonicalize, 42, "partition"),
    ], ids=["fault-event", "fault-plan-list", "fault-event-round",
            "sync-plan", "arrival-plan", "stream-event", "partition-spec"])
    def test_plan_dicts_fail_with_a_value_error_naming_the_key(
            self, decode, data, names):
        """The dict forms TrainConfig / StreamConfig accept: a missing
        key or a non-dict is a ValueError saying what is wrong, never a
        bare KeyError or AttributeError."""
        with pytest.raises(ValueError, match=names):
            decode(data)


class TestEarlyStopping:
    def test_stops_early_distributed(self, small_split):
        cfg = config(patience=1, epochs=12)
        trainer = build_trainer(FRAMEWORKS["psgd_pa"], small_split, 2,
                                cfg, rng=np.random.default_rng(0))
        result = trainer.train()
        # With patience 1 and per-epoch eval, a noisy validation curve
        # triggers the stop long before 12 epochs.
        assert len(result.history) < 12

    def test_stops_early_centralized(self, small_split):
        cfg = config(patience=1, epochs=12)
        result = train_centralized(small_split, cfg)
        assert len(result.history) < 12

    def test_no_patience_runs_all_epochs(self, small_split):
        cfg = config(patience=0, epochs=4)
        result = train_centralized(small_split, cfg)
        assert len(result.history) == 4

    def test_best_state_still_selected(self, small_split):
        cfg = config(patience=2, epochs=10)
        trainer = build_trainer(FRAMEWORKS["splpg"], small_split, 2,
                                cfg, rng=np.random.default_rng(0))
        result = trainer.train()
        assert 0 <= result.best_epoch < len(result.history)


class TestLRDecay:
    def test_distributed_lr_decays(self, small_split):
        cfg = config(lr_decay=0.5, lr_decay_every=1, epochs=3,
                     eval_every=3)
        trainer = build_trainer(FRAMEWORKS["psgd_pa"], small_split, 2,
                                cfg, rng=np.random.default_rng(0))
        trainer.train()
        for worker in trainer.workers:
            assert worker.optimizer.lr == pytest.approx(cfg.lr * 0.125)

    def test_decay_every_respected(self, small_split):
        cfg = config(lr_decay=0.5, lr_decay_every=2, epochs=4,
                     eval_every=4)
        trainer = build_trainer(FRAMEWORKS["psgd_pa"], small_split, 2,
                                cfg, rng=np.random.default_rng(0))
        trainer.train()
        for worker in trainer.workers:
            assert worker.optimizer.lr == pytest.approx(cfg.lr * 0.25)


class TestSummary:
    def test_summary_contents(self, small_split):
        cfg = config(epochs=2, eval_every=2)
        trainer = build_trainer(FRAMEWORKS["splpg"], small_split, 2,
                                cfg, rng=np.random.default_rng(0))
        result = trainer.train()
        text = result.summary()
        assert "framework: splpg" in text
        assert "workers:   2" in text
        assert "features:" in text and "sync:" in text

    def test_summary_reports_drops(self, small_split):
        cfg = config(epochs=2, eval_every=2, worker_failure_prob=0.5)
        trainer = build_trainer(FRAMEWORKS["psgd_pa"], small_split, 2,
                                cfg, rng=np.random.default_rng(0))
        result = trainer.train()
        if result.dropped_contributions:
            assert "dropped worker contributions" in result.summary()
