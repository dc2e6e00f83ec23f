"""Config validation, best-epoch selection and the TrainResult summary."""

import numpy as np
import pytest

from repro import TrainConfig
from repro.core import FRAMEWORKS, build_trainer, run_framework
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
    def test_negative_sampler_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(negative_sampler="hard")

    @pytest.mark.parametrize("decode, data, names", [
        (FaultPlan.from_dict, {"events": [{}]}, "'kind'"),
        (FaultPlan.from_dict, [], "FaultPlan"),
        (FaultPlan.from_dict, {"events": [{"kind": "crash", "epoch": 0}]},
         "'round'"),
        (ArrivalPlan.from_dict, {}, "'num_nodes'"),
        (ArrivalPlan.from_dict, {"num_nodes": 9, "ticks": 2,
                                 "events": [{"kind": "insert"}]}, "'tick'"),
        (PartitionSpec.canonicalize, 42, "partition"),
    ], ids=["fault-event", "fault-plan-list", "fault-event-round",
            "arrival-plan", "stream-event", "partition-spec"])
    def test_plan_dicts_fail_with_a_value_error_naming_the_key(
            self, decode, data, names):
        """The dict forms TrainConfig / StreamConfig accept: a missing
        key or a non-dict is a ValueError saying what is wrong, never a
        bare KeyError or AttributeError."""
        with pytest.raises(ValueError, match=names):
            decode(data)


class TestEarlyStopping:
    def test_no_patience_runs_all_epochs(self, small_split):
        """Every configured epoch runs: training has no early stop."""
        cfg = config(epochs=4)
        result = run_framework("centralized", small_split, 1, cfg)
        assert len(result.history) == 4

    def test_best_state_still_selected(self, small_split):
        cfg = config(epochs=10)
        trainer = build_trainer(FRAMEWORKS["splpg"], small_split, 2,
                                cfg, rng=np.random.default_rng(0))
        result = trainer.train()
        assert 0 <= result.best_epoch < len(result.history)


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
        cfg = config(epochs=2, eval_every=2,
                     fault_plan=FaultPlan.from_probability(0.5))
        trainer = build_trainer(FRAMEWORKS["psgd_pa"], small_split, 2,
                                cfg, rng=np.random.default_rng(0))
        result = trainer.train()
        if result.dropped_contributions:
            assert "dropped worker contributions" in result.summary()
