"""Failure injection: training under lost worker contributions."""

import numpy as np

from repro import TrainConfig
from repro.core import FRAMEWORKS, build_trainer
from repro.faults import FaultPlan


def make_config(**overrides):
    base = dict(gnn_type="sage", hidden_dim=16, num_layers=2,
                fanouts=(5, 3), batch_size=64, epochs=3, hits_k=20,
                eval_every=3, seed=3)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainingUnderFailures:
    def test_drops_recorded(self, small_split):
        config = make_config(fault_plan=FaultPlan.from_probability(0.4))
        trainer = build_trainer(FRAMEWORKS["psgd_pa"], small_split, 3,
                                config, rng=np.random.default_rng(0))
        result = trainer.train()
        assert result.dropped_contributions > 0

    def test_no_failures_by_default(self, small_split):
        config = make_config()
        trainer = build_trainer(FRAMEWORKS["psgd_pa"], small_split, 3,
                                config, rng=np.random.default_rng(0))
        result = trainer.train()
        assert result.dropped_contributions == 0

    def test_replicas_stay_synchronized(self, small_split):
        """Failed rounds must not desynchronize replicas under
        gradient averaging: survivors' average is broadcast."""
        config = make_config(fault_plan=FaultPlan.from_probability(0.3),
                             sync="grad")
        trainer = build_trainer(FRAMEWORKS["psgd_pa_plus"], small_split, 2,
                                config, rng=np.random.default_rng(0))
        trainer.train()
        a, b = [w.model.state_dict() for w in trainer.workers]
        for name in a:
            assert np.allclose(a[name], b[name], atol=1e-8)

    def test_still_learns_with_moderate_failures(self, small_split):
        config = make_config(fault_plan=FaultPlan.from_probability(0.25),
                             epochs=5, eval_every=5)
        trainer = build_trainer(FRAMEWORKS["splpg"], small_split, 2,
                                config, rng=np.random.default_rng(0))
        result = trainer.train()
        losses = [s.mean_loss for s in result.history if
                  np.isfinite(s.mean_loss)]
        assert losses[-1] < losses[0] * 1.1

    def test_model_averaging_with_failures(self, small_split):
        config = make_config(fault_plan=FaultPlan.from_probability(0.3),
                             sync="model")
        trainer = build_trainer(FRAMEWORKS["psgd_pa"], small_split, 2,
                                config, rng=np.random.default_rng(0))
        result = trainer.train()
        a, b = [w.model.state_dict() for w in trainer.workers]
        for name in a:  # epoch-end averaging still runs
            assert np.allclose(a[name], b[name])
        assert result.dropped_contributions > 0

    def test_heavy_failures_do_not_crash(self, small_split):
        config = make_config(fault_plan=FaultPlan.from_probability(0.9),
                             epochs=2)
        trainer = build_trainer(FRAMEWORKS["psgd_pa"], small_split, 2,
                                config, rng=np.random.default_rng(0))
        result = trainer.train()
        assert np.isfinite(result.test.auc)
