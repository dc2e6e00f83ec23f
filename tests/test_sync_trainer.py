"""Synchronization primitives and the distributed trainer loop."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.distributed import (
    CommMeter,
    SerialBackend,
    TrainConfig,
    average_gradients,
    average_models,
    broadcast_model,
)
from repro.distributed.sync import PeriodicAverage
from repro.core import build_trainer, FRAMEWORKS, run_framework
from repro.nn import build_model


def make_models(n, seed_offset=0):
    return [build_model("sage", 8, 4, num_layers=2, seed=10 + seed_offset + i)
            for i in range(n)]


def bound_backend(models):
    """A serial backend over bare replicas: all the round protocol's
    collectives need of a trainer is ``workers[i].model``, ``meters``
    and the ``config`` that says whether commands are logged."""
    trainer = SimpleNamespace(
        workers=[SimpleNamespace(model=m) for m in models],
        meters=[CommMeter() for _ in models], config=TrainConfig())
    backend = SerialBackend()
    backend.bind(trainer)
    return backend, trainer


class TestSync:
    def test_broadcast(self):
        models = make_models(3)
        broadcast_model(models[0], models[1:])
        ref = models[0].state_dict()
        for m in models[1:]:
            for name, arr in m.state_dict().items():
                assert np.allclose(arr, ref[name])

    def test_average_models_math(self):
        a, b = (m.vector.values.copy() for m in make_models(2))
        averaged = average_models([a, b])
        assert averaged.shape == a.shape
        assert np.allclose(averaged, (a + b) / 2)
        # Participation mask and departed (None) workers shrink the mean.
        masked = average_models([a, None, b], [True, True, False])
        assert np.array_equal(masked, a)
        assert average_models([a, b], [False, False]) is None

    def test_average_gradients_math(self):
        grads = [(np.full_like(m.vector.grads, float(i + 1)),
                  np.ones(len(m.vector.params), dtype=bool))
                 for i, m in enumerate(make_models(2))]
        mean, present = average_gradients(grads)
        assert mean.shape == grads[0][0].shape
        assert present.all()
        assert np.allclose(mean, 1.5)

    def test_average_gradients_participation_mask(self):
        models = make_models(3)
        everyone = np.ones(len(models[0].vector.params), dtype=bool)
        grads = [(np.full_like(m.vector.grads, float(i)), everyone)
                 for i, m in enumerate(models)]
        grads[2] = (np.full_like(grads[2][0], 100.0), everyone)
        # Average over the two participants = 0.5: a masked-out worker's
        # gradient never enters the mean, nor does one that is absent.
        masked = average_gradients(grads, [True, True, False])
        absent = average_gradients([grads[0], grads[1], None])
        for mean, _ in (masked, absent):
            assert np.allclose(mean, 0.5)
        assert average_gradients(grads, [False, False, False]) is None

    def test_sync_charges_meters_allreduce(self):
        backend, trainer = bound_backend(make_models(2))
        before = [m.state_dict() for m in make_models(2)]
        backend.sync_models()
        # ring all-reduce on p=2: 2 * (p-1)/p = 1x the payload
        expected = trainer.workers[0].model.parameter_nbytes()
        for meter in trainer.meters:
            assert meter.current.sync_bytes == expected
            assert meter.current.graph_data_bytes == 0
        for worker in trainer.workers:
            for name, arr in worker.model.state_dict().items():
                assert np.allclose(arr,
                                   (before[0][name] + before[1][name]) / 2)
        # A removed worker is neither charged nor counted in the ring.
        backend, trainer = bound_backend(make_models(3))
        backend.deactivate(1)
        backend.sync_models()
        charged = [m.current.sync_bytes for m in trainer.meters]
        assert charged == [expected, 0, expected]

    def test_sync_bytes_per_worker_model(self):
        from repro.distributed import sync_bytes_per_worker
        assert sync_bytes_per_worker(1000, 1) == 0
        assert sync_bytes_per_worker(1000, 4) == 1500  # 2*1000*3/4

    def test_average_gradients_none_grads_tolerated(self):
        vector = make_models(1)[0].vector
        nobody = np.zeros(len(vector.params), dtype=bool)
        grads = [(np.zeros_like(vector.grads), nobody) for _ in range(2)]
        mean, present = average_gradients(grads)  # no grads set
        assert not present.any()
        # A gradient only one participant has is still divided by the
        # number of participants.
        first = vector.split(grads[0][0])[0]
        first[...] = 1.0
        grads[0] = (grads[0][0], np.eye(1, len(nobody), dtype=bool)[0])
        mean, present = average_gradients(grads)
        assert present.tolist() == [True] + [False] * (len(nobody) - 1)
        assert np.allclose(vector.split(mean)[0], 0.5)


class TestPeriodicAverage:
    @pytest.mark.parametrize("every, averaged_after", [
        (0, [5]),           # the epoch end only
        (2, [2, 4, 5]),     # every second round, then the tail
    ])
    def test_cadence_over_a_five_round_epoch(self, every, averaged_after):
        """*When* the strategy averages: local steps every round, an
        average (then the correction, then the fault barrier) each
        ``every`` trained rounds and once more for the epoch's tail."""
        log = []
        backend = SimpleNamespace(
            step_participants=lambda mask: log.append("step"),
            sync_models=lambda obs=None, participating=None:
                log.append("average"),
            run_correction=lambda hook: log.append("correct"))
        trainer = SimpleNamespace(
            backend=backend, observer=None, correction_hook=object(),
            meters=[CommMeter(), CommMeter()], config=TrainConfig(),
            partitioned=SimpleNamespace(edge_partitioned=False))
        faults = SimpleNamespace(enabled=False, all_live=True,
                                 barrier=lambda: log.append("barrier"))
        decision = SimpleNamespace(train_mask=[True, True],
                                   sync_mask=[True, True])
        strategy = PeriodicAverage(every).bind(trainer)
        assert not strategy.want_grads
        for rnd in range(5):
            strategy.after_round(0, rnd, [None, None], decision, faults)
        strategy.end_epoch(faults)
        expected = []
        for rnd in range(1, 6):
            expected.append("step")
            if rnd in averaged_after:
                expected += ["average", "correct", "barrier"]
        assert log == expected
        # A four-round epoch at every=2 ends on an average: no tail.
        del log[:]
        for rnd in range(4):
            strategy.after_round(1, rnd, [None, None], decision, faults)
        strategy.end_epoch(faults)
        assert log.count("average") == (2 if every else 1)
        assert strategy.stats() == {"mode": "model"}


class TestTrainConfig:
    def test_invalid_sync(self):
        # "async" graduated to a real mode; unknown names still reject.
        with pytest.raises(ValueError):
            TrainConfig(sync="bulk_sync_parallel")

    def test_fanout_layer_mismatch(self):
        with pytest.raises(ValueError):
            TrainConfig(num_layers=2, fanouts=(5, 5, 5))


@pytest.fixture
def smoke_config():
    return TrainConfig(gnn_type="sage", hidden_dim=16, num_layers=2,
                       fanouts=(5, 3), batch_size=64, epochs=2, hits_k=20,
                       eval_every=2, seed=3)


class TestDistributedTrainer:
    def test_workers_start_identical(self, small_split, smoke_config):
        trainer = build_trainer(FRAMEWORKS["psgd_pa"], small_split, 3,
                                smoke_config,
                                rng=np.random.default_rng(0))
        states = [w.model.state_dict() for w in trainer.workers]
        for sd in states[1:]:
            for name, arr in sd.items():
                assert np.allclose(arr, states[0][name])

    def test_grad_sync_keeps_replicas_identical(self, small_split,
                                                smoke_config):
        trainer = build_trainer(FRAMEWORKS["psgd_pa_plus"], small_split, 2,
                                smoke_config,
                                rng=np.random.default_rng(0))
        trainer.train()
        a, b = [w.model.state_dict() for w in trainer.workers]
        for name in a:
            assert np.allclose(a[name], b[name], atol=1e-8)

    def test_model_sync_converges_replicas(self, small_split):
        cfg = TrainConfig(gnn_type="sage", hidden_dim=16, num_layers=2,
                          fanouts=(5, 3), batch_size=64, epochs=1,
                          hits_k=20, sync="model", seed=3)
        trainer = build_trainer(FRAMEWORKS["psgd_pa"], small_split, 2, cfg,
                                rng=np.random.default_rng(0))
        trainer.train()
        a, b = [w.model.state_dict() for w in trainer.workers]
        for name in a:  # averaged at epoch end => identical
            assert np.allclose(a[name], b[name])

    def test_result_structure(self, small_split, smoke_config):
        trainer = build_trainer(FRAMEWORKS["splpg"], small_split, 2,
                                smoke_config,
                                rng=np.random.default_rng(0))
        result = trainer.train()
        assert result.framework == "splpg"
        assert len(result.history) == smoke_config.epochs
        assert 0.0 <= result.test.hits <= 1.0
        assert 0.0 <= result.test.auc <= 1.0
        assert result.num_workers == 2
        assert result.best_epoch >= 0

    def test_vanilla_framework_zero_graph_comm(self, small_split,
                                               smoke_config):
        trainer = build_trainer(FRAMEWORKS["psgd_pa"], small_split, 2,
                                smoke_config,
                                rng=np.random.default_rng(0))
        result = trainer.train()
        assert result.comm_total.graph_data_bytes == 0

    def test_sharing_framework_positive_comm(self, small_split,
                                             smoke_config):
        trainer = build_trainer(FRAMEWORKS["splpg"], small_split, 2,
                                smoke_config,
                                rng=np.random.default_rng(0))
        result = trainer.train()
        assert result.comm_total.graph_data_bytes > 0

    def test_loss_decreases(self, small_split):
        cfg = TrainConfig(gnn_type="sage", hidden_dim=16, num_layers=2,
                          fanouts=(5, 3), batch_size=64, epochs=5,
                          hits_k=20, eval_every=5, seed=3)
        trainer = build_trainer(FRAMEWORKS["splpg_plus"], small_split, 2,
                                cfg, rng=np.random.default_rng(0))
        result = trainer.train()
        losses = [s.mean_loss for s in result.history]
        assert losses[-1] < losses[0]


class TestCentralized:
    def test_trains_and_improves(self, small_split):
        cfg = TrainConfig(gnn_type="sage", hidden_dim=16, num_layers=2,
                          fanouts=(5, 3), batch_size=64, epochs=5,
                          hits_k=20, eval_every=5, seed=3)
        result = run_framework("centralized", small_split, 1, cfg)
        losses = [s.mean_loss for s in result.history]
        assert losses[-1] < losses[0]
        assert result.comm_total.graph_data_bytes == 0
        assert result.num_workers == 1

    def test_requires_features(self, small_split):
        from repro.partition import partition_graph
        cfg = TrainConfig(hidden_dim=8, num_layers=2, fanouts=(3, 3),
                          epochs=1)
        bare = small_split.train_graph.with_features(None)
        with pytest.raises(ValueError, match="features"):
            run_framework("centralized", small_split, 1, cfg,
                          partitioned=partition_graph(bare, 1))

    def test_graph_override(self, small_split, rng):
        """Figure 6 trains on the sparsified graph: its edges are the
        positives, one batch a round, plus the round that finds the
        loader spent."""
        from repro.partition import partition_graph
        from repro.sparsify import sparsify_with_level
        cfg = TrainConfig(gnn_type="sage", hidden_dim=8, num_layers=2,
                          fanouts=(3, 3), batch_size=16, epochs=1,
                          hits_k=10, seed=0)
        sparse = sparsify_with_level(small_split.train_graph, 0.3, rng=rng)
        full_edges = small_split.train_graph.edge_list().shape[0]
        sparse_edges = sparse.edge_list().shape[0]
        assert sparse_edges < full_edges
        result = run_framework("centralized", small_split, 1, cfg,
                               partitioned=partition_graph(sparse, 1))
        assert result.history[0].rounds == -(-sparse_edges // 16) + 1
