"""Framework specs and the SpLPG public API."""

import numpy as np
import pytest

from repro import SpLPG, TrainConfig
from repro.core import run_framework
from repro.core import FRAMEWORK_NAMES, FRAMEWORKS, PAPER_LABELS, FrameworkSpec
from repro.core.llcg import GlobalCorrection
from repro.graph import split_edges, synthetic_lp_graph
from repro.nn import build_model


class TestFrameworkSpecs:
    def test_all_paper_frameworks_present(self):
        expected = {"psgd_pa", "psgd_pa_plus", "random_tma",
                    "random_tma_plus", "super_tma", "super_tma_plus",
                    "llcg", "splpg", "splpg_plus", "splpg_minus",
                    "splpg_minus_minus"}
        # The zoo has grown beyond the paper (vertex_cut competitor);
        # the paper's own frameworks must all still be present.
        assert expected <= set(FRAMEWORK_NAMES)
        assert "vertex_cut" in FRAMEWORK_NAMES

    def test_labels_cover_everything(self):
        for name in FRAMEWORK_NAMES:
            assert name in PAPER_LABELS
        assert "centralized" in PAPER_LABELS

    def test_splpg_spec(self):
        spec = FRAMEWORKS["splpg"]
        assert spec.mirror and spec.remote == "sparsified"
        assert spec.global_negatives

    def test_vanilla_specs_pure_local(self):
        for name in ("psgd_pa", "random_tma", "super_tma",
                     "splpg_minus", "splpg_minus_minus"):
            spec = FRAMEWORKS[name]
            assert spec.remote == "none"
            assert not spec.global_negatives

    def test_plus_variants_full_sharing(self):
        for name in ("psgd_pa_plus", "random_tma_plus", "super_tma_plus",
                     "splpg_plus"):
            spec = FRAMEWORKS[name]
            assert spec.remote == "full"
            assert spec.global_negatives

    def test_splpg_minus_ladder(self):
        assert FRAMEWORKS["splpg_minus"].mirror
        assert not FRAMEWORKS["splpg_minus_minus"].mirror

    def test_invalid_remote_mode(self):
        with pytest.raises(ValueError):
            FrameworkSpec("bad", remote="partial")

    def test_global_negatives_need_remote(self):
        with pytest.raises(ValueError):
            FrameworkSpec("bad", remote="none", global_negatives=True)

    def test_unknown_framework_name(self, small_split):
        cfg = TrainConfig(hidden_dim=8, num_layers=2, fanouts=(3, 3),
                          epochs=1)
        with pytest.raises(ValueError):
            run_framework("distdgl", small_split, 2, cfg)


@pytest.fixture
def smoke_config():
    return TrainConfig(gnn_type="sage", hidden_dim=16, num_layers=2,
                       fanouts=(5, 3), batch_size=64, epochs=2, hits_k=20,
                       eval_every=2, seed=3)


class TestRunFramework:
    @pytest.mark.parametrize("name", sorted(FRAMEWORK_NAMES))
    def test_every_framework_runs(self, name, small_split, smoke_config):
        result = run_framework(name, small_split, num_parts=2,
                               config=smoke_config,
                               rng=np.random.default_rng(0))
        assert result.framework == name
        assert np.isfinite(result.test.hits)

    def test_centralized_runs(self, small_split, smoke_config):
        result = run_framework("centralized", small_split, 1, smoke_config)
        assert result.framework == "centralized"


def trajectory(result):
    """What a run learned and moved, without its name: ``digest()``
    hashes the framework, and ``vertex_cut`` adds a
    ``replica_sync_bytes`` entry to ``sync_stats``."""
    def metrics(ev):
        return None if ev is None else (ev.hits.hex(), ev.auc.hex(), ev.k)

    return ([(s.epoch, s.mean_loss.hex(), metrics(s.val), s.mfg_edges,
              s.comm.to_dict()) for s in result.history],
            result.best_epoch, metrics(result.test),
            result.comm_total.to_dict())


class TestOneWorker:
    """When one worker owns the graph, neither of the paper's two root
    causes of the accuracy drop is left: no neighbour is cut away and
    every negative is global.  So every framework but ``llcg``, whose
    server correction step still changes the run, trains the
    centralized run."""

    @pytest.fixture(scope="class")
    def split(self):
        rng = np.random.default_rng(1)
        graph = synthetic_lp_graph(num_nodes=500, target_edges=2500,
                                   feature_dim=16, num_communities=4,
                                   rng=rng)
        return split_edges(graph, rng=rng)

    @staticmethod
    def config(**overrides):
        return TrainConfig(**{
            "gnn_type": "sage", "hidden_dim": 16, "num_layers": 2,
            "fanouts": (5, 5), "batch_size": 64, "epochs": 2,
            "hits_k": 20, "eval_every": 1, "seed": 0, **overrides})

    def test_one_worker_gives_one_trajectory(self, split):
        config = self.config()
        reference = trajectory(run_framework("centralized", split, 1,
                                             config))
        runs = {name: trajectory(run_framework(
                    name, split, 1, config, rng=np.random.default_rng(0)))
                for name in FRAMEWORK_NAMES if name != "llcg"}
        assert {name for name, run in runs.items()
                if run != reference} == set()

    def test_centralized_draws_the_configured_negatives(self, split):
        def run(sampler):
            return trajectory(run_framework(
                "centralized", split, 1,
                self.config(epochs=1, negative_sampler=sampler)))

        assert run("degree") != run("uniform")

    def test_centralized_observed_returns_a_report(self, split):
        result = run_framework("centralized", split, 1,
                               self.config(epochs=1, observe=True))
        assert result.report is not None
        assert (result.report.framework, result.report.epochs) == (
            "centralized", 1)

    def test_centralized_resumes_from_its_checkpoint(self, split, tmp_path):
        from repro.checkpoint import load_checkpoint, rebuild_trainer

        config = self.config(epochs=1, checkpoint_dir=str(tmp_path))
        result = run_framework("centralized", split, 1, config)
        meta, state = load_checkpoint(str(tmp_path))
        resumed = rebuild_trainer(meta, state, split).train()
        assert resumed.digest() == result.digest()


class TestLLCG:
    def test_correction_changes_weights(self, small_split, smoke_config):
        models = [build_model("sage", small_split.train_graph.feature_dim,
                              16, num_layers=2, seed=0) for _ in range(2)]
        before = models[0].state_dict()
        hook = GlobalCorrection(small_split, smoke_config,
                                rng=np.random.default_rng(1))
        hook(models)
        after = models[0].state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)

    def test_correction_rebroadcasts(self, small_split, smoke_config):
        models = [build_model("sage", small_split.train_graph.feature_dim,
                              16, num_layers=2, seed=s) for s in (0, 1)]
        hook = GlobalCorrection(small_split, smoke_config,
                                rng=np.random.default_rng(1))
        hook(models)
        a, b = models[0].state_dict(), models[1].state_dict()
        for name in a:
            assert np.allclose(a[name], b[name])


class TestSpLPGClass:
    def test_prepare_then_fit(self, featured_graph):
        cfg = TrainConfig(gnn_type="sage", hidden_dim=16, num_layers=2,
                          fanouts=(5, 3), batch_size=64, epochs=2,
                          hits_k=20, eval_every=2, seed=0)
        framework = SpLPG(num_parts=2, alpha=0.2, config=cfg, seed=0)
        prepared = framework.prepare(featured_graph)
        assert prepared.sparsify_seconds >= 0
        assert len(prepared.sparsified.graphs) == 2

    def test_fit_on_raw_graph(self, featured_graph):
        cfg = TrainConfig(gnn_type="sage", hidden_dim=16, num_layers=2,
                          fanouts=(5, 3), batch_size=64, epochs=2,
                          hits_k=20, eval_every=2, seed=0)
        framework = SpLPG(num_parts=2, alpha=0.2, config=cfg, seed=0)
        result = framework.fit(featured_graph)
        assert result is framework.result
        assert framework.communication_gb_per_epoch >= 0

    def test_fit_on_split(self, small_split):
        cfg = TrainConfig(gnn_type="sage", hidden_dim=16, num_layers=2,
                          fanouts=(5, 3), batch_size=64, epochs=2,
                          hits_k=20, eval_every=2, seed=0)
        framework = SpLPG(num_parts=2, alpha=0.2, config=cfg, seed=0)
        result = framework.fit(small_split)
        assert result.num_workers == 2

    def test_score_and_predict(self, small_split):
        cfg = TrainConfig(gnn_type="sage", hidden_dim=16, num_layers=2,
                          fanouts=(5, 3), batch_size=64, epochs=2,
                          hits_k=20, eval_every=2, seed=0)
        framework = SpLPG(num_parts=2, alpha=0.2, config=cfg, seed=0)
        framework.fit(small_split)
        pairs = small_split.test_pos[:5]
        scores = framework.score(pairs)
        preds = framework.predict(pairs)
        assert scores.shape == (5,)
        assert preds.dtype == bool

    def test_score_before_fit_rejected(self):
        framework = SpLPG(num_parts=2)
        with pytest.raises(RuntimeError):
            framework.score(np.array([[0, 1]]))

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            SpLPG(num_parts=0)
        with pytest.raises(ValueError):
            SpLPG(alpha=0.0)

    def test_communication_before_fit_rejected(self):
        framework = SpLPG(num_parts=2)
        with pytest.raises(RuntimeError):
            _ = framework.communication_gb_per_epoch


class TestLLCGCorrectionFires:
    def test_llcg_differs_from_psgd_pa_under_grad_sync(self, small_split,
                                                       smoke_config):
        """The global correction must actually run: LLCG and PSGD-PA
        share everything else, so their final weights must differ."""
        import numpy as np
        a = run_framework("psgd_pa", small_split, 2, smoke_config,
                          rng=np.random.default_rng(0))
        b = run_framework("llcg", small_split, 2, smoke_config,
                          rng=np.random.default_rng(0))
        assert a.history[-1].mean_loss == b.history[-1].mean_loss \
            or True  # same local trajectory is fine...
        # ...but the evaluated (corrected) model must differ:
        assert a.test.auc != b.test.auc
