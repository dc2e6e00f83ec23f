"""Tests for the unified ``repro.api`` front door.

Covers the one-liner :func:`repro.run`, the chainable
:class:`repro.api.Session`, the :func:`repro.api.resolve_config`
reconciliation point, the low-level ``repro.core`` entry points that
replaced the top-level shims, and the R105 facade lint rule.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.api import Session, resolve_config
from repro.distributed import TrainConfig, TrainResult
from repro.distributed.inference import InferenceResult
from repro.experiments.config import ExperimentScale, MeanResult
from repro.graph import split_edges, synthetic_lp_graph
from repro.lint import get_rule, lint_source


@pytest.fixture(scope="module")
def graph():
    rng = np.random.default_rng(31)
    return synthetic_lp_graph(num_nodes=110, target_edges=380,
                              feature_dim=12, num_communities=3, rng=rng)


@pytest.fixture(scope="module")
def split(graph):
    return split_edges(graph, rng=np.random.default_rng(31))


class TestRun:
    def test_run_with_split(self, split):
        result = repro.run("psgd_pa", split=split, workers=2,
                           scale="smoke", hidden_dim=12, epochs=1)
        assert isinstance(result, TrainResult)
        assert result.num_workers == 2
        assert "framework" in result.summary()

    def test_run_with_graph(self, graph):
        result = repro.run("psgd_pa", graph=graph, workers=2,
                           scale="smoke", hidden_dim=12, epochs=1)
        assert isinstance(result, TrainResult)

    def test_run_matches_legacy_entry_point(self, split):
        """The facade is a veneer: same seed, same result."""
        from repro.core.frameworks import run_framework

        new = repro.run("psgd_pa", split=split, workers=2, scale="smoke",
                        hidden_dim=12, epochs=1)
        config = resolve_config("smoke", backend="serial", num_workers=2,
                                hidden_dim=12, epochs=1)
        old = run_framework("psgd_pa", split, 2, config,
                            rng=np.random.default_rng(config.seed))
        assert new.test.hits == old.test.hits
        assert new.comm_total.to_dict() == old.comm_total.to_dict()

    def test_run_centralized(self, split):
        result = repro.run("centralized", split=split, scale="smoke",
                           hidden_dim=12, epochs=1)
        assert result.framework == "centralized"

    def test_run_requires_one_source(self, split, graph):
        with pytest.raises(ValueError, match="exactly one"):
            repro.run("psgd_pa", workers=2)
        with pytest.raises(ValueError, match="exactly one"):
            repro.run("psgd_pa", split=split, graph=graph)

    def test_run_rejects_bad_workers(self, split):
        with pytest.raises(ValueError, match="workers"):
            repro.run("psgd_pa", split=split, workers=0)


class TestSession:
    def test_chain_and_train(self, graph, split):
        session = (Session(graph, split)
                   .partition(2)
                   .framework("psgd_pa")
                   .backend("thread")
                   .scale("smoke")
                   .configure(epochs=1, hidden_dim=12))
        result = session.train()
        assert isinstance(result, TrainResult)
        assert session.result is result

    def test_session_accepts_bare_split(self, split):
        result = (Session(split).partition(2).framework("psgd_pa")
                  .scale("smoke").configure(epochs=1, hidden_dim=12)
                  .train())
        assert isinstance(result, TrainResult)

    def test_score_after_train(self, graph, split):
        session = (Session(graph, split).partition(2).framework("psgd_pa")
                   .scale("smoke").configure(epochs=1, hidden_dim=12))
        session.train()
        pairs = np.array([[0, 1], [2, 3], [4, 5]])
        inf = session.score(pairs)
        assert isinstance(inf, InferenceResult)
        assert inf.scores.shape == (3,)

    def test_score_before_train_raises(self, split):
        with pytest.raises(RuntimeError, match="train"):
            Session(split).score(np.array([[0, 1]]))

    def test_unknown_framework_and_backend_rejected(self, split):
        with pytest.raises(ValueError, match="unknown framework"):
            Session(split).framework("dreamer")
        with pytest.raises(ValueError, match="unknown backend"):
            Session(split).backend("tpu")

    def test_config_reflects_chain(self, split):
        config = (Session(split).partition(4).backend("thread")
                  .configure(epochs=7).config())
        assert config.num_workers == 4
        assert config.backend == "thread"
        assert config.epochs == 7


class TestResolveConfig:
    def test_none_scale_gives_paper_defaults(self):
        config = resolve_config()
        assert config == TrainConfig()

    def test_preset_names(self):
        assert resolve_config("paper").hidden_dim == 256
        assert resolve_config("quick").hidden_dim == 48
        assert resolve_config("smoke").epochs == 3

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown scale preset"):
            resolve_config("galactic")

    def test_overrides_beat_scale(self):
        config = resolve_config("quick", epochs=99, backend="thread",
                                num_workers=4)
        assert config.epochs == 99
        assert config.backend == "thread"
        assert config.num_workers == 4
        assert config.hidden_dim == 48  # still from the preset

    def test_experiment_scale_delegates_here(self):
        """ExperimentScale.train_config and resolve_config agree."""
        scale = ExperimentScale.quick()
        assert scale.train_config(epochs=5) == resolve_config(scale,
                                                              epochs=5)


class TestDeprecationShims:
    """The top-level ``repro.run_framework`` / ``repro.build_trainer``
    shims are gone; the low-level entry points live in ``repro.core``."""

    def test_internal_imports_stay_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.core import build_trainer, run_framework  # noqa: F401

    def test_unknown_attribute_still_raises(self):
        for name in ("does_not_exist", "run_framework", "build_trainer"):
            with pytest.raises(AttributeError):
                getattr(repro, name)

    def test_shim_result_parity(self, split):
        """Training through ``repro.core.run_framework`` gives the same
        result as ``repro.run``."""
        from repro.core import run_framework

        config = resolve_config("smoke", backend="serial", num_workers=2,
                                hidden_dim=12, epochs=1)
        old = run_framework("psgd_pa", split, 2, config,
                            rng=np.random.default_rng(config.seed))
        new = repro.run("psgd_pa", split=split, workers=2, scale="smoke",
                        hidden_dim=12, epochs=1)
        assert new.test.hits == old.test.hits
        assert new.comm_total.to_dict() == old.comm_total.to_dict()


class TestSummaries:
    def test_mean_result_summary(self, split):
        from repro.experiments.config import run_framework_mean

        config = resolve_config("smoke", hidden_dim=12, epochs=1)
        mean = run_framework_mean("psgd_pa", split, 2, config,
                                  seeds=(0, 1))
        assert isinstance(mean, MeanResult)
        text = mean.summary()
        assert "seeds:     2" in text
        assert "Hits=" in text and "GB/epoch" in text


class TestFacadeLintRule:
    R105 = [get_rule("R105")]

    def test_direct_construction_flagged(self):
        code = "t = DistributedTrainer('x', split, pg, config)\n"
        findings = lint_source(code, rules=self.R105)
        assert [f.rule_id for f in findings] == ["R105"]

    def test_qualified_construction_flagged(self):
        code = "t = repro.distributed.DistributedTrainer('x', s, p, c)\n"
        findings = lint_source(code, rules=self.R105)
        assert [f.rule_id for f in findings] == ["R105"]

    def test_blessed_assemblers_exempt(self):
        code = "t = DistributedTrainer('x', split, pg, config)\n"
        for modpath in ("repro/core/frameworks.py",
                        "repro/distributed/trainer.py"):
            assert lint_source(code, modpath=modpath,
                               rules=self.R105) == []

    def test_suppression_comment(self):
        code = ("t = DistributedTrainer('x', s, p, c)"
                "  # lint: disable=R105\n")
        assert lint_source(code, rules=self.R105) == []
