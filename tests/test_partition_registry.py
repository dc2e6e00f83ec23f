"""Partitioner registry, PartitionSpec plumbing, vertex-cut ownership."""

import json

import numpy as np
import pytest

from repro import Session, TrainConfig
from repro.core.frameworks import run_framework
from repro.graph import Graph, synthetic_lp_graph
from repro.lint import get_rule, lint_source
from repro.partition import (
    PartitionedGraph,
    Partitioner,
    PartitionSpec,
    get_partitioner,
    register,
    registered_partitioners,
    unregister,
    vertex_cut_partition,
)


@pytest.fixture(scope="module")
def community_g():
    rng = np.random.default_rng(7)
    return synthetic_lp_graph(num_nodes=300, target_edges=1200,
                              feature_dim=8, num_communities=8,
                              intra_fraction=0.9, rng=rng)


class TestRegistry:
    def test_builtins_registered(self):
        names = registered_partitioners()
        assert {"metis", "random_tma", "super_tma", "ldg",
                "vertex_cut"} <= set(names)

    def test_capabilities(self):
        assert get_partitioner("metis").supports_mirror
        assert not get_partitioner("metis").edge_partitioned
        vc = get_partitioner("vertex_cut")
        assert vc.edge_partitioned
        assert not vc.supports_mirror

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="metis"):
            get_partitioner("spectral")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(Partitioner("metis", lambda g, k, rng=None: None))

    def test_register_rejects_non_partitioner(self):
        with pytest.raises(TypeError):
            register(lambda g, k, rng=None: None)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register(Partitioner("", lambda g, k, rng=None: None))

    def test_unregister_is_idempotent(self):
        unregister("never_registered")  # no-op, no raise

    def test_decorator_form_and_end_to_end(self, community_g):
        """A plugin strategy registered through the decorator is fully
        usable via PartitionSpec — no other call site needs editing."""
        try:
            @register(name="halves", description="first half to part 0")
            def halves_partition(graph, num_parts, rng=None):
                a = np.zeros(graph.num_nodes, dtype=np.int64)
                a[graph.num_nodes // 2:] = num_parts - 1
                return a

            assert "halves" in registered_partitioners()
            pg = PartitionSpec(strategy="halves").build(
                community_g, 2, rng=np.random.default_rng(0))
            assert pg.num_parts == 2
            assert np.array_equal(
                np.sort(np.concatenate([pg.owned_nodes(0),
                                        pg.owned_nodes(1)])),
                np.arange(community_g.num_nodes))
        finally:
            unregister("halves")
        with pytest.raises(ValueError):
            get_partitioner("halves")


class TestPartitionSpec:
    def test_canonicalize_string(self):
        spec = PartitionSpec.canonicalize("random_tma")
        assert spec == PartitionSpec(strategy="random_tma")

    def test_canonicalize_passthrough(self):
        spec = PartitionSpec(strategy="ldg")
        assert PartitionSpec.canonicalize(spec) is spec

    def test_canonicalize_dict(self):
        spec = PartitionSpec.canonicalize(
            {"strategy": "metis", "mirror": True})
        assert spec.strategy == "metis" and spec.mirror

    def test_canonicalize_rejects_other_types(self):
        with pytest.raises(ValueError, match="PartitionSpec"):
            PartitionSpec.canonicalize(42)

    def test_unknown_strategy_rejected_eagerly(self):
        with pytest.raises(ValueError, match="registered"):
            PartitionSpec(strategy="spectral")

    def test_mirror_on_edge_partitioned_rejected(self):
        with pytest.raises(ValueError, match="inherently mirrored"):
            PartitionSpec(strategy="vertex_cut", mirror=True)

    def test_knobs_must_be_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            PartitionSpec(strategy="metis", knobs=[1, 2])

    def test_json_round_trip(self):
        spec = PartitionSpec(strategy="vertex_cut",
                             knobs={"balance_factor": 1.3})
        rebuilt = PartitionSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            PartitionSpec.from_dict({"strategy": "metis", "parts": 4})

    def test_edge_partitioned_property(self):
        assert PartitionSpec(strategy="vertex_cut").edge_partitioned
        assert not PartitionSpec(strategy="metis").edge_partitioned

    def test_knobs_reach_the_partitioner(self, community_g):
        """balance_factor flows through build(); a looser cap may change
        the layout but must never break the total edge cover."""
        pg = PartitionSpec(strategy="vertex_cut",
                           knobs={"balance_factor": 2.0}).build(
            community_g, 4, rng=np.random.default_rng(0))
        total = sum(pg.owned_edges(p).shape[0] for p in range(4))
        assert total == community_g.num_edges


class TestTrainConfigPartition:
    def test_string_is_canonicalized(self):
        cfg = TrainConfig(hidden_dim=8, num_layers=2, fanouts=(3, 3),
                          partition="vertex_cut")
        assert isinstance(cfg.partition, PartitionSpec)
        assert cfg.partition.strategy == "vertex_cut"

    def test_dict_is_canonicalized(self):
        cfg = TrainConfig(hidden_dim=8, num_layers=2, fanouts=(3, 3),
                          partition={"strategy": "metis", "mirror": True})
        assert cfg.partition == PartitionSpec(strategy="metis",
                                              mirror=True)

    def test_default_is_none(self):
        cfg = TrainConfig(hidden_dim=8, num_layers=2, fanouts=(3, 3))
        assert cfg.partition is None

    def test_invalid_strategy_fails_at_config_time(self):
        with pytest.raises(ValueError):
            TrainConfig(hidden_dim=8, num_layers=2, fanouts=(3, 3),
                        partition="spectral")


class TestSessionPartition:
    def test_chainable(self, small_split):
        s = Session(small_split)
        assert s.partition(2, "vertex_cut") is s
        assert s.config().partition.strategy == "vertex_cut"

    def test_workers_only_form_unchanged(self, small_split):
        s = Session(small_split).partition(3)
        assert s.config().partition is None
        assert s._workers == 3

    def test_string_with_mirror_and_knobs(self, small_split):
        s = Session(small_split).partition(
            2, "vertex_cut", balance_factor=1.5)
        spec = s.config().partition
        assert spec.knobs == {"balance_factor": 1.5}

    def test_spec_instance_rejects_extra_knobs(self, small_split):
        spec = PartitionSpec(strategy="metis")
        with pytest.raises(ValueError, match="inside"):
            Session(small_split).partition(2, spec, mirror=True)

    def test_dict_rejects_extra_knobs(self, small_split):
        with pytest.raises(ValueError, match="inside"):
            Session(small_split).partition(
                2, {"strategy": "metis"}, mirror=True)

    def test_mirror_without_strategy_rejected(self, small_split):
        with pytest.raises(ValueError, match="need a strategy"):
            Session(small_split).partition(2, mirror=True)

    def test_invalid_workers(self, small_split):
        with pytest.raises(ValueError):
            Session(small_split).partition(0)

    def test_trains_under_vertex_cut(self, small_split):
        result = (Session(small_split)
                  .partition(2, "vertex_cut")
                  .framework("vertex_cut")
                  .configure(hidden_dim=8, num_layers=2, fanouts=(3, 3),
                             batch_size=32, epochs=1, eval_every=1,
                             seed=0)
                  .train())
        assert np.isfinite(result.test.auc)
        assert result.sync_stats["replica_sync_bytes"] > 0


class TestVertexCutOwnership:
    @pytest.fixture(scope="class")
    def pg(self, community_g):
        assignment = vertex_cut_partition(
            community_g, 4, rng=np.random.default_rng(0))
        return PartitionedGraph.build_edge_partitioned(
            community_g, assignment, 4)

    def test_edges_disjointly_cover_graph(self, pg, community_g):
        chunks = [pg.owned_edges(p) for p in range(4)]
        total = np.concatenate(chunks)
        assert total.shape[0] == community_g.num_edges
        full = community_g.edge_list()
        assert (set(map(tuple, np.sort(total, axis=1).tolist()))
                == set(map(tuple, np.sort(full, axis=1).tolist())))

    def test_master_is_a_replica(self, pg, community_g):
        for node in range(community_g.num_nodes):
            owner = pg.owner_of(np.array([node]))[0]
            assert owner in pg.replicas_of(node)

    def test_mirrors_are_stored_but_not_owned(self, pg):
        for part in range(4):
            mirrors = pg.mirror_nodes(part)
            stored = set(pg.stored_nodes(part).tolist())
            assert set(mirrors.tolist()) <= stored
            assert not np.any(pg.node_owner[mirrors] == part)

    def test_replication_factor_above_one(self, pg):
        assert pg.replication_factor() > 1.0

    def test_endpoints_stored_where_edge_lives(self, pg, community_g):
        """Vertex cut's defining invariant: both endpoints of every
        edge are replicated on the partition that owns the edge."""
        edges = community_g.edge_list()
        for part in range(4):
            local = edges[pg.edge_assignment == part]
            nodes = np.unique(local.ravel())
            assert pg.has_feature_locally(part, nodes).all()

    def test_isolated_node_fallback(self):
        g = Graph.from_edges(5, [[0, 1], [1, 2], [2, 3]])
        a = vertex_cut_partition(g, 2, rng=np.random.default_rng(0))
        pg = PartitionedGraph.build_edge_partitioned(g, a, 2)
        # Node 4 touches no edge: deterministically stored only at its
        # master, node_id % num_parts.
        assert pg.owner_of(np.array([4]))[0] == 4 % 2
        assert pg.replicas_of(4).tolist() == [4 % 2]

    def test_more_parts_than_edges_rejected(self):
        g = Graph.from_edges(3, [[0, 1], [1, 2]])
        with pytest.raises(ValueError):
            vertex_cut_partition(g, 3, rng=np.random.default_rng(0))


class TestVertexCutTraining:
    @staticmethod
    def _config(backend):
        return TrainConfig(hidden_dim=8, num_layers=2, fanouts=(3, 3),
                           batch_size=32, epochs=2, eval_every=2, seed=0,
                           backend=backend, num_workers=2, observe=False)

    def test_zero_feature_fetch_nonzero_replica_sync(self, small_split):
        outcome = run_framework("vertex_cut", small_split, 2,
                                self._config("serial"),
                                rng=np.random.default_rng(0))
        total = outcome.comm_total
        assert total.feature_bytes == 0
        assert total.structure_bytes == 0
        assert outcome.sync_stats["replica_sync_bytes"] > 0
        assert total.sync_bytes >= outcome.sync_stats["replica_sync_bytes"]

    def test_bit_identical_across_backends(self, small_split):
        runs = {
            backend: run_framework("vertex_cut", small_split, 2,
                                   self._config(backend),
                                   rng=np.random.default_rng(0))
            for backend in ("serial", "thread", "process")
        }
        base = runs["serial"]
        for backend in ("thread", "process"):
            other = runs[backend]
            assert other.test.auc == base.test.auc
            assert other.comm_total.sync_bytes == base.comm_total.sync_bytes
            assert (other.sync_stats["replica_sync_bytes"]
                    == base.sync_stats["replica_sync_bytes"])


class TestR109:
    RULES = None

    @classmethod
    def setup_class(cls):
        cls.RULES = [get_rule("R109")]

    def _lint(self, code, modpath="repro/core/other.py"):
        return lint_source(code, modpath=modpath, rules=self.RULES)

    def test_flags_strategy_string_dispatch(self):
        code = "if strategy == 'vertex_cut':\n    do_mirror()\n"
        assert [f.rule_id for f in self._lint(code)] == ["R109"]

    def test_flags_membership_dispatch(self):
        code = "ok = name in ('metis', 'ldg')\n"
        assert [f.rule_id for f in self._lint(code)] == ["R109"]

    def test_partition_package_exempt(self):
        code = "if strategy == 'metis':\n    pass\n"
        assert self._lint(code, modpath="repro/partition/__init__.py") == []

    def test_capability_dispatch_clean(self):
        code = ("p = get_partitioner(name)\n"
                "if p.edge_partitioned:\n    build_mirrors()\n")
        assert self._lint(code) == []

    def test_non_strategy_string_clean(self):
        code = "if mode == 'barrier':\n    pass\n"
        assert self._lint(code) == []

    def test_disable_comment(self):
        code = "if s == 'metis':  # lint: disable=R109\n    pass\n"
        assert lint_source(code, rules=self.RULES) == []

    def test_src_tree_is_clean(self):
        """The live source tree must not bypass its own registry."""
        from pathlib import Path

        from repro.lint import lint_paths

        src = Path(__file__).resolve().parents[1] / "src"
        findings = [f for f in lint_paths([src], select=["R109"])]
        assert findings == []
