"""Fixture-based tests for the static lint rules.

Each rule gets at least one true positive it catches and one
suppressed/clean case it passes, per the subsystem's acceptance
criteria.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import all_rules, get_rule, lint_source
from repro.lint.engine import LintEngine, _module_path
from repro.lint.reporters import render_json, render_text

SRC = Path(__file__).resolve().parents[1] / "src"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestEngine:
    def test_module_path_normalization(self):
        assert _module_path(
            Path("/x/y/src/repro/distributed/views.py")
        ) == "repro/distributed/views.py"
        assert _module_path(Path("standalone.py")) == "standalone.py"

    def test_syntax_error_is_reported_not_raised(self):
        findings = lint_source("def broken(:\n")
        assert rule_ids(findings) == ["E999"]

    def test_select_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            LintEngine().select(["R999"])

    def test_registry_catalogue(self):
        ids = {r.rule_id for r in all_rules()}
        assert {"R001", "R003", "R101", "R102", "R103"} <= ids
        assert get_rule("R001").name == "unseeded-rng"

    def test_suppression_in_string_literal_is_ignored(self):
        code = 's = "# lint: disable=R001"\nrng = np.random.default_rng()\n'
        assert rule_ids(lint_source(code)) == ["R001"]

    def test_bare_disable_suppresses_all_rules(self):
        code = "np.random.seed(0)  # lint: disable\n"
        assert lint_source(code) == []


class TestR001UnseededRng:
    def test_unseeded_default_rng_flagged(self):
        findings = lint_source("rng = np.random.default_rng()\n")
        assert rule_ids(findings) == ["R001"]

    def test_legacy_global_calls_flagged(self):
        code = "np.random.seed(3)\nx = np.random.rand(4)\n"
        assert rule_ids(lint_source(code)) == ["R001", "R001"]

    def test_seeded_and_threaded_rng_clean(self):
        code = ("rng = np.random.default_rng(17)\n"
                "gen = np.random.Generator(np.random.PCG64(5))\n"
                "y = rng.random(3)\n")
        assert lint_source(code) == []

    def test_suppressed(self):
        code = "rng = np.random.default_rng()  # lint: disable=R001\n"
        assert lint_source(code) == []

    def test_bare_imported_default_rng(self):
        code = ("from numpy.random import default_rng\n"
                "rng = default_rng()\n")
        assert rule_ids(lint_source(code)) == ["R001"]

    def test_unseeded_bit_generators_flagged(self):
        code = ("gen = np.random.Generator(np.random.PCG64())\n"
                "ss = np.random.SeedSequence()\n"
                "mt = np.random.MT19937()\n"
                "ph = numpy.random.Philox()\n"
                "sf = SFC64()\n")
        assert rule_ids(lint_source(code)) == ["R001"] * 5

    def test_literal_none_seed_flagged(self):
        code = ("a = np.random.default_rng(None)\n"
                "b = np.random.default_rng(seed=None)\n"
                "c = np.random.PCG64(None)\n"
                "d = np.random.SeedSequence(entropy=None)\n")
        assert rule_ids(lint_source(code)) == ["R001"] * 4

    def test_seeded_bit_generators_clean(self):
        code = ("gen = np.random.Generator(np.random.PCG64(5))\n"
                "ss = np.random.SeedSequence(17)\n"
                "kid = np.random.default_rng(ss.spawn(1)[0])\n"
                "ph = np.random.Philox(key=3)\n"
                "sq = np.random.SeedSequence(entropy=seed)\n"
                "rng = np.random.default_rng(seed)\n")
        assert lint_source(code) == []


class TestR003InplaceTensorMutation:
    def test_subscript_assignment_flagged(self):
        assert rule_ids(lint_source("t.data[0] = 5.0\n")) == ["R003"]

    def test_augmented_assignment_flagged(self):
        code = "t.data += delta\nt.data[ix] *= 2\n"
        assert rule_ids(lint_source(code)) == ["R003", "R003"]

    def test_mutating_numpy_ops_flagged(self):
        code = ("np.add.at(t.data, idx, vals)\n"
                "np.copyto(t.data, other)\n"
                "t.data.fill(0.0)\n")
        assert rule_ids(lint_source(code)) == ["R003", "R003", "R003"]

    def test_reads_and_rebinding_clean(self):
        code = ("x = t.data[idx]\n"           # read
                "t.data = fresh_array\n"      # not flagged: see the view tests
                "y = t.data.sum()\n")
        assert lint_source(code) == []

    def test_suppressed(self):
        code = "p.data -= lr * g  # lint: disable=R003\n"
        assert lint_source(code) == []


class TestHygieneRules:
    def test_r101_mutable_default_flagged(self):
        code = ("def f(x, acc=[], table={}):\n"
                "    \"\"\"doc\"\"\"\n    return acc\n")
        assert rule_ids(lint_source(code)) == ["R101", "R101"]

    def test_r101_none_default_clean(self):
        code = ("def f(x, acc=None):\n"
                "    \"\"\"doc\"\"\"\n    acc = acc or []\n    return acc\n")
        assert lint_source(code) == []

    def test_r102_wall_clock_flagged_perf_counter_allowed(self):
        code = "t0 = time.time()\nt1 = time.perf_counter()\n"
        assert rule_ids(lint_source(code)) == ["R102"]

    def test_r103_stdlib_random_flagged(self):
        code = "import random\nfrom random import choice\n"
        assert rule_ids(lint_source(code)) == ["R103", "R103"]


class TestDocsRules:
    R104 = [get_rule("R104")]

    def test_r104_missing_docstrings_flagged(self):
        code = ("def api():\n    pass\n\n"
                "class Thing:\n"
                "    \"\"\"doc\"\"\"\n"
                "    def method(self):\n        pass\n")
        findings = lint_source(code, rules=self.R104)
        assert rule_ids(findings) == ["R104", "R104"]
        assert "'api'" in findings[0].message
        assert "'method'" in findings[1].message

    def test_r104_documented_clean(self):
        code = ("def api():\n    \"\"\"doc\"\"\"\n\n"
                "class Thing:\n"
                "    \"\"\"doc\"\"\"\n"
                "    def method(self):\n"
                "        \"\"\"doc\"\"\"\n")
        assert lint_source(code, rules=self.R104) == []

    def test_r104_private_and_nested_exempt(self):
        code = ("def _helper():\n    pass\n\n"
                "class _Private:\n"
                "    def method(self):\n        pass\n\n"
                "def api():\n"
                "    \"\"\"doc\"\"\"\n"
                "    def inner():\n        pass\n")
        assert lint_source(code, rules=self.R104) == []

    def test_r104_undocumented_class_flagged_once(self):
        code = "class Bare:\n    pass\n"
        findings = lint_source(code, rules=self.R104)
        assert rule_ids(findings) == ["R104"]
        assert "class 'Bare'" in findings[0].message

    def test_r104_suppressed(self):
        code = "def api():  # lint: disable=R104\n    pass\n"
        assert lint_source(code, rules=self.R104) == []


class TestReporters:
    def test_text_and_json_round_trip(self):
        findings = lint_source("rng = np.random.default_rng()\n",
                               modpath="repro/x.py")
        text = render_text(findings)
        assert "repro/x.py:1:" in text and "R001" in text
        payload = json.loads(render_json(findings))
        assert payload["total"] == 1
        assert payload["counts"] == {"R001": 1}
        assert payload["findings"][0]["rule"] == "R001"

    def test_clean_report(self):
        assert "clean" in render_text([])


class TestCli:
    def test_cli_clean_tree_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(SRC), "--format",
             "json"],
            capture_output=True, text=True,
            env=_env())
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(proc.stdout)["total"] == 0

    def test_cli_findings_exit_one(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("rng = np.random.default_rng()\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(bad)],
            capture_output=True, text=True,
            env=_env())
        assert proc.returncode == 1
        assert "R001" in proc.stdout

    def test_cli_select_and_list_rules(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("rng = np.random.default_rng()\nimport random\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(bad),
             "--select", "R103"],
            capture_output=True, text=True,
            env=_env())
        assert proc.returncode == 1
        assert "R103" in proc.stdout and "R001" not in proc.stdout
        listing = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--list-rules"],
            capture_output=True, text=True,
            env=_env())
        assert listing.returncode == 0
        assert "R003" in listing.stdout

    def test_cli_missing_path_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "definitely/not/here"],
            capture_output=True, text=True,
            env=_env())
        assert proc.returncode == 2


class TestR111UnmanagedGraphMutation:
    """R111: graph state mutates only through the stream delta path."""

    def test_subscript_assignment_to_features_flagged(self):
        code = "g.features[3] = 1.0\n"
        assert rule_ids(lint_source(code)) == ["R111"]

    def test_augassign_and_mutating_calls_flagged(self):
        code = ("g.features[idx] += drift\n"
                "np.add.at(g.indices, idx, 1)\n"
                "g.indptr.sort()\n")
        assert rule_ids(lint_source(code)) == ["R111", "R111", "R111"]

    def test_weights_and_feature_mask_covered(self):
        code = ("g.weights[e] = 0.0\n"
                "part._feature_mask[n] = True\n")
        assert rule_ids(lint_source(code)) == ["R111", "R111"]

    def test_rebinding_is_clean(self):
        code = ("g.features = np.concatenate([g.features, rows])\n"
                "g.indices = np.sort(g.indices)\n")
        assert lint_source(code) == []

    def test_managed_mutation_modules_exempt(self):
        code = "self.features[event.u] += np.float32(event.scale)\n"
        assert lint_source(code,
                           modpath="repro/stream/mutable.py") == []
        # ShardedState re-assembles its layout; it no longer patches
        # graph arrays, so it is held to the rule like everyone else.
        assert rule_ids(lint_source(
            code, modpath="repro/stream/shards.py")) == ["R111"]
        assert rule_ids(lint_source(
            code, modpath="repro/graph/rogue.py")) == ["R111"]

    def test_unrelated_attrs_and_local_arrays_clean(self):
        code = ("table[lo:hi] = patch[lo:hi]\n"
                "self.counts[k] += 1\n"
                "g.metadata[3] = 'x'\n")
        assert lint_source(code) == []

    def test_registered_in_catalogue(self):
        assert get_rule("R111").name == "unmanaged-graph-mutation"
