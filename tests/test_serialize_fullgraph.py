"""Checkpointing: the npz state-dict codec and model loading."""

import tracemalloc

import numpy as np
import pytest

from repro.nn import (
    build_model,
    load_model,
    load_state_dict,
    save_model,
    save_state_dict,
)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        model = build_model("sage", 8, 4, num_layers=2, seed=1)
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        other = build_model("sage", 8, 4, num_layers=2, seed=99)
        load_model(other, path)
        for (_, a), (_, b) in zip(model.named_parameters(),
                                  other.named_parameters()):
            assert np.allclose(a.data, b.data)

    def test_state_dict_roundtrip(self, tmp_path):
        state = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
        path = str(tmp_path / "state.npz")
        save_state_dict(state, path)
        loaded = load_state_dict(path)
        assert set(loaded) == {"w", "b"}
        assert np.allclose(loaded["w"], state["w"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_state_dict(str(tmp_path / "nope.npz"))

    def test_non_checkpoint_rejected(self, tmp_path):
        path = str(tmp_path / "random.npz")
        np.savez(path, junk=np.zeros(2))
        with pytest.raises(ValueError):
            load_state_dict(path)

    def test_architecture_mismatch_rejected(self, tmp_path):
        model = build_model("sage", 8, 4, num_layers=2, seed=1)
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        wrong = build_model("sage", 8, 6, num_layers=2, seed=1)
        with pytest.raises((KeyError, ValueError)):
            load_model(wrong, path)


class TestLoadCopies:
    def test_load_holds_each_array_once(self, tmp_path):
        """``NpzFile`` decodes a fresh array on every access, so loading
        keeps no second copy: the peak stays well under two arrays."""
        table = np.random.default_rng(0).standard_normal((4000, 64))
        path = str(tmp_path / "table.npz")
        save_state_dict({"table": table}, path)
        tracemalloc.start()
        try:
            loaded = load_state_dict(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded["table"], table)
        assert loaded["table"].flags.writeable
        assert peak < 1.75 * table.nbytes

    def test_loaded_model_does_not_alias_the_state(self):
        model = build_model("sage", 8, 4, num_layers=2, seed=1)
        state = build_model("sage", 8, 4, num_layers=2, seed=2).state_dict()
        model.load_state_dict(state)
        for name, param in model.named_parameters():
            assert not np.shares_memory(param.data, state[name])
            np.testing.assert_array_equal(param.data, state[name])
