"""BackendSettings: precision validation, exactness flag, hashing."""

import dataclasses

import pytest

from repro.backend import PRECISIONS, BackendSettings


class TestDefaults:
    def test_default_is_exact(self):
        settings = BackendSettings()
        assert settings.precision == "float64"
        assert settings.is_exact

    def test_label(self):
        assert BackendSettings().label == "numpy/float64"
        assert (
            BackendSettings(precision="float32").label
            == "numpy/float32"
        )

    def test_fast_paths_are_not_exact(self):
        assert not BackendSettings(precision="float32").is_exact

    def test_precisions_constant(self):
        assert PRECISIONS == ("float64", "float32")


class TestValidation:
    def test_unknown_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            BackendSettings(precision="float16")

    def test_bad_name_rejected(self):
        # Precision is the only field: a backend name is no longer a choice.
        assert [f.name for f in dataclasses.fields(BackendSettings)] == ["precision"]
        with pytest.raises(TypeError):
            BackendSettings(name="numpy")


class TestHashing:
    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            BackendSettings().precision = "float32"

    def test_hashable_and_equal(self):
        assert BackendSettings() == BackendSettings()
        assert len({BackendSettings(), BackendSettings()}) == 1
        assert BackendSettings() != BackendSettings(precision="float32")
