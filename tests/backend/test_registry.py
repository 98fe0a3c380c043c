"""Settings resolution: ``resolve`` bundles the host backend and dtype."""

import numpy as np

from repro.backend import HOST, BackendSettings, resolve


class TestResolve:
    def test_none_is_exact_default(self):
        backend, xp, dtype, settings = resolve(None)
        assert settings == BackendSettings()
        assert settings.is_exact
        assert xp is np
        assert dtype is np.float64
        assert backend is HOST

    def test_float32_resolution(self):
        resolved = resolve(BackendSettings(precision="float32"))
        assert resolved.dtype is np.float32
        assert resolved.settings.precision == "float32"

    def test_exact_namespace_is_numpy_module(self):
        """The bit-identity argument rests on this: the exact path calls
        the very same functions the pre-seam code called."""
        assert resolve(None).xp is np
